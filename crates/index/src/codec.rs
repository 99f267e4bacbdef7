//! The block codec of the served index: the paper's bit-packed `(d-gap,
//! tf)` pairs (§3.1).
//!
//! Block *structure* — metadata word, skip value, per-block maximum widths
//! — lives in [`crate::block`]. This module owns the payload bytes between
//! one block's offset and the next: how a block's pairs are packed
//! ([`encode_block`]), decoded one window load per pair like the paper's
//! DCU (§4.2, [`try_decode_pairs_into`]), and what they cost the
//! dynamic-programming partitioner ([`block_cost_bits`], the paper's
//! Eq. 3). The pruned pair walk decodes a block into columns instead
//! ([`BlockColumns`]): its docIDs alone ([`try_decode_docs_into`]), a tf
//! read only for a posting it scores ([`tf_at`]), or docIDs and tfs
//! together ([`try_decode_columns_into`]).
//!
//! The decoders keep two contracts every hot path relies on:
//!
//! * **Zero-alloc decode-into**: they write into a caller-owned
//!   `Vec<Posting>` or [`BlockColumns`] and allocate nothing else.
//! * **Never panic on corrupt bytes**: lengths are checked up front and
//!   failures return typed [`IndexError`]s; in-bounds garbage degrades to
//!   garbage postings (wrapping d-gap sums), which the deserializer's
//!   docID-order check and the stored-bounds oracle then reject.
//!
//! The classic codecs the paper compares against (Table 2) live in the
//! `iiu-codecs` crate and never serve a query.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use crate::bitpack::{self, BitWriter};
use crate::block::BLOCK_OVERHEAD_BITS;
use crate::error::IndexError;
use crate::posting::{DocId, Posting};

/// The codec id byte of a v5 header. Bit-packed pairs are the one codec,
/// id 0; the retired ids 1 and 2 (and every other byte) load as
/// [`IndexError::UnknownCodec`].
///
/// [`ALL`](Self::ALL) and [`name`](Self::name) stay because the repository
/// benchmark's per-codec decode layer iterates them, through
/// [`crate::EncodedList::encode_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum CodecId {
    /// Interleaved bit-packed `(d-gap, tf)` pairs — the paper's format.
    #[default]
    BitPack = 0,
}

impl CodecId {
    /// Every codec, in id order.
    pub const ALL: [CodecId; 1] = [CodecId::BitPack];

    /// Decodes an on-disk codec id byte.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownCodec`] for every id but 0.
    pub fn from_u8(id: u8) -> Result<Self, IndexError> {
        match id {
            0 => Ok(CodecId::BitPack),
            other => Err(IndexError::UnknownCodec { id: other }),
        }
    }

    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::BitPack => "bitpack",
        }
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Appends one block's payload to `payload`: each `(gaps[i], tfs[i])` pair
/// at `gap_bits + tf_bits` bits, LSB-first, padded to a whole byte at the
/// end. `gaps[0]` is 0 (the first docID travels in the skip value);
/// `gap_bits`/`tf_bits` are the block-wide maximum widths, below 32.
pub fn encode_block(
    gaps: &[u32],
    tfs: &[u32],
    gap_bits: u8,
    tf_bits: u8,
    payload: &mut Vec<u8>,
) {
    let mut w = BitWriter::new();
    for (&g, &t) in gaps.iter().zip(tfs) {
        w.write(g, gap_bits);
        w.write(t, tf_bits);
    }
    payload.extend_from_slice(&w.finish());
}

/// The decoder of the paper's interleaved pairs into postings, behind
/// every block decode but the pruned pair walk's (which decodes into
/// [`BlockColumns`]): `count` `(d-gap, tf)` pairs from `bytes`, which
/// start at the block's first pair and may run on past its last (the
/// masks keep those bytes out of every field). Like the paper's DCU
/// (§4.2) it extracts a pair per step — one window load, a shift and two
/// masks — and adds the gap to a running docID, writing through one
/// exact-size `extend`. The first posting is `skip`, whatever its stored
/// gap says.
///
/// # Errors
///
/// [`IndexError::CorruptIndex`] for widths above 31 or `bytes` too short
/// for `count` pairs, before anything is written. In-bounds garbage
/// decodes to garbage through wrapping sums, never a panic.
pub fn try_decode_pairs_into(
    bytes: &[u8],
    count: usize,
    gap_bits: u8,
    tf_bits: u8,
    skip: DocId,
    out: &mut Vec<Posting>,
) -> Result<(), IndexError> {
    let pair_bits = check_block(bytes, count, gap_bits, tf_bits)?;
    let (gap_mask, tf_mask) = (bitpack::mask64(gap_bits), bitpack::mask64(tf_bits));
    let mut bit = 0usize;
    let mut doc = first_base(bytes, gap_bits, skip);
    // A pair wider than one window takes a second load for its tf.
    let wide = pair_bits > bitpack::WINDOW_BITS;
    // `move`: owned by the closure, `bit` and `doc` stay in registers.
    out.extend((0..count).map(move |_| {
        let w = bitpack::window(bytes, bit);
        let tf = if wide {
            bitpack::window(bytes, bit + usize::from(gap_bits))
        } else {
            w >> gap_bits
        };
        bit += pair_bits as usize;
        doc = doc.wrapping_add((w & gap_mask) as u32);
        Posting::new(doc, (tf & tf_mask) as u32)
    }));
    Ok(())
}

/// One block's docIDs and, when it was decoded with them, its tfs: the
/// columns a merge walks and scores from. Both columns live in one buffer
/// that only grows, so a decode into a reused `BlockColumns` writes the
/// block's postings and nothing else — no clear, no fill — and a fresh one
/// allocates once for the blocks a short list holds.
#[derive(Debug, Clone, Default)]
pub struct BlockColumns {
    /// The docID column in `..cap`, the tf column in `cap..`.
    buf: Vec<u32>,
    cap: usize,
    len: usize,
    tfs_len: usize,
}

impl BlockColumns {
    /// Postings a column holds after its first growth.
    const MIN_CAP: usize = 64;

    /// The decoded docIDs.
    pub fn docs(&self) -> &[DocId] {
        self.buf.get(..self.len).unwrap_or(&[])
    }

    /// The decoded tfs, index for index with [`docs`](Self::docs) after
    /// [`try_decode_columns_into`]; empty after [`try_decode_docs_into`].
    pub fn tfs(&self) -> &[u32] {
        self.buf.get(self.cap..self.cap + self.tfs_len).unwrap_or(&[])
    }

    /// Keeps the first `len` postings.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
        self.tfs_len = self.tfs_len.min(len);
    }

    /// Room for `count` postings in the columns named, returned as the
    /// slices a kernel writes.
    fn fit(&mut self, count: usize, with_tfs: bool) -> (&mut [DocId], &mut [u32]) {
        if self.cap < count {
            self.cap = count.max(2 * self.cap).max(Self::MIN_CAP);
            self.buf.resize(2 * self.cap, 0);
        }
        let tfs_len = if with_tfs { count } else { 0 };
        (self.len, self.tfs_len) = (count, tfs_len);
        let (docs, tfs) = self.buf.split_at_mut(self.cap);
        (&mut docs[..count], &mut tfs[..tfs_len])
    }
}

/// [`try_decode_pairs_into`] into two columns: the block's docIDs and its
/// tfs, in one pass, replacing what `out` held. Each window load yields
/// as many pairs as its exact bits hold, up to three (a pair of at most
/// 19 bits, the common case, shares a load with two others).
///
/// # Errors
///
/// As [`try_decode_pairs_into`]; `out` is untouched on error.
pub fn try_decode_columns_into(
    bytes: &[u8],
    count: usize,
    gap_bits: u8,
    tf_bits: u8,
    skip: DocId,
    out: &mut BlockColumns,
) -> Result<(), IndexError> {
    let pair_bits = check_block(bytes, count, gap_bits, tf_bits)? as usize;
    let doc = first_base(bytes, gap_bits, skip);
    let (docs, tfs) = out.fit(count, true);
    // As many pairs per window load as its exact bits hold, up to three;
    // a pair wider than a window takes a second load for its tf.
    match bitpack::WINDOW_BITS as usize / pair_bits.max(1) {
        0 => columns_wide(bytes, pair_bits, gap_bits, tf_bits, doc, docs, tfs),
        1 => columns_by::<1>(bytes, pair_bits, gap_bits, tf_bits, doc, docs, tfs),
        2 => columns_by::<2>(bytes, pair_bits, gap_bits, tf_bits, doc, docs, tfs),
        _ => columns_by::<3>(bytes, pair_bits, gap_bits, tf_bits, doc, docs, tfs),
    }
    Ok(())
}

/// The loop of [`try_decode_columns_into`] with `K` pairs taken from each
/// window load (`K · pair_bits` at most [`bitpack::WINDOW_BITS`]).
#[inline(always)]
fn columns_by<const K: usize>(
    bytes: &[u8],
    pair_bits: usize,
    gap_bits: u8,
    tf_bits: u8,
    mut doc: DocId,
    docs: &mut [DocId],
    tfs: &mut [u32],
) {
    let (gap_mask, tf_mask) = (bitpack::mask64(gap_bits), bitpack::mask64(tf_bits));
    let mut bit = 0usize;
    let mut pair = |w: u64, d: &mut DocId, t: &mut u32| {
        doc = doc.wrapping_add((w & gap_mask) as u32);
        *d = doc;
        *t = ((w >> gap_bits) & tf_mask) as u32;
    };
    let mut chunks = docs.chunks_exact_mut(K).zip(tfs.chunks_exact_mut(K));
    for (dk, tk) in &mut chunks {
        let w = bitpack::window(bytes, bit);
        bit += K * pair_bits;
        for (k, (d, t)) in dk.iter_mut().zip(tk).enumerate() {
            pair(w >> (k * pair_bits), d, t);
        }
    }
    let done = docs.len() / K * K;
    for (d, t) in docs[done..].iter_mut().zip(&mut tfs[done..]) {
        pair(bitpack::window(bytes, bit), d, t);
        bit += pair_bits;
    }
}

/// The loop of [`try_decode_columns_into`] for pairs wider than a window:
/// a second load for each tf.
fn columns_wide(
    bytes: &[u8],
    pair_bits: usize,
    gap_bits: u8,
    tf_bits: u8,
    mut doc: DocId,
    docs: &mut [DocId],
    tfs: &mut [u32],
) {
    let (gap_mask, tf_mask) = (bitpack::mask64(gap_bits), bitpack::mask64(tf_bits));
    let mut bit = 0usize;
    for (d, t) in docs.iter_mut().zip(tfs) {
        doc = doc.wrapping_add((bitpack::window(bytes, bit) & gap_mask) as u32);
        *d = doc;
        *t = (bitpack::window(bytes, bit + usize::from(gap_bits)) & tf_mask) as u32;
        bit += pair_bits;
    }
}

/// The docIDs of [`try_decode_pairs_into`] alone, replacing what `out`
/// held: no tf extracted, and as many pairs taken from each window load
/// as its exact bits hold, up to three. A tf is read later, if at all,
/// with [`tf_at`].
///
/// # Errors
///
/// As [`try_decode_pairs_into`]; `out` is untouched on error.
pub fn try_decode_docs_into(
    bytes: &[u8],
    count: usize,
    gap_bits: u8,
    tf_bits: u8,
    skip: DocId,
    out: &mut BlockColumns,
) -> Result<(), IndexError> {
    let pair_bits = check_block(bytes, count, gap_bits, tf_bits)? as usize;
    let doc = first_base(bytes, gap_bits, skip);
    let docs = out.fit(count, false).0;
    // As many pairs per window load as its exact bits hold, up to three.
    match bitpack::WINDOW_BITS as usize / pair_bits.max(1) {
        0 | 1 => docs_by::<1>(bytes, pair_bits, gap_bits, doc, docs),
        2 => docs_by::<2>(bytes, pair_bits, gap_bits, doc, docs),
        _ => docs_by::<3>(bytes, pair_bits, gap_bits, doc, docs),
    }
    Ok(())
}

/// The loop of [`try_decode_docs_into`] with `K` pairs taken from each
/// window load (`K · pair_bits` at most [`bitpack::WINDOW_BITS`]).
#[inline(always)]
fn docs_by<const K: usize>(
    bytes: &[u8],
    pair_bits: usize,
    gap_bits: u8,
    mut doc: DocId,
    docs: &mut [DocId],
) {
    let gap_mask = bitpack::mask64(gap_bits);
    let mut bit = 0usize;
    let mut chunks = docs.chunks_exact_mut(K);
    for chunk in &mut chunks {
        let w = bitpack::window(bytes, bit);
        bit += K * pair_bits;
        for (k, d) in chunk.iter_mut().enumerate() {
            doc = doc.wrapping_add(((w >> (k * pair_bits)) & gap_mask) as u32);
            *d = doc;
        }
    }
    for d in chunks.into_remainder() {
        let w = bitpack::window(bytes, bit);
        bit += pair_bits;
        doc = doc.wrapping_add((w & gap_mask) as u32);
        *d = doc;
    }
}

/// The tf of pair `i` of a block whose pairs start at `bytes`: one window
/// load at bit `i·(gap_bits + tf_bits) + gap_bits`. For an `i` the block
/// holds, after a decode of it succeeded, this is the tf
/// [`try_decode_pairs_into`] gives pair `i`; any other `i` reads garbage
/// (zero bits past the end of `bytes`), never a panic.
#[inline]
pub fn tf_at(bytes: &[u8], i: usize, gap_bits: u8, tf_bits: u8) -> u32 {
    let pair_bits = usize::from(gap_bits) + usize::from(tf_bits);
    let bit = i.wrapping_mul(pair_bits).wrapping_add(usize::from(gap_bits));
    bitpack::extract(bytes, bit, tf_bits)
}

/// The checks every block decode makes before it writes anything: widths
/// at most 31 and `bytes` long enough for `count` pairs. Returns the pair
/// width in bits.
fn check_block(
    bytes: &[u8],
    count: usize,
    gap_bits: u8,
    tf_bits: u8,
) -> Result<u32, IndexError> {
    if gap_bits > 31 || tf_bits > 31 {
        return Err(IndexError::CorruptIndex { context: "block bitwidths" });
    }
    let pair_bits = u32::from(gap_bits + tf_bits);
    if u64::from(pair_bits) * count as u64 > bytes.len() as u64 * 8 {
        return Err(IndexError::CorruptIndex { context: "payload bounds" });
    }
    Ok(pair_bits)
}

/// One stored gap below the skip, so that the first running sum of a
/// decode lands on it whatever the first stored gap says.
fn first_base(bytes: &[u8], gap_bits: u8, skip: DocId) -> DocId {
    skip.wrapping_sub(bitpack::extract(bytes, 0, gap_bits))
}

/// Cost in bits of a block of `len` postings whose maximum d-gap/tf widths
/// are `gap_bits`/`tf_bits`: the paper's Eq. 3, `(b_dn + b_tf)·|B| + 96`,
/// the 96 being the metadata word and the skip value. The
/// dynamic-programming partitioner minimizes it, and its exact early stop
/// is proved from two properties: the cost is affine in `len`, and the
/// slope `b_dn + b_tf` never falls as either width grows.
pub fn block_cost_bits(len: u64, gap_bits: u8, tf_bits: u8) -> u64 {
    (u64::from(gap_bits) + u64::from(tf_bits)) * len + BLOCK_OVERHEAD_BITS
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mask32(width: u8) -> u32 {
        bitpack::mask64(width) as u32
    }

    #[test]
    fn block_cost_is_affine_in_len_with_a_monotone_slope() {
        // The contract on `block_cost_bits` that the partitioner's early
        // stop is proved from.
        let overhead = block_cost_bits(0, 0, 0);
        let slope = |g: u8, t: u8| block_cost_bits(1, g, t) - overhead;
        for g in 0..=32u8 {
            for t in 0..=32u8 {
                for len in [0u64, 1, 2, 3, 17, 128, 255, 256, 2048] {
                    assert_eq!(
                        block_cost_bits(len, g, t),
                        len * slope(g, t) + overhead,
                        "not affine at len={len} g={g} t={t}"
                    );
                }
                if g < 32 {
                    assert!(slope(g + 1, t) >= slope(g, t), "slope falls in g at {g}");
                }
                if t < 32 {
                    assert!(slope(g, t + 1) >= slope(g, t), "slope falls in t at {t}");
                }
            }
        }
    }

    fn block_case(
        n: usize,
        seed: u64,
        max_gap: u32,
        max_tf: u32,
    ) -> (Vec<u32>, Vec<u32>, DocId) {
        let mut x = seed | 1;
        let mut rand = move || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 33) as u32
        };
        let mut gaps = vec![0u32];
        let mut tfs = vec![rand() % (max_tf + 1)];
        for _ in 1..n {
            gaps.push(1 + rand() % max_gap);
            tfs.push(rand() % (max_tf + 1));
        }
        (gaps, tfs, rand())
    }

    fn postings_from(gaps: &[u32], tfs: &[u32], skip: DocId) -> Vec<Posting> {
        let mut prev = skip;
        gaps.iter()
            .zip(tfs)
            .enumerate()
            .map(|(i, (&g, &t))| {
                let doc = if i == 0 { skip } else { prev.wrapping_add(g) };
                prev = doc;
                Posting::new(doc, t)
            })
            .collect()
    }

    #[test]
    fn blocks_of_all_shapes_roundtrip() {
        for (n, max_gap, max_tf) in [
            (1, 1, 0),
            (3, 7, 3),
            (127, 100, 9),
            (128, 1 << 20, 1),
            (129, 2, 2),
            (640, 300, 15),
            (2048, 1 << 10, 255),
        ] {
            let (gaps, tfs, skip) = block_case(n, 0xBEEF + n as u64, max_gap, max_tf);
            let gw = gaps.iter().copied().map(crate::bitpack::bits_for).max().unwrap();
            let tw = tfs.iter().copied().map(crate::bitpack::bits_for).max().unwrap();
            let mut payload = Vec::new();
            encode_block(&gaps, &tfs, gw, tw, &mut payload);
            let mut out = Vec::new();
            try_decode_pairs_into(&payload, n, gw, tw, skip, &mut out)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(out, postings_from(&gaps, &tfs, skip), "n={n}");
        }
    }

    /// One block of `n` pairs at widths `gw`/`tw`, every field at its
    /// width's maximum and a non-zero stored first gap (the first docID
    /// is still the skip).
    struct WidthCase {
        gw: u8,
        tw: u8,
        n: usize,
        block: Vec<u8>,
        /// The block's postings by the independent reference.
        want: Vec<Posting>,
        /// The served path: the block twice in one list, so that a decode
        /// of the first reads on into the second's bytes and the second
        /// ends the payload, with both blocks' postings. `None` where the
        /// second block's docIDs would not fit in 32 bits.
        served: Option<(crate::block::EncodedList, Vec<Posting>)>,
    }

    /// Every width pair in 0..=31², at 1, 2, 31, 48 and 300 pairs. Pairs
    /// of 58–62 bits overflow one window; 48 pairs fill whole bytes, so
    /// the block ends at its last field and its last windows are
    /// zero-padded.
    fn every_width_case(mut check: impl FnMut(&WidthCase)) {
        use crate::block::BlockMeta;
        let skip: DocId = 7;
        for gw in 0..=31u8 {
            for tw in 0..=31u8 {
                for n in [1usize, 2, 31, 48, 300] {
                    let (gaps, tfs) = (vec![mask32(gw); n], vec![mask32(tw); n]);
                    let want = postings_from(&gaps, &tfs, skip);
                    let mut block = Vec::new();
                    encode_block(&gaps, &tfs, gw, tw, &mut block);
                    let span_docs = (n as u64 - 1) * u64::from(mask32(gw));
                    let next_skip = u64::from(skip) + span_docs + 1;
                    let served = (next_skip + span_docs <= u64::from(u32::MAX)).then(|| {
                        let meta = |offset| BlockMeta {
                            dn_bits: gw,
                            tf_bits: tw,
                            count: n as u16,
                            offset,
                        };
                        let list = crate::block::tests::from_parts(
                            &[meta(0), meta(block.len() as u64)],
                            &[skip, next_skip as DocId],
                            &[block.as_slice(), &block].concat(),
                            2 * n as u64,
                        );
                        let second = postings_from(&gaps, &tfs, next_skip as DocId);
                        (list, [want.clone(), second].concat())
                    });
                    check(&WidthCase { gw, tw, n, block, want, served });
                }
            }
        }
    }

    /// The pair kernel against the independent `postings_from` reference
    /// at every width pair ([`every_width_case`]).
    #[test]
    fn bitpack_decodes_every_width_pair_like_the_reference() {
        every_width_case(|c| {
            let (gw, tw, n) = (c.gw, c.tw, c.n);
            let mut out = Vec::new();
            try_decode_pairs_into(&c.block, n, gw, tw, 7, &mut out).unwrap();
            assert_eq!(out, c.want, "block slice gw={gw} tw={tw} n={n}");
            if let Some((list, want)) = &c.served {
                let mut out = Vec::new();
                list.decode_block_into(0, &mut out);
                list.decode_block_into(1, &mut out);
                assert_eq!(&out, want, "served list gw={gw} tw={tw} n={n}");
            }
        });
    }

    /// The docIDs-only decode, the at-index tf read and the column decode
    /// against the pair kernel at every width pair
    /// ([`every_width_case`]), through the block slice and through a
    /// two-block served list.
    #[test]
    fn column_kernels_and_tf_reads_agree_with_the_pair_kernel_at_every_width() {
        let mut cols = BlockColumns::default();
        every_width_case(|c| {
            let (gw, tw, n) = (c.gw, c.tw, c.n);
            let ctx = format!("gw={gw} tw={tw} n={n}");
            let mut pairs = Vec::new();
            try_decode_pairs_into(&c.block, n, gw, tw, 7, &mut pairs).unwrap();
            let docs: Vec<DocId> = pairs.iter().map(|p| p.doc_id).collect();
            let tfs: Vec<u32> = pairs.iter().map(|p| p.tf).collect();

            try_decode_docs_into(&c.block, n, gw, tw, 7, &mut cols).unwrap();
            assert_eq!(cols.docs(), docs, "docs-only, block slice {ctx}");
            assert!(cols.tfs().is_empty(), "docs-only decodes no tf {ctx}");
            let read: Vec<u32> = (0..n).map(|i| tf_at(&c.block, i, gw, tw)).collect();
            assert_eq!(read, tfs, "tf reads, block slice {ctx}");
            try_decode_columns_into(&c.block, n, gw, tw, 7, &mut cols).unwrap();
            assert_eq!((cols.docs(), cols.tfs()), (&docs[..], &tfs[..]), "columns {ctx}");

            let Some((list, _)) = &c.served else { return };
            let view = list.verified().unwrap();
            for blk in 0..2 {
                let mut pairs = Vec::new();
                view.try_decode_pairs_into(blk, &mut pairs).unwrap();
                let packed = view.try_decode_docs_into(blk, &mut cols).unwrap();
                assert!(
                    pairs.iter().map(|p| p.doc_id).eq(cols.docs().iter().copied()),
                    "{ctx}"
                );
                for (i, p) in pairs.iter().enumerate() {
                    assert_eq!(packed.get(i), p.tf, "served tf read {i} of block {blk} {ctx}");
                }
                view.try_decode_columns_into(blk, &mut cols).unwrap();
                assert!(
                    pairs.iter().map(|p| p.doc_id).eq(cols.docs().iter().copied()),
                    "{ctx}"
                );
                assert!(pairs.iter().map(|p| p.tf).eq(cols.tfs().iter().copied()), "{ctx}");
            }
        });
    }

    /// The column kernels' share of the corrupt-input contract: a
    /// truncated payload or an impossible width is a typed error before
    /// anything is written, and a tf read never panics, whatever it is
    /// asked for.
    #[test]
    fn column_kernels_refuse_truncated_payloads_and_leave_out_untouched() {
        let (gaps, tfs, skip) = block_case(300, 0xE45, 500, 12);
        let gw = gaps.iter().copied().map(crate::bitpack::bits_for).max().unwrap();
        let tw = tfs.iter().copied().map(crate::bitpack::bits_for).max().unwrap();
        let mut payload = Vec::new();
        encode_block(&gaps, &tfs, gw, tw, &mut payload);
        // A good decode first, so that "untouched" means "still that".
        let mut cols = BlockColumns::default();
        try_decode_columns_into(&payload, 9, gw, tw, skip, &mut cols).unwrap();
        let (docs, tfs) = (cols.docs().to_vec(), cols.tfs().to_vec());
        let untouched = |cols: &BlockColumns| cols.docs() == docs && cols.tfs() == tfs;
        for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
            let bytes = &payload[..cut];
            for err in [
                try_decode_docs_into(bytes, 300, gw, tw, skip, &mut cols),
                try_decode_columns_into(bytes, 300, gw, tw, skip, &mut cols),
            ] {
                assert!(
                    matches!(err, Err(IndexError::CorruptIndex { context: "payload bounds" })),
                    "cut={cut}: {err:?}"
                );
                assert!(untouched(&cols), "cut={cut} touched out");
            }
            for i in [0, 150, 299, 300, usize::MAX / 2, usize::MAX] {
                tf_at(bytes, i, gw, tw);
            }
        }
        for (g, t) in [(32, tw), (gw, 33), (255, 255)] {
            for err in [
                try_decode_docs_into(&payload, 300, g, t, skip, &mut cols),
                try_decode_columns_into(&payload, 300, g, t, skip, &mut cols),
            ] {
                assert!(
                    matches!(
                        err,
                        Err(IndexError::CorruptIndex { context: "block bitwidths" })
                    ),
                    "widths {g}/{t}: {err:?}"
                );
                assert!(untouched(&cols), "widths {g}/{t} touched out");
            }
        }
    }

    #[test]
    fn truncated_payloads_error_and_leave_out_untouched() {
        let (gaps, tfs, skip) = block_case(300, 0xE44, 500, 12);
        let gw = gaps.iter().copied().map(crate::bitpack::bits_for).max().unwrap();
        let tw = tfs.iter().copied().map(crate::bitpack::bits_for).max().unwrap();
        let mut payload = Vec::new();
        encode_block(&gaps, &tfs, gw, tw, &mut payload);
        let mut out = vec![Posting::new(7, 7)];
        for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
            let err = try_decode_pairs_into(&payload[..cut], 300, gw, tw, skip, &mut out);
            assert!(err.is_err(), "cut={cut} accepted a truncated payload");
            assert_eq!(out, vec![Posting::new(7, 7)], "cut={cut} touched out");
        }
        // Impossible widths are refused before any read.
        assert!(try_decode_pairs_into(&payload, 300, 32, tw, skip, &mut out).is_err());
        assert!(try_decode_pairs_into(&payload, 300, gw, 33, skip, &mut out).is_err());
    }

    #[test]
    fn codec_id_round_trips_and_retired_ids_are_unknown() {
        for codec in CodecId::ALL {
            assert_eq!(CodecId::from_u8(codec as u8).unwrap(), codec);
        }
        for id in [1u8, 2, 99] {
            assert!(
                matches!(CodecId::from_u8(id), Err(IndexError::UnknownCodec { id: got }) if got == id)
            );
        }
        assert_eq!(CodecId::default(), CodecId::BitPack);
        assert_eq!(CodecId::BitPack.to_string(), "bitpack");
    }

    #[test]
    fn cost_model_is_the_papers_eq3() {
        for w in 0..=31u8 {
            for len in [1u64, 5, 128, 2048] {
                assert_eq!(block_cost_bits(len, w, 3), (u64::from(w) + 3) * len + 96);
            }
        }
        // Zero-width blocks still pay the metadata overhead.
        assert_eq!(block_cost_bits(1, 0, 0), BLOCK_OVERHEAD_BITS);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Mutated and truncated payloads never panic: they either decode
        /// to some postings or return a typed error.
        #[test]
        fn prop_decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..600),
            count in 0usize..600,
            gw in 0u8..36,
            tw in 0u8..36,
            skip in proptest::num::u32::ANY,
        ) {
            let mut out = Vec::new();
            let res = try_decode_pairs_into(&bytes, count, gw, tw, skip, &mut out);
            if res.is_err() {
                prop_assert!(out.is_empty(), "left partial output on error");
            }
            let mut cols = BlockColumns::default();
            for docs_only in [true, false] {
                let res = if docs_only {
                    try_decode_docs_into(&bytes, count, gw, tw, skip, &mut cols)
                } else {
                    try_decode_columns_into(&bytes, count, gw, tw, skip, &mut cols)
                };
                if res.is_err() {
                    prop_assert!(cols.docs().is_empty(), "left partial output on error");
                }
                tf_at(&bytes, count, gw, tw);
            }
        }
    }
}
