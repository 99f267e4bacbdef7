//! The block codec of the served index: the paper's bit-packed `(d-gap,
//! tf)` pairs (§3.1).
//!
//! Block *structure* — metadata word, skip value, per-block maximum widths
//! — lives in [`crate::block`]. This module owns the payload bytes between
//! one block's offset and the next: how a block's pairs are packed
//! ([`encode_block`]), decoded one window load per pair like the paper's
//! DCU (§4.2, [`try_decode_pairs_into`]), and what they cost the
//! dynamic-programming partitioner ([`block_cost_bits`], the paper's
//! Eq. 3).
//!
//! The decoder keeps two contracts every hot path relies on:
//!
//! * **Zero-alloc decode-into**: it appends to a caller-owned
//!   `Vec<Posting>` and allocates nothing else.
//! * **Never panic on corrupt bytes**: lengths are checked up front and
//!   failures return typed [`IndexError`]s; in-bounds garbage degrades to
//!   garbage postings (wrapping d-gap sums), which the deserializer's
//!   docID-order check and the v3+ bounds oracle then reject.
//!
//! The classic codecs the paper compares against (Table 2) live in the
//! `iiu-codecs` crate and never serve a query.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use crate::bitpack::{self, BitWriter};
use crate::block::BLOCK_OVERHEAD_BITS;
use crate::error::IndexError;
use crate::posting::{DocId, Posting};

/// The codec id byte of a v4 header. Bit-packed pairs are the one codec,
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

/// The one decoder of the paper's interleaved pairs, behind every block
/// decode: `count` `(d-gap, tf)` pairs from `bytes`, which start at the
/// block's first pair and may run on past its last (the masks keep those
/// bytes out of every field). Like the paper's DCU (§4.2) it extracts a
/// pair per step — one window load, a shift and two masks — and adds the
/// gap to a running docID, writing through one exact-size `extend`. The
/// first posting is `skip`, whatever its stored gap says.
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
    if gap_bits > 31 || tf_bits > 31 {
        return Err(IndexError::CorruptIndex { context: "block bitwidths" });
    }
    let pair_bits = u32::from(gap_bits + tf_bits);
    if u64::from(pair_bits) * count as u64 > bytes.len() as u64 * 8 {
        return Err(IndexError::CorruptIndex { context: "payload bounds" });
    }
    let (gap_mask, tf_mask) = (bitpack::mask64(gap_bits), bitpack::mask64(tf_bits));
    let mut bit = 0usize;
    // One stored gap below the skip, so that the first sum lands on it.
    let mut doc = skip.wrapping_sub(bitpack::extract(bytes, 0, gap_bits));
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

    /// The pair kernel against the independent `postings_from` reference
    /// at every width pair, every field at its width's maximum and a
    /// non-zero stored first gap (the first docID is still the skip).
    /// Pairs of 58–62 bits overflow one window; 48 pairs fill whole bytes,
    /// so the block ends at its last field and its last windows are
    /// zero-padded.
    #[test]
    fn bitpack_decodes_every_width_pair_like_the_reference() {
        use crate::block::{BlockMeta, EncodedList, TableBuilder};
        let skip: DocId = 7;
        for gw in 0..=31u8 {
            for tw in 0..=31u8 {
                for n in [1usize, 2, 31, 48, 300] {
                    let (gaps, tfs) = (vec![mask32(gw); n], vec![mask32(tw); n]);
                    let want = postings_from(&gaps, &tfs, skip);
                    let mut block = Vec::new();
                    encode_block(&gaps, &tfs, gw, tw, &mut block);
                    let mut out = Vec::new();
                    try_decode_pairs_into(&block, n, gw, tw, skip, &mut out).unwrap();
                    assert_eq!(out, want, "block slice gw={gw} tw={tw} n={n}");

                    // The served path: the block twice in one list, so the
                    // first decode reads on into the second's bytes and the
                    // second ends the payload.
                    let span_docs = (n as u64 - 1) * u64::from(mask32(gw));
                    let next_skip = u64::from(skip) + span_docs + 1;
                    if next_skip + span_docs > u64::from(u32::MAX) {
                        continue;
                    }
                    let meta = |offset| {
                        BlockMeta { dn_bits: gw, tf_bits: tw, count: n as u16, offset }.pack()
                    };
                    let mut tables = TableBuilder::default();
                    let span = tables
                        .push_stored(
                            [meta(0), meta(block.len() as u64)].into_iter(),
                            [skip, next_skip as DocId].into_iter(),
                            &[block.as_slice(), &block].concat(),
                            None,
                            2 * n as u64,
                            None,
                        )
                        .unwrap();
                    let list = EncodedList::new(&tables.freeze(None, 0), span);
                    let mut out = Vec::new();
                    list.decode_block_into(0, &mut out);
                    list.decode_block_into(1, &mut out);
                    let want = [want, postings_from(&gaps, &tfs, next_skip as DocId)].concat();
                    assert_eq!(out, want, "served list gw={gw} tw={tw} n={n}");
                }
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
        }
    }
}
