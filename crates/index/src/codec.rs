//! Pluggable block codecs for compressed posting lists.
//!
//! The paper's format bit-packs `(d-gap, tf)` pairs at per-block widths
//! (see [`crate::block`]). That scheme is one point in the
//! compression/decode-speed space; this module puts the per-block payload
//! encoding behind the [`BlockCodec`] trait so the whole engine stack —
//! builder, partitioner, block-max pruning, sharding, incremental sealing
//! — runs unchanged over any member of the family:
//!
//! * [`CodecId::BitPack`] — the paper's interleaved bit-packed pairs,
//!   decoded one window load per pair by `try_decode_pairs_into` on every
//!   path. The default, and the scalar baseline of the codec shootout.
//! * [`CodecId::StreamVByte`] — byte-aligned Stream-VByte (Lemire, Kurz &
//!   Rupp): a 2-bit-per-value control stream followed by 1–4 data bytes
//!   per value, one stream for gaps and one for tfs.
//! * [`CodecId::SimdBp128`] — SIMD-BP128-style vertical layout (Lemire &
//!   Boytsov): gaps and tfs in separate streams, full 128-value groups
//!   transposed into 4 SIMD lanes × 32 values so a single shift-and-mask
//!   yields four values at once. Decoded by a runtime-dispatched
//!   SSE2/AVX2 kernel on x86-64 with a bit-identical portable scalar
//!   fallback. Widths come from the block metadata, so a SimdBp128
//!   payload is byte-for-byte the *same size* as the BitPack payload for
//!   the same partition — the layout trades nothing for the SIMD decode.
//!
//! Every codec obeys the same contracts the BitPack path established:
//!
//! * **Zero-alloc decode-into** (PR 3's `DecodeScratch` contract):
//!   `try_decode_block_into` appends to a caller-owned `Vec<Posting>`
//!   and allocates nothing else (SimdBp128 uses fixed stack buffers).
//! * **Never panic on corrupt bytes**: all reads are bounds-checked up
//!   front and failures return typed [`IndexError`]s; in-bounds garbage
//!   degrades to garbage postings exactly like the BitPack path
//!   (wrapping d-gap sums), which the deserializer's monotonicity check
//!   and the v3+ bounds oracle then reject.
//! * **A bits-per-posting cost model** ([`BlockCodec::block_cost_bits`])
//!   that parameterizes the dynamic-programming partitioner in place of
//!   the hardcoded `(b_dn + b_tf)·|B| + 96`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use crate::bitpack::{self, BitWriter};
use crate::block::BLOCK_OVERHEAD_BITS;
use crate::error::IndexError;
use crate::posting::{DocId, Posting};

/// Values per SIMD group in the [`CodecId::SimdBp128`] layout.
pub const SIMD_GROUP_LEN: usize = 128;

/// Identifies the block codec a posting list (and, in format v4, a whole
/// index) is compressed with. The `u8` value is the on-disk codec id in
/// the v4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum CodecId {
    /// Interleaved bit-packed `(d-gap, tf)` pairs — the paper's format.
    #[default]
    BitPack = 0,
    /// Stream-VByte: split control/data byte streams, gaps then tfs.
    StreamVByte = 1,
    /// SIMD-BP128-style vertical bit-packing in 128-value groups.
    SimdBp128 = 2,
}

impl CodecId {
    /// Every integrated codec, in id order.
    pub const ALL: [CodecId; 3] = [CodecId::BitPack, CodecId::StreamVByte, CodecId::SimdBp128];

    /// The on-disk codec id byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes an on-disk codec id byte.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownCodec`] for ids this build does not
    /// implement.
    pub fn from_u8(id: u8) -> Result<Self, IndexError> {
        match id {
            0 => Ok(CodecId::BitPack),
            1 => Ok(CodecId::StreamVByte),
            2 => Ok(CodecId::SimdBp128),
            other => Err(IndexError::UnknownCodec { id: other }),
        }
    }

    /// Stable human-readable name (also the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            CodecId::BitPack => "bitpack",
            CodecId::StreamVByte => "stream-vbyte",
            CodecId::SimdBp128 => "simdbp128",
        }
    }

    /// Parses a CLI spelling (`--codec` flag); accepts a few aliases.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "bitpack" | "bp" => Some(CodecId::BitPack),
            "stream-vbyte" | "streamvbyte" | "svb" => Some(CodecId::StreamVByte),
            "simdbp128" | "simd-bp128" | "simdbp" => Some(CodecId::SimdBp128),
            _ => None,
        }
    }

    /// The codec's operations table.
    pub fn ops(self) -> &'static dyn BlockCodec {
        match self {
            CodecId::BitPack => &BitPackCodec,
            CodecId::StreamVByte => &StreamVByteCodec,
            CodecId::SimdBp128 => &SimdBp128Codec,
        }
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-block payload codec: how one block's `(d-gap, tf)` pairs become
/// bytes and back. Block *structure* (metadata word, skip value, per-block
/// max widths) is codec-independent and lives in [`crate::block`]; a codec
/// only owns the payload bytes between one block's offset and the next.
pub trait BlockCodec: Sync {
    /// Which [`CodecId`] this table implements.
    fn id(&self) -> CodecId;

    /// Appends one block's payload to `payload`. `gaps[0]` is always 0
    /// (the first docID travels in the skip value); `gap_bits`/`tf_bits`
    /// are the block-wide maximum widths already validated to be `< 32`.
    fn encode_block(
        &self,
        gaps: &[u32],
        tfs: &[u32],
        gap_bits: u8,
        tf_bits: u8,
        payload: &mut Vec<u8>,
    );

    /// Decodes `count` postings from `block` (exactly this block's payload
    /// slice), appending to `out`. `skip` is the block's first docID.
    /// Never panics: corrupt lengths yield typed errors with `out`
    /// untouched; corrupt-but-in-bounds bytes degrade to garbage postings
    /// (wrapping gap sums), mirroring the BitPack contract.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] when `block` is too short for
    /// `count` values or carries impossible widths.
    fn try_decode_block_into(
        &self,
        block: &[u8],
        count: usize,
        gap_bits: u8,
        tf_bits: u8,
        skip: DocId,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError>;

    /// Modeled cost in bits of a block of `len` postings whose maximum
    /// d-gap/tf widths are `gap_bits`/`tf_bits`, including the 96-bit
    /// metadata + skip overhead — the per-codec generalization of the
    /// paper's Eq. 3 that the dynamic-programming partitioner minimizes.
    ///
    /// The partitioner's exact early stop relies on this contract, for all
    /// widths `0..=32`:
    ///
    /// * **affine in `len`**:
    ///   `block_cost_bits(len, g, t) = len · slope(g, t) + overhead`, with
    ///   `overhead = block_cost_bits(0, g, t)` the same for every width pair;
    /// * **monotone slope**: `slope(g, t)` is non-decreasing in `g` and in
    ///   `t`, so widening a block never makes a posting cheaper.
    fn block_cost_bits(&self, len: u64, gap_bits: u8, tf_bits: u8) -> u64;
}

fn mask32(width: u8) -> u32 {
    if width >= 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    }
}

// ---------------------------------------------------------------------------
// BitPack: the paper's interleaved pairs (default codec).
// ---------------------------------------------------------------------------

/// The paper's interleaved bit-packed `(d-gap, tf)` pairs.
struct BitPackCodec;

impl BlockCodec for BitPackCodec {
    fn id(&self) -> CodecId {
        CodecId::BitPack
    }

    fn encode_block(
        &self,
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

    fn try_decode_block_into(
        &self,
        block: &[u8],
        count: usize,
        gap_bits: u8,
        tf_bits: u8,
        skip: DocId,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        try_decode_pairs_into(block, count, gap_bits, tf_bits, skip, out)
    }

    fn block_cost_bits(&self, len: u64, gap_bits: u8, tf_bits: u8) -> u64 {
        (u64::from(gap_bits) + u64::from(tf_bits)) * len + BLOCK_OVERHEAD_BITS
    }
}

/// The one decoder of the paper's interleaved pairs, behind every BitPack
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
pub(crate) fn try_decode_pairs_into(
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

// ---------------------------------------------------------------------------
// Stream-VByte: split control/data byte streams.
// ---------------------------------------------------------------------------

/// Stream-VByte with a gap stream followed by a tf stream.
///
/// Per stream: `⌈n/4⌉` control bytes (2 bits per value: data length − 1),
/// then the little-endian data bytes back to back. The split control
/// stream is what makes the format SIMD-shuffle-friendly: one control
/// byte describes a quad of values, so a single `_mm_shuffle_epi8` with a
/// per-control-byte mask expands the quad's 4–16 packed data bytes into
/// four u32 lanes. On x86-64 with SSSE3 the decoder runs that shuffle
/// kernel (runtime-detected, one table lookup + one load + one shuffle
/// per quad) and falls back to the scalar byte walk for the stream tail
/// and the final quads whose 16-byte load window would overrun the block;
/// everywhere else the scalar walk decodes the whole stream,
/// bit-identically.
struct StreamVByteCodec;

/// Builds the SSSE3 kernel's tables: for each control byte, the
/// `_mm_shuffle_epi8` mask that expands the quad's packed 1–4-byte
/// little-endian values into four u32 lanes (0x80 lanes zero-fill), and
/// the quad's total data-byte length.
#[cfg(target_arch = "x86_64")]
const fn svb_tables() -> ([[u8; 16]; 256], [u8; 256]) {
    let mut shuf = [[0x80u8; 16]; 256];
    let mut lens = [0u8; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut offset = 0u8;
        let mut k = 0usize;
        while k < 4 {
            let len = ((c >> (2 * k)) & 3) as u8 + 1;
            let mut j = 0u8;
            while j < len {
                shuf[c][4 * k + j as usize] = offset + j;
                j += 1;
            }
            offset += len;
            k += 1;
        }
        lens[c] = offset;
        c += 1;
    }
    (shuf, lens)
}

/// Per-control-byte shuffle masks for the SSSE3 Stream-VByte kernel.
#[cfg(target_arch = "x86_64")]
const SVB_SHUFFLE: [[u8; 16]; 256] = svb_tables().0;

/// Per-control-byte total data bytes of one Stream-VByte quad.
#[cfg(target_arch = "x86_64")]
const SVB_QUAD_LEN: [u8; 256] = svb_tables().1;

fn svb_data_len(v: u32) -> usize {
    match v {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFF_FFFF => 3,
        _ => 4,
    }
}

/// Modeled data bytes per value for a stream whose max width is `w` bits.
fn svb_bytes_for_width(w: u8) -> u64 {
    (u64::from(w).div_ceil(8)).max(1)
}

fn svb_encode_stream(values: &[u32], out: &mut Vec<u8>) {
    let ctrl_start = out.len();
    out.resize(ctrl_start + values.len().div_ceil(4), 0);
    for (i, &v) in values.iter().enumerate() {
        let len = svb_data_len(v);
        out[ctrl_start + i / 4] |= ((len - 1) as u8) << (2 * (i % 4));
        out.extend_from_slice(&v.to_le_bytes()[..len]);
    }
}

/// Decodes one Stream-VByte stream of `n` values, advancing `pos` and
/// handing each value to `sink`. Dispatches to the SSSE3 shuffle kernel
/// when the CPU has it.
fn svb_decode_stream(
    block: &[u8],
    pos: &mut usize,
    n: usize,
    sink: impl FnMut(usize, u32),
) -> Result<(), IndexError> {
    #[cfg(target_arch = "x86_64")]
    let simd = x86::ssse3_available();
    #[cfg(not(target_arch = "x86_64"))]
    let simd = false;
    svb_decode_stream_impl(block, pos, n, simd, sink)
}

/// [`svb_decode_stream`] with the kernel choice explicit, so tests can
/// differentially run both paths over the same bytes. Off x86-64 the
/// `simd` flag is ignored (the scalar walk is the only decoder).
fn svb_decode_stream_impl(
    block: &[u8],
    pos: &mut usize,
    n: usize,
    simd: bool,
    mut sink: impl FnMut(usize, u32),
) -> Result<(), IndexError> {
    let nctrl = n.div_ceil(4);
    let ctrl_start = *pos;
    let ctrl_end = ctrl_start
        .checked_add(nctrl)
        .filter(|&e| e <= block.len())
        .ok_or(IndexError::CorruptIndex { context: "stream-vbyte control bytes" })?;
    let mut data = ctrl_end;
    let mut i = 0usize;

    #[cfg(target_arch = "x86_64")]
    if simd {
        // Full quads whose 16-byte load window stays inside the block go
        // through the shuffle kernel — a quad consumes at most 16 data
        // bytes, so the window always covers it. The moment the window
        // would overrun (or for the tail quad), fall through to the
        // scalar walk below, which re-validates byte by byte.
        while i + 4 <= n && data + 16 <= block.len() {
            let c = block[ctrl_start + i / 4];
            // SAFETY: the loop guard proves 16 readable bytes at `data`,
            // and `simd` is only true when SSSE3 was detected.
            let vals = unsafe { x86::svb_decode_quad(block.as_ptr().add(data), c) };
            sink(i, vals[0]);
            sink(i + 1, vals[1]);
            sink(i + 2, vals[2]);
            sink(i + 3, vals[3]);
            data += usize::from(SVB_QUAD_LEN[usize::from(c)]);
            i += 4;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;

    while i < n {
        let len = ((block[ctrl_start + i / 4] >> (2 * (i % 4))) & 3) as usize + 1;
        let end = data
            .checked_add(len)
            .filter(|&e| e <= block.len())
            .ok_or(IndexError::CorruptIndex { context: "stream-vbyte data bytes" })?;
        let mut b = [0u8; 4];
        b[..len].copy_from_slice(&block[data..end]);
        sink(i, u32::from_le_bytes(b));
        data = end;
        i += 1;
    }
    *pos = data;
    Ok(())
}

impl BlockCodec for StreamVByteCodec {
    fn id(&self) -> CodecId {
        CodecId::StreamVByte
    }

    fn encode_block(
        &self,
        gaps: &[u32],
        tfs: &[u32],
        _gap_bits: u8,
        _tf_bits: u8,
        payload: &mut Vec<u8>,
    ) {
        svb_encode_stream(gaps, payload);
        svb_encode_stream(tfs, payload);
    }

    fn try_decode_block_into(
        &self,
        block: &[u8],
        count: usize,
        _gap_bits: u8,
        _tf_bits: u8,
        skip: DocId,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        let base = out.len();
        out.reserve(count);
        let mut pos = 0usize;
        // Two passes over `out` instead of a scratch buffer: the gap pass
        // pushes postings with tf 0, the tf pass fills them in — zero
        // allocation beyond `out`'s own growth, any list length.
        let mut prev = skip;
        let gaps = svb_decode_stream(block, &mut pos, count, |i, g| {
            let doc = if i == 0 { skip } else { prev.wrapping_add(g) };
            out.push(Posting::new(doc, 0));
            prev = doc;
        });
        if let Err(e) = gaps {
            out.truncate(base);
            return Err(e);
        }
        let tfs = svb_decode_stream(block, &mut pos, count, |i, t| out[base + i].tf = t);
        if let Err(e) = tfs {
            out.truncate(base);
            return Err(e);
        }
        Ok(())
    }

    fn block_cost_bits(&self, len: u64, gap_bits: u8, tf_bits: u8) -> u64 {
        // Per value and stream: 2 control bits + the data bytes a
        // max-width value needs. A width-driven upper bound (individual
        // values may use fewer bytes), which is what the partitioner
        // needs: a model that rewards splitting off narrow-gap runs.
        let per_gap = 2 + 8 * svb_bytes_for_width(gap_bits);
        let per_tf = 2 + 8 * svb_bytes_for_width(tf_bits);
        len * (per_gap + per_tf) + BLOCK_OVERHEAD_BITS
    }
}

// ---------------------------------------------------------------------------
// SIMD-BP128: vertical 4-lane bit-packing in 128-value groups.
// ---------------------------------------------------------------------------

/// SIMD-BP128-style codec.
///
/// Block payload layout for a block of `m` postings with meta widths
/// `gw`/`tw` (no in-payload headers — the widths ride in the block
/// metadata word exactly like BitPack):
///
/// ```text
/// for each full group of 128 postings:
///     16·gw bytes   gaps, vertical layout (4 lanes × 32 values)
///     16·tw bytes   tfs, vertical layout
/// if m % 128 != 0 (tail of t postings):
///     one bitstream: t gaps at gw bits, then t tfs at tw bits,
///     byte-aligned only at the end
/// ```
///
/// Vertical layout: value `i` of a group lives in lane `i % 4` at slot
/// `i / 4`; each lane packs its 32 values LSB-first into exactly `w`
/// 32-bit words, and the four lanes' words are interleaved word by word
/// (`word[r·4 + lane]`), so one `__m128i` load brings the same slot of
/// all four lanes. Full groups cost exactly `128·w` bits and the tail is
/// exact too, so the whole block is byte-for-byte the same size as the
/// BitPack payload — the cost model is shared.
struct SimdBp128Codec;

/// Packs 128 values (each `< 2^w`) into `16·w` bytes of vertical layout.
fn pack_group_vertical(vals: &[u32], w: u8, out: &mut Vec<u8>) {
    debug_assert_eq!(vals.len(), SIMD_GROUP_LEN);
    if w == 0 {
        return;
    }
    let wu = w as usize;
    let mut words = [0u32; 128]; // w ≤ 32 ⇒ at most 4·32 words
    for lane in 0..4 {
        let mut acc: u64 = 0;
        let mut acc_bits: usize = 0;
        let mut row = 0usize;
        for slot in 0..32 {
            acc |= u64::from(vals[4 * slot + lane]) << acc_bits;
            acc_bits += wu;
            if acc_bits >= 32 {
                words[row * 4 + lane] = acc as u32;
                acc >>= 32;
                acc_bits -= 32;
                row += 1;
            }
        }
        debug_assert_eq!(acc_bits, 0, "32 values x {w} bits tile {w} words exactly");
    }
    for word in &words[..4 * wu] {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

// On x86-64 the scalar pair below is the test-only reference the SIMD
// kernels are checked against; elsewhere it is the production decoder.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn word_at(bytes: &[u8], offset: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[offset..offset + 4]);
    u32::from_le_bytes(b)
}

/// Portable reference unpack of one vertical group: `bytes` must hold
/// exactly `16·w` bytes. Bit-identical to the SIMD kernels.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn unpack_group_scalar(bytes: &[u8], w: u8, out: &mut [u32; SIMD_GROUP_LEN]) {
    if w == 0 {
        out.fill(0);
        return;
    }
    let wu = u32::from(w);
    let mask = mask32(w);
    let load_row = |r: usize| -> [u32; 4] {
        let o = r * 16;
        [
            word_at(bytes, o),
            word_at(bytes, o + 4),
            word_at(bytes, o + 8),
            word_at(bytes, o + 12),
        ]
    };
    let mut row = 0usize;
    let mut used: u32 = 0;
    let mut acc = load_row(0);
    for slot in 0..32 {
        if used + wu <= 32 {
            for lane in 0..4 {
                out[4 * slot + lane] = (acc[lane] >> used) & mask;
            }
            used += wu;
            if used == 32 && slot + 1 < 32 {
                row += 1;
                acc = load_row(row);
                used = 0;
            }
        } else {
            let next = load_row(row + 1);
            let lo = 32 - used;
            for lane in 0..4 {
                out[4 * slot + lane] = ((acc[lane] >> used) | (next[lane] << lo)) & mask;
            }
            row += 1;
            acc = next;
            used = wu - lo;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{mask32, SIMD_GROUP_LEN};
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    pub(super) fn avx2_available() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    pub(super) fn ssse3_available() -> bool {
        static SSSE3: OnceLock<bool> = OnceLock::new();
        *SSSE3.get_or_init(|| std::arch::is_x86_feature_detected!("ssse3"))
    }

    /// Decodes one Stream-VByte quad: the control byte's shuffle mask
    /// expands the 4–16 packed data bytes at `data` into four
    /// little-endian u32 lanes (one table lookup, one load, one
    /// `_mm_shuffle_epi8`).
    ///
    /// # Safety
    ///
    /// Requires SSSE3 at runtime and 16 readable bytes at `data`.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn svb_decode_quad(data: *const u8, ctrl: u8) -> [u32; 4] {
        let raw = _mm_loadu_si128(data as *const __m128i);
        let mask =
            _mm_loadu_si128(super::SVB_SHUFFLE[usize::from(ctrl)].as_ptr() as *const __m128i);
        let mut out = [0u32; 4];
        _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, _mm_shuffle_epi8(raw, mask));
        out
    }

    /// SSE2 unpack (baseline on x86-64, no runtime gate needed): the same
    /// row/carry walk as the scalar reference, four lanes per shift.
    pub(super) fn unpack_group_sse2(bytes: &[u8], w: u8, out: &mut [u32; SIMD_GROUP_LEN]) {
        if w == 0 {
            out.fill(0);
            return;
        }
        debug_assert!(bytes.len() >= 16 * w as usize);
        let wu = u32::from(w);
        // SAFETY: SSE2 is part of the x86-64 baseline. All loads read 16
        // in-bounds bytes (the caller hands exactly 16·w bytes and the
        // row index never exceeds w − 1); stores write within `out`.
        unsafe {
            let mask = _mm_set1_epi32(mask32(w) as i32);
            let base = bytes.as_ptr();
            let outp = out.as_mut_ptr();
            let mut row = 0usize;
            let mut used: u32 = 0;
            let mut acc = _mm_loadu_si128(base as *const __m128i);
            for slot in 0..32 {
                let vals;
                if used + wu <= 32 {
                    vals = _mm_and_si128(
                        _mm_srl_epi32(acc, _mm_cvtsi32_si128(used as i32)),
                        mask,
                    );
                    used += wu;
                    if used == 32 && slot + 1 < 32 {
                        row += 1;
                        acc = _mm_loadu_si128(base.add(row * 16) as *const __m128i);
                        used = 0;
                    }
                } else {
                    let next = _mm_loadu_si128(base.add((row + 1) * 16) as *const __m128i);
                    let lo = 32 - used;
                    vals = _mm_and_si128(
                        _mm_or_si128(
                            _mm_srl_epi32(acc, _mm_cvtsi32_si128(used as i32)),
                            _mm_sll_epi32(next, _mm_cvtsi32_si128(lo as i32)),
                        ),
                        mask,
                    );
                    row += 1;
                    acc = next;
                    used = wu - lo;
                }
                _mm_storeu_si128(outp.add(4 * slot) as *mut __m128i, vals);
            }
        }
    }

    /// AVX2 unpack for widths dividing 32 (no value crosses a word
    /// boundary): processes two rows — eight lanes-worth of values — per
    /// shift. Caller must check [`avx2_available`] and `32 % w == 0`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime and `bytes.len() >= 16·w`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_group_avx2(
        bytes: &[u8],
        w: u8,
        out: &mut [u32; SIMD_GROUP_LEN],
    ) {
        debug_assert!(w != 0 && 32 % u32::from(w) == 0 && bytes.len() >= 16 * w as usize);
        let wu = u32::from(w);
        let per_row = (32 / wu) as usize;
        let mask = _mm256_set1_epi32(mask32(w) as i32);
        let base = bytes.as_ptr();
        let outp = out.as_mut_ptr();
        let rows = w as usize;
        let mut row = 0usize;
        while row + 2 <= rows {
            // Low 128 bits: row `row` (slots row·per_row ..); high 128
            // bits: row `row + 1` (the next per_row slots).
            let acc = _mm256_loadu_si256(base.add(row * 16) as *const __m256i);
            for k in 0..per_row {
                let v = _mm256_and_si256(
                    _mm256_srl_epi32(acc, _mm_cvtsi32_si128((k as u32 * wu) as i32)),
                    mask,
                );
                let slot = row * per_row + k;
                _mm_storeu_si128(
                    outp.add(4 * slot) as *mut __m128i,
                    _mm256_castsi256_si128(v),
                );
                _mm_storeu_si128(
                    outp.add(4 * (slot + per_row)) as *mut __m128i,
                    _mm256_extracti128_si256::<1>(v),
                );
            }
            row += 2;
        }
        if row < rows {
            // Odd row count (only w = 1 among the 32 % w == 0 widths).
            let acc = _mm_loadu_si128(base.add(row * 16) as *const __m128i);
            let mask128 = _mm256_castsi256_si128(mask);
            for k in 0..per_row {
                let v = _mm_and_si128(
                    _mm_srl_epi32(acc, _mm_cvtsi32_si128((k as u32 * wu) as i32)),
                    mask128,
                );
                _mm_storeu_si128(outp.add(4 * (row * per_row + k)) as *mut __m128i, v);
            }
        }
    }
}

/// Unpacks one vertical group, dispatching to the fastest kernel the CPU
/// supports. `bytes` must hold at least `16·w` bytes.
fn unpack_group(bytes: &[u8], w: u8, out: &mut [u32; SIMD_GROUP_LEN]) {
    #[cfg(target_arch = "x86_64")]
    {
        if w != 0 && 32 % u32::from(w) == 0 && x86::avx2_available() {
            // SAFETY: AVX2 presence checked at runtime; bounds are the
            // caller's contract (same as every kernel here).
            unsafe { x86::unpack_group_avx2(bytes, w, out) };
        } else {
            x86::unpack_group_sse2(bytes, w, out);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unpack_group_scalar(bytes, w, out);
}

impl BlockCodec for SimdBp128Codec {
    fn id(&self) -> CodecId {
        CodecId::SimdBp128
    }

    fn encode_block(
        &self,
        gaps: &[u32],
        tfs: &[u32],
        gap_bits: u8,
        tf_bits: u8,
        payload: &mut Vec<u8>,
    ) {
        let n = gaps.len();
        let full = n / SIMD_GROUP_LEN;
        for g in 0..full {
            let range = g * SIMD_GROUP_LEN..(g + 1) * SIMD_GROUP_LEN;
            pack_group_vertical(&gaps[range.clone()], gap_bits, payload);
            pack_group_vertical(&tfs[range], tf_bits, payload);
        }
        let tail = full * SIMD_GROUP_LEN..n;
        if !tail.is_empty() {
            let mut w = BitWriter::new();
            for &g in &gaps[tail.clone()] {
                w.write(g, gap_bits);
            }
            for &t in &tfs[tail] {
                w.write(t, tf_bits);
            }
            payload.extend_from_slice(&w.finish());
        }
    }

    fn try_decode_block_into(
        &self,
        block: &[u8],
        count: usize,
        gap_bits: u8,
        tf_bits: u8,
        skip: DocId,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        if gap_bits > 31 || tf_bits > 31 {
            return Err(IndexError::CorruptIndex { context: "block bitwidths" });
        }
        let full = count / SIMD_GROUP_LEN;
        let tail = count % SIMD_GROUP_LEN;
        let gap_group_bytes = 16 * gap_bits as usize;
        let tf_group_bytes = 16 * tf_bits as usize;
        let tail_bits = tail * (gap_bits as usize + tf_bits as usize);
        let need = full * (gap_group_bytes + tf_group_bytes) + tail_bits.div_ceil(8);
        if need > block.len() {
            return Err(IndexError::CorruptIndex { context: "payload bounds" });
        }
        out.reserve(count);
        let mut gaps = [0u32; SIMD_GROUP_LEN];
        let mut tfs = [0u32; SIMD_GROUP_LEN];
        let mut prev = skip;
        let mut first = true;
        let mut pos = 0usize;
        for _ in 0..full {
            unpack_group(&block[pos..pos + gap_group_bytes], gap_bits, &mut gaps);
            pos += gap_group_bytes;
            unpack_group(&block[pos..pos + tf_group_bytes], tf_bits, &mut tfs);
            pos += tf_group_bytes;
            for i in 0..SIMD_GROUP_LEN {
                let doc = if first {
                    first = false;
                    skip
                } else {
                    prev.wrapping_add(gaps[i])
                };
                out.push(Posting::new(doc, tfs[i]));
                prev = doc;
            }
        }
        if tail > 0 {
            // Tail: a plain bitstream decoded by the PR-3 word-window
            // extractor — gaps first, then tfs, no padding in between.
            let bit0 = pos * 8;
            for (i, g) in gaps.iter_mut().enumerate().take(tail) {
                *g = bitpack::extract(block, bit0 + i * gap_bits as usize, gap_bits);
            }
            let tf0 = bit0 + tail * gap_bits as usize;
            for (i, t) in tfs.iter_mut().enumerate().take(tail) {
                *t = bitpack::extract(block, tf0 + i * tf_bits as usize, tf_bits);
            }
            for i in 0..tail {
                let doc = if first {
                    first = false;
                    skip
                } else {
                    prev.wrapping_add(gaps[i])
                };
                out.push(Posting::new(doc, tfs[i]));
                prev = doc;
            }
        }
        Ok(())
    }

    fn block_cost_bits(&self, len: u64, gap_bits: u8, tf_bits: u8) -> u64 {
        // Full groups are exactly 128·(gw+tw) bits and the tail bitstream
        // is exact too, so the model is BitPack's — identical physical
        // size, SIMD-decodable arrangement.
        (u64::from(gap_bits) + u64::from(tf_bits)) * len + BLOCK_OVERHEAD_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn group_values(seed: u64, w: u8) -> Vec<u32> {
        let mask = mask32(w);
        let mut x = seed | 1;
        (0..SIMD_GROUP_LEN as u32)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((x >> 33) as u32) & mask
            })
            .collect()
    }

    #[test]
    fn block_cost_is_affine_in_len_with_a_monotone_slope() {
        // The contract on `block_cost_bits` that the partitioner's early
        // stop is proved from.
        for codec in CodecId::ALL {
            let ops = codec.ops();
            let overhead = ops.block_cost_bits(0, 0, 0);
            let slope = |g: u8, t: u8| ops.block_cost_bits(1, g, t) - overhead;
            for g in 0..=32u8 {
                for t in 0..=32u8 {
                    for len in [0u64, 1, 2, 3, 17, 128, 255, 256, 2048] {
                        assert_eq!(
                            ops.block_cost_bits(len, g, t),
                            len * slope(g, t) + overhead,
                            "{codec}: not affine at len={len} g={g} t={t}"
                        );
                    }
                    if g < 32 {
                        assert!(
                            slope(g + 1, t) >= slope(g, t),
                            "{codec}: slope falls in g at {g}"
                        );
                    }
                    if t < 32 {
                        assert!(
                            slope(g, t + 1) >= slope(g, t),
                            "{codec}: slope falls in t at {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vertical_group_roundtrips_every_width() {
        for w in 0..=31u8 {
            let vals = group_values(0xD1CE + u64::from(w), w);
            let mut bytes = Vec::new();
            pack_group_vertical(&vals, w, &mut bytes);
            assert_eq!(bytes.len(), 16 * w as usize, "w={w}");
            let mut out = [u32::MAX; SIMD_GROUP_LEN];
            unpack_group_scalar(&bytes, w, &mut out);
            assert_eq!(&out[..], &vals[..], "scalar w={w}");
            let mut simd = [u32::MAX; SIMD_GROUP_LEN];
            unpack_group(&bytes, w, &mut simd);
            assert_eq!(simd, out, "simd kernel diverges from scalar at w={w}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_and_avx2_match_scalar_exactly() {
        for w in 0..=31u8 {
            let vals = group_values(0xFEED + u64::from(w), w);
            let mut bytes = Vec::new();
            pack_group_vertical(&vals, w, &mut bytes);
            let mut scalar = [0u32; SIMD_GROUP_LEN];
            unpack_group_scalar(&bytes, w, &mut scalar);
            let mut sse = [0u32; SIMD_GROUP_LEN];
            x86::unpack_group_sse2(&bytes, w, &mut sse);
            assert_eq!(sse, scalar, "sse2 w={w}");
            if w != 0 && 32 % u32::from(w) == 0 && x86::avx2_available() {
                let mut avx = [0u32; SIMD_GROUP_LEN];
                unsafe { x86::unpack_group_avx2(&bytes, w, &mut avx) };
                assert_eq!(avx, scalar, "avx2 w={w}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn svb_shuffle_tables_are_consistent() {
        for c in 0..256usize {
            let mut offset = 0u8;
            for k in 0..4usize {
                let len = ((c >> (2 * k)) & 3) as u8 + 1;
                for j in 0..4u8 {
                    let want = if j < len { offset + j } else { 0x80 };
                    assert_eq!(
                        SVB_SHUFFLE[c][4 * k + j as usize],
                        want,
                        "ctrl={c} lane={k} byte={j}"
                    );
                }
                offset += len;
            }
            assert_eq!(SVB_QUAD_LEN[c], offset, "ctrl={c}");
        }
    }

    fn svb_case_values(n: usize, seed: u64) -> Vec<u32> {
        // Cycle through all four byte lengths so every control pattern
        // shows up once n gets past a few quads.
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let r = (x >> 33) as u32;
                match i % 4 {
                    0 => r & 0xFF,
                    1 => r & 0xFFFF,
                    2 => r & 0xFF_FFFF,
                    _ => r,
                }
            })
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn svb_ssse3_stream_matches_scalar_exactly() {
        if !x86::ssse3_available() {
            return;
        }
        for n in [0usize, 1, 3, 4, 5, 7, 8, 12, 16, 63, 64, 127, 128, 300, 511] {
            let values = svb_case_values(n, 0x5B5B + n as u64);
            let mut block = Vec::new();
            svb_encode_stream(&values, &mut block);
            // Trailing bytes after the stream exercise the "SIMD window
            // still in bounds" guard without changing the answer.
            for pad in [0usize, 1, 16] {
                let mut padded = block.clone();
                padded.extend(std::iter::repeat_n(0xA5u8, pad));
                let mut scalar = vec![0u32; n];
                let mut pos_scalar = 0usize;
                svb_decode_stream_impl(&padded, &mut pos_scalar, n, false, |i, v| {
                    scalar[i] = v;
                })
                .expect("scalar decode");
                let mut simd = vec![0u32; n];
                let mut pos_simd = 0usize;
                svb_decode_stream_impl(&padded, &mut pos_simd, n, true, |i, v| simd[i] = v)
                    .expect("simd decode");
                assert_eq!(simd, scalar, "n={n} pad={pad}");
                assert_eq!(simd, values, "n={n} pad={pad}");
                assert_eq!(pos_simd, pos_scalar, "n={n} pad={pad}");
                assert_eq!(pos_simd, block.len(), "n={n} pad={pad}");
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
    fn every_codec_roundtrips_blocks_of_all_shapes() {
        for codec in CodecId::ALL {
            let ops = codec.ops();
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
                ops.encode_block(&gaps, &tfs, gw, tw, &mut payload);
                let mut out = Vec::new();
                ops.try_decode_block_into(&payload, n, gw, tw, skip, &mut out)
                    .unwrap_or_else(|e| panic!("{codec} n={n}: {e}"));
                assert_eq!(out, postings_from(&gaps, &tfs, skip), "{codec} n={n}");
            }
        }
    }

    /// BitPack's one pair kernel against the independent `postings_from`
    /// reference at every width pair, every field at its width's maximum
    /// and a non-zero stored first gap (the first docID is still the skip).
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
                    CodecId::BitPack.ops().encode_block(&gaps, &tfs, gw, tw, &mut block);
                    let mut out = Vec::new();
                    CodecId::BitPack
                        .ops()
                        .try_decode_block_into(&block, n, gw, tw, skip, &mut out)
                        .unwrap();
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
                            CodecId::BitPack,
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
    fn simdbp_payload_is_byte_identical_in_size_to_bitpack() {
        for (n, max_gap, max_tf) in [
            (1, 1, 1),
            (64, 50, 3),
            (128, 1000, 7),
            (200, 9, 2),
            (511, 77, 31),
            (512, 1 << 15, 1),
        ] {
            let (gaps, tfs, _) = block_case(n, 0xABCD + n as u64, max_gap, max_tf);
            let gw = gaps.iter().copied().map(crate::bitpack::bits_for).max().unwrap();
            let tw = tfs.iter().copied().map(crate::bitpack::bits_for).max().unwrap();
            let mut bp = Vec::new();
            CodecId::BitPack.ops().encode_block(&gaps, &tfs, gw, tw, &mut bp);
            let mut sb = Vec::new();
            CodecId::SimdBp128.ops().encode_block(&gaps, &tfs, gw, tw, &mut sb);
            assert_eq!(sb.len(), bp.len(), "n={n} gw={gw} tw={tw}");
        }
    }

    #[test]
    fn truncated_payloads_error_and_leave_out_untouched() {
        for codec in CodecId::ALL {
            let ops = codec.ops();
            let (gaps, tfs, skip) = block_case(300, 0xE44, 500, 12);
            let gw = gaps.iter().copied().map(crate::bitpack::bits_for).max().unwrap();
            let tw = tfs.iter().copied().map(crate::bitpack::bits_for).max().unwrap();
            let mut payload = Vec::new();
            ops.encode_block(&gaps, &tfs, gw, tw, &mut payload);
            let mut out = vec![Posting::new(7, 7)];
            for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
                let err =
                    ops.try_decode_block_into(&payload[..cut], 300, gw, tw, skip, &mut out);
                assert!(err.is_err(), "{codec} cut={cut} accepted a truncated payload");
                assert_eq!(out, vec![Posting::new(7, 7)], "{codec} cut={cut} touched out");
            }
            // Impossible widths are refused before any read by the
            // width-driven codecs (Stream-VByte ignores the hints: its
            // lengths live in the control bytes).
            if codec != CodecId::StreamVByte {
                assert!(ops
                    .try_decode_block_into(&payload, 300, 32, tw, skip, &mut out)
                    .is_err());
                assert!(ops
                    .try_decode_block_into(&payload, 300, gw, 33, skip, &mut out)
                    .is_err());
            }
        }
    }

    #[test]
    fn codec_id_round_trips_and_parses() {
        for codec in CodecId::ALL {
            assert_eq!(CodecId::from_u8(codec.as_u8()).unwrap(), codec);
            assert_eq!(CodecId::parse(codec.name()), Some(codec));
            assert_eq!(codec.ops().id(), codec);
        }
        assert!(matches!(CodecId::from_u8(99), Err(IndexError::UnknownCodec { id: 99 })));
        assert_eq!(CodecId::parse("svb"), Some(CodecId::StreamVByte));
        assert_eq!(CodecId::parse("simdbp"), Some(CodecId::SimdBp128));
        assert_eq!(CodecId::parse("zstd"), None);
        assert_eq!(CodecId::default(), CodecId::BitPack);
        assert_eq!(CodecId::SimdBp128.to_string(), "simdbp128");
    }

    #[test]
    fn cost_models_are_sane() {
        // BitPack and SimdBp128 share the exact model; StreamVByte's is
        // byte-aligned and must dominate BitPack's for every width.
        for w in 0..=31u8 {
            for len in [1u64, 5, 128, 2048] {
                let bp = CodecId::BitPack.ops().block_cost_bits(len, w, 3);
                let sb = CodecId::SimdBp128.ops().block_cost_bits(len, w, 3);
                let svb = CodecId::StreamVByte.ops().block_cost_bits(len, w, 3);
                assert_eq!(bp, sb, "w={w} len={len}");
                assert!(svb >= bp, "stream-vbyte model below bitpack at w={w} len={len}");
            }
        }
        // Zero-width blocks still pay the metadata overhead.
        assert_eq!(CodecId::BitPack.ops().block_cost_bits(1, 0, 0), BLOCK_OVERHEAD_BITS);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Differential roundtrip: every codec decodes to exactly the
        /// postings the BitPack reference decodes to.
        #[test]
        fn prop_codecs_agree_with_bitpack_reference(
            raw_gaps in proptest::collection::vec(1u32..1 << 18, 1..300),
            raw_tfs in proptest::collection::vec(0u32..1 << 10, 1..300),
            skip in 0u32..1 << 24,
        ) {
            let n = raw_gaps.len().min(raw_tfs.len());
            let mut gaps = raw_gaps[..n].to_vec();
            gaps[0] = 0;
            let tfs = &raw_tfs[..n];
            let gw = gaps.iter().copied().map(crate::bitpack::bits_for).max().unwrap();
            let tw = tfs.iter().copied().map(crate::bitpack::bits_for).max().unwrap();

            let mut reference = Vec::new();
            let mut bp_payload = Vec::new();
            CodecId::BitPack.ops().encode_block(&gaps, tfs, gw, tw, &mut bp_payload);
            CodecId::BitPack.ops()
                .try_decode_block_into(&bp_payload, n, gw, tw, skip, &mut reference)
                .unwrap();

            for codec in [CodecId::StreamVByte, CodecId::SimdBp128] {
                let ops = codec.ops();
                let mut payload = Vec::new();
                ops.encode_block(&gaps, tfs, gw, tw, &mut payload);
                let mut out = Vec::new();
                ops.try_decode_block_into(&payload, n, gw, tw, skip, &mut out).unwrap();
                prop_assert_eq!(&out, &reference, "{} diverged from the reference", codec);
            }
        }

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
            for codec in CodecId::ALL {
                let mut out = Vec::new();
                let res = codec.ops().try_decode_block_into(&bytes, count, gw, tw, skip, &mut out);
                if res.is_err() {
                    prop_assert!(out.is_empty(), "{} left partial output on error", codec);
                }
            }
        }
    }
}
