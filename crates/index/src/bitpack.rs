//! Bit-level packing primitives.
//!
//! The IIU index stores `(d-gap, tf)` pairs bit-packed at the minimum
//! per-block bitwidth (paper §3.1). The decompression unit extracts fields
//! with shifting and masking; this module is the software equivalent, an
//! LSB-first bit stream over a byte buffer.
//!
//! # Decode kernels
//!
//! Reads come in three tiers, fastest first:
//!
//! * [`unpack_into`] / [`try_unpack_into`] — the batch kernel: uniform-width
//!   unpacking in unrolled 32-value groups, one unaligned little-endian
//!   64-bit window load per value, monomorphized per width so masks and
//!   strides are compile-time constants (the software analogue of
//!   SIMD-BP128-style word-aligned unpacking, and of the DCU extracting one
//!   posting per cycle);
//! * [`BitReader::read`] / [`BitReader::try_read`] — single-field extraction
//!   through the same 64-bit window (width ≤ 32 and a bit offset within a
//!   byte keep every field inside one window);
//! * [`unpack_all_scalar`] — the original byte-at-a-time loop, retained as
//!   the reference implementation for the equivalence suite and the perf
//!   gate's before/after comparison.
//!
//! The `try_*` variants return [`IndexError::CorruptIndex`] instead of
//! panicking when a corrupted payload would read past the buffer; the
//! panicking variants are thin wrappers for callers operating on validated
//! indexes.

use crate::error::IndexError;

/// Number of bits needed to represent `value` (0 needs 0 bits).
///
/// This is the paper's `⌈log(v + 1)⌉` (Eq. 2): the bitwidth that can hold
/// every value in `0..=value`.
///
/// # Example
///
/// ```
/// use iiu_index::bitpack::bits_for;
/// assert_eq!(bits_for(0), 0);
/// assert_eq!(bits_for(1), 1);
/// assert_eq!(bits_for(255), 8);
/// assert_eq!(bits_for(256), 9);
/// assert_eq!(bits_for(u32::MAX), 32);
/// ```
pub fn bits_for(value: u32) -> u8 {
    (32 - value.leading_zeros()) as u8
}

/// Low-`width` mask as a u64 (valid for widths 0..=32 without branching:
/// `1 << 32` fits in a u64).
#[inline(always)]
pub(crate) fn mask64(width: u8) -> u64 {
    (1u64 << width) - 1
}

/// Bits of a [`window`] guaranteed to come from the stream: 64 loaded,
/// less up to 7 shifted out by a start mid-byte.
pub(crate) const WINDOW_BITS: u32 = 57;

/// The stream from absolute bit `bit` on, as a u64 whose low
/// [`WINDOW_BITS`] bits are exact: one 8-byte little-endian load at
/// `bit >> 3`, shifted by `bit & 7`. Zero-pads past the end of `bytes`,
/// which leaves in-bounds fields intact: padding only lands above them.
#[inline(always)]
pub(crate) fn window(bytes: &[u8], bit: usize) -> u64 {
    let byte = bit >> 3;
    let word = match bytes.get(byte..byte.wrapping_add(8)).and_then(|c| c.try_into().ok()) {
        Some(chunk) => u64::from_le_bytes(chunk),
        None => padded_window(bytes, byte),
    };
    word >> (bit & 7)
}

/// The load of [`window`] within 8 bytes of the end, kept out of line so
/// the in-bounds load stays one fixed-size read.
#[cold]
#[inline(never)]
fn padded_window(bytes: &[u8], byte: usize) -> u64 {
    let mut arr = [0u8; 8];
    let tail = bytes.get(byte..).unwrap_or(&[]);
    arr[..tail.len()].copy_from_slice(tail);
    u64::from_le_bytes(arr)
}

/// Extracts a `width`-bit field (0..=32) starting at absolute bit `bit`.
/// The caller must have bounds-checked `bit + width` against the buffer;
/// the window load itself zero-pads, so this never indexes out of bounds.
/// Width 0 reads nothing and returns 0.
#[inline(always)]
pub(crate) fn extract(bytes: &[u8], bit: usize, width: u8) -> u32 {
    (window(bytes, bit) & mask64(width)) as u32
}

/// The original byte-at-a-time field extraction, kept as the reference the
/// batch kernels are tested against (and benchmarked against as "before").
#[inline]
fn scalar_extract(bytes: &[u8], mut cursor: usize, width: u8) -> (u32, usize) {
    let mut out: u32 = 0;
    let mut got: u8 = 0;
    while got < width {
        let byte_idx = cursor / 8;
        let bit_idx = (cursor % 8) as u8;
        assert!(byte_idx < bytes.len(), "bit read past end of buffer");
        let avail = 8 - bit_idx;
        let take = avail.min(width - got);
        let mask = ((1u16 << take) - 1) as u8;
        let chunk = (bytes[byte_idx] >> bit_idx) & mask;
        out |= u32::from(chunk) << got;
        got += take;
        cursor += take as usize;
    }
    (out, cursor)
}

/// Writes unsigned integers of arbitrary bitwidth (0..=32) into a byte
/// buffer, LSB-first within each byte.
///
/// # Example
///
/// ```
/// use iiu_index::bitpack::{BitWriter, BitReader};
/// let mut w = BitWriter::new();
/// w.write(5, 3);
/// w.write(1000, 10);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read(3), 5);
/// assert_eq!(r.read(10), 1000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final byte (0..8).
    bit_pos: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the low `width` bits of `value`.
    ///
    /// A width of 0 writes nothing (used for blocks whose values are all
    /// zero, e.g. a run of identical docIDs' first d-gap).
    ///
    /// # Panics
    ///
    /// Panics if `width > 32` or if `value` does not fit in `width` bits.
    pub fn write(&mut self, value: u32, width: u8) {
        assert!(width <= 32, "bitwidth must be at most 32");
        if width < 32 {
            assert!(
                u64::from(value) < (1u64 << width),
                "value {value} does not fit in {width} bits"
            );
        }
        let mut remaining = width;
        let mut v = value;
        while remaining > 0 {
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let free = 8 - self.bit_pos;
            let take = free.min(remaining);
            let mask = if take == 32 { u32::MAX } else { (1u32 << take) - 1 };
            let chunk = (v & mask) as u8;
            *self.bytes.last_mut().expect("byte pushed above") |= chunk << self.bit_pos;
            v = if take == 32 { 0 } else { v >> take };
            self.bit_pos = (self.bit_pos + take) % 8;
            remaining -= take;
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.bit_pos == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.bit_pos as usize
        }
    }

    /// Pads to the next byte boundary and returns the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }

    /// Pads the stream so the next write starts at a byte boundary.
    pub fn align_to_byte(&mut self) {
        self.bit_pos = 0;
    }
}

/// Reads back integers written by [`BitWriter`], LSB-first.
///
/// Field extraction goes through a 64-bit little-endian window: a field of
/// at most 32 bits starting at any bit offset within a byte spans at most
/// 39 bits, so one window load plus a shift and mask recovers it — no
/// per-byte loop.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    cursor: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes` starting at bit 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, cursor: 0 }
    }

    /// Creates a reader starting at an absolute bit offset.
    pub fn with_bit_offset(bytes: &'a [u8], bit_offset: usize) -> Self {
        BitReader { bytes, cursor: bit_offset }
    }

    /// Reads `width` bits (0..=32) and advances the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the read runs past the end of the buffer. Untrusted
    /// payloads should use [`BitReader::try_read`] instead.
    pub fn read(&mut self, width: u8) -> u32 {
        match self.try_read(width) {
            Ok(v) => v,
            Err(_) => panic!("bit read past end of buffer"),
        }
    }

    /// Reads `width` bits (0..=32) and advances the cursor, returning
    /// [`IndexError::CorruptIndex`] instead of panicking if the read would
    /// run past the end of the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `width > 32` (a caller bug, not a data fault).
    pub fn try_read(&mut self, width: u8) -> Result<u32, IndexError> {
        assert!(width <= 32, "bitwidth must be at most 32");
        if width == 0 {
            return Ok(0);
        }
        let end = self.cursor + width as usize;
        if end > self.bytes.len() * 8 {
            return Err(IndexError::CorruptIndex { context: "bit read past end of payload" });
        }
        let v = extract(self.bytes, self.cursor, width);
        self.cursor = end;
        Ok(v)
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.cursor
    }

    /// Skips `width` bits without decoding them.
    pub fn skip(&mut self, width: usize) {
        self.cursor += width;
    }
}

/// One little-endian 8-byte window load.
#[inline(always)]
fn load_word(bytes: &[u8], byte: usize) -> u64 {
    let mut arr = [0u8; 8];
    arr.copy_from_slice(&bytes[byte..byte + 8]);
    u64::from_le_bytes(arr)
}

/// Unpacks 32 values of constant width `W` starting at `start_bit`,
/// appending to `out`. Monomorphized per width: the mask and stride are
/// compile-time constants, and the staging array lets the whole group land
/// in `out` with one `extend_from_slice`.
///
/// The values stream through a 64-bit accumulator holding `avail` valid
/// low bits (zeros above), refilled with one whole-word load per 64 bits
/// consumed — one bounds check per word instead of per value.
///
/// The caller guarantees every refill window is in bounds:
/// `((start_bit + 32 * W) >> 3) + 8 <= bytes.len()` (refills land at
/// `(start_bit >> 3) + 8k` for `k < ceil(((start_bit & 7) + 32 * W) / 64)`,
/// which that condition covers).
#[inline(always)]
fn unpack_group32<const W: usize>(bytes: &[u8], start_bit: usize, out: &mut Vec<u32>) {
    let m = mask64(W as u8);
    let mut buf = [0u32; 32];
    let mut byte = start_bit >> 3;
    let lead = (start_bit & 7) as u32;
    // A 32-value group always spans exactly 4·W bytes, so a byte-aligned
    // start stays byte-aligned group after group. For byte-divisible
    // widths that makes every value a plain little-endian load — these
    // are also the widths where the scalar fallback is fastest, so the
    // streaming loop alone is not a big enough win there. The `W` match
    // is resolved at monomorphization time.
    if lead == 0 && matches!(W, 4 | 8 | 16 | 24 | 32) {
        let src = &bytes[byte..byte + 4 * W];
        match W {
            4 => {
                for (pair, &b) in buf.chunks_exact_mut(2).zip(src) {
                    pair[0] = u32::from(b & 0xf);
                    pair[1] = u32::from(b >> 4);
                }
            }
            8 => {
                for (slot, &b) in buf.iter_mut().zip(src) {
                    *slot = u32::from(b);
                }
            }
            16 => {
                for (slot, c) in buf.iter_mut().zip(src.chunks_exact(2)) {
                    *slot = u32::from(u16::from_le_bytes([c[0], c[1]]));
                }
            }
            24 => {
                for (slot, c) in buf.iter_mut().zip(src.chunks_exact(3)) {
                    *slot = u32::from_le_bytes([c[0], c[1], c[2], 0]);
                }
            }
            32 => {
                for (slot, c) in buf.iter_mut().zip(src.chunks_exact(4)) {
                    *slot = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                }
            }
            _ => unreachable!("byte-divisible widths handled above"),
        }
        out.extend_from_slice(&buf);
        return;
    }
    let mut acc = load_word(bytes, byte) >> lead;
    let mut avail = 64 - lead;
    byte += 8;
    for slot in &mut buf {
        if avail as usize >= W {
            *slot = (acc & m) as u32;
            acc >>= W;
            avail -= W as u32;
        } else {
            // Low `avail` bits from the accumulator, the rest from the
            // next word. `avail < W <= 32`, so no shift reaches 64.
            let word = load_word(bytes, byte);
            byte += 8;
            *slot = ((acc | (word << avail)) & m) as u32;
            acc = word >> (W as u32 - avail);
            avail = 64 - (W as u32 - avail);
        }
    }
    out.extend_from_slice(&buf);
}

/// The per-width monomorphized group kernel (widths 1..=32).
fn group_kernel(width: u8) -> fn(&[u8], usize, &mut Vec<u32>) {
    macro_rules! dispatch {
        ($($w:literal),*) => {
            match width {
                $($w => unpack_group32::<$w>,)*
                _ => unreachable!("group kernel widths are 1..=32"),
            }
        };
    }
    dispatch!(
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
        25, 26, 27, 28, 29, 30, 31, 32
    )
}

/// Batch kernel: appends `n` values of uniform `width` (0..=32) read from
/// `bytes` starting at absolute bit `bit_offset` onto `out`, without
/// allocating beyond `out`'s growth. The bulk runs in unrolled 32-value
/// groups of word-window extractions; the unaligned tail (and any group
/// whose final window would touch the buffer edge) falls back to the
/// field-at-a-time path.
///
/// Width 0 appends `n` zeros without reading any bits.
///
/// # Errors
///
/// Returns [`IndexError::CorruptIndex`] if `width > 32` or the read would
/// run past the end of `bytes`; `out` is untouched on error.
pub fn try_unpack_into(
    bytes: &[u8],
    bit_offset: usize,
    n: usize,
    width: u8,
    out: &mut Vec<u32>,
) -> Result<(), IndexError> {
    if width > 32 {
        return Err(IndexError::CorruptIndex { context: "bitwidth above 32" });
    }
    if width == 0 {
        out.resize(out.len() + n, 0);
        return Ok(());
    }
    let w = width as usize;
    let end_bits = bit_offset as u64 + n as u64 * w as u64;
    if end_bits > bytes.len() as u64 * 8 {
        return Err(IndexError::CorruptIndex { context: "bit read past end of payload" });
    }
    out.reserve(n);
    let kernel = group_kernel(width);
    let mut bit = bit_offset;
    let mut remaining = n;
    while remaining >= 32 && ((bit + 32 * w) >> 3) + 8 <= bytes.len() {
        kernel(bytes, bit, out);
        bit += 32 * w;
        remaining -= 32;
    }
    // Tail: bounds were checked up front, so plain reads cannot fail.
    let mut r = BitReader::with_bit_offset(bytes, bit);
    for _ in 0..remaining {
        out.push(r.read(width));
    }
    Ok(())
}

/// [`try_unpack_into`], panicking on corrupt input. For payloads validated
/// at load time.
///
/// # Panics
///
/// Panics if `width > 32` or the read runs past the end of `bytes`.
pub fn unpack_into(bytes: &[u8], bit_offset: usize, n: usize, width: u8, out: &mut Vec<u32>) {
    match try_unpack_into(bytes, bit_offset, n, width, out) {
        Ok(()) => {}
        Err(_) => panic!("bit read past end of buffer"),
    }
}

/// Packs a slice of values at a uniform `width`, byte-aligned at the end.
///
/// Convenience used by the fixed-width baseline codecs.
pub fn pack_all(values: &[u32], width: u8) -> Vec<u8> {
    let mut w = BitWriter::new();
    for &v in values {
        w.write(v, width);
    }
    w.finish()
}

/// Unpacks `n` values of uniform `width` from `bytes` (batch kernel).
pub fn unpack_all(bytes: &[u8], n: usize, width: u8) -> Vec<u32> {
    let mut out = Vec::with_capacity(n);
    unpack_into(bytes, 0, n, width, &mut out);
    out
}

/// Reference implementation of [`unpack_all`]: the original byte-at-a-time
/// loop. Kept for the proptest equivalence suite and as the "before" side
/// of the decode perf gate — do not use on hot paths.
pub fn unpack_all_scalar(bytes: &[u8], n: usize, width: u8) -> Vec<u32> {
    assert!(width <= 32, "bitwidth must be at most 32");
    let mut cursor = 0usize;
    (0..n)
        .map(|_| {
            let (v, next) =
                if width == 0 { (0, cursor) } else { scalar_extract(bytes, cursor, width) };
            cursor = next;
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for((1 << 31) - 1), 31);
        assert_eq!(bits_for(1 << 31), 32);
    }

    #[test]
    fn zero_width_writes_nothing() {
        let mut w = BitWriter::new();
        w.write(0, 0);
        w.write(0, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn full_width_roundtrip() {
        let mut w = BitWriter::new();
        w.write(u32::MAX, 32);
        w.write(0x1234_5678, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(32), u32::MAX);
        assert_eq!(r.read(32), 0x1234_5678);
    }

    #[test]
    fn mixed_width_roundtrip() {
        let widths = [1u8, 3, 7, 8, 9, 13, 17, 31, 32, 5];
        let values = [1u32, 5, 100, 255, 300, 8000, 70000, 1 << 30, u32::MAX, 21];
        let mut w = BitWriter::new();
        for (&v, &wd) in values.iter().zip(&widths) {
            w.write(v, wd);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (&v, &wd) in values.iter().zip(&widths) {
            assert_eq!(r.read(wd), v);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn write_rejects_oversized_value() {
        let mut w = BitWriter::new();
        w.write(8, 3);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn read_past_end_panics() {
        let bytes = [0u8];
        let mut r = BitReader::new(&bytes);
        let _ = r.read(9);
    }

    #[test]
    fn try_read_reports_corrupt_instead_of_panicking() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.try_read(8), Ok(0xff));
        assert!(matches!(r.try_read(1), Err(IndexError::CorruptIndex { .. })));
        // Zero-width reads never touch the buffer, even at the end.
        assert_eq!(r.try_read(0), Ok(0));
    }

    #[test]
    fn try_read_does_not_advance_on_error() {
        let bytes = [0b1010_1010u8];
        let mut r = BitReader::new(&bytes);
        assert!(r.try_read(32).is_err());
        assert_eq!(r.bit_pos(), 0);
        assert_eq!(r.try_read(8), Ok(0b1010_1010));
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write(0, 10);
        assert_eq!(w.bit_len(), 11);
    }

    #[test]
    fn reader_with_offset_skips_prefix() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(42, 8);
        let bytes = w.finish();
        let mut r = BitReader::with_bit_offset(&bytes, 3);
        assert_eq!(r.read(8), 42);
    }

    #[test]
    fn pack_unpack_all() {
        let vals = [7u32, 0, 3, 5, 1];
        let packed = pack_all(&vals, 3);
        assert_eq!(packed.len(), 2); // 15 bits -> 2 bytes
        assert_eq!(unpack_all(&packed, 5, 3), vals);
        assert_eq!(unpack_all_scalar(&packed, 5, 3), vals);
    }

    #[test]
    fn unpack_into_width_zero_appends_zeros_without_reading() {
        // Width 0 must not read (or require) any bytes at all.
        let mut out = vec![9u32];
        try_unpack_into(&[], 0, 4, 0, &mut out).unwrap();
        assert_eq!(out, vec![9, 0, 0, 0, 0]);
        // ... even with a nonzero bit offset into an empty buffer.
        let mut out = Vec::new();
        try_unpack_into(&[], 100, 3, 0, &mut out).unwrap();
        assert_eq!(out, vec![0, 0, 0]);
    }

    #[test]
    fn unpack_all_scalar_width_zero() {
        assert_eq!(unpack_all_scalar(&[], 3, 0), vec![0, 0, 0]);
    }

    #[test]
    fn unpack_into_appends_after_existing_contents() {
        let packed = pack_all(&[1, 2, 3], 4);
        let mut out = vec![7u32];
        unpack_into(&packed, 0, 3, 4, &mut out);
        assert_eq!(out, vec![7, 1, 2, 3]);
    }

    #[test]
    fn try_unpack_into_rejects_overrun_and_leaves_out_untouched() {
        let packed = pack_all(&[1, 2, 3], 4); // 12 bits -> 2 bytes
        let mut out = vec![42u32];
        assert!(matches!(
            try_unpack_into(&packed, 0, 5, 4, &mut out),
            Err(IndexError::CorruptIndex { .. })
        ));
        assert_eq!(out, vec![42]);
        assert!(matches!(
            try_unpack_into(&packed, 0, 1, 33, &mut out),
            Err(IndexError::CorruptIndex { .. })
        ));
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn unpack_into_long_runs_cross_group_boundaries() {
        // > 32 values exercises the grouped fast path plus the tail.
        for width in [1u8, 4, 7, 8, 13, 20, 32] {
            let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            let values: Vec<u32> =
                (0..100u32).map(|i| i.wrapping_mul(0x9e37_79b9) & mask).collect();
            let packed = pack_all(&values, width);
            assert_eq!(unpack_all(&packed, values.len(), width), values, "width {width}");
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_uniform(values in proptest::collection::vec(0u32..1 << 20, 0..200)) {
            let width = values.iter().copied().map(bits_for).max().unwrap_or(0);
            let packed = pack_all(&values, width);
            prop_assert_eq!(unpack_all(&packed, values.len(), width), values);
        }

        #[test]
        fn prop_roundtrip_mixed(pairs in proptest::collection::vec((0u32..u32::MAX, 1u8..=32), 0..200)) {
            let mut w = BitWriter::new();
            let mut expected = Vec::new();
            for &(v, wd) in &pairs {
                let mask = if wd == 32 { u32::MAX } else { (1u32 << wd) - 1 };
                let v = v & mask;
                w.write(v, wd);
                expected.push((v, wd));
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for (v, wd) in expected {
                prop_assert_eq!(r.read(wd), v);
            }
        }

        #[test]
        fn prop_bit_len_matches_sum(pairs in proptest::collection::vec((0u32..16, 4u8..=16), 0..64)) {
            let mut w = BitWriter::new();
            let mut total = 0usize;
            for &(v, wd) in &pairs {
                w.write(v, wd);
                total += wd as usize;
            }
            prop_assert_eq!(w.bit_len(), total);
        }

        /// The batch kernel agrees with the scalar reference for every
        /// width 0..=32, random length, and random (unaligned) starting
        /// bit offset.
        #[test]
        fn prop_unpack_into_equals_scalar(
            width in 0u8..=32,
            n in 0usize..200,
            prefix_bits in 0usize..64,
            seed in 0u64..u64::MAX,
        ) {
            let mask = if width == 0 {
                0
            } else if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let mut s = seed;
            let values: Vec<u32> = (0..n)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (s >> 32) as u32 & mask
                })
                .collect();
            // Junk prefix so the batch starts at an arbitrary bit offset.
            let mut w = BitWriter::new();
            for _ in 0..prefix_bits {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                w.write((s >> 63) as u32, 1);
            }
            for &v in &values {
                w.write(v, width);
            }
            let bytes = w.finish();

            let mut got = Vec::new();
            try_unpack_into(&bytes, prefix_bits, n, width, &mut got).unwrap();
            // Scalar reference at the same offset.
            let mut cursor = prefix_bits;
            let reference: Vec<u32> = (0..n)
                .map(|_| {
                    if width == 0 { return 0; }
                    let (v, next) = scalar_extract(&bytes, cursor, width);
                    cursor = next;
                    v
                })
                .collect();
            prop_assert_eq!(&got, &reference);
            prop_assert_eq!(&got, &values);
        }

        /// The windowed single-field read agrees with the scalar reference
        /// at every offset.
        #[test]
        fn prop_read_equals_scalar(
            width in 1u8..=32,
            prefix_bits in 0usize..64,
            value in 0u32..u32::MAX,
        ) {
            let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            let value = value & mask;
            let mut w = BitWriter::new();
            let mut s = 0x9e37_79b9_7f4a_7c15u64 ^ (prefix_bits as u64);
            for _ in 0..prefix_bits {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                w.write((s >> 63) as u32, 1);
            }
            w.write(value, width);
            let bytes = w.finish();
            let mut r = BitReader::with_bit_offset(&bytes, prefix_bits);
            let fast = r.read(width);
            let (slow, _) = scalar_extract(&bytes, prefix_bits, width);
            prop_assert_eq!(fast, slow);
            prop_assert_eq!(fast, value);
        }
    }
}
