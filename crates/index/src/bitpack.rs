//! Bit-level packing primitives.
//!
//! The IIU index stores `(d-gap, tf)` pairs bit-packed at the minimum
//! per-block bitwidth (paper §3.1). The decompression unit extracts fields
//! with shifting and masking; this module is the software equivalent, an
//! LSB-first bit stream over a byte buffer.
//!
//! # Reads
//!
//! Every read is one unaligned little-endian 8-byte window load at
//! `bit >> 3`, shifted by `bit & 7` and masked. [`BitReader::read`] /
//! [`BitReader::try_read`] extract one field that way (width ≤ 32 and a
//! bit offset within a byte keep every field inside one window). Block
//! decode runs the same window once per `(d-gap, tf)` pair in
//! [`crate::codec::try_decode_pairs_into`], the one kernel every served
//! decode goes through — the software analogue of the DCU extracting one
//! posting per cycle.
//!
//! [`BitReader::try_read`] returns [`IndexError::CorruptIndex`] instead of
//! panicking when a corrupted payload would read past the buffer;
//! [`BitReader::read`] is the panicking form for validated payloads.

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

    /// Packs `values` at one uniform `width` through [`BitWriter::write`].
    fn pack(values: &[u32], width: u8) -> Vec<u8> {
        let mut w = BitWriter::new();
        for &v in values {
            w.write(v, width);
        }
        w.finish()
    }

    /// Reads `n` values of one uniform `width` back through
    /// [`BitReader::read`].
    fn unpack(bytes: &[u8], n: usize, width: u8) -> Vec<u32> {
        let mut r = BitReader::new(bytes);
        (0..n).map(|_| r.read(width)).collect()
    }

    #[test]
    fn pack_unpack_all() {
        let vals = [7u32, 0, 3, 5, 1];
        let packed = pack(&vals, 3);
        assert_eq!(packed.len(), 2); // 15 bits -> 2 bytes
        assert_eq!(unpack(&packed, 5, 3), vals);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_uniform(values in proptest::collection::vec(0u32..1 << 20, 0..200)) {
            let width = values.iter().copied().map(bits_for).max().unwrap_or(0);
            let packed = pack(&values, width);
            prop_assert_eq!(unpack(&packed, values.len(), width), values);
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

        /// The windowed single-field read returns the written value at
        /// every width and every bit offset within a byte.
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
            prop_assert_eq!(fast, value);
        }
    }
}
