//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), hand-rolled so the
//! index format carries per-section integrity checks without pulling in a
//! dependency.
//!
//! The index writer checksums every section of the serialized index
//! (header, doc-length table, each term record, score bounds) and finishes with a
//! whole-file footer; the reader verifies each section before trusting its
//! contents. See [`crate::io`] for the layout.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// Reflected CRC32 polynomial (IEEE 802.3 / zlib / PNG).
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, one byte of input per step.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Incremental CRC32 over a byte stream.
///
/// # Example
///
/// ```
/// use iiu_index::checksum::Crc32;
/// let mut crc = Crc32::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            let idx = ((crc ^ u32::from(b)) & 0xff) as usize;
            crc = (crc >> 8) ^ TABLE[idx];
        }
        self.state = crc;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value_matches_ieee_reference() {
        // The standard CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn known_vectors() {
        // Cross-checked against zlib's crc32().
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xffu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data = b"per-section integrity for the inverted index".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
