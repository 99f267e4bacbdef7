//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), hand-rolled so the
//! index format carries per-section integrity checks without pulling in a
//! dependency.
//!
//! The index writer checksums every section of the serialized index
//! (header, doc-length table, each term record, score bounds) and finishes with a
//! whole-file footer; the reader verifies each section before trusting its
//! contents. See [`crate::io`] for the layout.
//!
//! The kernel is slicing-by-16 (Kounavis & Berry, "A Systematic Approach
//! to Building High Performance Software-Based CRC Generators"): sixteen
//! 256-entry tables, 16 KiB in all, built at compile time from the
//! bytewise table, fold 16 input bytes per step into the state with
//! sixteen independent lookups instead of a chain of sixteen dependent
//! ones. The values are the bytewise CRC's, bit for bit.

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

/// Slicing tables: `TABLES[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes, so `TABLES[0]` is [`TABLE`].
static TABLES: [[u32; 256]; 16] = build_slicing_tables();

const fn build_slicing_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ TABLE[(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
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
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(16);
        for c in &mut chunks {
            // The state folds into the first four bytes. The byte at
            // position j is followed by 15 - j more, so it looks up table
            // 15 - j. The lookups are summed in four groups so the XORs
            // form a shallow tree, not one chain of sixteen.
            let x = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let a = t[15][(x & 0xff) as usize]
                ^ t[14][((x >> 8) & 0xff) as usize]
                ^ t[13][((x >> 16) & 0xff) as usize]
                ^ t[12][(x >> 24) as usize];
            let b = t[11][usize::from(c[4])]
                ^ t[10][usize::from(c[5])]
                ^ t[9][usize::from(c[6])]
                ^ t[8][usize::from(c[7])];
            let d = t[7][usize::from(c[8])]
                ^ t[6][usize::from(c[9])]
                ^ t[5][usize::from(c[10])]
                ^ t[4][usize::from(c[11])];
            let e = t[3][usize::from(c[12])]
                ^ t[2][usize::from(c[13])]
                ^ t[1][usize::from(c[14])]
                ^ t[0][usize::from(c[15])];
            crc = (a ^ b) ^ (d ^ e);
        }
        for &b in chunks.remainder() {
            crc = bytewise_step(crc, b);
        }
        self.state = crc;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One byte through [`TABLE`]: the kernel's tail, and the whole of the
/// test reference.
fn bytewise_step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xff) as usize]
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
    use proptest::prelude::*;

    /// The byte-at-a-time CRC the slicing kernel replaced, kept as the
    /// reference it must equal.
    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &b| bytewise_step(crc, b))
    }

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

    proptest! {
        #[test]
        fn prop_kernel_matches_bytewise_reference(
            data in proptest::collection::vec(0u8..=255, 0..=300),
            a in 0usize..=300,
            b in 0usize..=300,
        ) {
            let one_shot = crc32(&data);
            prop_assert_eq!(one_shot, bytewise_crc32(&data), "len {}", data.len());
            let n = data.len() + 1;
            let (i, j) = ((a % n).min(b % n), (a % n).max(b % n));
            let mut two = Crc32::new();
            two.update(&data[..i]);
            two.update(&data[i..]);
            prop_assert_eq!(two.finish(), one_shot, "split at {}", i);
            let mut three = Crc32::new();
            three.update(&data[..i]);
            three.update(&data[i..j]);
            three.update(&data[j..]);
            prop_assert_eq!(three.finish(), one_shot, "split at {} and {}", i, j);
        }
    }
}
