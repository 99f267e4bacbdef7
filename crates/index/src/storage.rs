//! Zero-copy, mmap-backed index loading (DESIGN.md §19).
//!
//! [`crate::io::deserialize`] copies every payload onto the heap and
//! holds the whole file to its checksums and the decode oracle before the
//! first query — the strongest integrity check, at the cost of capping
//! the corpus at RAM. This module is the other end of that trade: it
//! memory-maps an index file (format v1–v4) and hands the mapping to the
//! same parser, which assembles an [`InvertedIndex`] whose payload bytes
//! are *borrowed windows of the mapping*. No posting byte is copied; the
//! page cache is the storage tier.
//!
//! What is verified at open, on first touch of a list, and only by
//! [`InvertedIndex::validate`] is the "mapped open" / "first touch" /
//! `validate()` columns of the policy table in [`crate::io`]. In short:
//! opening frames the header, tables and every record — records
//! interleave tables and payloads, so that reads the whole file — but
//! hashes no record; each record's CRC, and its last block against the
//! corpus, is checked by the first decode of any of its blocks (or an
//! engine's `verify_term` at query resolve), so corruption discovered
//! late is a typed [`IndexError`], never a panic or an out-of-bounds
//! read. The footer CRC is framed but not hashed (hashing it would fault
//! in every page; the section CRCs cover all content bytes anyway, so only
//! v1 files, which have no CRCs at all, lose real protection), and stored
//! bounds are trusted after their section CRC: a v3/v4 file *written*
//! wrong with consistent CRCs would mis-prune until `iiu inspect`'s
//! `validate()` catches it offline. Formats without stored bounds (v1/v2)
//! run the content oracle at open instead, which decodes each payload
//! once — verifying the lazy CRCs as a side effect — still without
//! materializing any owned payload copy.
//!
//! The `unsafe` mapping itself lives in [`crate::mmap`]; see that
//! module's safety argument (immutable published files, `SIGBUS` on
//! concurrent truncation outside the threat model).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::Path;
use std::sync::Arc;

use crate::error::IndexError;
use crate::index::InvertedIndex;
use crate::io::{self, Backing};
use crate::mmap::Mmap;

/// Maps an index file (format v1–v4) without materializing payload
/// bytes. See the module docs for what is verified when.
///
/// # Errors
///
/// Returns [`IndexError::Io`] on mapping failure,
/// [`IndexError::UnsupportedFormat`] on an unknown magic,
/// [`IndexError::UnknownCodec`] on a v4 codec id other than 0,
/// [`IndexError::ChecksumMismatch`] when an eagerly-verified section CRC
/// fails, and [`IndexError::CorruptIndex`] on structural violations.
pub fn map_index(path: &Path) -> Result<InvertedIndex, IndexError> {
    map_index_from(Arc::new(Mmap::open(path)?))
}

/// [`map_index`] over an existing mapping (tests and benches map once
/// and reuse).
pub fn map_index_from(map: Arc<Mmap>) -> Result<InvertedIndex, IndexError> {
    io::load_plain(Backing::Mapped(&map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildOptions, IndexBuilder};
    use crate::codec::CodecId;
    use crate::partition::Partitioner;

    fn sample_index() -> InvertedIndex {
        let mut b = IndexBuilder::new(BuildOptions {
            partitioner: Partitioner::fixed(4),
            ..Default::default()
        });
        b.add_document("the quick brown fox jumps over the lazy dog");
        b.add_document("pack my box with five dozen liquor jugs");
        b.add_document("the five boxing wizards jump quickly");
        b.add_document("quick wizards pack the box");
        for i in 0..60 {
            b.add_document(&format!("fox pack filler{} quick dog", i % 7));
        }
        b.build()
    }

    fn write_tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("iiu-storage-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_v4_equals_heap_deserialize() {
        for codec in CodecId::ALL {
            let idx = sample_index();
            let bytes = io::serialize(&idx).unwrap();
            let path = write_tmp(&format!("v4-{codec}"), &bytes);
            let mapped = map_index(&path).unwrap();
            assert_eq!(mapped, idx, "{codec}");
            assert!(mapped.source().is_mapped());
            assert_eq!(mapped.source().mapped_bytes(), bytes.len() as u64);
            for id in 0..mapped.num_terms() as u32 {
                assert!(mapped.encoded_list(id).is_mapped(), "{codec} list {id}");
                mapped.verify_term(id).unwrap();
            }
            // The deep oracle accepts the mapped assembly.
            mapped.validate().unwrap();
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn unknown_magic_is_unsupported_format() {
        // Besides garbage, the magics of the retired round-robin shard
        // manifests (v1, v2, v3): such a file is an unknown format now.
        let retired = [0x4949_5553_0000_0001, 0x4949_5553_0000_0002, 0x4949_5553_0000_0003];
        let good = io::serialize(&sample_index()).unwrap();
        for magic in std::iter::once(u64::MAX).chain(retired) {
            let mut bytes = good.clone();
            bytes[..8].copy_from_slice(&magic.to_le_bytes());
            let (heap, mapped) = load_both(&format!("magic-{magic:x}"), &bytes);
            for (backing, loaded) in [("heap", heap), ("mapped", mapped)] {
                let found = match loaded {
                    Err(IndexError::UnsupportedFormat { found }) => Some(found),
                    _ => None,
                };
                assert_eq!(found, Some(magic), "{magic:#x}/{backing}");
            }
        }
    }

    #[test]
    fn payload_corruption_is_lazy_and_typed() {
        let idx = sample_index();
        let mut bytes = io::serialize(&idx).unwrap();
        // Find one list's payload bytes in the file by searching for them
        // (the sample corpus is small enough for this to be unambiguous
        // per-term is not needed — flip a byte we know is payload by
        // using the largest list's payload).
        let id = (0..idx.num_terms() as u32)
            .max_by_key(|&id| idx.encoded_list(id).payload().len())
            .unwrap();
        let needle = idx.encoded_list(id).payload();
        assert!(needle.len() >= 4, "need a non-trivial payload to corrupt");
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("payload bytes must appear in the serialized file");
        bytes[pos] ^= 0x40;

        let path = write_tmp("lazy-corrupt", &bytes);
        // Open succeeds: the flipped byte lives in a lazily-verified
        // payload section.
        let mapped = map_index(&path).unwrap();
        // First touch of the corrupted term reports the checksum mismatch.
        let err = mapped.verify_term(id).unwrap_err();
        assert!(
            matches!(err, IndexError::ChecksumMismatch { section: "term record", .. }),
            "{err:?}"
        );
        // Typed error from the decode path too, and find degrades to None.
        let mut out = Vec::new();
        assert!(mapped.encoded_list(id).try_decode_block_into(0, &mut out).is_err());
        assert_eq!(mapped.encoded_list(id).find(0), mapped.encoded_list(id).find(0));
        // Other terms stay healthy.
        for other in 0..mapped.num_terms() as u32 {
            if other != id {
                mapped.verify_term(other).unwrap();
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Loads `bytes` through both backings: the heap parse of the bytes
    /// and the mapped open of a scratch file holding them.
    fn load_both(
        tag: &str,
        bytes: &[u8],
    ) -> (Result<InvertedIndex, IndexError>, Result<InvertedIndex, IndexError>) {
        let heap = io::deserialize(bytes);
        let path = write_tmp(tag, bytes);
        let mapped = map_index(&path);
        std::fs::remove_file(&path).ok();
        (heap, mapped)
    }

    #[test]
    fn every_format_loads_identically_on_both_backings() {
        use io::legacy;
        let bitpack = sample_index();
        let mut table: Vec<(String, Vec<u8>, InvertedIndex)> = vec![
            ("v1".into(), legacy::serialize_v1(&bitpack), bitpack.clone()),
            ("v2".into(), legacy::serialize_v2(&bitpack), bitpack.clone()),
            ("v3".into(), legacy::serialize_v3(&bitpack), bitpack.clone()),
        ];
        for codec in CodecId::ALL {
            let idx = sample_index();
            table.push((format!("v4-{codec}"), io::serialize(&idx).unwrap(), idx));
        }

        for (label, bytes, original) in &table {
            let (heap, mapped) = load_both(&format!("matrix-{label}"), bytes);
            let (h, m) = (heap.unwrap(), mapped.unwrap());
            assert!(h == *original, "{label}: heap load differs from the original");
            assert!(m == *original, "{label}: mapped load differs from the original");
            assert!(h == m, "{label}: the two backings disagree");
            assert!(!h.source().is_mapped() && m.source().is_mapped(), "{label}");
            h.validate().unwrap();
            m.validate().unwrap();
            assert_eq!(h.bounds(), m.bounds(), "{label}: bounds differ across backings");
        }
    }

    /// Byte range (CRC excluded) of term `id`'s record in `idx`'s sealed
    /// file, whose header is `header_len` bytes.
    fn record_span(idx: &InvertedIndex, id: u32, header_len: usize) -> (usize, usize) {
        let record_len = |t: u32| {
            let list = idx.encoded_list(t);
            let frame = 4 + idx.term_info(t).term.len() + 8 + 8 + list.num_blocks() * 12 + 8;
            frame + list.payload().len()
        };
        let records = 8 + header_len + 4 + idx.doc_lens().len() * 4 + 4;
        let start = records + (0..id).map(|t| record_len(t) + 4).sum::<usize>();
        (start, start + record_len(id))
    }

    /// Recomputes the CRC of the record spanning `start..end` and the
    /// whole-file footer, so a deliberate tamper passes every checksum.
    fn reseal(file: &mut [u8], (start, end): (usize, usize)) {
        let crc = crate::checksum::crc32(&file[start..end]);
        file[end..end + 4].copy_from_slice(&crc.to_le_bytes());
        let n = file.len();
        let footer = crate::checksum::crc32(&file[..n - 4]);
        file[n - 4..].copy_from_slice(&footer.to_le_bytes());
    }

    /// The term of `idx` with the largest payload among lists whose first
    /// block holds at least two postings.
    fn widest_term(idx: &InvertedIndex) -> u32 {
        (0..idx.num_terms() as u32)
            .filter(|&id| idx.encoded_list(id).metas().first().is_some_and(|m| m.count >= 2))
            .max_by_key(|&id| idx.encoded_list(id).payload().len())
            .unwrap()
    }

    #[test]
    fn crc_consistent_repeated_docids_are_rejected_by_both_backings() {
        // Zero the first block of one list — every gap becomes 0, so the
        // block decodes to its skip value repeated — and reseal the
        // record CRC and the footer. A v2 file stores no bounds, so the
        // content oracle is the only check left on either backing, and it
        // must hold docID order.
        let idx = sample_index();
        let mut bytes = io::legacy::serialize_v2(&idx);
        let id = widest_term(&idx);
        let list = idx.encoded_list(id);
        let span = record_span(&idx, id, 37);
        let payload_start = span.1 - list.payload().len();
        let block_end =
            list.metas().get(1).map_or(list.payload().len(), |m| m.offset as usize);
        bytes[payload_start..payload_start + block_end].fill(0);
        reseal(&mut bytes, span);

        let (heap, mapped) = load_both("repeat-v2", &bytes);
        for (backing, loaded) in [("heap", heap), ("mapped", mapped)] {
            assert!(
                matches!(
                    loaded,
                    Err(IndexError::CorruptIndex { context: "docIDs not increasing" })
                ),
                "{backing}: repeated docIDs must be rejected at open"
            );
        }
    }

    /// The policy table of [`crate::io`], one row per test: a single
    /// mutation of a v4 file run through both backings.
    mod policy {
        use super::*;

        #[test]
        fn footer_crc_is_hashed_on_the_heap_and_only_framed_when_mapped() {
            let idx = sample_index();
            let mut bytes = io::serialize(&idx).unwrap();
            let n = bytes.len();
            bytes[n - 2] ^= 0x20;
            let (heap, mapped) = load_both("policy-footer", &bytes);
            assert!(matches!(
                heap,
                Err(IndexError::ChecksumMismatch { section: "footer", .. })
            ));
            let mapped = mapped.unwrap();
            assert_eq!(mapped, idx);
            mapped.validate().unwrap();
        }

        #[test]
        fn record_crc_is_checked_at_heap_load_and_at_first_touch_when_mapped() {
            let idx = sample_index();
            let mut bytes = io::serialize(&idx).unwrap();
            let id = widest_term(&idx);
            let (_, end) = record_span(&idx, id, 38);
            bytes[end - 1] ^= 0x04;
            let (heap, mapped) = load_both("policy-payload", &bytes);
            assert!(matches!(
                heap,
                Err(IndexError::ChecksumMismatch { section: "term record", .. })
            ));
            let mapped = mapped.unwrap();
            assert!(matches!(
                mapped.verify_term(id),
                Err(IndexError::ChecksumMismatch { section: "term record", .. })
            ));
            let mut out = Vec::new();
            assert!(matches!(
                mapped.encoded_list(id).try_decode_block_into(0, &mut out),
                Err(IndexError::ChecksumMismatch { section: "term record", .. })
            ));
        }

        #[test]
        fn stored_bounds_meet_the_oracle_at_heap_load_and_at_validate_when_mapped() {
            // Raise one stored block bound, then recompute the section CRC
            // and the footer: the file tail is
            // [bounds content][bounds crc 4][footer 4].
            let idx = sample_index();
            let mut bytes = io::serialize(&idx).unwrap();
            let n = bytes.len();
            let bounds_len: usize = idx.bounds().iter().map(|b| 8 + b.num_blocks() * 8).sum();
            let start = n - 8 - bounds_len;
            bytes[start + 8] ^= 0x01;
            reseal(&mut bytes, (start, n - 8));
            let (heap, mapped) = load_both("policy-bounds", &bytes);
            assert!(matches!(
                heap,
                Err(IndexError::CorruptIndex { context: "score bounds mismatch" })
            ));
            let mapped = mapped.unwrap();
            assert_ne!(mapped, idx, "the tampered bound is what the mapped index prunes with");
            assert!(matches!(
                mapped.validate(),
                Err(IndexError::CorruptIndex { context: "score bounds mismatch" })
            ));
        }

        #[test]
        fn a_heap_load_keeps_the_stored_layout_byte_for_byte() {
            for codec in CodecId::ALL {
                let idx = sample_index();
                let back = io::deserialize(&io::serialize(&idx).unwrap()).unwrap();
                for id in 0..idx.num_terms() as u32 {
                    let (a, b) = (idx.encoded_list(id), back.encoded_list(id));
                    assert_eq!(a.metas(), b.metas(), "{codec} list {id}");
                    assert_eq!(a.skips(), b.skips(), "{codec} list {id}");
                    assert_eq!(a.payload(), b.payload(), "{codec} list {id}");
                }
            }
        }

        #[test]
        fn streamed_files_load_identically_on_both_backings() {
            for codec in CodecId::ALL {
                let idx = sample_index();
                let mut w = io::StreamingWriter::new(
                    Vec::new(),
                    idx.doc_lens(),
                    idx.num_terms() as u64,
                    idx.partitioner(),
                    idx.params(),
                )
                .unwrap();
                for info in idx.terms() {
                    w.push_term(&info.term, &idx.decode_term(&info.term).unwrap()).unwrap();
                }
                let bytes = w.finish().unwrap();
                let (heap, mapped) = load_both(&format!("policy-streamed-{codec}"), &bytes);
                let (heap, mapped) = (heap.unwrap(), mapped.unwrap());
                assert_eq!(heap, mapped, "{codec}");
                assert_eq!(heap, idx, "{codec}");
            }
        }
    }
}
