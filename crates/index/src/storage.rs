//! Zero-copy, mmap-backed index loading (DESIGN.md §19).
//!
//! [`crate::io::deserialize`] copies the file onto the heap once and runs
//! every list's first touch — list CRC, structural checks, then the
//! content oracle — before the first query, at the cost of capping the
//! corpus at RAM. This module is the other end of that trade: it
//! memory-maps an index file (format v5) and hands the mapping to the same
//! loader, which assembles an [`InvertedIndex`] that reads its term
//! directory, block columns and payload *where they lie in the mapping*.
//! No posting byte, block table or term name is copied; the page cache is
//! the storage tier.
//!
//! What runs when is the "mapped open" column of the policy table in
//! [`crate::io`]. In short: opening checks the header, the section table,
//! the doc table, the column, name and directory CRCs and the directory's
//! windows, and builds the dictionary over the name windows — it reads no
//! payload byte and keeps nothing per block. A list's first touch, the
//! check a heap load runs for every list, runs on the first decode of any
//! of its blocks (or an engine's `verify_term` at query resolve), once,
//! and its verdict is kept: so both backings refuse the same files, and
//! corruption discovered late is a typed [`IndexError`], never a panic, an
//! out-of-bounds read or a pruning decision taken on a bound the postings
//! do not give. The footer CRC is framed but not hashed (hashing it would
//! fault in every page; the section and list CRCs cover all content bytes
//! anyway).
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

/// Maps an index file (format v5) without copying its content. See the
/// module docs for what is verified when.
///
/// # Errors
///
/// Returns [`IndexError::Io`] on mapping failure,
/// [`IndexError::UnsupportedFormat`] on any magic but v5's,
/// [`IndexError::UnknownCodec`] on a codec id other than 0,
/// [`IndexError::ChecksumMismatch`] when an eagerly-verified section CRC
/// fails, and [`IndexError::CorruptIndex`] on structural violations.
pub fn map_index(path: &Path) -> Result<InvertedIndex, IndexError> {
    map_index_from(Arc::new(Mmap::open(path)?))
}

/// [`map_index`] over an existing mapping (tests and benches map once
/// and reuse).
///
/// # Errors
///
/// As [`map_index`].
pub fn map_index_from(map: Arc<Mmap>) -> Result<InvertedIndex, IndexError> {
    io::load(map, Backing::Mapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildOptions, IndexBuilder};
    use crate::codec::CodecId;
    use crate::io::tests::{locate, nudge_stored_bound};
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
    fn mapped_v5_equals_heap_deserialize() {
        for codec in CodecId::ALL {
            let idx = sample_index();
            let bytes = io::serialize(&idx).unwrap();
            let (heap, mapped) = load_both(&format!("v5-{codec}"), &bytes);
            let (heap, mapped) = (heap.unwrap(), mapped.unwrap());
            assert_eq!(heap, idx, "{codec}");
            assert_eq!(mapped, idx, "{codec}");
            assert!(!heap.source().is_mapped());
            assert!(mapped.source().is_mapped());
            assert_eq!(mapped.source().mapped_bytes(), bytes.len() as u64);
            for id in 0..mapped.num_terms() as u32 {
                assert_eq!(heap.list_bounds(id), mapped.list_bounds(id), "{codec}");
                assert!(mapped.encoded_list(id).is_mapped(), "{codec} list {id}");
                mapped.verify_term(id).unwrap();
            }
            // The deep oracle accepts both assemblies.
            heap.validate().unwrap();
            mapped.validate().unwrap();
        }
    }

    #[test]
    fn a_mapped_open_keeps_nothing_per_block_or_per_name() {
        let idx = sample_index();
        let path = write_tmp("heap-bytes", &io::serialize(&idx).unwrap());
        let mapped = map_index(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let heap = mapped.heap_bytes();
        let terms = mapped.num_terms() as u64;
        assert_eq!(heap.file, 0);
        assert_eq!(heap.terms, terms * (40 + 8 + 4), "a list handle, a verdict and an idf̄");
        assert_eq!(heap.doc_tables, mapped.num_docs() * 8);
        assert!(heap.dictionary <= terms * 32);
    }

    #[test]
    fn unknown_magic_is_unsupported_format() {
        // Besides garbage, the magics of the retired index formats v1–v4
        // ("IIUX") and of the retired round-robin shard manifests
        // ("IIUS"): such a file is an unknown format now, even with a v5
        // body behind it.
        let retired = [
            0x4949_5558_0000_0001,
            0x4949_5558_0000_0002,
            0x4949_5558_0000_0003,
            0x4949_5558_0000_0004,
            0x4949_5553_0000_0001,
            0x4949_5553_0000_0002,
            0x4949_5553_0000_0003,
        ];
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
        let id = widest_term(&idx);
        let (_, _, entry) = locate(&bytes, id as usize);
        bytes[entry.payload.start] ^= 0x40;

        let path = write_tmp("lazy-corrupt", &bytes);
        // Open succeeds: the flipped byte lives in a lazily-verified
        // payload.
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
        assert_eq!(mapped.encoded_list(id).find(0), None);
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

    /// The term of `idx` with the largest payload among lists whose first
    /// block holds at least two postings.
    fn widest_term(idx: &InvertedIndex) -> u32 {
        (0..idx.num_terms() as u32)
            .filter(|&id| idx.encoded_list(id).metas().first().is_some_and(|m| m.count >= 2))
            .max_by_key(|&id| idx.encoded_list(id).payload().len())
            .unwrap()
    }

    /// The policy table of [`crate::io`], one row per test: a single
    /// mutation of a v5 file run through both backings.
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
        fn column_and_directory_crcs_are_checked_at_open_on_both_backings() {
            let idx = sample_index();
            let bytes = io::serialize(&idx).unwrap();
            let sections = io::section_sizes(&idx);
            let start = |name: &str| {
                let at = sections.iter().position(|(n, _)| *n == name).unwrap();
                sections[..at].iter().map(|(_, n)| *n as usize).sum::<usize>()
            };
            for section in ["metas", "skips", "bounds", "names", "directory"] {
                let mut flipped = bytes.clone();
                flipped[start(section) + 1] ^= 0x02;
                let (heap, mapped) = load_both(&format!("policy-{section}"), &flipped);
                for (backing, loaded) in [("heap", heap), ("mapped", mapped)] {
                    assert!(
                        matches!(
                            loaded,
                            Err(IndexError::ChecksumMismatch { section: s, .. }) if s == section
                        ),
                        "{section}/{backing}: {loaded:?}"
                    );
                }
            }
        }

        #[test]
        fn list_crc_is_checked_at_heap_load_and_at_first_touch_when_mapped() {
            let idx = sample_index();
            let mut bytes = io::serialize(&idx).unwrap();
            let id = widest_term(&idx);
            let (_, _, entry) = locate(&bytes, id as usize);
            bytes[entry.payload.end - 1] ^= 0x04;
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
        fn stored_bounds_meet_the_oracle_at_heap_load_and_at_first_touch_when_mapped() {
            // Raise one stored block bound of term 0, then reseal every
            // checksum.
            let idx = sample_index();
            let mut bytes = io::serialize(&idx).unwrap();
            nudge_stored_bound(&mut bytes, (0, 0, 0), 1);
            let (heap, mapped) = load_both("policy-bounds", &bytes);
            let is_mismatch = |r: Result<(), IndexError>| {
                matches!(r, Err(IndexError::CorruptIndex { context: "score bounds mismatch" }))
            };
            assert!(is_mismatch(heap.map(|_| ())));
            let mapped = mapped.unwrap();
            // Its first touch, and the kept verdict after it, refuse the
            // list; the others serve.
            assert!(is_mismatch(mapped.verify_term(0)), "first touch");
            assert!(is_mismatch(mapped.verify_term(0)), "kept verdict");
            let mut out = Vec::new();
            let decoded = mapped.encoded_list(0).try_decode_block_into(0, &mut out);
            assert!(is_mismatch(decoded), "decode goes through the first touch");
            for id in 1..mapped.num_terms() as u32 {
                mapped.verify_term(id).unwrap();
            }
            assert!(is_mismatch(mapped.validate()));
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
