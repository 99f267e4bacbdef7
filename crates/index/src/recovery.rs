//! Crash recovery for the incremental index directory.
//!
//! Opening a directory replays everything a crash could have left behind
//! and reconstructs exactly the acknowledged state:
//!
//! 1. `*.tmp` files (segment seals or merges that never reached their
//!    rename) are deleted.
//! 2. Segment files are discovered from their names, segments fully
//!    contained in another's range are dropped as stale pre-merge
//!    leftovers, and the survivors must tile `[0, total)` contiguously —
//!    anything else is typed corruption, never a panic.
//! 3. Each surviving segment is loaded and checksum-verified by the
//!    format reader, and must agree with the options the directory is
//!    opened with (a segment sealed under different BM25 parameters
//!    would score inconsistently, so it is refused). A segment whose header
//!    names a retired block codec fails its load with
//!    [`IndexError::UnknownCodec`].
//! 4. The WAL is replayed from the sealed-document count: torn tails are
//!    truncated, duplicates skipped, provable corruption reported as
//!    [`IndexError::CorruptWal`].
//!
//! The whole pass is summarized in a [`RecoveryReport`] so callers (and
//! the chaos tests) can assert the recovery story truthfully.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::fs;
use std::path::Path;

use crate::error::IndexError;
use crate::memtable::WriteBuffer;
use crate::partition::Partitioner;
use crate::score::Bm25Params;
use crate::segment::{self, LoadedSegment, SegmentMeta, TMP_SUFFIX};
use crate::wal::{self, Wal, WAL_FILE_NAME};

fn io_err(context: &'static str, e: std::io::Error) -> IndexError {
    IndexError::Io { context, message: e.to_string() }
}

/// What recovery found and did while opening a directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments loaded and serving.
    pub segments_loaded: usize,
    /// Stale segments dropped because a merged segment subsumed them.
    pub segments_subsumed: usize,
    /// In-flight `*.tmp` files deleted.
    pub tmp_files_removed: usize,
    /// Documents replayed from the WAL into the write buffer.
    pub wal_docs_replayed: u64,
    /// WAL records skipped as duplicates / already sealed.
    pub wal_duplicates_skipped: u64,
    /// Torn-tail bytes truncated from the WAL.
    pub wal_torn_bytes_truncated: u64,
    /// True when no WAL existed (fresh directory) and one was created.
    pub wal_was_missing: bool,
    /// True when the WAL header itself was torn and the file was rebuilt.
    pub wal_header_rebuilt: bool,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} segment(s) loaded ({} subsumed, {} tmp removed); \
             WAL: {} doc(s) replayed, {} duplicate(s) skipped, {} torn byte(s) truncated{}{}",
            self.segments_loaded,
            self.segments_subsumed,
            self.tmp_files_removed,
            self.wal_docs_replayed,
            self.wal_duplicates_skipped,
            self.wal_torn_bytes_truncated,
            if self.wal_was_missing { ", WAL created fresh" } else { "" },
            if self.wal_header_rebuilt { ", torn WAL header rebuilt" } else { "" },
        )
    }
}

/// Everything recovery hands back to [`crate::IncrementalIndex::open`].
#[derive(Debug)]
pub struct RecoveredState {
    /// Loaded segments in ascending `start` order, tiling `[0, total)`.
    pub segments: Vec<LoadedSegment>,
    /// Write buffer rebuilt from the WAL replay.
    pub buffer: WriteBuffer,
    /// The WAL, truncated past any torn tail and open for appending.
    pub wal: Wal,
    /// What happened.
    pub report: RecoveryReport,
}

/// Scans `dir`, removes in-flight temp files, resolves the segment set,
/// and replays the WAL. See the module docs for the full protocol.
/// Segments are materialized on the heap; see [`recover_mode`] to map
/// them instead.
pub fn recover(
    dir: &Path,
    partitioner: Partitioner,
    params: Bm25Params,
) -> Result<RecoveredState, IndexError> {
    recover_mode(dir, partitioner, params, false)
}

/// [`recover`] with a choice of segment backing: `mmap_segments` loads
/// each sealed segment via [`segment::load_segment_mmap`] (zero-copy,
/// payload CRCs deferred to first touch) instead of
/// [`segment::load_segment`] (heap, fully verified at load).
pub fn recover_mode(
    dir: &Path,
    partitioner: Partitioner,
    params: Bm25Params,
    mmap_segments: bool,
) -> Result<RecoveredState, IndexError> {
    let mut report = RecoveryReport::default();

    // Pass 1: enumerate the directory, deleting in-flight temp files.
    let mut metas: Vec<SegmentMeta> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("listing the index directory", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("listing the index directory", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            return Err(IndexError::CorruptIndex { context: "non-UTF-8 file name" });
        };
        if name.ends_with(TMP_SUFFIX) {
            fs::remove_file(entry.path()).map_err(|e| io_err("removing a tmp file", e))?;
            report.tmp_files_removed += 1;
            continue;
        }
        if name == WAL_FILE_NAME {
            continue;
        }
        match segment::parse_segment_name(name) {
            Some((start, count)) => {
                if count == 0 {
                    return Err(IndexError::CorruptIndex { context: "zero-length segment" });
                }
                metas.push(SegmentMeta { start, count, file_name: name.to_owned() });
            }
            None if name.starts_with("seg-") => {
                return Err(IndexError::CorruptIndex {
                    context: "unparseable segment file name",
                });
            }
            None => {} // unrelated file; ignore
        }
    }

    // Pass 2: subsumption resolution + tiling validation. Sorting by
    // (start asc, count desc) puts each merged segment before the stale
    // inputs it covers.
    metas.sort_unstable_by(|a, b| a.start.cmp(&b.start).then(b.count.cmp(&a.count)));
    let mut resolved: Vec<SegmentMeta> = Vec::new();
    let mut covered_end = 0u64;
    for m in metas {
        if m.end() <= covered_end {
            // Fully contained in already-kept coverage: a stale pre-merge
            // leftover. Delete it so it cannot resurface.
            fs::remove_file(dir.join(&m.file_name))
                .map_err(|e| io_err("removing a subsumed segment", e))?;
            report.segments_subsumed += 1;
        } else if m.start == covered_end {
            covered_end = m.end();
            resolved.push(m);
        } else if m.start > covered_end {
            return Err(IndexError::CorruptIndex { context: "segment ranges leave a gap" });
        } else {
            return Err(IndexError::CorruptIndex { context: "segment ranges overlap" });
        }
    }

    // Pass 3: load and cross-check every surviving segment.
    let mut segments = Vec::with_capacity(resolved.len());
    for meta in &resolved {
        let loaded = if mmap_segments {
            segment::load_segment_mmap(dir, meta)?
        } else {
            segment::load_segment(dir, meta)?
        };
        if loaded.index.partitioner() != partitioner || loaded.index.params() != params {
            return Err(IndexError::CorruptIndex {
                context: "segment sealed under different index options",
            });
        }
        segments.push(loaded);
    }
    report.segments_loaded = segments.len();
    let sealed_docs = covered_end;

    // Pass 4: WAL replay from the sealed-document count.
    let wal_path = dir.join(WAL_FILE_NAME);
    let mut buffer = WriteBuffer::new();
    let wal = if wal_path.exists() {
        let bytes = fs::read(&wal_path).map_err(|e| io_err("reading the WAL", e))?;
        let replayed = wal::replay(&bytes, sealed_docs)?;
        report.wal_docs_replayed = replayed.docs.len() as u64;
        report.wal_duplicates_skipped = replayed.duplicates_skipped;
        report.wal_torn_bytes_truncated = replayed.torn_bytes;
        for doc in &replayed.docs {
            buffer.add(doc);
        }
        if replayed.valid_len == 0 {
            // The 8-byte header itself was torn: rebuild from scratch.
            report.wal_header_rebuilt = !bytes.is_empty();
            Wal::create(&wal_path, replayed.next_seq)?
        } else {
            Wal::open_append(&wal_path, replayed.next_seq, replayed.valid_len)?
        }
    } else {
        report.wal_was_missing = true;
        Wal::create(&wal_path, sealed_docs)?
    };

    Ok(RecoveredState { segments, buffer, wal, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posting::PostingList;

    fn opts() -> (Partitioner, Bm25Params) {
        (Partitioner::dynamic(crate::partition::DEFAULT_MAX_SIZE), Bm25Params::default())
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("iiu-rec-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn seal_one(dir: &Path, start: u64, n: u64) -> LoadedSegment {
        let (part, params) = opts();
        let mut list = PostingList::new();
        let mut lens = Vec::new();
        for i in 0..n {
            list.push(i as u32, 1 + (i as u32 % 3));
            lens.push(10 + i as u32);
        }
        segment::seal_segment(dir, start, vec![("term".into(), list)], lens, part, params)
            .unwrap()
    }

    #[test]
    fn fresh_directory_creates_wal() {
        let dir = tmp_dir("fresh");
        let (part, params) = opts();
        let state = recover(&dir, part, params).unwrap();
        assert!(state.report.wal_was_missing);
        assert_eq!(state.segments.len(), 0);
        assert!(state.buffer.is_empty());
        assert!(dir.join(WAL_FILE_NAME).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_files_are_removed_and_counted() {
        let dir = tmp_dir("tmp");
        std::fs::write(dir.join("seg-000000000000-000000000005.iiu.tmp"), b"junk").unwrap();
        let (part, params) = opts();
        let state = recover(&dir, part, params).unwrap();
        assert_eq!(state.report.tmp_files_removed, 1);
        assert!(!dir.join("seg-000000000000-000000000005.iiu.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subsumed_segments_are_dropped_and_deleted() {
        let dir = tmp_dir("subsume");
        let (part, params) = opts();
        // Old tiling: [0,2) and [2,3). Merged: [0,3).
        let a = seal_one(&dir, 0, 2);
        let b = seal_one(&dir, 2, 1);
        seal_one(&dir, 0, 3);
        let state = recover(&dir, part, params).unwrap();
        assert_eq!(state.report.segments_loaded, 1);
        assert_eq!(state.report.segments_subsumed, 2);
        assert_eq!(state.segments[0].meta.count, 3);
        assert!(!dir.join(&a.meta.file_name).exists());
        assert!(!dir.join(&b.meta.file_name).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gap_in_tiling_is_typed_error() {
        let dir = tmp_dir("gap");
        let (part, params) = opts();
        seal_one(&dir, 0, 2);
        seal_one(&dir, 5, 1); // [2,5) missing
        let err = recover(&dir, part, params).unwrap_err();
        assert!(matches!(
            err,
            IndexError::CorruptIndex { context: "segment ranges leave a gap" }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_overlap_is_typed_error() {
        let dir = tmp_dir("overlap");
        let (part, params) = opts();
        seal_one(&dir, 0, 3);
        seal_one(&dir, 2, 3); // overlaps [2,3) but extends past
        let err = recover(&dir, part, params).unwrap_err();
        assert!(matches!(err, IndexError::CorruptIndex { context: "segment ranges overlap" }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unparseable_seg_name_is_typed_error() {
        let dir = tmp_dir("badname");
        std::fs::write(dir.join("seg-bogus.iiu"), b"x").unwrap();
        let (part, params) = opts();
        let err = recover(&dir, part, params).unwrap_err();
        assert!(matches!(
            err,
            IndexError::CorruptIndex { context: "unparseable segment file name" }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_segment_file_is_typed_error() {
        let dir = tmp_dir("truncseg");
        let (part, params) = opts();
        let s = seal_one(&dir, 0, 2);
        let path = dir.join(&s.meta.file_name);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = recover(&dir, part, params).unwrap_err();
        // Any typed corruption error is acceptable; a panic is not.
        let _ = err.to_string();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_options_are_refused() {
        let dir = tmp_dir("optmis");
        let (part, params) = opts();
        seal_one(&dir, 0, 2);
        let err = recover(&dir, Partitioner::fixed(64), params).unwrap_err();
        assert!(matches!(
            err,
            IndexError::CorruptIndex {
                context: "segment sealed under different index options"
            }
        ));
        let err = recover(&dir, part, Bm25Params { k1: 9.9, ..params }).unwrap_err();
        assert!(matches!(err, IndexError::CorruptIndex { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_segment_naming_a_retired_codec_is_unknown_codec() {
        let dir = tmp_dir("codecretired");
        let (part, params) = opts();
        let s = seal_one(&dir, 0, 2);
        // Name codec id 1 in the v4 header (8 magic + 16 params + 5
        // partitioner = offset 29), then reseal the header CRC (bytes
        // 46..50, over 8..46) and the whole-file footer.
        let path = dir.join(&s.meta.file_name);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[29] = 1;
        let crc = crate::checksum::crc32(&bytes[8..46]);
        bytes[46..50].copy_from_slice(&crc.to_le_bytes());
        let n = bytes.len();
        let footer = crate::checksum::crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&footer.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = recover(&dir, part, params).unwrap_err();
        assert!(matches!(err, IndexError::UnknownCodec { id: 1 }), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
