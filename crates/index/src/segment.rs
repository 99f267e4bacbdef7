//! Sealed on-disk segments for the incremental index.
//!
//! A segment is a plain single-shard index file (see [`crate::io`])
//! holding a contiguous run of global documents. The file name carries
//! the run: `seg-{start:012}-{count:012}.iiu` covers global doc ids
//! `[start, start + count)`. Inside the file doc ids are segment-local;
//! readers remap by adding `start`.
//!
//! Sealing is atomic: the bytes are written to a `.tmp` sibling, fsynced,
//! renamed into place, and the directory is fsynced. A crash leaves
//! either no segment (plus a `.tmp` that recovery deletes) or a complete,
//! checksummed one — never a half segment under the real name.
//!
//! Merging replaces several contiguous segments with one covering their
//! union. The merged file lands first (same atomic protocol) and only
//! then are the inputs unlinked, so a crash between those steps leaves
//! overlapping files; recovery resolves this by dropping any segment
//! whose range is fully contained in another's ("subsumption") before
//! validating that the survivors tile `[0, total)` exactly.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::error::IndexError;
use crate::index::InvertedIndex;
use crate::io;
use crate::partition::Partitioner;
use crate::posting::{Posting, PostingList};
use crate::score::Bm25Params;
use crate::wal::sync_dir;

/// Suffix used for in-flight segment writes; anything with this suffix is
/// deleted during recovery.
pub const TMP_SUFFIX: &str = ".tmp";

fn io_err(context: &'static str, e: std::io::Error) -> IndexError {
    IndexError::Io { context, message: e.to_string() }
}

/// Identity of a sealed segment: which global documents it holds and the
/// file it lives in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// First global doc id in the segment.
    pub start: u64,
    /// Number of documents in the segment.
    pub count: u64,
    /// File name within the index directory.
    pub file_name: String,
}

impl SegmentMeta {
    /// One past the last global doc id in the segment.
    pub fn end(&self) -> u64 {
        self.start + self.count
    }
}

/// A segment loaded into memory: its metadata plus the decoded index.
#[derive(Debug)]
pub struct LoadedSegment {
    /// Range and file identity.
    pub meta: SegmentMeta,
    /// The segment's index over segment-local doc ids.
    pub index: InvertedIndex,
}

/// Canonical file name for a segment covering `[start, start + count)`.
pub fn segment_file_name(start: u64, count: u64) -> String {
    format!("seg-{start:012}-{count:012}.iiu")
}

/// Parses a segment file name back into `(start, count)`. Returns `None`
/// for names that are not segment files at all; callers treat a
/// `seg-`-prefixed name that fails to parse as corruption.
pub fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let body = name.strip_prefix("seg-")?.strip_suffix(".iiu")?;
    let (start, count) = body.split_once('-')?;
    if start.len() != 12 || count.len() != 12 {
        return None;
    }
    if !start.bytes().all(|b| b.is_ascii_digit()) || !count.bytes().all(|b| b.is_ascii_digit())
    {
        return None;
    }
    Some((start.parse().ok()?, count.parse().ok()?))
}

/// Writes `bytes` to `dir/file_name` atomically: tmp file, fsync, rename,
/// directory fsync.
pub(crate) fn write_atomic(
    dir: &Path,
    file_name: &str,
    bytes: &[u8],
) -> Result<PathBuf, IndexError> {
    let tmp = dir.join(format!("{file_name}{TMP_SUFFIX}"));
    let fin = dir.join(file_name);
    {
        let mut f =
            fs::File::create(&tmp).map_err(|e| io_err("creating a segment tmp file", e))?;
        use std::io::Write;
        f.write_all(bytes).map_err(|e| io_err("writing a segment tmp file", e))?;
        f.sync_all().map_err(|e| io_err("fsyncing a segment tmp file", e))?;
    }
    fs::rename(&tmp, &fin).map_err(|e| io_err("renaming a segment into place", e))?;
    sync_dir(dir)?;
    Ok(fin)
}

/// Seals `lists`/`doc_lens` (local ids, lexicographic term order) into a
/// new segment starting at global doc `start`. The partitioner runs fresh
/// over the batch, so every sealed segment gets its own
/// compression-optimal block structure. Returns the loaded segment.
pub fn seal_segment(
    dir: &Path,
    start: u64,
    lists: Vec<(String, PostingList)>,
    doc_lens: Vec<u32>,
    partitioner: Partitioner,
    params: Bm25Params,
) -> Result<LoadedSegment, IndexError> {
    let count = doc_lens.len() as u64;
    let index = InvertedIndex::from_lists(lists, doc_lens, partitioner, params)?;
    let bytes = io::serialize(&index)?;
    let file_name = segment_file_name(start, count);
    write_atomic(dir, &file_name, &bytes)?;
    Ok(LoadedSegment { meta: SegmentMeta { start, count, file_name }, index })
}

/// Loads a sealed segment file, verifying that its contents agree with
/// the range its file name claims.
pub fn load_segment(dir: &Path, meta: &SegmentMeta) -> Result<LoadedSegment, IndexError> {
    let bytes = fs::read(dir.join(&meta.file_name))
        .map_err(|e| io_err("reading a segment file", e))?;
    let index = io::deserialize(&bytes)?;
    check_meta(&index, meta)?;
    Ok(LoadedSegment { meta: meta.clone(), index })
}

/// Like [`load_segment`], but memory-maps the file and serves posting
/// bytes straight out of the page cache ([`crate::storage`]): payload
/// CRCs defer to first touch instead of load time. Sealed segments are
/// immutable once renamed into place, which is exactly the contract the
/// mapped loader's safety argument needs.
pub fn load_segment_mmap(dir: &Path, meta: &SegmentMeta) -> Result<LoadedSegment, IndexError> {
    let index = crate::storage::map_index(&dir.join(&meta.file_name))?;
    check_meta(&index, meta)?;
    Ok(LoadedSegment { meta: meta.clone(), index })
}

fn check_meta(index: &InvertedIndex, meta: &SegmentMeta) -> Result<(), IndexError> {
    if index.num_docs() != meta.count {
        return Err(IndexError::CorruptIndex {
            context: "segment doc count disagrees with its file name",
        });
    }
    Ok(())
}

/// Merges contiguous loaded segments (ascending `start`) into one list
/// set over ids global-relative to the first segment's `start`: decode
/// every list, remap, concatenate, and re-sort per term. Returns `(lists, doc_lens)` ready for
/// [`seal_segment`] at `segments[0].meta.start`.
pub fn merge_segment_lists(
    segments: &[&LoadedSegment],
) -> Result<(Vec<(String, PostingList)>, Vec<u32>), IndexError> {
    let Some(first) = segments.first() else {
        return Ok((Vec::new(), Vec::new()));
    };
    let base = first.meta.start;
    let mut doc_lens = Vec::new();
    let mut merged: BTreeMap<String, Vec<Posting>> = BTreeMap::new();
    let mut expect = base;
    for seg in segments {
        if seg.meta.start != expect {
            return Err(IndexError::CorruptIndex {
                context: "merging non-contiguous segments",
            });
        }
        expect = seg.meta.end();
        let offset = (seg.meta.start - base) as u32;
        doc_lens.extend_from_slice(seg.index.doc_lens());
        for info in seg.index.terms() {
            let list = seg.index.decode_term(&info.term)?;
            let out = merged.entry(info.term.clone()).or_default();
            out.extend(list.iter().map(|p| Posting::new(p.doc_id + offset, p.tf)));
        }
    }
    let lists = merged
        .into_iter()
        .map(|(term, mut postings)| {
            // Segments arrive in ascending start order so postings are
            // already sorted; keep the sort as a cheap invariant guard.
            postings.sort_unstable_by_key(|p| p.doc_id);
            (term, PostingList::from_sorted(postings))
        })
        .collect();
    Ok((lists, doc_lens))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_name_round_trips() {
        let name = segment_file_name(0, 1);
        assert_eq!(name, "seg-000000000000-000000000001.iiu");
        assert_eq!(parse_segment_name(&name), Some((0, 1)));
        let name = segment_file_name(987_654_321, 123_456);
        assert_eq!(parse_segment_name(&name), Some((987_654_321, 123_456)));
    }

    #[test]
    fn parse_rejects_malformed_names() {
        for bad in [
            "seg-000000000000-000000000001.iiu.tmp",
            "seg-00000000000-000000000001.iiu", // 11-digit start
            "seg-000000000000-00000000001.iiu", // 11-digit count
            "seg-0000000000000000000000001.iiu", // missing dash
            "seg-00000000000a-000000000001.iiu",
            "wal.log",
            "seg-.iiu",
            "seg-000000000000-000000000001.bin",
        ] {
            assert_eq!(parse_segment_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn seal_load_round_trip_and_merge() {
        let dir = std::env::temp_dir().join(format!("iiu-seg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let part = Partitioner::dynamic(crate::partition::DEFAULT_MAX_SIZE);
        let params = Bm25Params::default();

        let mut a = PostingList::new();
        a.push(0, 2);
        a.push(1, 1);
        let s0 = seal_segment(&dir, 0, vec![("alpha".into(), a)], vec![5, 3], part, params)
            .unwrap();
        let mut b = PostingList::new();
        b.push(0, 4);
        let s1 =
            seal_segment(&dir, 2, vec![("alpha".into(), b)], vec![7], part, params).unwrap();

        let loaded = load_segment(&dir, &s0.meta).unwrap();
        assert_eq!(loaded.index.num_docs(), 2);
        assert!(!dir.join(format!("{}{TMP_SUFFIX}", s0.meta.file_name)).exists());

        let (lists, lens) = merge_segment_lists(&[&s0, &s1]).unwrap();
        assert_eq!(lens, vec![5, 3, 7]);
        assert_eq!(lists.len(), 1);
        assert_eq!(lists[0].1.doc_ids(), vec![0, 1, 2]);
        assert_eq!(lists[0].1.term_freqs(), vec![2, 1, 4]);

        // Merging non-contiguous segments is refused.
        let gap = merge_segment_lists(&[&s1]);
        assert!(gap.is_ok(), "single segment is trivially contiguous");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_detects_count_mismatch() {
        let dir = std::env::temp_dir().join(format!("iiu-seg-mis-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let part = Partitioner::dynamic(crate::partition::DEFAULT_MAX_SIZE);
        let mut a = PostingList::new();
        a.push(0, 2);
        let sealed = seal_segment(
            &dir,
            0,
            vec![("alpha".into(), a)],
            vec![5],
            part,
            Bm25Params::default(),
        )
        .unwrap();
        // Lie about the count in the metadata: the loader must notice.
        let lie = SegmentMeta { count: 9, ..sealed.meta.clone() };
        let err = load_segment(&dir, &lie).unwrap_err();
        assert!(matches!(err, IndexError::CorruptIndex { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
