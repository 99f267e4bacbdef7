//! Write-ahead log for crash-safe incremental indexing.
//!
//! Every acknowledged document is appended to the log and fsynced before
//! the caller sees success, so a crash at any instant loses at most the
//! unacknowledged tail. The on-disk layout is deliberately simple:
//!
//! ```text
//! magic  u64 LE                       // MAGIC_WAL, written once at create
//! record*:
//!   payload_len  u32 LE               // bytes of payload that follow the frame
//!   crc          u32 LE               // CRC32 over (seq LE ++ payload)
//!   seq          u64 LE               // global document sequence number
//!   payload      [u8; payload_len]    // encoded IngestDoc
//! ```
//!
//! Sequence numbers are the global document ids, so replay after a crash
//! can tell three situations apart without any extra bookkeeping:
//!
//! * `seq <  expected` — the document was already sealed into a segment
//!   (the crash happened between a seal and the WAL reset, or an append
//!   was duplicated); the record is skipped.
//! * `seq == expected` — the next acknowledged document; applied.
//! * `seq >  expected` — a gap, which the append protocol can never
//!   produce; reported as [`IndexError::CorruptWal`].
//!
//! Torn tails — a record whose frame or payload runs past end-of-file, or
//! whose *final* record fails its CRC — are the expected signature of a
//! crash mid-append and are truncated away silently (the bytes were never
//! acknowledged). A CRC failure on a non-final record cannot be produced
//! by a torn write and is reported as typed corruption instead.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use crate::checksum::Crc32;
use crate::error::IndexError;

/// Magic number opening every WAL file (`b"IIUW"` + version 1).
pub const MAGIC_WAL: u64 = 0x4949_5557_0000_0001;

/// Bytes in the fixed per-record frame (`payload_len`, `crc`, `seq`).
const FRAME_BYTES: usize = 16;

/// Upper bound on a single record's payload; anything larger in a length
/// field is corruption, not a document.
const MAX_PAYLOAD: usize = 64 << 20;

/// Upper bound on a single term's byte length inside a record.
const MAX_TERM_BYTES: usize = 4096;

/// Upper bound on distinct terms per document.
const MAX_DOC_TERMS: usize = 1 << 22;

/// File name of the log inside an incremental index directory.
pub const WAL_FILE_NAME: &str = "wal.log";

fn io_err(context: &'static str, e: std::io::Error) -> IndexError {
    IndexError::Io { context, message: e.to_string() }
}

/// A record's frame checksum: CRC32 over its little-endian `seq`, then its
/// payload.
fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&seq.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// Fsync a directory so a just-created or just-renamed entry survives a
/// power loss (on Linux, directory metadata needs its own fsync).
pub(crate) fn sync_dir(dir: &Path) -> Result<(), IndexError> {
    let d = File::open(dir).map_err(|e| io_err("opening directory for fsync", e))?;
    d.sync_all().map_err(|e| io_err("fsyncing directory", e))
}

/// One document presented for ingestion: its length in tokens plus its
/// distinct `(term, tf)` pairs. Construction normalizes the term list
/// (sorted, duplicates merged, zero frequencies dropped) so downstream
/// posting-list building can rely on strict ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestDoc {
    len: u32,
    terms: Vec<(String, u32)>,
}

impl IngestDoc {
    /// Builds a document from a token-length and raw `(term, tf)` pairs.
    /// Pairs are sorted by term, duplicate terms have their frequencies
    /// summed (saturating), and zero-frequency pairs are dropped.
    pub fn new(len: u32, mut terms: Vec<(String, u32)>) -> Self {
        terms.retain(|(_, tf)| *tf > 0);
        terms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        terms.dedup_by(|later, first| {
            if later.0 == first.0 {
                first.1 = first.1.saturating_add(later.1);
                true
            } else {
                false
            }
        });
        IngestDoc { len, terms }
    }

    /// Builds a document from a token stream: `len` is the token count and
    /// term frequencies are accumulated per distinct token.
    pub fn from_tokens<'a, I: IntoIterator<Item = &'a str>>(tokens: I) -> Self {
        let mut tf = std::collections::BTreeMap::<&str, u32>::new();
        let mut len = 0u32;
        for t in tokens {
            if t.is_empty() {
                continue;
            }
            len = len.saturating_add(1);
            *tf.entry(t).or_insert(0) += 1;
        }
        IngestDoc { len, terms: tf.into_iter().map(|(t, f)| (t.to_owned(), f)).collect() }
    }

    /// Token length of the document.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when the document has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The normalized `(term, tf)` pairs, strictly sorted by term.
    pub fn terms(&self) -> &[(String, u32)] {
        &self.terms
    }

    /// Serialized payload: `doc_len u32 | n_terms u32 | (term_len u16 |
    /// term bytes | tf u32)*`, all little-endian.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&(self.terms.len() as u32).to_le_bytes());
        for (term, tf) in &self.terms {
            out.extend_from_slice(&(term.len() as u16).to_le_bytes());
            out.extend_from_slice(term.as_bytes());
            out.extend_from_slice(&tf.to_le_bytes());
        }
    }

    /// Strict payload decoder: every structural violation is a hard error
    /// (the frame CRC already matched, so this is corruption or a writer
    /// bug, not a torn write).
    fn decode(payload: &[u8]) -> Result<IngestDoc, &'static str> {
        fn take<'a>(
            buf: &mut &'a [u8],
            n: usize,
            what: &'static str,
        ) -> Result<&'a [u8], &'static str> {
            if buf.len() < n {
                return Err(what);
            }
            let (head, rest) = buf.split_at(n);
            *buf = rest;
            Ok(head)
        }
        let mut buf = payload;
        let len = u32::from_le_bytes(
            take(&mut buf, 4, "payload shorter than doc_len field")?
                .try_into()
                .map_err(|_| "doc_len field")?,
        );
        let n_terms = u32::from_le_bytes(
            take(&mut buf, 4, "payload shorter than n_terms field")?
                .try_into()
                .map_err(|_| "n_terms field")?,
        ) as usize;
        if n_terms > MAX_DOC_TERMS {
            return Err("implausible term count");
        }
        let mut terms: Vec<(String, u32)> = Vec::with_capacity(n_terms.min(1024));
        for _ in 0..n_terms {
            let term_len = u16::from_le_bytes(
                take(&mut buf, 2, "payload shorter than term_len field")?
                    .try_into()
                    .map_err(|_| "term_len field")?,
            ) as usize;
            if term_len == 0 || term_len > MAX_TERM_BYTES {
                return Err("implausible term length");
            }
            let raw = take(&mut buf, term_len, "payload shorter than term bytes")?;
            let term = std::str::from_utf8(raw).map_err(|_| "term is not UTF-8")?;
            let tf = u32::from_le_bytes(
                take(&mut buf, 4, "payload shorter than tf field")?
                    .try_into()
                    .map_err(|_| "tf field")?,
            );
            if tf == 0 {
                return Err("zero term frequency");
            }
            if let Some((last, _)) = terms.last() {
                if last.as_str() >= term {
                    return Err("terms not strictly sorted");
                }
            }
            terms.push((term.to_owned(), tf));
        }
        if !buf.is_empty() {
            return Err("trailing bytes after last term");
        }
        Ok(IngestDoc { len, terms })
    }
}

/// Result of replaying a WAL byte image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// Documents with `seq >= start_seq`, in sequence order.
    pub docs: Vec<IngestDoc>,
    /// Records skipped because their sequence number predates `start_seq`
    /// (already sealed, or a duplicated append).
    pub duplicates_skipped: u64,
    /// Bytes of torn tail that must be truncated away.
    pub torn_bytes: u64,
    /// Length the file should be truncated to (`0` means the header itself
    /// was torn and the file must be recreated from scratch).
    pub valid_len: u64,
    /// The sequence number the next append should carry.
    pub next_seq: u64,
}

/// Replays a WAL image, classifying every byte as applied, duplicate,
/// torn tail, or corruption. `start_seq` is the number of documents
/// already sealed into segments.
///
/// Torn tails (including a torn 8-byte header) are *recovered from*, not
/// errors. Only provable mid-log corruption — a CRC failure on a
/// non-final record, an undecodable payload, or a sequence gap — returns
/// `Err`.
pub fn replay(bytes: &[u8], start_seq: u64) -> Result<WalReplay, IndexError> {
    if bytes.len() < 8 {
        // Torn create: the header never made it to disk. Nothing was
        // acknowledged after this file was (re)created, so recover empty.
        return Ok(WalReplay {
            docs: Vec::new(),
            duplicates_skipped: 0,
            torn_bytes: bytes.len() as u64,
            valid_len: 0,
            next_seq: start_seq,
        });
    }
    let magic = u64::from_le_bytes(
        bytes[..8]
            .try_into()
            .map_err(|_| IndexError::CorruptIndex { context: "WAL magic" })?,
    );
    if magic != MAGIC_WAL {
        return Err(IndexError::UnsupportedFormat { found: magic });
    }

    let mut docs = Vec::new();
    let mut duplicates = 0u64;
    let mut expected = start_seq;
    let mut pos = 8usize;
    loop {
        let rem = &bytes[pos..];
        if rem.is_empty() {
            break;
        }
        // A frame that does not fit is a torn tail.
        if rem.len() < FRAME_BYTES {
            break;
        }
        let payload_len = u32::from_le_bytes(
            rem[0..4]
                .try_into()
                .map_err(|_| IndexError::CorruptIndex { context: "WAL frame" })?,
        ) as usize;
        let stored_crc = u32::from_le_bytes(
            rem[4..8]
                .try_into()
                .map_err(|_| IndexError::CorruptIndex { context: "WAL frame" })?,
        );
        let seq = u64::from_le_bytes(
            rem[8..16]
                .try_into()
                .map_err(|_| IndexError::CorruptIndex { context: "WAL frame" })?,
        );
        if payload_len > MAX_PAYLOAD {
            // A length field this large is either garbage from a torn
            // write (in which case the payload cannot fit either) or
            // corruption; both resolve below.
            if rem.len() >= FRAME_BYTES.saturating_add(payload_len) {
                return Err(IndexError::CorruptWal {
                    context: "implausible record length",
                    offset: pos as u64,
                });
            }
            break;
        }
        if rem.len() < FRAME_BYTES + payload_len {
            break; // torn payload
        }
        let payload = &rem[FRAME_BYTES..FRAME_BYTES + payload_len];
        let computed = frame_crc(seq, payload);
        let is_final = rem.len() == FRAME_BYTES + payload_len;
        if computed != stored_crc {
            if is_final {
                break; // torn final record: written but never fully flushed
            }
            return Err(IndexError::CorruptWal {
                context: "record checksum",
                offset: pos as u64,
            });
        }
        if seq < expected {
            duplicates += 1;
        } else if seq == expected {
            let doc = IngestDoc::decode(payload)
                .map_err(|context| IndexError::CorruptWal { context, offset: pos as u64 })?;
            docs.push(doc);
            expected += 1;
        } else {
            return Err(IndexError::CorruptWal {
                context: "sequence gap",
                offset: pos as u64,
            });
        }
        pos += FRAME_BYTES + payload_len;
    }

    Ok(WalReplay {
        docs,
        duplicates_skipped: duplicates,
        torn_bytes: (bytes.len() - pos) as u64,
        valid_len: pos as u64,
        next_seq: expected,
    })
}

/// An open write-ahead log. Appends are buffered in the OS page cache;
/// [`Wal::sync`] is the acknowledgment barrier.
#[derive(Debug)]
pub struct Wal {
    file: File,
    next_seq: u64,
    dirty: bool,
}

impl Wal {
    /// Creates (or truncates) the log at `path`, writes the magic header,
    /// and fsyncs both the file and its parent directory.
    ///
    /// Truncate-create is crash-safe here because the log is only ever
    /// (re)created when zero unsealed documents are acknowledged: at
    /// directory initialization and immediately after a seal. A crash
    /// mid-create leaves a torn header, which replay treats as an empty
    /// log — exactly the acknowledged state.
    pub fn create(path: &Path, next_seq: u64) -> Result<Wal, IndexError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("creating the WAL", e))?;
        file.write_all(&MAGIC_WAL.to_le_bytes())
            .map_err(|e| io_err("writing the WAL header", e))?;
        file.sync_data().map_err(|e| io_err("fsyncing the new WAL", e))?;
        if let Some(dir) = path.parent() {
            sync_dir(dir)?;
        }
        Ok(Wal { file, next_seq, dirty: false })
    }

    /// Opens an existing log for appending, truncating it to `valid_len`
    /// first (dropping any torn tail found by [`replay`]).
    pub fn open_append(path: &Path, next_seq: u64, valid_len: u64) -> Result<Wal, IndexError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("opening the WAL", e))?;
        let actual = file.metadata().map_err(|e| io_err("stat-ing the WAL", e))?.len();
        if actual < valid_len {
            return Err(IndexError::CorruptIndex {
                context: "WAL shorter than its valid prefix",
            });
        }
        if actual != valid_len {
            file.set_len(valid_len).map_err(|e| io_err("truncating the WAL torn tail", e))?;
            file.sync_data().map_err(|e| io_err("fsyncing the truncated WAL", e))?;
        }
        let mut wal = Wal { file, next_seq, dirty: false };
        use std::io::Seek;
        wal.file
            .seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err("seeking to the WAL tail", e))?;
        Ok(wal)
    }

    /// Sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one document and returns its sequence number. The record
    /// is **not** durable until [`Wal::sync`] returns.
    pub fn append(&mut self, doc: &IngestDoc) -> Result<u64, IndexError> {
        if doc.terms.len() > MAX_DOC_TERMS {
            return Err(IndexError::CorruptIndex { context: "document has too many terms" });
        }
        for (term, _) in &doc.terms {
            if term.is_empty() || term.len() > MAX_TERM_BYTES {
                return Err(IndexError::CorruptIndex { context: "term length out of range" });
            }
        }
        let mut payload = Vec::with_capacity(8 + doc.terms.len() * 12);
        doc.encode_into(&mut payload);
        if payload.len() > MAX_PAYLOAD {
            return Err(IndexError::CorruptIndex { context: "WAL record payload too large" });
        }
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(FRAME_BYTES + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&frame_crc(seq, &payload).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame).map_err(|e| io_err("appending to the WAL", e))?;
        self.next_seq += 1;
        self.dirty = true;
        Ok(seq)
    }

    /// Durability barrier: fsyncs all appends since the last sync. Only
    /// after this returns may the appended documents be acknowledged.
    pub fn sync(&mut self) -> Result<(), IndexError> {
        if self.dirty {
            self.file.sync_data().map_err(|e| io_err("fsyncing the WAL", e))?;
            self.dirty = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(len: u32, terms: &[(&str, u32)]) -> IngestDoc {
        IngestDoc::new(len, terms.iter().map(|(t, f)| ((*t).to_owned(), *f)).collect())
    }

    fn encode_record(seq: u64, doc: &IngestDoc) -> Vec<u8> {
        let mut payload = Vec::new();
        doc.encode_into(&mut payload);
        let mut out = Vec::new();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&frame_crc(seq, &payload).to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn image(records: &[(u64, IngestDoc)]) -> Vec<u8> {
        let mut out = MAGIC_WAL.to_le_bytes().to_vec();
        for (seq, d) in records {
            out.extend_from_slice(&encode_record(*seq, d));
        }
        out
    }

    #[test]
    fn ingest_doc_normalizes() {
        let d = IngestDoc::new(
            9,
            vec![("b".into(), 2), ("a".into(), 1), ("b".into(), 3), ("c".into(), 0)],
        );
        assert_eq!(d.terms(), &[("a".to_owned(), 1), ("b".to_owned(), 5)]);
        assert_eq!(d.len(), 9);
    }

    #[test]
    fn from_tokens_counts_frequencies() {
        let d = IngestDoc::from_tokens(["the", "cat", "the", "", "mat"]);
        assert_eq!(d.len(), 4);
        assert_eq!(
            d.terms(),
            &[("cat".to_owned(), 1), ("mat".to_owned(), 1), ("the".to_owned(), 2)]
        );
    }

    #[test]
    fn round_trip_through_replay() {
        let docs = vec![
            (0u64, doc(5, &[("alpha", 2), ("beta", 1)])),
            (1, doc(3, &[("beta", 3)])),
            (2, doc(7, &[("alpha", 1), ("gamma", 4)])),
        ];
        let img = image(&docs);
        let r = replay(&img, 0).unwrap();
        assert_eq!(r.docs, docs.into_iter().map(|(_, d)| d).collect::<Vec<_>>());
        assert_eq!(r.duplicates_skipped, 0);
        assert_eq!(r.torn_bytes, 0);
        assert_eq!(r.valid_len, img.len() as u64);
        assert_eq!(r.next_seq, 3);
    }

    #[test]
    fn torn_header_recovers_empty() {
        for len in 0..8 {
            let r = replay(&vec![0xAB; len], 42).unwrap();
            assert!(r.docs.is_empty());
            assert_eq!(r.valid_len, 0);
            assert_eq!(r.torn_bytes, len as u64);
            assert_eq!(r.next_seq, 42);
        }
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut img = image(&[]);
        img[0] ^= 0xFF;
        assert!(matches!(replay(&img, 0), Err(IndexError::UnsupportedFormat { .. })));
    }

    #[test]
    fn torn_tail_is_truncated_not_an_error() {
        let docs = vec![(0u64, doc(5, &[("alpha", 2)])), (1, doc(3, &[("beta", 1)]))];
        let full = image(&docs);
        let first_end = 8 + encode_record(0, &docs[0].1).len();
        // Cut at every byte inside the second record.
        for cut in first_end + 1..full.len() {
            let r = replay(&full[..cut], 0).unwrap();
            assert_eq!(r.docs.len(), 1, "cut at {cut}");
            assert_eq!(r.valid_len, first_end as u64, "cut at {cut}");
            assert_eq!(r.torn_bytes, (cut - first_end) as u64, "cut at {cut}");
            assert_eq!(r.next_seq, 1);
        }
    }

    #[test]
    fn corrupt_final_record_is_torn() {
        let docs = vec![(0u64, doc(5, &[("alpha", 2)])), (1, doc(3, &[("beta", 1)]))];
        let mut img = image(&docs);
        let n = img.len();
        img[n - 1] ^= 0x01; // flip a payload byte of the last record
        let r = replay(&img, 0).unwrap();
        assert_eq!(r.docs.len(), 1);
        assert_eq!(r.next_seq, 1);
    }

    #[test]
    fn corrupt_interior_record_is_typed_error() {
        let docs = vec![(0u64, doc(5, &[("alpha", 2)])), (1, doc(3, &[("beta", 1)]))];
        let mut img = image(&docs);
        img[8 + FRAME_BYTES] ^= 0x01; // payload byte of the FIRST record
        match replay(&img, 0) {
            Err(IndexError::CorruptWal { context, offset }) => {
                assert_eq!(context, "record checksum");
                assert_eq!(offset, 8);
            }
            other => panic!("expected CorruptWal, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_records_are_skipped() {
        let d0 = doc(5, &[("alpha", 2)]);
        let d1 = doc(3, &[("beta", 1)]);
        let img = image(&[(0, d0.clone()), (0, d0), (1, d1.clone())]);
        let r = replay(&img, 0).unwrap();
        assert_eq!(r.docs.len(), 2);
        assert_eq!(r.docs[1], d1);
        assert_eq!(r.duplicates_skipped, 1);
        assert_eq!(r.next_seq, 2);
    }

    #[test]
    fn sealed_records_are_skipped_via_start_seq() {
        let img = image(&[(0, doc(5, &[("a", 1)])), (1, doc(6, &[("b", 1)]))]);
        let r = replay(&img, 2).unwrap();
        assert!(r.docs.is_empty());
        assert_eq!(r.duplicates_skipped, 2);
        assert_eq!(r.next_seq, 2);
    }

    #[test]
    fn sequence_gap_is_typed_error() {
        let img = image(&[(0, doc(5, &[("a", 1)])), (2, doc(6, &[("b", 1)]))]);
        match replay(&img, 0) {
            Err(IndexError::CorruptWal { context, .. }) => assert_eq!(context, "sequence gap"),
            other => panic!("expected CorruptWal, got {other:?}"),
        }
    }

    #[test]
    fn undecodable_payload_is_typed_error() {
        // Valid CRC over garbage payload: decode must reject, not panic.
        let seq = 0u64;
        let payload = [0xFFu8; 3];
        let mut img = MAGIC_WAL.to_le_bytes().to_vec();
        img.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        img.extend_from_slice(&frame_crc(seq, &payload).to_le_bytes());
        img.extend_from_slice(&seq.to_le_bytes());
        img.extend_from_slice(&payload);
        assert!(matches!(replay(&img, 0), Err(IndexError::CorruptWal { .. })));
    }

    #[test]
    fn file_round_trip_append_sync_replay() {
        let dir = std::env::temp_dir().join(format!("iiu-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE_NAME);
        let docs = [doc(5, &[("alpha", 2), ("beta", 1)]), doc(3, &[("beta", 3)])];
        {
            let mut wal = Wal::create(&path, 0).unwrap();
            for (i, d) in docs.iter().enumerate() {
                assert_eq!(wal.append(d).unwrap(), i as u64);
            }
            wal.sync().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let r = replay(&bytes, 0).unwrap();
        assert_eq!(r.docs, docs.to_vec());
        // Reopen for append and extend.
        let mut wal = Wal::open_append(&path, r.next_seq, r.valid_len).unwrap();
        let d2 = doc(9, &[("gamma", 1)]);
        assert_eq!(wal.append(&d2).unwrap(), 2);
        wal.sync().unwrap();
        let r = replay(&std::fs::read(&path).unwrap(), 0).unwrap();
        assert_eq!(r.docs.len(), 3);
        assert_eq!(r.docs[2], d2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
