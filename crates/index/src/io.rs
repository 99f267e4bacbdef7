//! Binary index file format.
//!
//! The host's `init(file invFile)` primitive (paper §4.1) loads the inverted
//! index from a file into the memory region the accelerator reads. This
//! module defines that file format: a little-endian, sectioned layout with a
//! magic/version word, the BM25 parameters, the document-length table, and
//! one record per term (name, metadata words, skip values, payload bytes).
//!
//! # Format v4
//!
//! The one layout this module reads and writes. Every payload is
//! bit-packed, so the header's codec id byte is always written as 0
//! ([`crate::codec::CodecId`]):
//!
//! ```text
//! magic/version            u64   (MAGIC, not covered by a section CRC)
//! header                   k1 f64 · b f64 · partitioner (u8 kind + u32 arg)
//!                          · codec u8
//!                          · num_docs u64 · num_terms u64      + crc32 u32
//! doc-length table         num_docs × u32                      + crc32 u32
//! term record (× num_terms)
//!                          name_len u32 · name bytes
//!                          · num_postings u64 · num_blocks u64
//!                          · num_blocks × meta u64
//!                          · num_blocks × skip u32
//!                          · payload_len u64 · payload bytes   + crc32 u32
//! score bounds             per term: num_blocks u64
//!                          · num_blocks × (ub_raw u32 · max_tf u32)
//!                          whole section                       + crc32 u32
//! footer                   crc32 u32 over every preceding byte
//! ```
//!
//! Any other magic is rejected with [`IndexError::UnsupportedFormat`]:
//! the retired "IIUX" versions 1–3 (rebuilding the index is the
//! migration) and the retired round-robin shard manifests ("IIUS"; a
//! query fans out over docID windows of one file instead,
//! [`crate::shard::DocWindow`]).
//!
//! # Load policy
//!
//! Every format element is parsed by one function, whichever way the file
//! is opened. The caller's backing — bytes handed to [`deserialize`], or
//! a mapping made by [`crate::storage`] — decides only where payload
//! bytes end up (copied to the heap, or left in the mapping) and *when*
//! each check runs; a loaded index keeps the file's block layout byte for
//! byte either way. This is the one copy of the policy table:
//!
//! | check | heap load | mapped open |
//! |---|---|---|
//! | header / doc table / bounds-section CRC | at load | at load |
//! | record frame + [`EncodedList::validate`] + bounds shape | at load | at load |
//! | first touch: record CRC, then the content oracle (docID order, in-corpus, stored bounds) | at load, every list | on the list's first use, once |
//! | footer CRC | hashed at load | framed, not hashed |
//!
//! [`InvertedIndex::validate`] runs the frame checks and every list's
//! first touch again, on either backing.
//!
//! A list's first touch is one function, whose verdict a mapped list
//! keeps ([`EncodedList::ensure_verified`]): the record CRC where the
//! record is kept (a heap load checks it as it frames the record), then
//! the content oracle, one decode pass per list. No block decoder checks
//! docID order, so the pass does, holds every docID inside the corpus,
//! and requires the stored bounds to equal the ones it gives (`score
//! bounds mismatch`) — CRCs cannot catch a file that was *written* wrong.
//! A heap load reports a mismatch once every list has passed, so a
//! decode, order or corpus fault in any list wins over it. So both
//! backings refuse the same files with the same typed [`IndexError`] —
//! never a panic or an out-of-bounds read — the heap at load, a mapped
//! index at the first query that touches the bad list. A heap open of the
//! 9.19 MB 100k-doc file in process (2-vCPU Xeon, medians of 45), before
//! → after the oracle became one lean pass per block: framing + CRCs 18 →
//! 17 ms, bounds section 3, footer 5, oracle 36 → 21.5, the rest of the
//! assembly 8.5 → 7; in all 71.5 → 54.5 ms. The codec id is
//! interpreted only after the header CRC verifies: random corruption of
//! the byte surfaces as a checksum mismatch, and a CRC-consistent id
//! other than 0 — including the retired ids 1 and 2 — as
//! [`IndexError::UnknownCodec`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;

use crate::block::{EncodedList, ListSpan, TableBuilder};
use crate::bounds::{BoundsBuilder, ListBounds};
use crate::checksum::{crc32, Crc32};
use crate::codec::CodecId;
use crate::error::IndexError;
use crate::index::{InvertedIndex, StoredParts, TermInfo};
use crate::mmap::Mmap;
use crate::partition::Partitioner;
use crate::posting::PostingList;
use crate::score::{avgdl, Bm25Params, Fixed};

/// Little-endian append helpers over the output buffer (the serialized
/// format is defined in terms of these primitives).
trait PutLe {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_f64_le(&mut self, v: f64);
    fn put_slice(&mut self, s: &[u8]);
}

impl PutLe for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

/// Magic + version identifying the format ("IIUX" + 0x0004).
pub const MAGIC: u64 = 0x4949_5558_0000_0004;

/// Serializes `index` to bytes in format v4.
///
/// # Errors
///
/// Returns [`IndexError::UnknownTerm`] if the index's dictionary is
/// inconsistent with its term table (an internal-corruption guard that
/// replaces the old panic on this path).
pub fn serialize(index: &InvertedIndex) -> Result<Vec<u8>, IndexError> {
    let mut out = FileWriter::new(
        Vec::new(),
        index.doc_lens(),
        index.num_terms() as u64,
        index.partitioner(),
        index.params(),
    )?;
    for info in index.terms() {
        let id = index
            .term_id(&info.term)
            .ok_or_else(|| IndexError::UnknownTerm { term: info.term.clone() })?;
        out.record(&info.term, index.encoded_list(id))?;
    }
    out.finish(index.bounds())
}

/// The one encoder of the v4 layout behind [`serialize`] and
/// [`StreamingWriter`]: it emits magic, sealed header and sealed doc
/// table on construction, then one sealed record per
/// [`record`](Self::record) call, and the sealed bounds section and the
/// footer on [`finish`](Self::finish) — folding every byte into the
/// running footer CRC on its way to the sink.
struct FileWriter<W: std::io::Write> {
    sink: W,
    /// Running checksum over every byte emitted so far (the footer).
    footer: Crc32,
    /// The section being encoded, reused from one section to the next.
    section: Vec<u8>,
}

impl<W: std::io::Write> FileWriter<W> {
    fn new(
        sink: W,
        doc_lens: &[u32],
        num_terms: u64,
        partitioner: Partitioner,
        params: Bm25Params,
    ) -> Result<Self, IndexError> {
        let mut out = FileWriter { sink, footer: Crc32::new(), section: Vec::new() };
        out.section.put_u64_le(MAGIC);
        out.emit()?;

        out.section.put_f64_le(params.k1);
        out.section.put_f64_le(params.b);
        let (kind, arg) = match partitioner {
            Partitioner::Fixed { block_len } => (0, block_len),
            Partitioner::Dynamic { max_size } => (1, max_size),
        };
        out.section.put_u8(kind);
        out.section.put_u32_le(arg as u32);
        out.section.put_u8(CodecId::BitPack as u8);
        out.section.put_u64_le(doc_lens.len() as u64);
        out.section.put_u64_le(num_terms);
        out.seal()?;

        for &l in doc_lens {
            out.section.put_u32_le(l);
        }
        out.seal()?;
        Ok(out)
    }

    /// Writes one sealed term record: name, counts, metadata words, skip
    /// values, payload.
    fn record(&mut self, term: &str, list: &EncodedList) -> Result<(), IndexError> {
        let buf = &mut self.section;
        buf.put_u32_le(term.len() as u32);
        buf.put_slice(term.as_bytes());
        buf.put_u64_le(list.num_postings());
        buf.put_u64_le(list.num_blocks() as u64);
        for meta in list.metas() {
            buf.put_u64_le(meta.pack());
        }
        for &skip in list.skips() {
            buf.put_u32_le(skip);
        }
        buf.put_u64_le(list.payload().len() as u64);
        buf.put_slice(list.payload());
        self.seal()
    }

    /// Writes the sealed score-bounds section — per list, its block count
    /// and `(ub, max_tf)` pairs — and the footer CRC, flushes, and returns
    /// the sink.
    fn finish(mut self, bounds: &[ListBounds]) -> Result<W, IndexError> {
        for list in bounds {
            self.section.put_u64_le(list.num_blocks() as u64);
            for (ub, &max_tf) in list.ubs().iter().zip(list.max_tfs()) {
                self.section.put_u32_le(ub.raw());
                self.section.put_u32_le(max_tf);
            }
        }
        self.seal()?;
        // The footer covers everything already emitted and is itself
        // outside the running checksum.
        let footer = self.footer.finish();
        self.sink.write_all(&footer.to_le_bytes()).map_err(write_err)?;
        self.sink.flush().map_err(write_err)?;
        Ok(self.sink)
    }

    /// Appends the section CRC to the section being encoded and emits it.
    fn seal(&mut self) -> Result<(), IndexError> {
        let crc = crc32(&self.section);
        self.section.put_u32_le(crc);
        self.emit()
    }

    /// Writes the section being encoded to the sink, folds it into the
    /// footer CRC, and starts the next one.
    fn emit(&mut self) -> Result<(), IndexError> {
        self.footer.update(&self.section);
        self.sink.write_all(&self.section).map_err(write_err)?;
        self.section.clear();
        Ok(())
    }
}

/// Maps a sink write failure to the typed I/O error.
fn write_err(e: std::io::Error) -> IndexError {
    IndexError::Io { context: "writing index file", message: e.to_string() }
}

/// Streams a format-v4 index file one term at a time, producing output
/// byte-identical to [`serialize`] over the same inputs without ever
/// holding the whole index — or the whole file — in memory.
///
/// The v4 header carries `num_docs`/`num_terms` and the footer CRC
/// covers every preceding byte, so construction takes the complete
/// document-length table and the term count up front and immediately
/// emits magic, header, and doc table while folding them into a running
/// [`Crc32`]. Each [`push_term`](Self::push_term) call then encodes one
/// posting list, writes its sealed record, and accumulates that list's
/// score bounds; [`finish`](Self::finish) emits the bounds section and
/// the footer. Peak memory is one encoded list plus the per-document
/// (4 + 4 bytes/doc) and bound (8 bytes/block plus a fixed record per
/// term) tables —
/// independent of the total posting count, which is what lets `iiu gen`
/// stream a million-document corpus to disk with bounded RSS.
///
/// Terms must be pushed in the order the index's dictionary should
/// assign term ids (the synthetic corpus generator's rank order).
pub struct StreamingWriter<W: std::io::Write> {
    out: FileWriter<W>,
    params: Bm25Params,
    partitioner: Partitioner,
    n_docs: u64,
    /// Per-document `dl̄` table, shared by every list's bound computation.
    dl_bars: Vec<Fixed>,
    /// Score bounds accumulated per pushed term, emitted by `finish`.
    bounds: BoundsBuilder,
    expected_terms: u64,
    written_terms: u64,
}

impl<W: std::io::Write> StreamingWriter<W> {
    /// Opens a streamed v4 file: writes magic, sealed header, and sealed
    /// doc-length table to `sink`. Exactly `num_terms` calls to
    /// [`push_term`](Self::push_term) must follow before
    /// [`finish`](Self::finish).
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Io`] if the sink rejects a write.
    pub fn new(
        sink: W,
        doc_lens: &[u32],
        num_terms: u64,
        partitioner: Partitioner,
        params: Bm25Params,
    ) -> Result<Self, IndexError> {
        Ok(StreamingWriter {
            out: FileWriter::new(sink, doc_lens, num_terms, partitioner, params)?,
            params,
            partitioner,
            n_docs: doc_lens.len() as u64,
            dl_bars: params.dl_bars(doc_lens, avgdl(doc_lens)),
            bounds: BoundsBuilder::default(),
            expected_terms: num_terms,
            written_terms: 0,
        })
    }

    /// Encodes `list`, writes its sealed term record, and accumulates its
    /// score bounds. The term is assigned the next term id.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] on a docID beyond the corpus
    /// or when more terms are pushed than the header declares, encoding
    /// errors from [`EncodedList::encode`] verbatim, and
    /// [`IndexError::Io`] if the sink rejects the write.
    pub fn push_term(&mut self, term: &str, list: &PostingList) -> Result<(), IndexError> {
        if self.written_terms == self.expected_terms {
            return Err(IndexError::CorruptIndex {
                context: "more streamed terms than the header declares",
            });
        }
        if let Some(last) = list.as_slice().last() {
            if u64::from(last.doc_id) >= self.n_docs {
                return Err(IndexError::CorruptIndex {
                    context: "posting list references docID beyond corpus",
                });
            }
        }
        let idf_bar = Fixed::from_f64(self.params.idf_bar(self.n_docs, list.len() as u64));
        let partition = self.partitioner.partition(list);
        let encoded = EncodedList::encode(list, &partition)?;
        self.bounds.push_computed(list.as_slice(), &partition, idf_bar, &self.dl_bars);
        self.out.record(term, &encoded)?;
        self.written_terms += 1;
        Ok(())
    }

    /// Writes the sealed score-bounds section and the footer CRC, flushes,
    /// and returns the sink.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] if fewer terms were pushed
    /// than the header declares, and [`IndexError::Io`] on sink errors.
    pub fn finish(self) -> Result<W, IndexError> {
        if self.written_terms != self.expected_terms {
            return Err(IndexError::CorruptIndex {
                context: "fewer streamed terms than the header declares",
            });
        }
        self.out.finish(&self.bounds.finish())
    }
}

/// A bounds-checked little-endian cursor over the serialized bytes that
/// remembers its position, so section checksums can be computed over the
/// exact byte ranges that were parsed.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], IndexError> {
        if self.remaining() < n {
            return Err(IndexError::CorruptIndex { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, IndexError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, IndexError> {
        let s = self.take(4, context)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, IndexError> {
        let s = self.take(8, context)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, IndexError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a stored section checksum and verifies it against the bytes
    /// parsed since `start`.
    fn verify_section(
        &mut self,
        start: usize,
        section: &'static str,
        crc_context: &'static str,
    ) -> Result<(), IndexError> {
        let found = crc32(&self.buf[start..self.pos]);
        let expected = self.u32(crc_context)?;
        if expected != found {
            return Err(IndexError::ChecksumMismatch { section, expected, found });
        }
        Ok(())
    }
}

/// The little-endian `u32`s packed in `raw` (whole words only).
fn le_u32s(raw: &[u8]) -> impl Iterator<Item = u32> + '_ {
    raw.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// The little-endian `u64`s packed in `raw` (whole words only).
fn le_u64s(raw: &[u8]) -> impl Iterator<Item = u64> + '_ {
    raw.chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
}

/// Deserializes an index previously written by [`serialize`] (format v4)
/// onto the heap. The loaded index keeps the file's block layout byte for
/// byte; the heap column of the module's policy table says what is
/// verified first — every check, every list's first touch included.
///
/// # Errors
///
/// Returns [`IndexError::UnsupportedFormat`] on any magic/version word
/// but v4's, [`IndexError::UnknownCodec`] when the header names a codec
/// id other than 0, [`IndexError::ChecksumMismatch`] when a section
/// checksum fails, and [`IndexError::CorruptIndex`] on truncated or
/// inconsistent content — including a score-bounds section that passes
/// its CRC but disagrees with the bounds recomputed from the postings.
pub fn deserialize(bytes: &[u8]) -> Result<InvertedIndex, IndexError> {
    load(Backing::Heap(bytes))
}

fn read_partitioner(kind: u8, arg: usize) -> Result<Partitioner, IndexError> {
    // Validate the range here rather than letting the constructors panic:
    // a CRC-consistent tamper can present any arg with valid checksums.
    if !(1..=crate::block::MAX_BLOCK_LEN).contains(&arg) {
        return Err(IndexError::CorruptIndex { context: "partitioner arg" });
    }
    match kind {
        0 => Ok(Partitioner::fixed(arg)),
        1 => Ok(Partitioner::dynamic(arg)),
        _ => Err(IndexError::CorruptIndex { context: "partitioner kind" }),
    }
}

/// What a load reads from, which decides only where payload bytes end up
/// and when they are verified (the policy table in the module docs). The
/// entry points imply it: [`deserialize`] is handed bytes,
/// [`crate::storage`] a path it maps.
#[derive(Clone, Copy)]
pub(crate) enum Backing<'a> {
    /// Caller-owned bytes: payloads are copied out, every checksum is
    /// verified as it is framed, and every list's first touch runs before
    /// the load returns.
    Heap(&'a [u8]),
    /// A file mapping: payloads stay in it, each list's first touch waits
    /// for its first use, and the footer is framed but never hashed (that
    /// would fault in every page).
    Mapped(&'a Arc<Mmap>),
}

impl<'a> Backing<'a> {
    fn bytes(self) -> &'a [u8] {
        match self {
            Backing::Heap(bytes) => bytes,
            Backing::Mapped(map) => map.as_slice(),
        }
    }
}

/// The header's fields.
struct Header {
    params: Bm25Params,
    partitioner: Partitioner,
    n_docs: usize,
    n_terms: usize,
}

fn read_header(r: &mut Reader<'_>) -> Result<Header, IndexError> {
    let start = r.pos;
    let k1 = r.f64("header")?;
    let b = r.f64("header")?;
    let part_kind = r.u8("header")?;
    let part_arg = r.u32("header")? as usize;
    let codec = r.u8("header")?;
    let n_docs = r.u64("header")? as usize;
    let n_terms = r.u64("header")? as usize;
    r.verify_section(start, "header", "header checksum")?;
    // Interpreted only after the section CRC passes: random corruption of
    // the codec byte must surface as a checksum mismatch, and only a
    // CRC-consistent unknown id as `UnknownCodec`.
    let partitioner = read_partitioner(part_kind, part_arg)?;
    CodecId::from_u8(codec)?;
    Ok(Header { params: Bm25Params { k1, b }, partitioner, n_docs, n_terms })
}

/// Frames the body: the header, the doc-length table with the `dl̄`
/// table the file does not store, and one structurally validated (never
/// decoded) list per term record, in the parts an index is assembled from
/// — all but the bounds, which follow the records.
fn read_body(
    r: &mut Reader<'_>,
    backing: Backing<'_>,
) -> Result<(Header, StoredParts), IndexError> {
    let header = read_header(r)?;
    let doc_start = r.pos;
    let doc_bytes = header
        .n_docs
        .checked_mul(4)
        .ok_or(IndexError::CorruptIndex { context: "doc length table" })?;
    let doc_lens: Vec<u32> = le_u32s(r.take(doc_bytes, "doc length table")?).collect();
    r.verify_section(doc_start, "doc length table", "doc length checksum")?;
    let avgdl = avgdl(&doc_lens);
    let dl_bars = header.params.dl_bars(&doc_lens, avgdl);

    let mut terms = Vec::with_capacity(header.n_terms.min(r.remaining()));
    let mut spans = Vec::with_capacity(header.n_terms.min(r.remaining()));
    let mut tables = TableBuilder::default();
    for _ in 0..header.n_terms {
        let (info, span) = read_record(r, backing, &header, &mut tables)?;
        terms.push(info);
        spans.push(span);
    }
    let mapping = match backing {
        Backing::Heap(_) => None,
        Backing::Mapped(map) => Some(Arc::clone(map)),
    };
    let bounds = BoundsBuilder::default();
    Ok((
        header,
        StoredParts { terms, tables, spans, bounds, doc_lens, dl_bars, avgdl, mapping },
    ))
}

/// Frames one term record and appends its list to `tables`, which checks
/// the structural invariants ([`EncodedList::validate`]) without
/// decoding, under the term constant `header`'s statistics give it. The
/// record CRC is verified here on the heap backing and deferred to the
/// list's first touch on the mapped one.
fn read_record(
    r: &mut Reader<'_>,
    backing: Backing<'_>,
    header: &Header,
    tables: &mut TableBuilder,
) -> Result<(TermInfo, ListSpan), IndexError> {
    let context = "term record";
    let start = r.pos;
    let name_len = r.u32(context)? as usize;
    let term = std::str::from_utf8(r.take(name_len, context)?)
        .map_err(|_| IndexError::CorruptIndex { context: "term name utf-8" })?
        .to_owned();

    let df = r.u64(context)?;
    let num_blocks = r.u64(context)? as usize;
    let table_bytes = num_blocks
        .checked_mul(12)
        .ok_or(IndexError::CorruptIndex { context: "block tables" })?;
    let (meta_raw, skip_raw) = r.take(table_bytes, context)?.split_at(num_blocks * 8);
    let payload_len = r.u64(context)? as usize;
    let payload_off = r.pos;
    let payload = r.take(payload_len, context)?;

    // Heap: the payload is copied into the owned buffer, under a verified
    // CRC. Mapped: it stays where it is, under a deferred one.
    let mapped = match backing {
        Backing::Heap(_) => {
            r.verify_section(start, "term record", "term record checksum")?;
            None
        }
        Backing::Mapped(_) => {
            r.u32("term record checksum")?;
            Some((start, payload_off))
        }
    };
    let idf_bar = Fixed::from_f64(header.params.idf_bar(header.n_docs as u64, df));
    let span = tables.push_stored(
        le_u64s(meta_raw),
        le_u32s(skip_raw),
        payload,
        df,
        idf_bar,
        mapped,
    )?;
    Ok((TermInfo { term, df, idf_bar }, span))
}

/// Reads the stored score-bounds section: one entry list per term, under
/// one section CRC.
fn read_bounds_section(
    r: &mut Reader<'_>,
    n_terms: usize,
) -> Result<BoundsBuilder, IndexError> {
    let start = r.pos;
    let mut stored = BoundsBuilder::default();
    for _ in 0..n_terms {
        let num_blocks = r.u64("score bounds")? as usize;
        let entry_bytes = num_blocks
            .checked_mul(8)
            .ok_or(IndexError::CorruptIndex { context: "score bounds" })?;
        let mut words = le_u32s(r.take(entry_bytes, "score bounds")?);
        stored.push_stored(std::iter::from_fn(|| {
            Some((Fixed::from_raw(words.next()?), words.next()?))
        }));
    }
    r.verify_section(start, "score bounds", "score bounds checksum")?;
    Ok(stored)
}

/// Ends the file: the whole-file footer CRC — hashed on the heap backing,
/// only framed on the mapped one — and nothing after it.
fn read_footer(r: &mut Reader<'_>, backing: Backing<'_>) -> Result<(), IndexError> {
    let body_end = r.pos;
    let expected = r.u32("footer")?;
    if let Backing::Heap(_) = backing {
        let found = crc32(&r.buf[..body_end]);
        if expected != found {
            return Err(IndexError::ChecksumMismatch { section: "footer", expected, found });
        }
    }
    if r.remaining() != 0 {
        return Err(IndexError::CorruptIndex { context: "trailing bytes" });
    }
    Ok(())
}

/// Loads an index file from `backing` into an index that keeps the
/// file's block layout ([`InvertedIndex::from_stored_parts`]), its tables
/// frozen over the mapping or over the owned payload buffer. A heap load
/// then runs every list's first touch; a mapped list runs its own on
/// first use.
pub(crate) fn load(backing: Backing<'_>) -> Result<InvertedIndex, IndexError> {
    let mut r = Reader::new(backing.bytes());
    match r.u64("magic")? {
        MAGIC => {}
        found => return Err(IndexError::UnsupportedFormat { found }),
    }
    let (header, mut parts) = read_body(&mut r, backing)?;
    parts.bounds = read_bounds_section(&mut r, parts.spans.len())?;
    read_footer(&mut r, backing)?;
    let index = InvertedIndex::from_stored_parts(parts, header.params, header.partitioner)?;
    if let Backing::Heap(_) = backing {
        index.first_touch_every_list()?;
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildOptions, IndexBuilder};

    fn sample_index() -> InvertedIndex {
        let mut b = IndexBuilder::new(BuildOptions::default());
        b.add_document("the quick brown fox jumps over the lazy dog");
        b.add_document("pack my box with five dozen liquor jugs");
        b.add_document("the five boxing wizards jump quickly");
        b.add_document("quick wizards pack the box");
        b.build()
    }

    #[test]
    fn roundtrip_preserves_index() {
        let idx = sample_index();
        let bytes = serialize(&idx).unwrap();
        let back = deserialize(&bytes).unwrap();
        assert_eq!(idx, back);
    }

    /// A small seeded corpus whose lists give the block partitioner real
    /// choices: dense runs, outlier gaps, tf spikes, all-equal gaps, and
    /// lists both shorter and longer than every pinned `maxSize`.
    fn layout_pin_corpus() -> (Vec<(String, PostingList)>, Vec<u32>) {
        let mut state = 1u64;
        let mut next = move |bound: u32| -> u32 {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % u64::from(bound)) as u32
        };
        let lens = [1usize, 2, 3, 16, 17, 100, 255, 256, 257, 700, 2100, 2600];
        let mut lists = Vec::with_capacity(lens.len());
        let mut n_docs = 0u32;
        for (t, &len) in lens.iter().enumerate() {
            let mut doc = next(50);
            let mut postings = Vec::with_capacity(len);
            for k in 0..len {
                if k > 0 {
                    doc += match (t % 4, next(100)) {
                        (2, _) => 3,
                        (_, 0..=1) => 1000 + next(3000),
                        (3, _) if (k / 64) % 2 == 1 => 20 + next(40),
                        _ => 1 + next(8),
                    };
                }
                let tf = if next(50) == 0 { 100 + next(900) } else { 1 + next(3) };
                postings.push(crate::Posting::new(doc, tf));
            }
            n_docs = n_docs.max(doc + 1);
            lists.push((format!("t{t:02}"), PostingList::from_sorted(postings)));
        }
        let doc_lens = (0..n_docs).map(|d| 5 + d * 7 % 40).collect();
        (lists, doc_lens)
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn serialized_layout_is_pinned() {
        // FNV-1a over the whole file: a CRC32 would be useless here, since
        // the file ends with its own CRC and so every file's CRC32 agrees.
        // Any change to block boundaries, payload bytes or section layout
        // moves these hashes.
        let pinned: [(CodecId, usize, u64); 3] = [
            (CodecId::BitPack, 16, 0xeb01_89f5_4160_3570),
            (CodecId::BitPack, 256, 0xc182_8d43_e883_0229),
            (CodecId::BitPack, 2048, 0xa8d0_bdfe_9113_7c1b),
        ];
        let mut got = Vec::new();
        for (codec, max_size, _) in pinned {
            let (lists, doc_lens) = layout_pin_corpus();
            let idx = InvertedIndex::from_lists(
                lists,
                doc_lens,
                Partitioner::dynamic(max_size),
                Bm25Params::default(),
            )
            .unwrap();
            got.push((codec, max_size, fnv1a64(&serialize(&idx).unwrap())));
        }
        assert_eq!(got, pinned, "serialized bytes moved");
    }

    #[test]
    fn stored_bounds_cross_check_catches_consistent_tampering() {
        // Tamper with a stored block bound, then recompute the section CRC
        // and footer so every checksum passes. The recomputation oracle
        // must still reject the file — CRCs can't catch a file that was
        // *written* wrong.
        let idx = sample_index();
        let mut bytes = serialize(&idx).unwrap().to_vec();
        let n = bytes.len();
        let bounds_len: usize = idx.bounds().iter().map(|b| 8 + b.num_blocks() * 8).sum();
        let content_start = n - 8 - bounds_len;
        // First term's first block ub, low byte (right after its num_blocks).
        bytes[content_start + 8] ^= 0x01;
        let crc = crc32(&bytes[content_start..n - 8]);
        bytes[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
        let footer = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&footer.to_le_bytes());
        assert!(matches!(
            deserialize(&bytes),
            Err(IndexError::CorruptIndex { context: "score bounds mismatch" })
        ));
    }

    /// One hand-made block: its skip value and its stored `(gap, tf)`
    /// pairs, the first gap included (the decoder adds it back).
    type HandBlock<'a> = (u32, &'a [(u32, u32)]);

    /// The v4 file of an index over `n_docs` documents of length 10 whose
    /// lists are `lists`' blocks written as given — a file *written*
    /// wrong, which no encoder produces — with the stored bounds the build
    /// gives the postings each list decodes to, so a fault in its docIDs
    /// is its only one.
    fn hand_made_file(n_docs: u32, lists: &[&[HandBlock<'_>]]) -> Vec<u8> {
        use crate::bitpack::bits_for;
        use crate::block::BlockMeta;
        let params = Bm25Params::default();
        let doc_lens = vec![10u32; n_docs as usize];
        let dl_bars = params.dl_bars(&doc_lens, 10.0);
        let (mut tables, mut bounds) = (TableBuilder::default(), BoundsBuilder::default());
        let (mut spans, mut terms) = (Vec::new(), Vec::new());
        for (t, blocks) in lists.iter().enumerate() {
            let (mut metas, mut payload, mut postings) = (Vec::new(), Vec::new(), Vec::new());
            for &(skip, pairs) in *blocks {
                let (gaps, tfs): (Vec<u32>, Vec<u32>) = pairs.iter().copied().unzip();
                let dn_bits = bits_for(gaps.iter().copied().max().unwrap());
                let tf_bits = bits_for(tfs.iter().copied().max().unwrap());
                let count = pairs.len() as u16;
                let offset = payload.len() as u64;
                metas.push(BlockMeta { dn_bits, tf_bits, count, offset }.pack());
                crate::codec::encode_block(&gaps, &tfs, dn_bits, tf_bits, &mut payload);
                // What the block decodes to: the skip plus the running
                // gap sum, wrapping as the decoder does.
                postings.extend(pairs.iter().scan(skip, |doc, &(gap, tf)| {
                    *doc = doc.wrapping_add(gap);
                    Some(crate::Posting::new(*doc, tf))
                }));
            }
            let skips = blocks.iter().map(|&(skip, _)| skip);
            let n = postings.len() as u64;
            let idf_bar = Fixed::from_f64(params.idf_bar(n_docs.into(), n));
            let lens: Vec<usize> = blocks.iter().map(|(_, pairs)| pairs.len()).collect();
            bounds.push_computed(&postings, &lens, idf_bar, &dl_bars);
            spans.push(
                tables
                    .push_stored(metas.into_iter(), skips, &payload, n, idf_bar, None)
                    .unwrap(),
            );
            terms.push(TermInfo { term: format!("t{t}"), df: n, idf_bar });
        }
        let (avgdl, mapping) = (10.0, None);
        let parts =
            StoredParts { terms, tables, spans, bounds, doc_lens, dl_bars, avgdl, mapping };
        let index =
            InvertedIndex::from_stored_parts(parts, params, Partitioner::default()).unwrap();
        serialize(&index).unwrap()
    }

    /// Adds `delta` to word `word` (0: `ub`, 1: `max_tf`) of block `block`
    /// of list `list` in the stored bounds section of `bytes`, a file whose
    /// lists have `blocks` blocks each, and reseals the section CRC and the
    /// footer so every checksum passes.
    fn nudge_stored_bound(
        bytes: &mut [u8],
        blocks: &[usize],
        (list, block, word): (usize, usize, usize),
        delta: i32,
    ) {
        let entry = |n: &usize| 8 + 8 * n;
        let n = bytes.len();
        let start = n - 8 - blocks.iter().map(entry).sum::<usize>();
        let at =
            start + blocks[..list].iter().map(entry).sum::<usize>() + 8 + 8 * block + 4 * word;
        let old = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        bytes[at..at + 4].copy_from_slice(&old.wrapping_add_signed(delta).to_le_bytes());
        let crc = crc32(&bytes[start..n - 8]);
        bytes[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
        let footer = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&footer.to_le_bytes());
    }

    fn load_error(bytes: &[u8]) -> &'static str {
        match deserialize(bytes) {
            Err(IndexError::CorruptIndex { context }) => context,
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
    }

    #[test]
    fn the_oracle_names_every_docid_fault_of_a_file_written_wrong() {
        const NOT_INCREASING: &str = "docIDs not increasing";
        const BEYOND: &str = "posting list references docID beyond corpus";
        let wide = (1 << 31) - 1;
        let cases: [(&str, &[HandBlock<'_>], &str); 4] = [
            // docs 2 5 7 | 7 8
            (
                "duplicate across a block boundary",
                &[(2, &[(0, 1), (3, 1), (2, 2)]), (7, &[(0, 1), (1, 3)])],
                NOT_INCREASING,
            ),
            // docs 2 5 5 6
            (
                "zero gap inside a block",
                &[(2, &[(0, 1), (3, 1), (0, 2), (1, 1)])],
                NOT_INCREASING,
            ),
            // docs 1 | 10, 2^31 + 9, then 2^32 + 8 wraps to 8: the order
            // fault wins over the beyond-corpus docID before it
            (
                "wrapped gap",
                &[(1, &[(0, 1)]), (10, &[(0, 1), (wide, 1), (wide, 1)])],
                NOT_INCREASING,
            ),
            // docs 0 5 | 10 210 | 50 51: the middle block reaches past the
            // corpus of 100 before the last block breaks order
            (
                "beyond corpus in a middle block",
                &[(0, &[(0, 1), (5, 1)]), (10, &[(0, 1), (200, 1)]), (50, &[(0, 1), (1, 1)])],
                BEYOND,
            ),
        ];
        let good: &[HandBlock<'_>] = &[(3, &[(0, 1), (4, 2)]), (20, &[(0, 5), (1, 4)])];
        for (name, faulty, expected) in cases {
            assert_eq!(load_error(&hand_made_file(100, &[good, faulty])), expected, "{name}");
            // A stored bound that disagrees in an earlier list does not
            // hide the later list's fault: every list is decoded before
            // the bounds verdict.
            let mut bytes = hand_made_file(100, &[good, faulty]);
            nudge_stored_bound(&mut bytes, &[good.len(), faulty.len()], (0, 1, 0), 1);
            assert_eq!(load_error(&bytes), expected, "{name}, behind a bounds mismatch");
        }
        // The same good list alone loads, and a nudged bound of it alone is
        // a mismatch.
        let mut bytes = hand_made_file(100, &[good]);
        deserialize(&bytes).unwrap();
        nudge_stored_bound(&mut bytes, &[good.len()], (0, 1, 0), 1);
        assert_eq!(load_error(&bytes), "score bounds mismatch");
    }

    #[test]
    fn a_stored_bound_off_by_one_unit_is_a_mismatch() {
        let (lists, doc_lens) = layout_pin_corpus();
        let idx = InvertedIndex::from_lists(
            lists,
            doc_lens,
            Partitioner::dynamic(16),
            Bm25Params::default(),
        )
        .unwrap();
        let blocks: Vec<usize> = idx.bounds().iter().map(ListBounds::num_blocks).collect();
        let bytes = serialize(&idx).unwrap();
        let list = blocks.iter().position(|&b| b >= 3).unwrap();
        for (word, delta) in [(0, 1), (0, -1), (1, 1), (1, -1)] {
            let mut tampered = bytes.clone();
            nudge_stored_bound(&mut tampered, &blocks, (list, 1, word), delta);
            assert_eq!(
                load_error(&tampered),
                "score bounds mismatch",
                "word {word} by {delta}"
            );
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = serialize(&sample_index()).unwrap().to_vec();
        bytes[0] ^= 0xff;
        assert!(matches!(deserialize(&bytes), Err(IndexError::UnsupportedFormat { .. })));
    }

    #[test]
    fn rejects_unknown_future_version() {
        let mut bytes = serialize(&sample_index()).unwrap().to_vec();
        bytes[0] = 0x05; // "IIUX" + 0x0005
        assert!(matches!(
            deserialize(&bytes),
            Err(IndexError::UnsupportedFormat { found }) if found & 0xffff == 5
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = serialize(&sample_index()).unwrap().to_vec();
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let r = deserialize(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must be rejected");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = serialize(&sample_index()).unwrap().to_vec();
        bytes.push(0);
        assert!(matches!(
            deserialize(&bytes),
            Err(IndexError::CorruptIndex { context: "trailing bytes" })
        ));
    }

    #[test]
    fn every_bit_flip_is_detected() {
        // With per-section CRCs plus a whole-file footer, any single-bit
        // flip anywhere in the file must be rejected.
        let bytes = serialize(&sample_index()).unwrap().to_vec();
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << (byte % 8);
            assert!(
                deserialize(&flipped).is_err(),
                "bit flip at byte {byte} was silently accepted"
            );
        }
    }

    #[test]
    fn checksum_error_names_the_section() {
        let idx = sample_index();
        let bytes = serialize(&idx).unwrap().to_vec();
        // Flip a doc-length byte: header is 8 (magic) + 38 + 4 bytes in.
        let mut corrupt = bytes.clone();
        corrupt[8 + 38 + 4 + 1] ^= 0x10;
        match deserialize(&corrupt) {
            Err(IndexError::ChecksumMismatch { section, expected, found }) => {
                assert_eq!(section, "doc length table");
                assert_ne!(expected, found);
            }
            other => panic!("expected doc-length checksum failure, got {other:?}"),
        }
        // Flip a byte in the header (k1).
        let mut corrupt = bytes.clone();
        corrupt[9] ^= 0x01;
        match deserialize(&corrupt) {
            Err(IndexError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, "header");
            }
            other => panic!("expected header checksum failure, got {other:?}"),
        }
        // Flip a byte of the first term record (its name byte at offset
        // 8 magic + 38 header + 4 crc + 16 doc table + 4 crc + 4 name_len).
        let mut corrupt = bytes.clone();
        corrupt[8 + 38 + 4 + 16 + 4 + 4] ^= 0x04;
        match deserialize(&corrupt) {
            Err(
                IndexError::ChecksumMismatch { section: "term record", .. }
                | IndexError::CorruptIndex { .. },
            ) => {}
            other => panic!("expected term-record failure, got {other:?}"),
        }
        // Flip the last score-bounds byte before its checksum: the file
        // ends [bounds content][bounds crc 4][footer 4].
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n - 9] ^= 0x80;
        match deserialize(&corrupt) {
            Err(IndexError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, "score bounds");
            }
            other => panic!("expected score-bounds checksum failure, got {other:?}"),
        }
    }

    /// Byte offsets of every section boundary in a v4 file, in order, each
    /// labeled with the context/section expected when the file is cut
    /// *inside* the following section.
    fn v4_section_boundaries(index: &InvertedIndex) -> Vec<(usize, &'static str)> {
        let mut bounds = Vec::new();
        let mut pos = 0usize;
        bounds.push((pos, "magic"));
        pos += 8;
        bounds.push((pos, "header"));
        pos += 38;
        bounds.push((pos, "header checksum"));
        pos += 4;
        bounds.push((pos, "doc length table"));
        pos += index.doc_lens().len() * 4;
        bounds.push((pos, "doc length checksum"));
        pos += 4;
        for info in index.terms() {
            let list = index.encoded_list(index.term_id(&info.term).unwrap());
            bounds.push((pos, "term record"));
            pos += 4
                + info.term.len()
                + 8
                + 8
                + list.num_blocks() * 12
                + 8
                + list.payload().len();
            bounds.push((pos, "term record checksum"));
            pos += 4;
        }
        bounds.push((pos, "score bounds"));
        for b in index.bounds() {
            pos += 8 + b.num_blocks() * 8;
        }
        bounds.push((pos, "score bounds checksum"));
        pos += 4;
        bounds.push((pos, "footer"));
        bounds
    }

    #[test]
    fn truncation_context_names_the_right_section() {
        let idx = sample_index();
        let bytes = serialize(&idx).unwrap().to_vec();
        let bounds = v4_section_boundaries(&idx);
        assert_eq!(bounds.last().unwrap().0 + 4, bytes.len(), "boundary math");
        for &(at, expect) in &bounds {
            // Cutting exactly at a boundary fails while *needing* the next
            // section, so the context must name it.
            match deserialize(&bytes[..at]) {
                Err(IndexError::CorruptIndex { context }) => {
                    assert_eq!(context, expect, "cut at {at}");
                }
                other => panic!("cut at {at}: expected CorruptIndex, got {other:?}"),
            }
        }
    }

    #[test]
    fn streaming_writer_is_byte_identical_to_serialize() {
        for codec in CodecId::ALL {
            let idx = sample_index();
            let expected = serialize(&idx).unwrap();
            let mut w = StreamingWriter::new(
                Vec::new(),
                idx.doc_lens(),
                idx.num_terms() as u64,
                idx.partitioner(),
                idx.params(),
            )
            .unwrap();
            for info in idx.terms() {
                let list = idx.decode_term(&info.term).unwrap();
                w.push_term(&info.term, &list).unwrap();
            }
            let bytes = w.finish().unwrap();
            assert_eq!(bytes, expected, "{codec} streamed output diverges");
            // And the streamed file loads on both the heap and mmap paths.
            assert_eq!(deserialize(&bytes).unwrap(), idx, "{codec}");
        }
    }

    #[test]
    fn streaming_writer_enforces_declared_term_count() {
        let idx = sample_index();
        let w = StreamingWriter::new(
            Vec::new(),
            idx.doc_lens(),
            idx.num_terms() as u64,
            idx.partitioner(),
            idx.params(),
        )
        .unwrap();
        // Too few: finishing before all declared terms were pushed.
        assert!(matches!(
            w.finish(),
            Err(IndexError::CorruptIndex {
                context: "fewer streamed terms than the header declares"
            })
        ));

        // Too many: one extra push past the declared count.
        let mut w = StreamingWriter::new(
            Vec::new(),
            idx.doc_lens(),
            1,
            idx.partitioner(),
            idx.params(),
        )
        .unwrap();
        let info = &idx.terms()[0];
        let list = idx.decode_term(&info.term).unwrap();
        w.push_term(&info.term, &list).unwrap();
        assert!(matches!(
            w.push_term(&info.term, &list),
            Err(IndexError::CorruptIndex {
                context: "more streamed terms than the header declares"
            })
        ));
    }

    #[test]
    fn streaming_writer_rejects_out_of_range_docid() {
        let idx = sample_index();
        let mut w = StreamingWriter::new(
            Vec::new(),
            idx.doc_lens(),
            1,
            idx.partitioner(),
            idx.params(),
        )
        .unwrap();
        let mut list = PostingList::new();
        list.push(idx.num_docs() as u32, 1);
        assert!(matches!(
            w.push_term("beyond", &list),
            Err(IndexError::CorruptIndex {
                context: "posting list references docID beyond corpus"
            })
        ));
    }

    #[test]
    fn v4_roundtrip_preserves_codec_for_every_codec() {
        for codec in CodecId::ALL {
            let idx = sample_index();
            let bytes = serialize(&idx).unwrap();
            // Codec id byte: 8 magic + 16 params + 5 partitioner = offset 29.
            assert_eq!(CodecId::from_u8(bytes[29]).unwrap(), codec);
            let back = deserialize(&bytes).unwrap();
            assert_eq!(back, idx, "{codec} roundtrip");
        }
    }

    #[test]
    fn every_bit_flip_is_detected_for_every_codec() {
        for codec in CodecId::ALL {
            let bytes = serialize(&sample_index()).unwrap();
            for byte in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << (byte % 8);
                assert!(
                    deserialize(&flipped).is_err(),
                    "{codec}: bit flip at byte {byte} was silently accepted"
                );
            }
        }
    }

    /// Rewrites the header section CRC and whole-file footer of a plain
    /// v4 file so a deliberate header tamper passes every checksum.
    fn reseal_v4_header(bytes: &mut [u8]) {
        // Header spans bytes 8..46 (38 bytes), its CRC sits at 46..50.
        let crc = crc32(&bytes[8..46]);
        bytes[46..50].copy_from_slice(&crc.to_le_bytes());
        let n = bytes.len();
        let footer = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&footer.to_le_bytes());
    }

    #[test]
    fn crc_consistent_retired_codec_ids_are_unknown_on_both_backings() {
        // Ids 1 and 2 named the retired Stream-VByte and SIMD-BP128 layouts;
        // a file naming one (with every checksum recomputed) is refused by
        // name on the heap and the mapped loader alike, like any other id.
        for id in [1u8, 2, 99] {
            let mut bytes = serialize(&sample_index()).unwrap().to_vec();
            assert_eq!(bytes[29], CodecId::BitPack as u8);
            bytes[29] = id;
            reseal_v4_header(&mut bytes);
            let path =
                std::env::temp_dir().join(format!("iiu-io-codec-{id}-{}", std::process::id()));
            std::fs::write(&path, &bytes).unwrap();
            let mapped = crate::storage::map_index(&path);
            std::fs::remove_file(&path).ok();
            for (backing, loaded) in [("heap", deserialize(&bytes)), ("mapped", mapped)] {
                assert!(
                    matches!(loaded, Err(IndexError::UnknownCodec { id: got }) if got == id),
                    "id {id} / {backing}: {loaded:?}"
                );
            }
        }
    }

    #[test]
    fn corrupting_the_codec_byte_alone_is_a_checksum_mismatch() {
        // Without recomputing the CRCs, a flipped codec byte must surface
        // as a header checksum failure, not an unknown-codec error.
        let mut bytes = serialize(&sample_index()).unwrap().to_vec();
        bytes[29] ^= 0xff;
        assert!(matches!(
            deserialize(&bytes),
            Err(IndexError::ChecksumMismatch { section: "header", .. })
        ));
    }

    #[test]
    fn roundtrip_empty_index() {
        let idx = IndexBuilder::new(BuildOptions::default()).build();
        let bytes = serialize(&idx).unwrap();
        let back = deserialize(&bytes).unwrap();
        assert_eq!(idx, back);
    }

    #[test]
    fn a_zero_length_file_is_a_typed_error() {
        // A crash can leave an index file at length zero (created, never
        // written). The loader must reject it with a typed error, not
        // panic.
        assert!(matches!(deserialize(&[]), Err(IndexError::CorruptIndex { .. })));
    }

    #[test]
    fn truncation_inside_the_header_is_a_typed_error_at_every_cut() {
        // Truncate at every byte inside magic + header: the loader must
        // return a typed error (not panic, not succeed) for each cut.
        // Past-magic cuts may legitimately report checksum or corruption
        // errors.
        let plain = serialize(&sample_index()).unwrap();
        for cut in 0..64usize.min(plain.len()) {
            let r = std::panic::catch_unwind(|| deserialize(&plain[..cut]))
                .expect("loader must not panic on truncated header");
            assert!(r.is_err(), "accepted a {cut}-byte prefix of an index");
        }
    }

    #[test]
    fn roundtrip_preserves_partitioner_and_params() {
        let mut b = IndexBuilder::new(BuildOptions {
            partitioner: Partitioner::fixed(128),
            bm25: Bm25Params { k1: 0.9, b: 0.4 },
            ..Default::default()
        });
        b.add_document("alpha beta gamma alpha");
        let idx = b.build();
        let back = deserialize(&serialize(&idx).unwrap()).unwrap();
        assert_eq!(back.partitioner(), Partitioner::fixed(128));
        assert!((back.params().k1 - 0.9).abs() < 1e-12);
        assert!((back.params().b - 0.4).abs() < 1e-12);
    }
}
