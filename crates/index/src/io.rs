//! Binary index file format.
//!
//! The host's `init(file invFile)` primitive (paper §4.1) loads the inverted
//! index from a file into the memory region the accelerator reads. This
//! module defines that file format: a little-endian, sectioned layout with a
//! magic/version word, the BM25 parameters, the document-length table, and
//! one record per term (name, metadata words, skip values, payload bytes).
//!
//! # Format v4 (current)
//!
//! Version 4 extends the v3 layout with a block-codec id byte inside the
//! CRC-protected header. Every payload is bit-packed, so the byte is
//! always written as 0 ([`crate::codec::CodecId`]):
//!
//! ```text
//! magic/version            u64   (MAGIC, not covered by a section CRC)
//! header                   k1 f64 · b f64 · partitioner (u8 kind + u32 arg)
//!                          · codec u8 (v4 only)
//!                          · num_docs u64 · num_terms u64      + crc32 u32
//! doc-length table         num_docs × u32                      + crc32 u32
//! term record (× num_terms)
//!                          name_len u32 · name bytes
//!                          · num_postings u64 · num_blocks u64
//!                          · num_blocks × meta u64
//!                          · num_blocks × skip u32
//!                          · payload_len u64 · payload bytes   + crc32 u32
//! score bounds (v3+)       per term: num_blocks u64
//!                          · num_blocks × (ub_raw u32 · max_tf u32)
//!                          whole section                       + crc32 u32
//! footer                   crc32 u32 over every preceding byte
//! ```
//!
//! Version 3 (no codec byte — always the bit-packed codec), version 2 (no
//! bounds section) and version 1 files (no checksums, term count after
//! the doc table, no footer) remain readable as layout flags of the same
//! parser; unknown versions are rejected with
//! [`IndexError::UnsupportedFormat`]. That includes the retired
//! round-robin shard manifests (magic "IIUS"): a query fans out over
//! docID windows of one plain file instead ([`crate::shard::DocWindow`]).
//!
//! # Load policy
//!
//! Every format element is parsed by one function, whichever way the file
//! is opened. The caller's backing — bytes handed to [`deserialize`], or
//! a mapping made by [`crate::storage`] — decides only where payload
//! bytes end up (copied to the heap, or left in the mapping) and *when*
//! each check runs; a loaded index keeps the file's block layout byte for
//! byte either way:
//!
//! | check | heap load | mapped open | first touch | `validate()` |
//! |---|---|---|---|---|
//! | header / doc table / bounds-section CRC | yes | yes | — | — |
//! | record frame + [`EncodedList::validate`] | yes | yes | — | yes |
//! | record CRC (covers the payload) | yes | captured | yes, once per list | — |
//! | footer CRC | yes | framed, not hashed | — | — |
//! | docID order + in-corpus | yes | without stored bounds; else last skip | last block, once | yes |
//! | stored-bounds oracle | yes | no: section CRC + shape | — | yes |
//!
//! The last two rows are the content oracle, one decode pass per list
//! ([`ListBounds::recompute`]): no block decoder checks docID order, so
//! the pass does, and where the format stores bounds (v3/v4) they must
//! equal its result (`score bounds mismatch`) — CRCs cannot catch a file
//! that was *written* wrong. Formats without stored bounds (v1/v2) run it
//! on both backings, since its result *is* their bounds. A mapped v3/v4
//! open takes docID order on the record CRC, so it holds only each list's
//! last skip to the corpus, and the list's first touch decodes its last
//! block once to hold the rest. So a malformed file
//! yields a typed [`IndexError`] — never a panic or an out-of-bounds read
//! — on the heap at load, when mapped by the first query that touches the
//! bad list at the latest. The codec id is interpreted only after
//! the header CRC verifies: random corruption of the byte surfaces as a
//! checksum mismatch, and a CRC-consistent id other than 0 — including
//! the retired ids 1 and 2 — as [`IndexError::UnknownCodec`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;

use crate::block::{EncodedList, ListSpan, TableBuilder};
use crate::bounds::{BoundsBuilder, ListBounds};
use crate::checksum::{crc32, Crc32};
use crate::codec::CodecId;
use crate::error::IndexError;
use crate::index::{IndexSource, InvertedIndex, TermInfo};
use crate::mmap::Mmap;
use crate::partition::Partitioner;
use crate::posting::PostingList;
use crate::score::{Bm25Params, Fixed};

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

/// Magic + version identifying the current format ("IIUX" + 0x0004).
pub const MAGIC: u64 = 0x4949_5558_0000_0004;

/// Magic + version of the v3 format (score bounds, no codec id byte —
/// the bit-packed codec implicitly), still accepted by [`deserialize`].
pub const MAGIC_V3: u64 = 0x4949_5558_0000_0003;

/// Magic + version of the v2 format (checksums, no score bounds
/// section), still accepted by [`deserialize`].
pub const MAGIC_V2: u64 = 0x4949_5558_0000_0002;

/// Magic + version of the legacy checksum-free format ("IIUX" + 0x0001),
/// still accepted by [`deserialize`].
pub const MAGIC_V1: u64 = 0x4949_5558_0000_0001;

/// Serializes `index` to bytes in format v4.
///
/// # Errors
///
/// Returns [`IndexError::UnknownTerm`] if the index's dictionary is
/// inconsistent with its term table (an internal-corruption guard that
/// replaces the old panic on this path).
pub fn serialize(index: &InvertedIndex) -> Result<Vec<u8>, IndexError> {
    let mut buf = Vec::new();
    buf.put_u64_le(MAGIC);
    write_checksummed_body(&mut buf, index, true)?;

    let bounds_start = buf.len();
    put_bounds(&mut buf, index.bounds());
    seal_section(&mut buf, bounds_start);

    let footer = crc32(&buf);
    buf.put_u32_le(footer);
    Ok(buf)
}

/// Appends a section CRC over `buf[start..]`.
fn seal_section(buf: &mut Vec<u8>, start: usize) {
    let crc = crc32(&buf[start..]);
    buf.put_u32_le(crc);
}

/// Appends one term record, CRC excluded: name, counts, metadata words,
/// skip values, payload.
fn put_record(buf: &mut Vec<u8>, term: &str, list: &EncodedList) {
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
}

/// Appends the score-bounds section's content, CRC excluded: per list,
/// its block count and `(ub, max_tf)` pairs.
fn put_bounds(buf: &mut Vec<u8>, bounds: &[ListBounds]) {
    for list in bounds {
        buf.put_u64_le(list.num_blocks() as u64);
        for (ub, &max_tf) in list.ubs().iter().zip(list.max_tfs()) {
            buf.put_u32_le(ub.raw());
            buf.put_u32_le(max_tf);
        }
    }
}

/// Writes the checksummed body of the sealed formats: header, doc-length
/// table, and one sealed record per term. `with_codec` selects the v4
/// header carrying the codec id byte versus the legacy 37-byte header
/// (v2/v3 files).
fn write_checksummed_body(
    buf: &mut Vec<u8>,
    index: &InvertedIndex,
    with_codec: bool,
) -> Result<(), IndexError> {
    let header_start = buf.len();
    buf.put_f64_le(index.params().k1);
    buf.put_f64_le(index.params().b);
    match index.partitioner() {
        Partitioner::Fixed { block_len } => {
            buf.put_u8(0);
            buf.put_u32_le(block_len as u32);
        }
        Partitioner::Dynamic { max_size } => {
            buf.put_u8(1);
            buf.put_u32_le(max_size as u32);
        }
    }
    if with_codec {
        buf.put_u8(CodecId::BitPack as u8);
    }
    buf.put_u64_le(index.num_docs());
    buf.put_u64_le(index.num_terms() as u64);
    seal_section(buf, header_start);

    let doc_start = buf.len();
    for &l in index.doc_lens() {
        buf.put_u32_le(l);
    }
    seal_section(buf, doc_start);

    for info in index.terms() {
        let id = index
            .term_id(&info.term)
            .ok_or_else(|| IndexError::UnknownTerm { term: info.term.clone() })?;
        let record_start = buf.len();
        put_record(buf, &info.term, index.encoded_list(id));
        seal_section(buf, record_start);
    }
    Ok(())
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
    sink: W,
    /// Running checksum over every byte emitted so far (the footer).
    footer: Crc32,
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
        let n_docs = doc_lens.len() as u64;
        let avgdl = if doc_lens.is_empty() {
            1.0
        } else {
            doc_lens.iter().map(|&l| f64::from(l)).sum::<f64>() / n_docs as f64
        };
        let dl_bars: Vec<Fixed> =
            doc_lens.iter().map(|&l| Fixed::from_f64(params.dl_bar(l, avgdl))).collect();

        let mut writer = StreamingWriter {
            sink,
            footer: Crc32::new(),
            params,
            partitioner,
            n_docs,
            dl_bars,
            bounds: BoundsBuilder::default(),
            expected_terms: num_terms,
            written_terms: 0,
        };
        writer.emit(&MAGIC.to_le_bytes())?;

        let mut header = Vec::new();
        header.put_f64_le(params.k1);
        header.put_f64_le(params.b);
        match partitioner {
            Partitioner::Fixed { block_len } => {
                header.put_u8(0);
                header.put_u32_le(block_len as u32);
            }
            Partitioner::Dynamic { max_size } => {
                header.put_u8(1);
                header.put_u32_le(max_size as u32);
            }
        }
        header.put_u8(CodecId::BitPack as u8);
        header.put_u64_le(n_docs);
        header.put_u64_le(num_terms);
        seal_section(&mut header, 0);
        writer.emit(&header)?;

        let mut table = Vec::with_capacity(doc_lens.len() * 4 + 4);
        for &l in doc_lens {
            table.put_u32_le(l);
        }
        seal_section(&mut table, 0);
        writer.emit(&table)?;
        Ok(writer)
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

        let mut record = Vec::new();
        put_record(&mut record, term, &encoded);
        seal_section(&mut record, 0);
        self.emit(&record)?;
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
    pub fn finish(mut self) -> Result<W, IndexError> {
        if self.written_terms != self.expected_terms {
            return Err(IndexError::CorruptIndex {
                context: "fewer streamed terms than the header declares",
            });
        }
        let mut section = Vec::new();
        put_bounds(&mut section, &std::mem::take(&mut self.bounds).finish());
        seal_section(&mut section, 0);
        self.emit(&section)?;

        // The footer covers everything already emitted and is itself
        // outside the running checksum.
        let footer = self.footer.finish();
        self.sink.write_all(&footer.to_le_bytes()).map_err(stream_io_err)?;
        self.sink.flush().map_err(stream_io_err)?;
        Ok(self.sink)
    }

    /// Writes `bytes` to the sink and folds them into the footer CRC.
    fn emit(&mut self, bytes: &[u8]) -> Result<(), IndexError> {
        self.footer.update(bytes);
        self.sink.write_all(bytes).map_err(stream_io_err)
    }
}

/// Maps a sink write failure to the typed I/O error.
fn stream_io_err(e: std::io::Error) -> IndexError {
    IndexError::Io { context: "writing streamed index file", message: e.to_string() }
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
/// or by the legacy v3 (no codec id), v2 (no bounds section) or v1 (no
/// checksums) writers onto the heap. The loaded index keeps the file's
/// block layout byte for byte; the heap column of the module's policy
/// table says what is verified first.
///
/// # Errors
///
/// Returns [`IndexError::UnsupportedFormat`] on an unknown magic/version
/// word, [`IndexError::UnknownCodec`] when a v4 header names a codec id
/// other than 0, [`IndexError::ChecksumMismatch`] when a section
/// checksum fails, and [`IndexError::CorruptIndex`] on truncated or
/// inconsistent content — including a score-bounds section that passes
/// its CRC but disagrees with the bounds recomputed from the postings.
pub fn deserialize(bytes: &[u8]) -> Result<InvertedIndex, IndexError> {
    load_plain(Backing::Heap(bytes))
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
    /// verified as it is framed, and content is held to the decode oracle.
    Heap(&'a [u8]),
    /// A file mapping: payloads stay in it, record checksums are deferred
    /// to first touch, and the footer is framed but never hashed (that
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

/// The two ways a body's layout differs across format versions.
#[derive(Clone, Copy)]
struct Layout {
    /// Sections carry CRCs, the header carries the term count and a footer
    /// ends the file — every format but plain v1, which has no checksums,
    /// counts its terms after the doc table and ends at its last record.
    sealed: bool,
    /// The header carries a codec id byte (v4), which must be 0.
    codec_byte: bool,
}

/// A body's header fields. `n_terms` is 0 for an unsealed (v1) layout,
/// which stores the count after the doc table.
struct BodyHeader {
    params: Bm25Params,
    partitioner: Partitioner,
    n_docs: usize,
    n_terms: usize,
}

fn read_body_header(r: &mut Reader<'_>, layout: Layout) -> Result<BodyHeader, IndexError> {
    let start = r.pos;
    let k1 = r.f64("header")?;
    let b = r.f64("header")?;
    let part_kind = r.u8("header")?;
    let part_arg = r.u32("header")? as usize;
    let codec_raw = if layout.codec_byte { Some(r.u8("header")?) } else { None };
    let n_docs = r.u64("header")? as usize;
    let n_terms = if layout.sealed { r.u64("header")? as usize } else { 0 };
    if layout.sealed {
        r.verify_section(start, "header", "header checksum")?;
    }
    // Interpreted only after the section CRC passes: random corruption of
    // the codec byte must surface as a checksum mismatch, and only a
    // CRC-consistent unknown id as `UnknownCodec`.
    let partitioner = read_partitioner(part_kind, part_arg)?;
    if let Some(id) = codec_raw {
        CodecId::from_u8(id)?;
    }
    Ok(BodyHeader { params: Bm25Params { k1, b }, partitioner, n_docs, n_terms })
}

/// A framed body: header fields, doc-length table and one structurally
/// validated (never decoded) list per term record — its span in
/// `tables`.
struct Body {
    header: BodyHeader,
    doc_lens: Vec<u32>,
    names: Vec<String>,
    spans: Vec<ListSpan>,
    tables: TableBuilder,
}

fn read_body(
    r: &mut Reader<'_>,
    layout: Layout,
    backing: Backing<'_>,
) -> Result<Body, IndexError> {
    let header = read_body_header(r, layout)?;
    let doc_start = r.pos;
    let doc_bytes = header
        .n_docs
        .checked_mul(4)
        .ok_or(IndexError::CorruptIndex { context: "doc length table" })?;
    let doc_lens = le_u32s(r.take(doc_bytes, "doc length table")?).collect();
    let n_terms = if layout.sealed {
        r.verify_section(doc_start, "doc length table", "doc length checksum")?;
        header.n_terms
    } else {
        r.u64("term count")? as usize
    };

    let mut names = Vec::with_capacity(n_terms.min(r.remaining()));
    let mut spans = Vec::with_capacity(n_terms.min(r.remaining()));
    let mut tables = TableBuilder::default();
    for _ in 0..n_terms {
        let (name, span) = read_record(r, layout.sealed, backing, &mut tables)?;
        names.push(name);
        spans.push(span);
    }
    Ok(Body { header, doc_lens, names, spans, tables })
}

/// Frames one term record (the same in every format version) and appends
/// its list to `tables`, which checks the structural invariants
/// ([`EncodedList::validate`]) without decoding. The record CRC of a
/// sealed layout is verified here on the heap backing and deferred to the
/// list's first touch on the mapped one.
fn read_record(
    r: &mut Reader<'_>,
    sealed: bool,
    backing: Backing<'_>,
    tables: &mut TableBuilder,
) -> Result<(String, ListSpan), IndexError> {
    let context = "term record";
    let start = r.pos;
    let name_len = r.u32(context)? as usize;
    let name = std::str::from_utf8(r.take(name_len, context)?)
        .map_err(|_| IndexError::CorruptIndex { context: "term name utf-8" })?
        .to_owned();

    let num_postings = r.u64(context)?;
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
    let (mapped_at, record_start) = match backing {
        Backing::Heap(_) => {
            if sealed {
                r.verify_section(start, "term record", "term record checksum")?;
            }
            (None, None)
        }
        Backing::Mapped(_) => {
            if sealed {
                r.u32("term record checksum")?;
            }
            (Some(payload_off), sealed.then_some(start))
        }
    };
    let span = tables.push_stored(
        le_u64s(meta_raw),
        le_u32s(skip_raw),
        payload,
        mapped_at,
        num_postings,
        record_start,
    )?;
    Ok((name, span))
}

/// Reads the stored score-bounds section of a v3/v4 file: one entry list
/// per term, under one section CRC.
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

/// Ends the file: a sealed layout's whole-file footer CRC — hashed on the
/// heap backing, only framed on the mapped one — and, for every layout,
/// nothing after it.
fn read_footer(
    r: &mut Reader<'_>,
    sealed: bool,
    backing: Backing<'_>,
) -> Result<(), IndexError> {
    if sealed {
        let body_end = r.pos;
        let expected = r.u32("footer")?;
        if let Backing::Heap(_) = backing {
            let found = crc32(&r.buf[..body_end]);
            if expected != found {
                return Err(IndexError::ChecksumMismatch {
                    section: "footer",
                    expected,
                    found,
                });
            }
        }
    }
    if r.remaining() != 0 {
        return Err(IndexError::CorruptIndex { context: "trailing bytes" });
    }
    Ok(())
}

/// Turns a framed body into an index that keeps the file's block layout
/// ([`InvertedIndex::from_stored_parts`]): its tables are frozen over the
/// mapping, or over the owned payload buffer. Stored bounds on the mapped
/// backing are trusted after their section CRC and a shape check;
/// everywhere else the content oracle runs — one decode pass per list
/// ([`ListBounds::recompute`]: docID order, in-corpus, bounds) — and
/// stored bounds, when the format has them, must equal its result.
fn assemble(
    body: Body,
    stored: Option<BoundsBuilder>,
    backing: Backing<'_>,
) -> Result<InvertedIndex, IndexError> {
    // The collection statistics a file does not store.
    let n_docs = body.doc_lens.len() as u64;
    let avgdl = if body.doc_lens.is_empty() {
        1.0
    } else {
        body.doc_lens.iter().map(|&l| f64::from(l)).sum::<f64>() / n_docs as f64
    };
    let idf_bars: Vec<Fixed> = body
        .spans
        .iter()
        .map(|span| Fixed::from_f64(body.header.params.idf_bar(n_docs, span.num_postings())))
        .collect();
    let mapping = match backing {
        Backing::Heap(_) => None,
        Backing::Mapped(map) => Some(Arc::clone(map)),
    };
    let source = mapping.clone().map_or(IndexSource::Heap, IndexSource::Mapped);
    let tables = body.tables.freeze(mapping, n_docs);
    let lists: Vec<EncodedList> =
        body.spans.iter().map(|&span| EncodedList::new(&tables, span)).collect();
    let stored = stored.map(BoundsBuilder::finish);
    let bounds = match (stored, backing) {
        (Some(stored), Backing::Mapped(_)) => {
            for (bounds, list) in stored.iter().zip(&lists) {
                bounds.validate_against(list)?;
            }
            stored
        }
        (stored, _) => {
            let dl_bars: Vec<Fixed> = body
                .doc_lens
                .iter()
                .map(|&l| Fixed::from_f64(body.header.params.dl_bar(l, avgdl)))
                .collect();
            let mut recomputed = BoundsBuilder::default();
            for (list, &idf_bar) in lists.iter().zip(&idf_bars) {
                recomputed.push_recomputed(list, idf_bar, &dl_bars)?;
            }
            let recomputed = recomputed.finish();
            // A CRC-consistent file whose stored bounds disagree with its
            // postings was written wrong (or tampered with checksums
            // recomputed) and must not drive pruning.
            if stored.is_some_and(|stored| stored != recomputed) {
                return Err(IndexError::CorruptIndex { context: "score bounds mismatch" });
            }
            recomputed
        }
    };
    let terms = body
        .names
        .into_iter()
        .zip(&lists)
        .zip(&idf_bars)
        .map(|((term, list), &idf_bar)| TermInfo { term, df: list.num_postings(), idf_bar })
        .collect();
    InvertedIndex::from_stored_parts(
        terms,
        lists,
        bounds,
        body.doc_lens,
        avgdl,
        body.header.params,
        body.header.partitioner,
        source,
    )
}

/// Loads a plain index file of any version from `backing`.
pub(crate) fn load_plain(backing: Backing<'_>) -> Result<InvertedIndex, IndexError> {
    let mut r = Reader::new(backing.bytes());
    let (sealed, codec_byte, has_bounds) = match r.u64("magic")? {
        MAGIC => (true, true, true),
        MAGIC_V3 => (true, false, true),
        MAGIC_V2 => (true, false, false),
        MAGIC_V1 => (false, false, false),
        found => return Err(IndexError::UnsupportedFormat { found }),
    };
    let body = read_body(&mut r, Layout { sealed, codec_byte }, backing)?;
    let stored =
        if has_bounds { Some(read_bounds_section(&mut r, body.spans.len())?) } else { None };
    read_footer(&mut r, sealed, backing)?;
    assemble(body, stored, backing)
}

/// Writers of the retired layouts (v1–v3),
/// byte-for-byte what the old writers produced: the fixtures the loader
/// tests here and in [`crate::storage`] read back.
#[cfg(test)]
pub(crate) mod legacy {
    use super::*;

    /// Writes `index` in the legacy v1 layout (no checksums), byte-for-byte
    /// what the old writer produced.
    pub(crate) fn serialize_v1(index: &InvertedIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(MAGIC_V1);
        buf.put_f64_le(index.params().k1);
        buf.put_f64_le(index.params().b);
        match index.partitioner() {
            Partitioner::Fixed { block_len } => {
                buf.put_u8(0);
                buf.put_u32_le(block_len as u32);
            }
            Partitioner::Dynamic { max_size } => {
                buf.put_u8(1);
                buf.put_u32_le(max_size as u32);
            }
        }
        buf.put_u64_le(index.num_docs());
        for &l in index.doc_lens() {
            buf.put_u32_le(l);
        }
        buf.put_u64_le(index.num_terms() as u64);
        for info in index.terms() {
            put_record(
                &mut buf,
                &info.term,
                index.encoded_list(index.term_id(&info.term).unwrap()),
            );
        }
        buf
    }

    /// Writes `index` in the v2 layout (checksummed, no score bounds
    /// section), byte-for-byte what the v2 writer produced: the legacy
    /// checksummed body and the footer.
    pub(crate) fn serialize_v2(index: &InvertedIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(MAGIC_V2);
        write_checksummed_body(&mut buf, index, false).unwrap();
        let footer = crc32(&buf);
        buf.put_u32_le(footer);
        buf
    }

    /// Writes `index` in the legacy v3 layout: the v4 layout minus the
    /// codec id byte, byte-for-byte what the pre-codec writer produced.
    pub(crate) fn serialize_v3(index: &InvertedIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(MAGIC_V3);
        write_checksummed_body(&mut buf, index, false).unwrap();
        let bounds_start = buf.len();
        put_bounds(&mut buf, index.bounds());
        seal_section(&mut buf, bounds_start);
        let footer = crc32(&buf);
        buf.put_u32_le(footer);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::legacy::{serialize_v1, serialize_v2, serialize_v3};
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
    fn reads_legacy_v1_files() {
        let idx = sample_index();
        let bytes = serialize_v1(&idx);
        let back = deserialize(&bytes).unwrap();
        assert_eq!(idx, back);
    }

    #[test]
    fn reads_legacy_v2_files() {
        // Bounds are derived data: a v2 file (no bounds section) loads
        // into an index equal to the v3 roundtrip, bounds included.
        let idx = sample_index();
        let bytes = serialize_v2(&idx);
        let back = deserialize(&bytes).unwrap();
        assert_eq!(idx, back);
        assert_eq!(back.bounds().len(), back.num_terms());
    }

    #[test]
    fn rejects_v2_truncation_everywhere() {
        let bytes = serialize_v2(&sample_index());
        for cut in 0..bytes.len() {
            let r = deserialize(&bytes[..cut]);
            assert!(r.is_err(), "v2 prefix of {cut} bytes must be rejected");
        }
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
    fn rejects_v1_truncation_everywhere() {
        let bytes = serialize_v1(&sample_index());
        for cut in 0..bytes.len() {
            let r = deserialize(&bytes[..cut]);
            assert!(r.is_err(), "v1 prefix of {cut} bytes must be rejected");
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
    fn reads_legacy_v3_files() {
        let idx = sample_index();
        let bytes = serialize_v3(&idx);
        let back = deserialize(&bytes).unwrap();
        assert_eq!(back, idx);
        // The legacy layout keeps its own corruption detection.
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << (byte % 8);
            assert!(deserialize(&flipped).is_err(), "v3 bit flip at byte {byte} accepted");
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
