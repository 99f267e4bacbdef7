//! Binary index file format.
//!
//! The host's `init(file invFile)` primitive (paper §4.1) loads the inverted
//! index from a file into the memory region the accelerator reads. This
//! module defines that file format — a little-endian, sectioned layout
//! whose term directory and block columns are kept apart from the encoded
//! payload — and the one loader every index goes through: a mapped file,
//! a heap copy of one, and a build, which writes the same bytes in memory.
//!
//! # Format v5
//!
//! The one layout this module reads and writes. Every payload is
//! bit-packed, so the header's codec id byte is always written as 0
//! ([`crate::codec::CodecId`]):
//!
//! ```text
//! magic/version      u64   (MAGIC, not covered by a section CRC)
//! header             k1 f64 · b f64 · partitioner (u8 kind + u32 arg)
//!                    · codec u8 · num_docs u64 · num_terms u64    + crc32 u32
//! doc-length table   num_docs × u32                                + crc32 u32
//! payload            every list's bit-packed blocks, in term order
//! metas              one u64 metadata word per block, in term order
//! skips              one u32 skip value per block
//! bounds             one u32 ub per block, then one u32 max_tf per block
//! names              every term's UTF-8 name, in term order
//! directory          num_terms × 32 B: df u64 · payload_end u64
//!                    · name_end u64 · block_end u32 · list crc32 u32
//! section table      byte length u64 of payload, metas, skips, bounds,
//!                    names, directory · crc32 u32 of metas, skips,
//!                    bounds, names, directory · crc32 u32 of the table
//! footer             crc32 u32 over every preceding byte
//! ```
//!
//! A directory entry's fields are the ends of its term's windows: its
//! payload range, name window and blocks (in every column alike) start
//! where the previous entry's end. Its list CRC covers the list's slices of
//! metas, skips and bounds (ubs, then max_tfs) and its payload. The
//! sections tile the file in this order, so the fixed-size section table
//! just before the footer finds them all, and a writer emits the payload
//! as it encodes and the rest — 20 bytes per block and 32 per term — at
//! the end, in one pass through [`std::io::Write`].
//!
//! Any other magic is rejected with [`IndexError::UnsupportedFormat`]:
//! the retired "IIUX" versions 1–4 (rebuilding the index is the
//! migration) and the retired round-robin shard manifests ("IIUS"; a
//! query fans out over docID windows of one file instead,
//! [`crate::shard::DocWindow`]).
//!
//! # Load policy
//!
//! Every index reads the same typed views of v5 bytes ([`crate::block`]):
//! a mapping made by [`crate::storage`], bytes handed to [`deserialize`]
//! (copied once into an owned buffer), or the bytes a build writes. The
//! backing decides only *when* each check runs. This is the one copy of
//! the policy table:
//!
//! | check | heap load | mapped open |
//! |---|---|---|
//! | header / doc table / section table CRCs, section tiling | at load | at open |
//! | metas, skips, bounds, names, directory CRCs; directory ranges, name UTF-8, unique names | at load | at open |
//! | first touch: list CRC, structure ([`crate::EncodedList::validate`]), content oracle (docID order, in-corpus, stored bounds) | at load, every list | on the list's first use, once |
//! | footer CRC | hashed at load | framed, not hashed |
//!
//! The open reads no payload byte and copies nothing per block or per
//! name: the dictionary is a table of term ids over the name windows, and
//! every list and bound handle reads its directory entry and column slices
//! in place. [`InvertedIndex::validate`] runs every list's first touch
//! again, on either backing.
//!
//! A list's first touch is one function, whose verdict a list keeps
//! ([`crate::EncodedList::ensure_verified`]): the list CRC, the structural
//! checks, then the content oracle, one decode pass per list. No block
//! decoder checks docID order, so the pass does, holds every docID inside
//! the corpus, and requires the stored bounds to equal the ones it gives
//! (`score bounds mismatch`) — CRCs cannot catch a file that was *written*
//! wrong. A heap load reports a mismatch once every list has passed, so a
//! decode, order or corpus fault in any list wins over it. So both
//! backings refuse the same files with the same typed [`IndexError`] —
//! never a panic or an out-of-bounds read — the heap at load, a mapped
//! index at the first query that touches the bad list. The codec id is
//! interpreted only after the header CRC verifies: random corruption of
//! the byte surfaces as a checksum mismatch, and a CRC-consistent id
//! other than 0 — including the retired ids 1 and 2 — as
//! [`IndexError::UnknownCodec`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;
use std::sync::Arc;

use crate::block::{le, BlockMeta, Column, LeWord, Metas, Skips, MAX_BLOCK_LEN};
use crate::bounds::block_bound;
use crate::checksum::{crc32, Crc32};
use crate::codec::{self, CodecId};
use crate::error::IndexError;
use crate::index::{InvertedIndex, Stats};
use crate::mmap::Mmap;
use crate::partition::Partitioner;
use crate::posting::{Posting, PostingList};
use crate::score::{avgdl, Bm25Params, Fixed};

/// Magic + version identifying the format ("IIUX" + 0x0005).
pub const MAGIC: u64 = 0x4949_5558_0000_0005;

/// Bytes of the header section, its CRC not included.
const HEADER_LEN: usize = 38;
/// Bytes of one directory entry.
const ENTRY_LEN: usize = 32;
/// The sections after the doc table, in file order.
const SECTIONS: [&str; 6] = ["payload", "metas", "skips", "bounds", "names", "directory"];
/// Bytes of the section table: six lengths, five section CRCs (every
/// section but the payload) and its own CRC.
const TABLE_LEN: usize = 6 * 8 + 5 * 4 + 4;

/// Serializes `index` to bytes in format v5: a copy of the file every
/// index views (a build writes one in memory).
///
/// # Errors
///
/// [`IndexError::ExplicitStatistics`] for an index built with explicit
/// statistics ([`InvertedIndex::from_lists_with_stats`], every document
/// shard): its file keeps neither its `avgdl` nor its `idf̄`s, so its
/// stored bounds fail every load's check.
pub fn serialize(index: &InvertedIndex) -> Result<Vec<u8>, IndexError> {
    if index.has_explicit_stats() {
        return Err(IndexError::ExplicitStatistics);
    }
    Ok(index.file_bytes().to_vec())
}

/// The one encoder of the v5 layout behind every build and
/// [`StreamingWriter`]: it emits magic, sealed header and sealed doc table
/// on construction, each list's payload as it is [`push`](Self::push)ed,
/// and the columns, names, directory, section table and footer on
/// [`finish`](Self::finish) — folding every byte into the running footer
/// CRC on its way to the sink.
pub(crate) struct FileWriter<W: std::io::Write> {
    sink: W,
    /// Running checksum over every byte emitted so far (the footer).
    footer: Crc32,
    payload_len: u64,
    /// The sections held until `finish`, 20 bytes per block and 32 plus
    /// the name per term.
    metas: Vec<u8>,
    skips: Vec<u8>,
    ubs: Vec<u8>,
    max_tfs: Vec<u8>,
    names: Vec<u8>,
    directory: Vec<u8>,
    expected_terms: u64,
    /// One list's payload, and the stored d-gap and tf columns of one of
    /// its blocks: encoder scratch reused across blocks and lists.
    list: Vec<u8>,
    gaps: Vec<u32>,
    tfs: Vec<u32>,
}

impl<W: std::io::Write> FileWriter<W> {
    pub(crate) fn new(
        mut sink: W,
        doc_lens: &[u32],
        num_terms: u64,
        partitioner: Partitioner,
        params: Bm25Params,
    ) -> Result<Self, IndexError> {
        let mut head = Vec::with_capacity(8 + HEADER_LEN + 8 + 4 * doc_lens.len());
        head.extend_from_slice(&MAGIC.to_le_bytes());
        head.extend_from_slice(&params.k1.to_bits().to_le_bytes());
        head.extend_from_slice(&params.b.to_bits().to_le_bytes());
        let (kind, arg) = match partitioner {
            Partitioner::Fixed { block_len } => (0, block_len),
            Partitioner::Dynamic { max_size } => (1, max_size),
        };
        head.push(kind);
        head.extend_from_slice(&(arg as u32).to_le_bytes());
        head.push(CodecId::BitPack as u8);
        head.extend_from_slice(&(doc_lens.len() as u64).to_le_bytes());
        head.extend_from_slice(&num_terms.to_le_bytes());
        let crc = crc32(&head[8..]);
        head.extend_from_slice(&crc.to_le_bytes());
        let docs = head.len();
        doc_lens.iter().for_each(|l| head.extend_from_slice(&l.to_le_bytes()));
        let crc = crc32(&head[docs..]);
        head.extend_from_slice(&crc.to_le_bytes());
        let mut footer = Crc32::new();
        footer.update(&head);
        sink.write_all(&head).map_err(write_err)?;
        Ok(FileWriter {
            sink,
            footer,
            payload_len: 0,
            metas: Vec::new(),
            skips: Vec::new(),
            ubs: Vec::new(),
            max_tfs: Vec::new(),
            names: Vec::new(),
            directory: Vec::with_capacity(ENTRY_LEN * num_terms.min(1 << 20) as usize),
            expected_terms: num_terms,
            list: Vec::new(),
            gaps: Vec::new(),
            tfs: Vec::new(),
        })
    }

    /// Compresses `postings` using the block boundaries produced by a
    /// partitioner, writes the payload, and adds the list's metadata
    /// words, skip values, bounds under `idf_bar` and `dl_bars`, name and
    /// directory entry to the sections `finish` writes.
    ///
    /// # Errors
    ///
    /// [`IndexError::BadPartition`] if `block_lens` is inconsistent with
    /// the list or violates [`MAX_BLOCK_LEN`], [`IndexError::ValueTooWide`]
    /// if a d-gap or tf needs 32 or more bits, [`IndexError::ListTooLarge`]
    /// past a 43-bit payload offset, [`IndexError::CorruptIndex`] on more
    /// terms than the header declares, and [`IndexError::Io`] if the sink
    /// rejects the write.
    pub(crate) fn push(
        &mut self,
        term: &str,
        postings: &[Posting],
        block_lens: &[usize],
        idf_bar: Fixed,
        dl_bars: &[Fixed],
    ) -> Result<(), IndexError> {
        let total: usize = block_lens.iter().sum();
        if total != postings.len() || block_lens.iter().any(|&l| l == 0 || l > MAX_BLOCK_LEN) {
            return Err(IndexError::BadPartition {
                list_len: postings.len(),
                partition_sum: total,
            });
        }
        self.list.clear();
        let mut start = 0usize;
        for &len in block_lens {
            let block = &postings[start..start + len];
            // Stored d-gaps: 0 for the first posting (recovered from the
            // skip value), successor differences for the rest.
            self.gaps.clear();
            self.tfs.clear();
            let (mut max_gap, mut max_tf) = (0u32, 0u32);
            for (i, p) in block.iter().enumerate() {
                let gap = if i == 0 { 0 } else { p.doc_id - block[i - 1].doc_id };
                max_gap = max_gap.max(gap);
                max_tf = max_tf.max(p.tf);
                self.gaps.push(gap);
                self.tfs.push(p.tf);
            }
            let dn_bits = crate::bitpack::bits_for(max_gap);
            let tf_bits = crate::bitpack::bits_for(max_tf);
            if dn_bits >= 32 || tf_bits >= 32 {
                return Err(IndexError::ValueTooWide { dn_bits, tf_bits });
            }
            let offset = self.list.len() as u64;
            if offset >= (1 << 43) {
                return Err(IndexError::ListTooLarge { bytes: offset });
            }
            codec::encode_block(&self.gaps, &self.tfs, dn_bits, tf_bits, &mut self.list);
            let meta = BlockMeta { dn_bits, tf_bits, count: len as u16, offset };
            self.metas.extend_from_slice(&meta.pack().to_le_bytes());
            self.skips.extend_from_slice(&block[0].doc_id.to_le_bytes());
            let pairs = block.iter().map(|p| (p.doc_id, p.tf));
            let (ub, max_tf) = block_bound(pairs, idf_bar, dl_bars);
            self.ubs.extend_from_slice(&ub.raw().to_le_bytes());
            self.max_tfs.extend_from_slice(&max_tf.to_le_bytes());
            start += len;
        }
        self.close_list(term, postings.len() as u64, block_lens.len())
    }

    /// Ends the list whose last `blocks` blocks were just added and whose
    /// payload is in `self.list`: its CRC, payload, name and entry.
    fn close_list(&mut self, term: &str, df: u64, blocks: usize) -> Result<(), IndexError> {
        if (self.directory.len() / ENTRY_LEN) as u64 == self.expected_terms {
            return Err(IndexError::CorruptIndex {
                context: "more streamed terms than the header declares",
            });
        }
        let block_end = self.metas.len() / 8;
        let block_end = u32::try_from(block_end).map_err(|_| TABLE_OVERFLOW)?;
        let first = block_end as usize - blocks;
        let mut crc = Crc32::new();
        crc.update(&self.metas[8 * first..]);
        for column in [&self.skips, &self.ubs, &self.max_tfs] {
            crc.update(&column[4 * first..]);
        }
        crc.update(&self.list);
        self.footer.update(&self.list);
        self.sink.write_all(&self.list).map_err(write_err)?;
        self.payload_len += self.list.len() as u64;
        self.names.extend_from_slice(term.as_bytes());
        let entry = &mut self.directory;
        entry.extend_from_slice(&df.to_le_bytes());
        entry.extend_from_slice(&self.payload_len.to_le_bytes());
        entry.extend_from_slice(&(self.names.len() as u64).to_le_bytes());
        entry.extend_from_slice(&block_end.to_le_bytes());
        entry.extend_from_slice(&crc.finish().to_le_bytes());
        Ok(())
    }

    /// Writes the held sections, the section table and the footer CRC,
    /// flushes, and returns the sink.
    ///
    /// # Errors
    ///
    /// [`IndexError::CorruptIndex`] if fewer terms were pushed than the
    /// header declares, and [`IndexError::Io`] on sink errors.
    pub(crate) fn finish(mut self) -> Result<W, IndexError> {
        if ((self.directory.len() / ENTRY_LEN) as u64) < self.expected_terms {
            return Err(IndexError::CorruptIndex {
                context: "fewer streamed terms than the header declares",
            });
        }
        let mut table = Vec::with_capacity(TABLE_LEN);
        table.extend_from_slice(&self.payload_len.to_le_bytes());
        let bounds_len = self.ubs.len() + self.max_tfs.len();
        for len in [self.metas.len(), self.skips.len(), bounds_len] {
            table.extend_from_slice(&(len as u64).to_le_bytes());
        }
        for len in [self.names.len(), self.directory.len()] {
            table.extend_from_slice(&(len as u64).to_le_bytes());
        }
        let sections = [
            &[&self.metas][..],
            &[&self.skips],
            &[&self.ubs, &self.max_tfs],
            &[&self.names],
            &[&self.directory],
        ];
        for parts in sections {
            let mut crc = Crc32::new();
            for part in parts {
                crc.update(part);
                self.footer.update(part);
                self.sink.write_all(part).map_err(write_err)?;
            }
            table.extend_from_slice(&crc.finish().to_le_bytes());
        }
        table.extend_from_slice(&crc32(&table).to_le_bytes());
        self.footer.update(&table);
        self.sink.write_all(&table).map_err(write_err)?;
        // The footer covers everything already emitted and is itself
        // outside the running checksum.
        self.sink.write_all(&self.footer.finish().to_le_bytes()).map_err(write_err)?;
        self.sink.flush().map_err(write_err)?;
        Ok(self.sink)
    }
}

const TABLE_OVERFLOW: IndexError =
    IndexError::CorruptIndex { context: "block table exceeds 2^32 entries" };

/// Maps a sink write failure to the typed I/O error.
fn write_err(e: std::io::Error) -> IndexError {
    IndexError::Io { context: "writing index file", message: e.to_string() }
}

/// Streams a format-v5 index file one term at a time, producing output
/// byte-identical to [`serialize`] over the same inputs without ever
/// holding the whole index — or the whole file — in memory.
///
/// The header carries `num_docs`/`num_terms` and the footer CRC covers
/// every preceding byte, so construction takes the complete
/// document-length table and the term count up front and immediately
/// emits magic, header, and doc table while folding them into a running
/// [`Crc32`]. Each [`push_term`](Self::push_term) call then encodes one
/// posting list and writes its payload; [`finish`](Self::finish) emits the
/// block columns, names, directory, section table and footer. Peak memory
/// is one encoded list plus the per-document (4 + 4 bytes/doc), per-block
/// (20 bytes) and per-term (32 bytes plus the name) sections — independent
/// of the total posting count, which is what lets `iiu gen` stream a
/// million-document corpus to disk with bounded RSS.
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
}

impl<W: std::io::Write> StreamingWriter<W> {
    /// Opens a streamed v5 file: writes magic, sealed header, and sealed
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
        })
    }

    /// Encodes `list` and writes its payload; its block columns, bounds
    /// and directory entry wait for [`finish`](Self::finish). The term is
    /// assigned the next term id.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] on a docID beyond the corpus
    /// or when more terms are pushed than the header declares, encoding
    /// errors from [`crate::EncodedList::encode`] verbatim, and
    /// [`IndexError::Io`] if the sink rejects the write.
    pub fn push_term(&mut self, term: &str, list: &PostingList) -> Result<(), IndexError> {
        if list.as_slice().last().is_some_and(|p| u64::from(p.doc_id) >= self.n_docs) {
            return Err(IndexError::CorruptIndex {
                context: "posting list references docID beyond corpus",
            });
        }
        let idf_bar = Fixed::from_f64(self.params.idf_bar(self.n_docs, list.len() as u64));
        let partition = self.partitioner.partition(list);
        self.out.push(term, list.as_slice(), &partition, idf_bar, &self.dl_bars)
    }

    /// Writes the block columns, names, directory, section table and the
    /// footer CRC, flushes, and returns the sink.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] if fewer terms were pushed
    /// than the header declares, and [`IndexError::Io`] on sink errors.
    pub fn finish(self) -> Result<W, IndexError> {
        self.out.finish()
    }
}

/// Deserializes an index previously written by [`serialize`] (format v5)
/// onto the heap: the bytes are copied once into an owned buffer that the
/// index views as a mapped index views its file. The heap column of the
/// module's policy table says what is verified first — every check, every
/// list's first touch included.
///
/// # Errors
///
/// Returns [`IndexError::UnsupportedFormat`] on any magic/version word
/// but v5's, [`IndexError::UnknownCodec`] when the header names a codec
/// id other than 0, [`IndexError::ChecksumMismatch`] when a section or
/// list checksum fails, and [`IndexError::CorruptIndex`] on truncated or
/// inconsistent content — including stored score bounds that pass their
/// CRC but disagree with the bounds recomputed from the postings.
pub fn deserialize(bytes: &[u8]) -> Result<InvertedIndex, IndexError> {
    load(Arc::new(Mmap::from_vec(bytes.to_vec())), Backing::Heap)
}

/// What a load reads from, which decides only when each check runs (the
/// policy table in the module docs).
pub(crate) enum Backing {
    /// A copy of caller-owned bytes: every list's first touch and the
    /// footer CRC run before the load returns.
    Heap,
    /// A file mapping: each list's first touch waits for its first use,
    /// and the footer is framed but never hashed (that would fault in
    /// every page).
    Mapped,
    /// The bytes a build just wrote: every list is as encoded, with the
    /// collection statistics given, or the file's own when `None`.
    Built(Option<Stats>),
}

/// The one loader: checks and locates the sections of `bytes`
/// ([`parse`]) and assembles an index that views them; a heap load then
/// runs every list's first touch and hashes the footer.
pub(crate) fn load(bytes: Arc<Mmap>, backing: Backing) -> Result<InvertedIndex, IndexError> {
    let layout = parse(bytes.as_slice())?;
    let heap = matches!(backing, Backing::Heap);
    let index = InvertedIndex::assemble(Arc::clone(&bytes), layout, backing)?;
    if heap {
        index.first_touch_every_list()?;
        let (body, footer) = bytes.split_at(bytes.len() - 4);
        check_crc("footer", u32::from_le_bytes(le(footer)), crc32(body))?;
    }
    Ok(index)
}

/// Where a checked v5 file's sections lie, and its header's fields.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    pub(crate) params: Bm25Params,
    pub(crate) partitioner: Partitioner,
    pub(crate) n_terms: usize,
    /// The doc table, its CRC excluded.
    docs: Range<usize>,
    payload: Range<usize>,
    metas: Range<usize>,
    skips: Range<usize>,
    ubs: Range<usize>,
    max_tfs: Range<usize>,
    names: Range<usize>,
    directory: Range<usize>,
}

/// One directory entry's windows: block indices into every column, and
/// absolute byte ranges of the payload and the name.
#[derive(Debug, Clone, Default)]
pub(crate) struct Entry {
    pub(crate) blocks: Range<usize>,
    pub(crate) payload: Range<usize>,
    pub(crate) name: Range<usize>,
}

/// A little-endian word at `at` of `bytes`.
fn word<T: LeWord>(bytes: &[u8], at: usize) -> Option<T> {
    bytes.get(at..at.checked_add(T::BYTES)?).map(T::from_le)
}

/// The raw ends an entry stores: payload, name, block.
fn ends(bytes: &[u8], at: usize) -> Option<(u64, u64, u32)> {
    Some((word::<u64>(bytes, at + 8)?, word::<u64>(bytes, at + 16)?, word(bytes, at + 24)?))
}

impl Layout {
    /// Every directory entry, in term order: one pass over the directory.
    pub(crate) fn entries<'a>(&'a self, bytes: &'a [u8]) -> impl Iterator<Item = Entry> + 'a {
        let mut prev = (0, 0, 0);
        self.directory.clone().step_by(ENTRY_LEN).map(move |at| {
            let end = ends(bytes, at).unwrap_or(prev);
            let entry = self.resolve(prev, end);
            prev = end;
            entry.unwrap_or_default()
        })
    }

    /// The df of list `id`.
    #[inline]
    pub(crate) fn df(&self, bytes: &[u8], id: usize) -> u64 {
        word(bytes, self.directory.start + ENTRY_LEN * id).unwrap_or(0)
    }

    /// The CRC list `id`'s directory entry stores.
    pub(crate) fn crc(&self, bytes: &[u8], id: usize) -> u32 {
        word(bytes, self.directory.start + ENTRY_LEN * id + 28).unwrap_or(0)
    }

    /// The name of list `id`: its window of the name section.
    #[inline]
    pub(crate) fn name<'a>(&self, bytes: &'a [u8], id: usize) -> &'a [u8] {
        let end_at = |id: usize| self.directory.start + ENTRY_LEN * id + 16;
        let start = if id == 0 { Some(0) } else { word::<u64>(bytes, end_at(id - 1)) };
        let window = start.zip(word::<u64>(bytes, end_at(id))).and_then(|(start, end)| {
            let names = bytes.get(self.names.clone())?;
            names.get(usize::try_from(start).ok()?..usize::try_from(end).ok()?)
        });
        window.unwrap_or(&[])
    }

    /// The windows of an entry whose ends are `end`, after an entry whose
    /// ends are `prev`.
    fn resolve(
        &self,
        (payload_start, name_start, block_start): (u64, u64, u32),
        (payload_end, name_end, block_end): (u64, u64, u32),
    ) -> Option<Entry> {
        let window = |section: &Range<usize>, start: u64, end: u64| {
            let start = section.start.checked_add(usize::try_from(start).ok()?)?;
            let end = section.start.checked_add(usize::try_from(end).ok()?)?;
            (start <= end && end <= section.end).then_some(start..end)
        };
        Some(Entry {
            blocks: block_start as usize..(block_end as usize).max(block_start as usize),
            payload: window(&self.payload, payload_start, payload_end)?,
            name: window(&self.names, name_start, name_end)?,
        })
    }

    /// Words `blocks` of the column in `section` (none past its end).
    #[inline]
    fn column<'a, T: LeWord>(
        bytes: &'a [u8],
        section: &Range<usize>,
        blocks: Range<usize>,
    ) -> Column<'a, T> {
        let (start, end) = (blocks.start * T::BYTES, blocks.end * T::BYTES);
        let words = (end <= section.len())
            .then(|| bytes.get(section.start + start..section.start + end));
        Column::new(words.flatten().unwrap_or(&[]))
    }

    pub(crate) fn metas<'a>(&self, bytes: &'a [u8], blocks: Range<usize>) -> Metas<'a> {
        Self::column(bytes, &self.metas, blocks)
    }

    pub(crate) fn skips<'a>(&self, bytes: &'a [u8], blocks: Range<usize>) -> Skips<'a> {
        Self::column(bytes, &self.skips, blocks)
    }

    pub(crate) fn ubs<'a>(&self, bytes: &'a [u8], blocks: Range<usize>) -> Column<'a, Fixed> {
        Self::column(bytes, &self.ubs, blocks)
    }

    pub(crate) fn max_tfs<'a>(
        &self,
        bytes: &'a [u8],
        blocks: Range<usize>,
    ) -> Column<'a, u32> {
        Self::column(bytes, &self.max_tfs, blocks)
    }

    /// The CRC of the list whose blocks and payload are `blocks` and
    /// `payload`: its slices of metas, skips, ubs and max_tfs, then its
    /// payload.
    pub(crate) fn list_crc(&self, bytes: &[u8], blocks: Range<usize>, payload: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(self.metas(bytes, blocks.clone()).bytes());
        crc.update(self.skips(bytes, blocks.clone()).bytes());
        crc.update(self.ubs(bytes, blocks.clone()).bytes());
        crc.update(self.max_tfs(bytes, blocks).bytes());
        crc.update(payload);
        crc.finish()
    }

    /// The document lengths.
    pub(crate) fn doc_lens(&self, bytes: &[u8]) -> Vec<u32> {
        Column::<u32>::new(bytes.get(self.docs.clone()).unwrap_or(&[])).to_vec()
    }

    /// Every section's name and byte length, in file order, framing
    /// included; they sum to the file's length.
    fn sections(&self) -> Vec<(&'static str, u64)> {
        let len = |r: &Range<usize>| (r.end - r.start) as u64;
        let bounds = len(&self.ubs) + len(&self.max_tfs);
        vec![
            ("magic", 8),
            ("header", HEADER_LEN as u64 + 4),
            ("doc table", len(&self.docs) + 4),
            ("payload", len(&self.payload)),
            ("metas", len(&self.metas)),
            ("skips", len(&self.skips)),
            ("bounds", bounds),
            ("names", len(&self.names)),
            ("directory", len(&self.directory)),
            ("section table", TABLE_LEN as u64),
            ("footer", 4),
        ]
    }
}

/// Every section of `index`'s file with its byte length, in file order,
/// framing included: they sum to the file's length exactly (`iiu stats`).
pub fn section_sizes(index: &InvertedIndex) -> Vec<(&'static str, u64)> {
    index.layout().sections()
}

fn read_partitioner(kind: u8, arg: usize) -> Result<Partitioner, IndexError> {
    // Validate the range here rather than letting the constructors panic:
    // a CRC-consistent tamper can present any arg with valid checksums.
    if !(1..=MAX_BLOCK_LEN).contains(&arg) {
        return Err(IndexError::CorruptIndex { context: "partitioner arg" });
    }
    match kind {
        0 => Ok(Partitioner::fixed(arg)),
        1 => Ok(Partitioner::dynamic(arg)),
        _ => Err(IndexError::CorruptIndex { context: "partitioner kind" }),
    }
}

/// `bytes[range]`, or `CorruptIndex { context }` when the file is too
/// short for it.
fn take<'a>(
    bytes: &'a [u8],
    range: Range<usize>,
    context: &'static str,
) -> Result<&'a [u8], IndexError> {
    bytes.get(range).ok_or(IndexError::CorruptIndex { context })
}

/// Checks that `found` is the CRC stored for `section`.
fn check_crc(section: &'static str, expected: u32, found: u32) -> Result<(), IndexError> {
    if expected != found {
        return Err(IndexError::ChecksumMismatch { section, expected, found });
    }
    Ok(())
}

/// `bytes[start..start + len]` as a range, if it lies in the file.
fn range(start: usize, len: u64, context: &'static str) -> Result<Range<usize>, IndexError> {
    let end = usize::try_from(len).ok().and_then(|len| start.checked_add(len));
    end.map(|end| start..end).ok_or(IndexError::CorruptIndex { context })
}

/// The open's checks (the module's policy table, its first two rows):
/// magic, header, doc table, section table and the CRCs of every section
/// but the payload, then every directory entry's windows and name. What
/// it returns locates every section.
pub(crate) fn parse(bytes: &[u8]) -> Result<Layout, IndexError> {
    match word::<u64>(take(bytes, 0..8, "magic")?, 0) {
        Some(MAGIC) => {}
        found => return Err(IndexError::UnsupportedFormat { found: found.unwrap_or(0) }),
    }
    let header = take(bytes, 8..8 + HEADER_LEN, "header")?;
    let crc = take(bytes, 8 + HEADER_LEN..12 + HEADER_LEN, "header checksum")?;
    check_crc("header", u32::from_le_bytes(le(crc)), crc32(header))?;
    let field = |at| word::<u64>(header, at).unwrap_or(0);
    let params = Bm25Params { k1: f64::from_bits(field(0)), b: f64::from_bits(field(8)) };
    // Interpreted only after the section CRC passes: random corruption of
    // the codec byte must surface as a checksum mismatch, and only a
    // CRC-consistent unknown id as `UnknownCodec`.
    let arg = word::<u32>(header, 17).unwrap_or(0) as usize;
    let partitioner = read_partitioner(header[16], arg)?;
    CodecId::from_u8(header[21])?;
    let (n_docs, n_terms) = (field(22), field(30));

    let docs = range(12 + HEADER_LEN, n_docs.saturating_mul(4), "doc length table")?;
    let doc_bytes = take(bytes, docs.clone(), "doc length table")?;
    let crc = take(bytes, docs.end..docs.end + 4, "doc length checksum")?;
    check_crc("doc length table", u32::from_le_bytes(le(crc)), crc32(doc_bytes))?;

    let table_start = bytes
        .len()
        .checked_sub(TABLE_LEN + 4)
        .filter(|&start| start >= docs.end + 4)
        .ok_or(IndexError::CorruptIndex { context: "section table" })?;
    let table = &bytes[table_start..table_start + TABLE_LEN];
    let stored = u32::from_le_bytes(le(&table[TABLE_LEN - 4..]));
    check_crc("section table", stored, crc32(&table[..TABLE_LEN - 4]))?;
    let mut at = docs.end + 4;
    let mut sections = Vec::with_capacity(SECTIONS.len());
    for i in 0..SECTIONS.len() {
        let section = range(at, word::<u64>(table, 8 * i).unwrap_or(0), "section table")?;
        at = section.end;
        sections.push(section);
    }
    let [payload, metas, skips, bounds, names, directory] = &sections[..] else {
        return Err(IndexError::CorruptIndex { context: "section table" });
    };
    let n_blocks = metas.len() / 8;
    let shaped = at == table_start
        && metas.len() % 8 == 0
        && skips.len() == 4 * n_blocks
        && bounds.len() == 8 * n_blocks
        && Some(directory.len() as u64) == n_terms.checked_mul(ENTRY_LEN as u64);
    if !shaped {
        return Err(IndexError::CorruptIndex { context: "section table" });
    }
    for (i, section) in sections.iter().enumerate().skip(1) {
        let stored = word::<u32>(table, 48 + 4 * (i - 1)).unwrap_or(0);
        check_crc(SECTIONS[i], stored, crc32(&bytes[section.clone()]))?;
    }
    let ubs = bounds.start..bounds.start + 4 * n_blocks;
    let layout = Layout {
        params,
        partitioner,
        n_terms: n_terms as usize,
        docs,
        payload: payload.clone(),
        metas: metas.clone(),
        skips: skips.clone(),
        max_tfs: ubs.end..bounds.end,
        ubs,
        names: names.clone(),
        directory: directory.clone(),
    };
    check_directory(bytes, &layout, n_blocks)?;
    Ok(layout)
}

/// Every directory entry's windows lie in their sections and follow the
/// previous entry's, the last ones end their sections, and every name is
/// UTF-8 on its own.
fn check_directory(bytes: &[u8], layout: &Layout, n_blocks: usize) -> Result<(), IndexError> {
    const BAD: IndexError = IndexError::CorruptIndex { context: "term directory" };
    let names = std::str::from_utf8(&bytes[layout.names.clone()])
        .map_err(|_| IndexError::CorruptIndex { context: "term name utf-8" })?;
    let (mut payload, mut name, mut block) = (0u64, 0u64, 0u32);
    for at in layout.directory.clone().step_by(ENTRY_LEN) {
        let (payload_end, name_end, block_end) = ends(bytes, at).ok_or(BAD)?;
        if payload_end < payload || name_end < name || block_end < block {
            return Err(BAD);
        }
        let name_end_at = usize::try_from(name_end).map_err(|_| BAD)?;
        if name_end_at <= names.len() && !names.is_char_boundary(name_end_at) {
            return Err(IndexError::CorruptIndex { context: "term name utf-8" });
        }
        (payload, name, block) = (payload_end, name_end, block_end);
    }
    let whole = payload == layout.payload.len() as u64
        && name == names.len() as u64
        && block as usize == n_blocks;
    whole.then_some(()).ok_or(BAD)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::{BuildOptions, IndexBuilder};

    /// Adds one list to `file` as given — metadata words, skip values,
    /// bounds and payload, nothing checked — the way a file *written*
    /// wrong holds it.
    pub(crate) fn push_raw(
        file: &mut FileWriter<Vec<u8>>,
        term: &str,
        df: u64,
        blocks: &[(u64, u32, Fixed, u32)],
        payload: &[u8],
    ) {
        for &(meta, skip, ub, max_tf) in blocks {
            file.metas.extend_from_slice(&meta.to_le_bytes());
            file.skips.extend_from_slice(&skip.to_le_bytes());
            file.ubs.extend_from_slice(&ub.raw().to_le_bytes());
            file.max_tfs.extend_from_slice(&max_tf.to_le_bytes());
        }
        file.list.clear();
        file.list.extend_from_slice(payload);
        file.close_list(term, df, blocks.len()).unwrap();
    }

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

    fn layout_pin_index(max_size: usize) -> InvertedIndex {
        let (lists, doc_lens) = layout_pin_corpus();
        let params = Bm25Params::default();
        InvertedIndex::from_lists(lists, doc_lens, Partitioner::dynamic(max_size), params)
            .unwrap()
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
            (CodecId::BitPack, 16, 0x64c1_caf8_6302_0910),
            (CodecId::BitPack, 256, 0x5922_7024_8ed9_39cf),
            (CodecId::BitPack, 2048, 0x8337_9ba7_a10c_1c39),
        ];
        let mut got = Vec::new();
        for (codec, max_size, _) in pinned {
            let idx = layout_pin_index(max_size);
            got.push((codec, max_size, fnv1a64(&serialize(&idx).unwrap())));
        }
        assert_eq!(got, pinned, "serialized bytes moved");
    }

    #[test]
    fn section_sizes_sum_to_the_file() {
        for max_size in [16, 256, 2048] {
            let idx = layout_pin_index(max_size);
            let bytes = serialize(&idx).unwrap();
            let sections = section_sizes(&idx);
            assert_eq!(sections.iter().map(|(_, n)| n).sum::<u64>(), bytes.len() as u64);
            let blocks = idx.size_stats().num_blocks;
            let size = |name| sections.iter().find(|(n, _)| *n == name).unwrap().1;
            assert_eq!(size("metas"), 8 * blocks);
            assert_eq!(size("skips"), 4 * blocks);
            assert_eq!(size("bounds"), 8 * blocks);
            assert_eq!(size("payload"), idx.size_stats().payload_bytes);
            assert_eq!(size("directory"), ENTRY_LEN as u64 * idx.num_terms() as u64);
            // The file as mapped reports the same sections.
            assert_eq!(section_sizes(&deserialize(&bytes).unwrap()), sections);
        }
    }

    /// One hand-made block: its skip value and its stored `(gap, tf)`
    /// pairs, the first gap included (the decoder adds it back).
    type HandBlock<'a> = (u32, &'a [(u32, u32)]);

    /// The v5 file of an index over `n_docs` documents of length 10 whose
    /// lists are `lists`' blocks written as given — a file *written*
    /// wrong, which no encoder produces — with the stored bounds the build
    /// gives the postings each list decodes to, so a fault in its docIDs
    /// is its only one.
    fn hand_made_file(n_docs: u32, lists: &[&[HandBlock<'_>]]) -> Vec<u8> {
        use crate::bitpack::bits_for;
        let params = Bm25Params::default();
        let doc_lens = vec![10u32; n_docs as usize];
        let dl_bars = params.dl_bars(&doc_lens, 10.0);
        let (terms, partitioner) = (lists.len() as u64, Partitioner::default());
        let mut file =
            FileWriter::new(Vec::new(), &doc_lens, terms, partitioner, params).unwrap();
        for (t, blocks) in lists.iter().enumerate() {
            let (mut raw, mut payload, mut n) = (Vec::new(), Vec::new(), 0u64);
            let df = blocks.iter().map(|(_, pairs)| pairs.len() as u64).sum();
            let idf_bar = Fixed::from_f64(params.idf_bar(n_docs.into(), df));
            for &(skip, pairs) in *blocks {
                let (gaps, tfs): (Vec<u32>, Vec<u32>) = pairs.iter().copied().unzip();
                let dn_bits = bits_for(gaps.iter().copied().max().unwrap());
                let tf_bits = bits_for(tfs.iter().copied().max().unwrap());
                let count = pairs.len() as u16;
                let offset = payload.len() as u64;
                let meta = BlockMeta { dn_bits, tf_bits, count, offset }.pack();
                codec::encode_block(&gaps, &tfs, dn_bits, tf_bits, &mut payload);
                // What the block decodes to: the skip plus the running
                // gap sum, wrapping as the decoder does.
                let postings = pairs.iter().scan(skip, |doc, &(gap, tf)| {
                    *doc = doc.wrapping_add(gap);
                    Some((*doc, tf))
                });
                let (ub, max_tf) = block_bound(postings, idf_bar, &dl_bars);
                raw.push((meta, skip, ub, max_tf));
                n += u64::from(count);
            }
            push_raw(&mut file, &format!("t{t}"), n, &raw, &payload);
        }
        file.finish().unwrap()
    }

    /// Where list `list`'s slices lie in `bytes`: its directory entry's
    /// offset, the layout and the entry.
    pub(crate) fn locate(bytes: &[u8], list: usize) -> (usize, Layout, Entry) {
        let layout = parse(bytes).unwrap();
        let entry = layout.entries(bytes).nth(list).unwrap();
        (layout.directory.start + ENTRY_LEN * list, layout, entry)
    }

    /// Applies `edit` to list `list`'s slices of `bytes`, then recomputes
    /// the list's CRC in its directory entry, every section CRC, the table
    /// CRC and the footer, so the tamper passes every checksum.
    pub(crate) fn reseal(
        bytes: &mut [u8],
        list: usize,
        edit: impl FnOnce(&mut [u8], &Layout, &Entry),
    ) {
        let (at, layout, entry) = locate(bytes, list);
        edit(bytes, &layout, &entry);
        let crc = layout.list_crc(bytes, entry.blocks.clone(), &bytes[entry.payload.clone()]);
        bytes[at + 28..at + 32].copy_from_slice(&crc.to_le_bytes());
        let n = bytes.len();
        let table = n - 4 - TABLE_LEN;
        let sections = [
            layout.metas.clone(),
            layout.skips.clone(),
            layout.ubs.start..layout.max_tfs.end,
            layout.names.clone(),
            layout.directory.clone(),
        ];
        for (i, section) in sections.into_iter().enumerate() {
            let crc = crc32(&bytes[section]);
            bytes[table + 48 + 4 * i..table + 52 + 4 * i].copy_from_slice(&crc.to_le_bytes());
        }
        let crc = crc32(&bytes[table..n - 8]);
        bytes[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
        let footer = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&footer.to_le_bytes());
    }

    /// Adds `delta` to word `word` (0: `ub`, 1: `max_tf`) of block `block`
    /// of list `list` in the stored bounds of `bytes` and reseals every
    /// checksum.
    pub(crate) fn nudge_stored_bound(
        bytes: &mut [u8],
        (list, block, word): (usize, usize, usize),
        delta: i32,
    ) {
        reseal(bytes, list, |bytes, layout, entry| {
            let column = if word == 0 { &layout.ubs } else { &layout.max_tfs };
            let at = column.start + 4 * (entry.blocks.start + block);
            let old = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            bytes[at..at + 4].copy_from_slice(&old.wrapping_add_signed(delta).to_le_bytes());
        });
    }

    fn load_error(bytes: &[u8]) -> &'static str {
        match deserialize(bytes) {
            Err(IndexError::CorruptIndex { context }) => context,
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
    }

    #[test]
    fn stored_bounds_cross_check_catches_consistent_tampering() {
        // Tamper with a stored block bound, then recompute every CRC and
        // the footer so every checksum passes. The recomputation oracle
        // must still reject the file — CRCs can't catch a file that was
        // *written* wrong.
        let mut bytes = serialize(&sample_index()).unwrap();
        nudge_stored_bound(&mut bytes, (0, 0, 0), 1);
        assert_eq!(load_error(&bytes), "score bounds mismatch");
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
            nudge_stored_bound(&mut bytes, (0, 1, 0), 1);
            assert_eq!(load_error(&bytes), expected, "{name}, behind a bounds mismatch");
        }
        // The same good list alone loads, and a nudged bound of it alone is
        // a mismatch.
        let mut bytes = hand_made_file(100, &[good]);
        deserialize(&bytes).unwrap();
        nudge_stored_bound(&mut bytes, (0, 1, 0), 1);
        assert_eq!(load_error(&bytes), "score bounds mismatch");
    }

    #[test]
    fn a_stored_bound_off_by_one_unit_is_a_mismatch() {
        let idx = layout_pin_index(16);
        let bytes = serialize(&idx).unwrap();
        let list = (0..idx.num_terms()).find(|&t| idx.list_bounds(t as u32).num_blocks() >= 3);
        for (word, delta) in [(0, 1), (0, -1), (1, 1), (1, -1)] {
            let mut tampered = bytes.clone();
            nudge_stored_bound(&mut tampered, (list.unwrap(), 1, word), delta);
            assert_eq!(
                load_error(&tampered),
                "score bounds mismatch",
                "word {word} by {delta}"
            );
        }
    }

    #[test]
    fn a_meta_offset_past_its_payload_is_refused() {
        // A metadata word whose offset runs past its list's payload, every
        // checksum resealed: the structural checks of the first touch
        // refuse it before any decode reads the payload.
        let idx = layout_pin_index(16);
        let mut bytes = serialize(&idx).unwrap();
        reseal(&mut bytes, 5, |bytes, layout, entry| {
            let at = layout.metas.start + 8 * (entry.blocks.end - 1);
            let word = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let mut meta = BlockMeta::unpack(word);
            meta.offset = entry.payload.len() as u64;
            bytes[at..at + 8].copy_from_slice(&meta.pack().to_le_bytes());
        });
        assert_eq!(load_error(&bytes), "payload bounds");
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
        bytes[0] = 0x06; // "IIUX" + 0x0006
        assert!(matches!(
            deserialize(&bytes),
            Err(IndexError::UnsupportedFormat { found }) if found & 0xffff == 6
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
        assert!(deserialize(&bytes).is_err());
    }

    #[test]
    fn every_bit_flip_is_detected() {
        // With section and list CRCs plus a whole-file footer, any
        // single-bit flip anywhere in the file must be rejected.
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
        let layout = parse(&bytes).unwrap();
        let section_of = |at: usize| {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x10;
            match deserialize(&corrupt) {
                Err(IndexError::ChecksumMismatch { section, expected, found }) => {
                    assert_ne!(expected, found);
                    section
                }
                other => panic!("flip at {at}: expected a checksum failure, got {other:?}"),
            }
        };
        assert_eq!(section_of(9), "header");
        assert_eq!(section_of(8 + 42 + 1), "doc length table");
        assert_eq!(section_of(layout.payload.start), "term record");
        assert_eq!(section_of(layout.metas.start), "metas");
        assert_eq!(section_of(layout.skips.start), "skips");
        assert_eq!(section_of(layout.max_tfs.end - 1), "bounds");
        assert_eq!(section_of(layout.names.start), "names");
        assert_eq!(section_of(layout.directory.end - 1), "directory");
        assert_eq!(section_of(bytes.len() - 6), "section table");
        assert_eq!(section_of(bytes.len() - 1), "footer");
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
        let info = idx.term_info(0);
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
    fn v5_roundtrip_preserves_codec_for_every_codec() {
        for codec in CodecId::ALL {
            let idx = sample_index();
            let bytes = serialize(&idx).unwrap();
            // Codec id byte: 8 magic + 16 params + 5 partitioner = offset 29.
            assert_eq!(CodecId::from_u8(bytes[29]).unwrap(), codec);
            let back = deserialize(&bytes).unwrap();
            assert_eq!(back, idx, "{codec} roundtrip");
        }
    }

    /// Rewrites the header section CRC and whole-file footer of a v5 file
    /// so a deliberate header tamper passes every checksum.
    fn reseal_header(bytes: &mut [u8]) {
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
            reseal_header(&mut bytes);
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
