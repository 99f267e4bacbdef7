//! Block structure of a compressed posting list (paper §3.1, Fig. 5).
//!
//! A posting list is split into blocks of contiguous postings. For every
//! block the index stores:
//!
//! * a 64-bit metadata word: docID bitwidth (5 b), tf bitwidth (5 b),
//!   element count (11 b) and byte offset of the compressed payload (43 b);
//! * a raw 32-bit *skip value* — the first docID of the block — enabling
//!   membership testing without decompression;
//! * the bit-packed `(d-gap, tf)` pairs themselves.
//!
//! Within a block the first posting's d-gap is stored as 0 and the skip
//! value supplies its docID ("the skip value is added to a d-gap to obtain
//! the uncompressed docID").
//!
//! A block decodes in [`crate::codec`]'s pair kernel: one window load per
//! `(d-gap, tf)` pair.
//!
//! # Memory layout
//!
//! An index keeps the metadata words, skip values and lazy-CRC records of
//! *all* its lists in one set of flat `BlockTables` over one payload
//! backing: the index file's mapping, or one owned buffer for an index
//! built or loaded onto the heap. An [`EncodedList`] is a handle — the
//! shared tables and the list's span in them — so a term costs a fixed
//! record instead of a heap allocation per table (DESIGN.md §19).
//!
//! The tables also hold what a list's *first touch* checks it against:
//! the index's `dl̄` table and its stored block bounds, with the list's
//! `idf̄` in its span. The first touch is one check on two schedules — the
//! record CRC where the record is kept, then the content oracle over the
//! list's blocks — run for every list before a heap load returns, and on
//! a mapped list's first use (the policy table in [`crate::io`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bitpack::bits_for;
use crate::bounds::{BoundTables, ListBounds};
use crate::checksum;
use crate::codec::{self, BlockColumns, CodecId};
use crate::error::IndexError;
use crate::mmap::Mmap;
use crate::posting::{DocId, Posting, PostingList};
use crate::score::Fixed;
use crate::shard::{DocWindow, DOC_END};

/// Maximum number of postings a block can hold: the metadata word has an
/// 11-bit count field storing `count - 1`.
pub const MAX_BLOCK_LEN: usize = 1 << 11;

/// Bits of metadata + skip value charged to every block by the paper's cost
/// function (Eq. 3): 64-bit metadata word plus 32-bit skip value.
pub const BLOCK_OVERHEAD_BITS: u64 = 96;

/// Per-block metadata, packed into one 64-bit word in the on-disk format.
///
/// # Example
///
/// ```
/// use iiu_index::BlockMeta;
/// let meta = BlockMeta { dn_bits: 7, tf_bits: 3, count: 128, offset: 4096 };
/// let word = meta.pack();
/// assert_eq!(BlockMeta::unpack(word), meta);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockMeta {
    /// Bitwidth of the packed d-gaps (0..=31).
    pub dn_bits: u8,
    /// Bitwidth of the packed term frequencies (0..=31).
    pub tf_bits: u8,
    /// Number of postings in the block (1..=[`MAX_BLOCK_LEN`]).
    pub count: u16,
    /// Byte offset of the block's payload within the list's compressed
    /// stream (43 bits).
    pub offset: u64,
}

impl BlockMeta {
    /// Packs into the 64-bit layout `offset(43) | count-1(11) | tf(5) | dn(5)`.
    ///
    /// # Panics
    ///
    /// Panics if any field exceeds its bitwidth budget.
    pub fn pack(&self) -> u64 {
        assert!(self.dn_bits < 32, "dn bitwidth must fit in 5 bits");
        assert!(self.tf_bits < 32, "tf bitwidth must fit in 5 bits");
        assert!(
            (1..=MAX_BLOCK_LEN as u16 as usize).contains(&(self.count as usize)),
            "block count must be in 1..={MAX_BLOCK_LEN}"
        );
        assert!(self.offset < (1 << 43), "payload offset must fit in 43 bits");
        u64::from(self.dn_bits)
            | u64::from(self.tf_bits) << 5
            | u64::from(self.count - 1) << 10
            | self.offset << 21
    }

    /// Inverse of [`BlockMeta::pack`].
    pub fn unpack(word: u64) -> Self {
        BlockMeta {
            dn_bits: (word & 0x1f) as u8,
            tf_bits: ((word >> 5) & 0x1f) as u8,
            count: ((word >> 10) & 0x7ff) as u16 + 1,
            offset: word >> 21,
        }
    }

    /// Bits per posting in this block.
    pub fn pair_bits(&self) -> u32 {
        u32::from(self.dn_bits) + u32::from(self.tf_bits)
    }

    /// Size of the block payload in bytes (byte-aligned).
    pub fn payload_bytes(&self) -> u64 {
        (u64::from(self.pair_bits()) * u64::from(self.count)).div_ceil(8)
    }
}

/// The flat tables behind every [`EncodedList`] of one index: one entry
/// per block in `metas` and `skips`, one [`RecordCrc`] per term record of
/// a mapped file, the payload backing each list's span points into, and
/// what a first touch holds a list to — the `dl̄` table and the stored
/// bounds, whose entries line up with `metas`. Immutable once frozen by
/// [`TableBuilder::freeze`].
#[derive(Debug)]
pub(crate) struct BlockTables {
    metas: Vec<BlockMeta>,
    skips: Vec<DocId>,
    crcs: Vec<RecordCrc>,
    /// The index file's mapping, or an owned buffer ([`Mmap::from_vec`]).
    payload: Arc<Mmap>,
    /// One `dl̄` per document of the index, shared with the index.
    dl_bars: Arc<[Fixed]>,
    /// The bound tables the index's [`ListBounds`] handles share.
    bounds: Arc<BoundTables>,
}

impl Default for BlockTables {
    fn default() -> Self {
        BlockTables {
            metas: Vec::new(),
            skips: Vec::new(),
            crcs: Vec::new(),
            payload: Arc::new(Mmap::from_vec(Vec::new())),
            dl_bars: Arc::default(),
            bounds: Arc::default(),
        }
    }
}

/// Heap bytes of one set of block tables
/// ([`crate::InvertedIndex::heap_bytes`]).
#[derive(Debug, Default)]
pub(crate) struct TableHeapBytes {
    /// Metadata and skip tables.
    pub(crate) blocks: u64,
    /// Lazy-CRC records.
    pub(crate) crcs: u64,
    /// Payload owned on the heap (0 for a mapping).
    pub(crate) payload: u64,
}

impl BlockTables {
    /// Heap bytes of these tables.
    pub(crate) fn heap_bytes(&self) -> TableHeapBytes {
        TableHeapBytes {
            blocks: (self.metas.capacity() * std::mem::size_of::<BlockMeta>()
                + self.skips.capacity() * std::mem::size_of::<DocId>())
                as u64,
            crcs: (self.crcs.capacity() * std::mem::size_of::<RecordCrc>()) as u64,
            payload: self.payload.heap_bytes(),
        }
    }
}

/// The deferred first touch of one term record of a mapped file, run on
/// the list's first use instead of at open (hashing every record at open
/// would fault in every payload page for nothing). The verdict is kept,
/// so the steady state is one atomic load per decode, and clones of a
/// list agree on it because they share the tables.
#[derive(Debug)]
struct RecordCrc {
    /// Offset of the record's first byte in the mapping. The record ends
    /// where its list's payload does, and its stored CRC follows it.
    start: usize,
    /// [`UNVERIFIED`], [`VERIFIED`], [`FAULT`] with the fault's slot in
    /// [`KEPT_FAULTS`] in the high 32 bits, or [`CHECKSUM_BAD`] with the
    /// computed CRC there.
    verdict: AtomicU64,
}

const UNVERIFIED: u64 = 0;
const VERIFIED: u64 = 1;
const FAULT: u64 = 2;
const CHECKSUM_BAD: u64 = 3;

/// The `CorruptIndex` contexts a first touch names past its record CRC,
/// so that a kept verdict names the same one again. A fault not listed
/// here is not kept, and the next touch runs the check again.
const KEPT_FAULTS: [&str; 3] = [
    "docIDs not increasing",
    "posting list references docID beyond corpus",
    "score bounds mismatch",
];

/// The verdict to keep for the outcome of a first touch.
fn kept(outcome: &Result<(), IndexError>) -> u64 {
    match outcome {
        Ok(()) => VERIFIED,
        Err(IndexError::ChecksumMismatch { found, .. }) => {
            CHECKSUM_BAD | u64::from(*found) << 32
        }
        Err(IndexError::CorruptIndex { context }) => KEPT_FAULTS
            .iter()
            .position(|kept| kept == context)
            .map_or(UNVERIFIED, |slot| FAULT | (slot as u64) << 32),
        Err(_) => UNVERIFIED,
    }
}

/// The `crc` slot of a list with no deferred checksum.
const NO_CRC: u32 = u32::MAX;

/// Where one list lives in its index's [`BlockTables`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ListSpan {
    first: u32,
    blocks: u32,
    /// Slot in the CRC table, or [`NO_CRC`].
    crc: u32,
    /// The list's term constant, which its first touch scores with; it
    /// fills what would be padding.
    idf_bar: Fixed,
    payload_start: usize,
    payload_len: usize,
    num_postings: u64,
}

impl ListSpan {
    const EMPTY: ListSpan = ListSpan {
        first: 0,
        blocks: 0,
        crc: NO_CRC,
        idf_bar: Fixed::ZERO,
        payload_start: 0,
        payload_len: 0,
        num_postings: 0,
    };

    fn blocks(&self) -> Range<usize> {
        let first = self.first as usize;
        first..first + self.blocks as usize
    }
}

/// Accumulates the tables of an index's lists, in term order: what a build
/// encodes into and a load parses into, until [`freeze`](Self::freeze).
#[derive(Debug, Default)]
pub(crate) struct TableBuilder {
    metas: Vec<BlockMeta>,
    skips: Vec<DocId>,
    crcs: Vec<RecordCrc>,
    payload: Vec<u8>,
    /// Encoder scratch reused across blocks and lists: the stored d-gap
    /// and tf columns of one block.
    gaps: Vec<u32>,
    tfs: Vec<u32>,
}

impl TableBuilder {
    /// Compresses `list` using the block boundaries produced by a
    /// partitioner and appends it, under its term constant `idf_bar`: the
    /// encoder behind [`EncodedList::encode_with`] and every index build.
    ///
    /// # Errors
    ///
    /// As [`EncodedList::encode`].
    pub(crate) fn encode(
        &mut self,
        list: &PostingList,
        block_lens: &[usize],
        idf_bar: Fixed,
    ) -> Result<ListSpan, IndexError> {
        let postings = list.as_slice();
        let total: usize = block_lens.iter().sum();
        if total != postings.len() || block_lens.iter().any(|&l| l == 0 || l > MAX_BLOCK_LEN) {
            return Err(IndexError::BadPartition {
                list_len: postings.len(),
                partition_sum: total,
            });
        }

        let first = self.metas.len();
        let payload_start = self.payload.len();
        self.metas.reserve(block_lens.len());
        self.skips.reserve(block_lens.len());
        let mut start = 0usize;
        for &len in block_lens {
            let block = &postings[start..start + len];
            let skip = block[0].doc_id;

            // Stored d-gaps: 0 for the first posting (recovered from the skip
            // value), successor differences for the rest.
            self.gaps.clear();
            self.tfs.clear();
            let mut max_gap = 0u32;
            let mut max_tf = 0u32;
            for (i, p) in block.iter().enumerate() {
                let gap = if i == 0 { 0 } else { p.doc_id - block[i - 1].doc_id };
                max_gap = max_gap.max(gap);
                max_tf = max_tf.max(p.tf);
                self.gaps.push(gap);
                self.tfs.push(p.tf);
            }
            let dn_bits = bits_for(max_gap);
            let tf_bits = bits_for(max_tf);
            if dn_bits >= 32 || tf_bits >= 32 {
                return Err(IndexError::ValueTooWide { dn_bits, tf_bits });
            }

            let offset = (self.payload.len() - payload_start) as u64;
            if offset >= (1 << 43) {
                return Err(IndexError::ListTooLarge { bytes: offset });
            }
            codec::encode_block(&self.gaps, &self.tfs, dn_bits, tf_bits, &mut self.payload);

            self.metas.push(BlockMeta { dn_bits, tf_bits, count: len as u16, offset });
            self.skips.push(skip);
            start += len;
        }
        let (first, blocks) = self.blocks_since(first)?;
        Ok(ListSpan {
            first,
            blocks,
            crc: NO_CRC,
            idf_bar,
            payload_start,
            payload_len: self.payload.len() - payload_start,
            num_postings: postings.len() as u64,
        })
    }

    /// Appends a list parsed from a term record — nothing is decoded — and
    /// checks its structure ([`EncodedList::validate`]), under its term
    /// constant `idf_bar`. `mapped` is
    /// `(record start, payload offset)` in the mapping the tables will be
    /// frozen over: the payload stays there and the record CRC is deferred
    /// to first touch. With `None` the payload is copied into the owned
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] if the list fails validation.
    pub(crate) fn push_stored(
        &mut self,
        meta_words: impl Iterator<Item = u64>,
        skips: impl Iterator<Item = DocId>,
        payload: &[u8],
        num_postings: u64,
        idf_bar: Fixed,
        mapped: Option<(usize, usize)>,
    ) -> Result<ListSpan, IndexError> {
        let first = self.metas.len();
        self.metas.extend(meta_words.map(BlockMeta::unpack));
        self.skips.extend(skips);
        let (payload_start, crc) = match mapped {
            Some((start, payload_start)) => {
                self.crcs.push(RecordCrc { start, verdict: AtomicU64::new(UNVERIFIED) });
                (
                    payload_start,
                    u32::try_from(self.crcs.len() - 1).map_err(|_| TABLE_OVERFLOW)?,
                )
            }
            None => {
                self.payload.extend_from_slice(payload);
                (self.payload.len() - payload.len(), NO_CRC)
            }
        };
        let view = ListView {
            metas: &self.metas[first..],
            skips: &self.skips[first..],
            payload,
            num_postings,
        };
        view.validate()?;
        let (first, blocks) = self.blocks_since(first)?;
        Ok(ListSpan {
            first,
            blocks,
            crc,
            idf_bar,
            payload_start,
            payload_len: payload.len(),
            num_postings,
        })
    }

    /// The span `first..` of the block tables as `(first, count)`: `u32`s,
    /// which hold as long as the whole table does.
    fn blocks_since(&self, first: usize) -> Result<(u32, u32), IndexError> {
        u32::try_from(self.metas.len()).map_err(|_| TABLE_OVERFLOW)?;
        Ok((first as u32, (self.metas.len() - first) as u32))
    }

    /// Ends the build or load: the tables, trimmed to size, over `mapping`
    /// when the lists' payloads lie in it, else over the owned buffer,
    /// beside what a first touch holds the lists to — the index's `dl̄`
    /// table and the tables behind its lists' `bounds`, laid out block
    /// for block as these are.
    pub(crate) fn freeze(
        self,
        mapping: Option<Arc<Mmap>>,
        dl_bars: Arc<[Fixed]>,
        bounds: &[ListBounds],
    ) -> Arc<BlockTables> {
        let TableBuilder { mut metas, mut skips, mut crcs, mut payload, .. } = self;
        metas.shrink_to_fit();
        skips.shrink_to_fit();
        crcs.shrink_to_fit();
        let payload = mapping.unwrap_or_else(|| {
            payload.shrink_to_fit();
            Arc::new(Mmap::from_vec(payload))
        });
        let bounds = BoundTables::of(bounds);
        Arc::new(BlockTables { metas, skips, crcs, payload, dl_bars, bounds })
    }
}

const TABLE_OVERFLOW: IndexError =
    IndexError::CorruptIndex { context: "block table exceeds 2^32 entries" };

/// One list's slices of its tables: what the decode and validation
/// kernels run on, before and after a freeze, and the handle a query walk
/// holds for a whole query. The public way to one is
/// [`EncodedList::verified`], which runs the list's deferred checks
/// first, so that a walk checks a list once rather than at every block
/// and slices its tables once rather than at every decode.
#[derive(Debug, Clone, Copy)]
pub struct ListView<'a> {
    metas: &'a [BlockMeta],
    skips: &'a [DocId],
    payload: &'a [u8],
    num_postings: u64,
}

/// The packed tf column of one block decoded docIDs-only
/// ([`ListView::try_decode_docs_into`]), read one tf at a time.
#[derive(Debug, Clone, Copy)]
pub struct BlockTfs<'a> {
    bytes: &'a [u8],
    gap_bits: u8,
    tf_bits: u8,
}

impl BlockTfs<'_> {
    /// The tf of the block's posting `i` ([`codec::tf_at`]): one window
    /// load. An `i` past the block's count reads garbage, never a panic.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        codec::tf_at(self.bytes, i, self.gap_bits, self.tf_bits)
    }
}

impl<'a> ListView<'a> {
    /// Block metadata words.
    pub fn metas(&self) -> &'a [BlockMeta] {
        self.metas
    }

    /// Skip list: the raw first docID of each block.
    pub fn skips(&self) -> &'a [DocId] {
        self.skips
    }

    /// Number of postings across all blocks.
    pub fn num_postings(&self) -> u64 {
        self.num_postings
    }

    /// See [`EncodedList::window_blocks`].
    pub fn window_blocks(&self, window: DocWindow) -> Range<usize> {
        if window.is_empty() {
            return 0..0;
        }
        let start = match window.lo() {
            0 => 0,
            lo => self.skips.partition_point(|&s| s <= lo).saturating_sub(1),
        };
        let end = if window.hi() >= DOC_END {
            self.skips.len()
        } else {
            self.skips.partition_point(|&s| u64::from(s) < window.hi())
        };
        start..end
    }

    /// Block `idx`'s metadata, skip value and payload bytes: from the
    /// block's offset to the end of the list payload, not the block's own
    /// bytes, so that its last pairs load full windows (the masks keep
    /// the next block's bits out).
    fn block(&self, idx: usize) -> Result<(BlockMeta, DocId, &'a [u8]), IndexError> {
        let meta = *self
            .metas
            .get(idx)
            .ok_or(IndexError::CorruptIndex { context: "block index out of range" })?;
        let skip = *self
            .skips
            .get(idx)
            .ok_or(IndexError::CorruptIndex { context: "skip/meta count mismatch" })?;
        let bytes = usize::try_from(meta.offset).ok().and_then(|o| self.payload.get(o..));
        let bytes = bytes.ok_or(IndexError::CorruptIndex { context: "payload bounds" })?;
        Ok((meta, skip, bytes))
    }

    /// Block `idx`'s `(docID, tf)` pairs appended to `out`
    /// ([`codec::try_decode_pairs_into`]).
    pub(crate) fn try_decode_pairs_into(
        &self,
        idx: usize,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        let (BlockMeta { dn_bits, tf_bits, count, .. }, skip, bytes) = self.block(idx)?;
        codec::try_decode_pairs_into(bytes, usize::from(count), dn_bits, tf_bits, skip, out)
    }

    /// Block `idx`'s docIDs and tfs in `out`
    /// ([`codec::try_decode_columns_into`]).
    ///
    /// # Errors
    ///
    /// [`IndexError::CorruptIndex`] when `idx` is out of range or the
    /// payload is too short for the block; `out` is untouched on error.
    pub fn try_decode_columns_into(
        &self,
        idx: usize,
        out: &mut BlockColumns,
    ) -> Result<(), IndexError> {
        let (BlockMeta { dn_bits, tf_bits, count, .. }, skip, bytes) = self.block(idx)?;
        codec::try_decode_columns_into(bytes, usize::from(count), dn_bits, tf_bits, skip, out)
    }

    /// Block `idx`'s docIDs alone in `out` ([`codec::try_decode_docs_into`]),
    /// and the block's packed tf column to read the tf of its posting `i`
    /// from if it is needed.
    ///
    /// # Errors
    ///
    /// [`IndexError::CorruptIndex`] when `idx` is out of range or the
    /// payload is too short for the block; `out` is untouched on error.
    pub fn try_decode_docs_into(
        &self,
        idx: usize,
        out: &mut BlockColumns,
    ) -> Result<BlockTfs<'a>, IndexError> {
        let (BlockMeta { dn_bits, tf_bits, count, .. }, skip, bytes) = self.block(idx)?;
        codec::try_decode_docs_into(bytes, usize::from(count), dn_bits, tf_bits, skip, out)?;
        Ok(BlockTfs { bytes, gap_bits: dn_bits, tf_bits })
    }

    /// See [`EncodedList::try_decode_window_into`].
    ///
    /// # Errors
    ///
    /// [`IndexError::CorruptIndex`] when `idx` is out of range or the
    /// payload is too short for the block; `out` is untouched on error.
    pub fn try_decode_window_into(
        &self,
        idx: usize,
        window: DocWindow,
        out: &mut Vec<Posting>,
    ) -> Result<usize, IndexError> {
        let from = out.len();
        self.try_decode_pairs_into(idx, out)?;
        let decoded = out.len() - from;
        if self.skips.get(idx).is_some_and(|&s| s < window.lo()) {
            let below = out[from..].partition_point(|p| p.doc_id < window.lo());
            out.drain(from..from + below);
        }
        if self.skips.get(idx + 1).map_or(DOC_END, |&s| u64::from(s)) > window.hi() {
            let keep = out[from..].partition_point(|p| u64::from(p.doc_id) < window.hi());
            out.truncate(from + keep);
        }
        Ok(decoded)
    }

    /// [`EncodedList::find`] minus the deferred checksum: the candidate
    /// block's decode and a binary search of it.
    fn find(&self, doc_id: DocId) -> Option<u32> {
        let block = self.skips.partition_point(|&s| s <= doc_id).checked_sub(1)?;
        let mut buf = Vec::new();
        self.try_decode_pairs_into(block, &mut buf).ok()?;
        buf.binary_search_by_key(&doc_id, |p| p.doc_id).ok().map(|i| buf[i].tf)
    }

    /// See [`EncodedList::validate`].
    fn validate(&self) -> Result<(), IndexError> {
        if self.metas.len() != self.skips.len() {
            return Err(IndexError::CorruptIndex { context: "skip/meta count mismatch" });
        }
        let mut total: u64 = 0;
        for meta in self.metas {
            if meta.dn_bits > 31 || meta.tf_bits > 31 {
                return Err(IndexError::CorruptIndex { context: "block bitwidths" });
            }
            if meta.count == 0 || meta.count as usize > MAX_BLOCK_LEN {
                return Err(IndexError::CorruptIndex { context: "block count" });
            }
            total += u64::from(meta.count);
            let min_bits = u64::from(meta.pair_bits()) * u64::from(meta.count);
            let bits_needed = meta
                .offset
                .checked_mul(8)
                .and_then(|b| b.checked_add(min_bits))
                .ok_or(IndexError::CorruptIndex { context: "payload bounds" })?;
            if bits_needed > self.payload.len() as u64 * 8 {
                return Err(IndexError::CorruptIndex { context: "payload bounds" });
            }
        }
        if total != self.num_postings {
            return Err(IndexError::CorruptIndex { context: "posting count mismatch" });
        }
        if self.skips.windows(2).any(|w| w[0] >= w[1]) {
            return Err(IndexError::CorruptIndex { context: "skip values not increasing" });
        }
        Ok(())
    }
}

/// A posting list compressed with the IIU scheme: block metadata, skip list
/// and a byte-aligned bit-packed payload.
///
/// A handle into its index's `BlockTables` (or, for a list encoded on
/// its own, tables of its own): cloning it copies the handle, not the
/// tables.
#[derive(Clone)]
pub struct EncodedList {
    tables: Arc<BlockTables>,
    span: ListSpan,
}

/// This list's slice of the tables, not the whole index's.
impl std::fmt::Debug for EncodedList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodedList")
            .field("num_postings", &self.num_postings())
            .field("metas", &self.metas())
            .field("skips", &self.skips())
            .field("payload_len", &self.payload().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl Default for EncodedList {
    fn default() -> Self {
        EncodedList::new(&Arc::default(), ListSpan::EMPTY)
    }
}

/// Equality is over logical content (structure + payload bytes);
/// where the tables live (heap vs mapping, shared or not) and
/// lazy-verification state are representation details — a mapped index
/// must compare equal to the heap index it was serialized from.
impl PartialEq for EncodedList {
    fn eq(&self, other: &Self) -> bool {
        self.metas() == other.metas()
            && self.skips() == other.skips()
            && self.payload() == other.payload()
            && self.num_postings() == other.num_postings()
    }
}

impl Eq for EncodedList {}

impl EncodedList {
    /// Compresses `list` using the block boundaries produced by a
    /// partitioner. `block_lens` must sum to `list.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::ValueTooWide`] if a docID or tf needs 32 or
    /// more bits (the 5-bit metadata width fields top out at 31), and
    /// [`IndexError::BadPartition`] if `block_lens` is inconsistent with the
    /// list length or violates [`MAX_BLOCK_LEN`].
    pub fn encode(list: &PostingList, block_lens: &[usize]) -> Result<Self, IndexError> {
        let mut tables = TableBuilder::default();
        let span = tables.encode(list, block_lens, Fixed::ZERO)?;
        Ok(EncodedList::new(&tables.freeze(None, Arc::default(), &[]), span))
    }

    /// [`EncodedList::encode`] under `codec`, which can only name the one
    /// bit-packed layout: the output is byte-identical. It keeps its codec
    /// parameter because the repository benchmark's per-codec decode layer
    /// calls it for every entry of [`CodecId::ALL`].
    ///
    /// # Errors
    ///
    /// Same contract as [`EncodedList::encode`].
    pub fn encode_with(
        list: &PostingList,
        block_lens: &[usize],
        _codec: CodecId,
    ) -> Result<Self, IndexError> {
        Self::encode(list, block_lens)
    }

    /// The handle of the list at `span` of `tables`.
    pub(crate) fn new(tables: &Arc<BlockTables>, span: ListSpan) -> Self {
        EncodedList { tables: Arc::clone(tables), span }
    }

    #[cfg(test)]
    pub(crate) fn tables(&self) -> &Arc<BlockTables> {
        &self.tables
    }

    fn view(&self) -> ListView<'_> {
        let blocks = self.span.blocks();
        ListView {
            metas: self.tables.metas.get(blocks.clone()).unwrap_or(&[]),
            skips: self.tables.skips.get(blocks).unwrap_or(&[]),
            payload: self.payload(),
            num_postings: self.span.num_postings,
        }
    }

    /// Runs the list's deferred first touch, if it carries one (lists
    /// served from a mapped file), once, and keeps the verdict: the record
    /// CRC, then the content oracle — every block decoded once, docIDs
    /// strictly increasing and inside the corpus, and the stored block
    /// bounds equal to the ones they give. A heap-loaded list ran the same
    /// check before its load returned, and a built one computed its
    /// bounds, so both return `Ok` unconditionally. Engines call this at
    /// term-resolve time so corruption surfaces as a typed error before
    /// any panicking decode wrapper runs; the decode entry points below
    /// also call it as defense in depth, once per block. A query walk
    /// instead takes [`EncodedList::verified`] once per list and decodes
    /// through that view, so the check runs once per list per query.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::ChecksumMismatch`] on a corrupt record, and
    /// [`IndexError::CorruptIndex`] when a block fails to decode, its
    /// docIDs are out of order or beyond the corpus (`docIDs not
    /// increasing`, `posting list references docID beyond corpus`), or the
    /// stored bounds differ (`score bounds mismatch`).
    pub fn ensure_verified(&self) -> Result<(), IndexError> {
        let Some(crc) = self.tables.crcs.get(self.span.crc as usize) else {
            return Ok(());
        };
        let verdict = crc.verdict.load(Ordering::Acquire);
        let high = (verdict >> 32) as u32;
        match verdict & u64::from(u32::MAX) {
            UNVERIFIED => {
                let outcome = self.first_touch(&mut BlockColumns::default());
                crc.verdict.store(kept(&outcome), Ordering::Release);
                outcome
            }
            VERIFIED => Ok(()),
            FAULT => Err(IndexError::CorruptIndex { context: KEPT_FAULTS[high as usize] }),
            _ => Err(IndexError::ChecksumMismatch {
                section: "term record",
                expected: self.record(crc)?.1,
                found: high,
            }),
        }
    }

    /// This list's [`ListView`], after [`EncodedList::ensure_verified`]:
    /// the handle a query walk holds instead of going through the list at
    /// every block, which checks the list once per query.
    ///
    /// # Errors
    ///
    /// As [`EncodedList::ensure_verified`].
    pub fn verified(&self) -> Result<ListView<'_>, IndexError> {
        self.ensure_verified()?;
        Ok(self.view())
    }

    /// The bytes of this list's term record and the CRC stored after them.
    fn record(&self, crc: &RecordCrc) -> Result<(&[u8], u32), IndexError> {
        let map = self.tables.payload.as_slice();
        let end = self.span.payload_start.saturating_add(self.span.payload_len);
        match (map.get(crc.start..end), map.get(end..end.saturating_add(4))) {
            (Some(record), Some(&[a, b, c, d])) => {
                Ok((record, u32::from_le_bytes([a, b, c, d])))
            }
            _ => Err(IndexError::CorruptIndex { context: "term record range" }),
        }
    }

    /// The list's first touch, the one check both backings hold a list to
    /// and the one caller of the content oracle ([`BoundTables::matches`]):
    /// the record CRC where the record is kept (a mapped file; a heap load
    /// checked it while framing), then one pass over the blocks with `cols`
    /// as its decode buffer. Not kept; [`EncodedList::ensure_verified`]
    /// keeps it. Concurrent racers recompute harmlessly: the outcome is a
    /// pure function of immutable bytes.
    pub(crate) fn first_touch(&self, cols: &mut BlockColumns) -> Result<(), IndexError> {
        if let Some(crc) = self.tables.crcs.get(self.span.crc as usize) {
            let (record, expected) = self.record(crc)?;
            let found = checksum::crc32(record);
            if found != expected {
                return Err(IndexError::ChecksumMismatch {
                    section: "term record",
                    expected,
                    found,
                });
            }
        }
        let tables = &self.tables;
        let blocks = self.span.blocks();
        tables.bounds.matches(blocks, self.view(), self.span.idf_bar, &tables.dl_bars, cols)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.span.blocks as usize
    }

    /// Number of postings across all blocks.
    pub fn num_postings(&self) -> u64 {
        self.span.num_postings
    }

    /// Block metadata words.
    pub fn metas(&self) -> &[BlockMeta] {
        self.view().metas
    }

    /// Skip list: the raw first docID of each block.
    pub fn skips(&self) -> &[DocId] {
        self.view().skips
    }

    /// The bit-packed payload bytes (borrowed from the heap or straight
    /// from a file mapping, depending on how the list was loaded).
    pub fn payload(&self) -> &[u8] {
        // The span is validated at construction; a malformed one degrades
        // to an empty payload (decoders then report "payload bounds")
        // rather than panicking.
        let start = self.span.payload_start;
        start
            .checked_add(self.span.payload_len)
            .and_then(|end| self.tables.payload.as_slice().get(start..end))
            .unwrap_or(&[])
    }

    /// True when the payload is served from a file mapping rather than
    /// owned heap bytes.
    pub fn is_mapped(&self) -> bool {
        self.tables.payload.is_mapped()
    }

    /// Decodes block `idx` into postings.
    ///
    /// Allocates a fresh `Vec` per call; hot paths should reuse a scratch
    /// buffer with [`EncodedList::decode_block_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the payload is corrupt.
    pub fn decode_block(&self, idx: usize) -> Vec<Posting> {
        let mut out =
            Vec::with_capacity(self.metas().get(idx).map_or(0, |m| m.count as usize));
        self.decode_block_into(idx, &mut out);
        out
    }

    /// Appends block `idx`'s postings onto `out` without allocating (beyond
    /// `out`'s own growth): the zero-alloc decode every hot path uses. A
    /// BitPack block decodes in one pass that loads one 8-byte window per
    /// posting, masks the d-gap and the tf out of it, and adds the gap to
    /// a running docID.
    ///
    /// `out` is appended to, not cleared — callers reusing a scratch buffer
    /// clear it first; [`crate::EncodedList::decode_all`] exploits the
    /// append to concatenate blocks without an intermediate copy.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the payload is corrupt. Use
    /// [`EncodedList::try_decode_block_into`] for untrusted payloads.
    pub fn decode_block_into(&self, idx: usize, out: &mut Vec<Posting>) {
        if let Err(e) = self.try_decode_block_into(idx, out) {
            panic!("decode of block {idx} failed: {e}");
        }
    }

    /// [`EncodedList::decode_block_into`], returning
    /// [`IndexError::CorruptIndex`] instead of panicking when `idx` is out
    /// of range or a corrupted payload would read past the buffer. `out` is
    /// untouched on error.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] naming the violated bound.
    pub fn try_decode_block_into(
        &self,
        idx: usize,
        out: &mut Vec<Posting>,
    ) -> Result<(), IndexError> {
        self.verified()?.try_decode_pairs_into(idx, out)
    }

    /// Decodes the entire list.
    pub fn decode_all(&self) -> PostingList {
        let mut postings = Vec::with_capacity(self.num_postings() as usize);
        for i in 0..self.num_blocks() {
            self.decode_block_into(i, &mut postings);
        }
        PostingList::from_sorted(postings)
    }

    /// Index of the only block that may contain `doc_id`, by binary search
    /// over the skip list (membership testing, §2.2): the last block whose
    /// skip value is `<= doc_id`. Returns `None` if `doc_id` precedes the
    /// first skip value or the list is empty.
    pub fn candidate_block(&self, doc_id: DocId) -> Option<usize> {
        let n = self.skips().partition_point(|&s| s <= doc_id);
        n.checked_sub(1)
    }

    /// The blocks that can hold postings of `window`: from the block
    /// holding `window.lo()` up to the last block starting before
    /// `window.hi()`, by binary search of the skip list.
    /// [`DocWindow::ALL`] takes every block without a search.
    pub fn window_blocks(&self, window: DocWindow) -> Range<usize> {
        self.view().window_blocks(window)
    }

    /// Appends the postings of block `idx` that lie in `window` onto `out`
    /// and returns how many the block decoded to. Only the block holding
    /// `window.lo()` and the one reaching past `window.hi()` lose any; the
    /// others cost two comparisons.
    ///
    /// # Errors
    ///
    /// As [`EncodedList::try_decode_block_into`].
    pub fn try_decode_window_into(
        &self,
        idx: usize,
        window: DocWindow,
        out: &mut Vec<Posting>,
    ) -> Result<usize, IndexError> {
        self.verified()?.try_decode_window_into(idx, window, out)
    }

    /// [`EncodedList::try_decode_window_into`] for trusted payloads.
    ///
    /// # Panics
    ///
    /// As [`EncodedList::decode_block_into`].
    pub fn decode_window_into(
        &self,
        idx: usize,
        window: DocWindow,
        out: &mut Vec<Posting>,
    ) -> usize {
        match self.try_decode_window_into(idx, window, out) {
            Ok(decoded) => decoded,
            Err(e) => panic!("decode of block {idx} failed: {e}"),
        }
    }

    /// Physical compressed size in bytes: payload + 8 B metadata and 4 B
    /// skip value per block.
    pub fn compressed_bytes(&self) -> u64 {
        self.payload().len() as u64 + self.num_blocks() as u64 * 12
    }

    /// Streaming decoder over all postings, one block at a time — the
    /// software analogue of a DCU consuming the list without materializing
    /// it.
    ///
    /// # Example
    ///
    /// ```
    /// use iiu_index::{EncodedList, Posting, PostingList};
    /// let list = PostingList::from_sorted(
    ///     (0..10u32).map(|i| Posting::new(i * 5, 1)).collect(),
    /// );
    /// let enc = EncodedList::encode(&list, &[4, 6]).unwrap();
    /// let sum: u64 = enc.iter().map(|p| u64::from(p.doc_id)).sum();
    /// assert_eq!(sum, (0..10u64).map(|i| i * 5).sum());
    /// ```
    pub fn iter(&self) -> Iter<'_> {
        Iter { list: self, block: 0, buffered: Vec::new(), pos: 0 }
    }

    /// Membership test: the term frequency of `doc_id` if present,
    /// decompressing at most one block (skip-list search + in-block binary
    /// search, the operation MILC optimizes and the BSU accelerates).
    ///
    /// # Example
    ///
    /// ```
    /// use iiu_index::{EncodedList, Posting, PostingList};
    /// let list = PostingList::from_sorted(vec![
    ///     Posting::new(3, 7),
    ///     Posting::new(90, 2),
    /// ]);
    /// let enc = EncodedList::encode(&list, &[1, 1]).unwrap();
    /// assert_eq!(enc.find(3), Some(7));
    /// assert_eq!(enc.find(4), None);
    /// ```
    pub fn find(&self, doc_id: DocId) -> Option<u32> {
        // A mapped list whose deferred checksum fails reports "absent"
        // rather than panicking; engines surface the typed error via
        // `ensure_verified` at resolve time.
        self.ensure_verified().ok()?;
        self.view().find(doc_id)
    }

    /// Cost in bits under the paper's Eq. 3, before byte alignment:
    /// payload bits plus the per-block overhead, summed from the metadata
    /// words.
    pub fn model_bits(&self) -> u64 {
        self.metas()
            .iter()
            .map(|m| codec::block_cost_bits(u64::from(m.count), m.dn_bits, m.tf_bits))
            .sum()
    }

    /// Checks the structural invariants every decoder on the hot path
    /// relies on, without decoding any payload:
    ///
    /// * one skip value per metadata word;
    /// * bitwidths at most 31 and counts in `1..=`[`MAX_BLOCK_LEN`]
    ///   (guaranteed by the packed layout, but re-checked for lists built
    ///   by hand);
    /// * block counts summing to [`EncodedList::num_postings`];
    /// * every block's payload range in-bounds;
    /// * skip values strictly increasing.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), IndexError> {
        self.view().validate()
    }
}

/// Streaming iterator over an [`EncodedList`]'s postings.
///
/// Created by [`EncodedList::iter`]; decodes one block at a time.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    list: &'a EncodedList,
    block: usize,
    buffered: Vec<Posting>,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = Posting;

    fn next(&mut self) -> Option<Posting> {
        while self.pos >= self.buffered.len() {
            if self.block >= self.list.num_blocks() {
                return None;
            }
            // Reuse the buffer across blocks: one allocation per list, not
            // one per block.
            self.buffered.clear();
            self.list.decode_block_into(self.block, &mut self.buffered);
            self.block += 1;
            self.pos = 0;
        }
        let p = self.buffered[self.pos];
        self.pos += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Remaining = total - consumed (cheap lower bound via buffered).
        let consumed_blocks: u64 =
            self.list.metas().iter().take(self.block).map(|m| u64::from(m.count)).sum();
        let remaining = self.list.num_postings()
            - (consumed_blocks - (self.buffered.len() - self.pos) as u64);
        (remaining as usize, Some(remaining as usize))
    }
}

impl<'a> IntoIterator for &'a EncodedList {
    type Item = Posting;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn list(pairs: &[(u32, u32)]) -> PostingList {
        PostingList::from_sorted(pairs.iter().map(|&(d, t)| Posting::new(d, t)).collect())
    }

    /// The parts of a list, as a test edits them.
    struct Parts {
        metas: Vec<BlockMeta>,
        skips: Vec<DocId>,
        payload: Vec<u8>,
        num_postings: u64,
    }

    /// `enc` with its parts edited, in tables of its own assembled without
    /// validation — the way a hostile file would present them.
    fn tampered(enc: &EncodedList, edit: impl FnOnce(&mut Parts)) -> EncodedList {
        let mut parts = Parts {
            metas: enc.metas().to_vec(),
            skips: enc.skips().to_vec(),
            payload: enc.payload().to_vec(),
            num_postings: enc.num_postings(),
        };
        edit(&mut parts);
        let span = ListSpan {
            blocks: parts.metas.len() as u32,
            payload_len: parts.payload.len(),
            num_postings: parts.num_postings,
            ..ListSpan::EMPTY
        };
        let tables = Arc::new(BlockTables {
            metas: parts.metas,
            skips: parts.skips,
            payload: Arc::new(Mmap::from_vec(parts.payload)),
            ..BlockTables::default()
        });
        EncodedList::new(&tables, span)
    }

    #[test]
    fn a_list_handle_carries_its_idf_bar_in_padding() {
        // The term constant a first touch scores with fills the span's
        // padding, so a list handle costs what it did without it.
        assert_eq!(std::mem::size_of::<ListSpan>(), 40);
        assert_eq!(std::mem::size_of::<EncodedList>(), 48);
    }

    #[test]
    fn meta_pack_unpack_roundtrip() {
        let cases = [
            BlockMeta { dn_bits: 0, tf_bits: 0, count: 1, offset: 0 },
            BlockMeta {
                dn_bits: 31,
                tf_bits: 31,
                count: MAX_BLOCK_LEN as u16,
                offset: (1 << 43) - 1,
            },
            BlockMeta { dn_bits: 7, tf_bits: 3, count: 256, offset: 123_456 },
        ];
        for m in cases {
            assert_eq!(BlockMeta::unpack(m.pack()), m);
        }
    }

    #[test]
    #[should_panic(expected = "5 bits")]
    fn meta_pack_rejects_wide_dn() {
        BlockMeta { dn_bits: 32, tf_bits: 0, count: 1, offset: 0 }.pack();
    }

    #[test]
    fn encode_single_block_roundtrip() {
        // The Lausanne example from Fig. 4.
        let l = list(&[
            (7, 11),
            (10, 2),
            (15, 1),
            (54, 1),
            (72, 5),
            (134, 3),
            (170, 1),
            (221, 2),
            (294, 4),
            (417, 1),
            (500, 3),
            (542, 7),
        ]);
        let enc = EncodedList::encode(&l, &[12]).unwrap();
        assert_eq!(enc.num_blocks(), 1);
        assert_eq!(enc.skips(), &[7]);
        // Max d-gap is 123 (7 bits), max tf is 11 (4 bits).
        assert_eq!(enc.metas()[0].dn_bits, 7);
        assert_eq!(enc.metas()[0].tf_bits, 4);
        assert_eq!(enc.decode_all(), l);
    }

    #[test]
    fn encode_multi_block_roundtrip() {
        let l = list(&[(0, 1), (2, 2), (11, 1), (20, 9), (38, 1), (46, 2)]);
        let enc = EncodedList::encode(&l, &[2, 3, 1]).unwrap();
        assert_eq!(enc.num_blocks(), 3);
        assert_eq!(enc.skips(), &[0, 11, 46]);
        assert_eq!(
            enc.decode_block(1),
            vec![Posting::new(11, 1), Posting::new(20, 9), Posting::new(38, 1)]
        );
        assert_eq!(enc.decode_all(), l);
    }

    #[test]
    fn encode_rejects_bad_partition() {
        let l = list(&[(0, 1), (5, 1)]);
        assert!(matches!(EncodedList::encode(&l, &[3]), Err(IndexError::BadPartition { .. })));
        assert!(matches!(EncodedList::encode(&l, &[1]), Err(IndexError::BadPartition { .. })));
        assert!(matches!(
            EncodedList::encode(&l, &[0, 2]),
            Err(IndexError::BadPartition { .. })
        ));
    }

    #[test]
    fn encode_rejects_huge_gap() {
        // A d-gap of u32::MAX - 1 needs 32 bits, beyond the 5-bit width field.
        let l = list(&[(0, 1), (u32::MAX - 1, 1)]);
        assert!(matches!(EncodedList::encode(&l, &[2]), Err(IndexError::ValueTooWide { .. })));
    }

    #[test]
    fn candidate_block_binary_search() {
        let l = list(&[(1, 1), (8, 1), (19, 1), (37, 1), (48, 1), (54, 1), (76, 1)]);
        let enc = EncodedList::encode(&l, &[1; 7]).unwrap();
        // Skip values {1, 8, 19, 37, 48, 54, 76} — the Fig. 11 example.
        assert_eq!(enc.candidate_block(40), Some(3)); // block with skip 37
        assert_eq!(enc.candidate_block(64), Some(5)); // block with skip 54
        assert_eq!(enc.candidate_block(0), None);
        assert_eq!(enc.candidate_block(1), Some(0));
        assert_eq!(enc.candidate_block(1000), Some(6));
    }

    #[test]
    fn model_bits_matches_formula() {
        let l = list(&[(0, 1), (2, 2), (11, 1), (20, 9)]);
        let enc = EncodedList::encode(&l, &[4]).unwrap();
        // Gaps {0,2,9,9} -> 4 bits; tfs {1,2,1,9} -> 4 bits; 4 postings.
        assert_eq!(enc.model_bits(), (4 + 4) * 4 + 96);
    }

    #[test]
    fn zero_width_block_all_same_tf_adjacent_docs() {
        // Consecutive docIDs with gap 1 and all tf = 1: dn_bits = 1, tf_bits = 1.
        let l = list(&[(10, 1), (11, 1), (12, 1)]);
        let enc = EncodedList::encode(&l, &[3]).unwrap();
        assert_eq!(enc.metas()[0].dn_bits, 1);
        assert_eq!(enc.metas()[0].tf_bits, 1);
        assert_eq!(enc.decode_all(), l);
    }

    #[test]
    fn singleton_block_uses_zero_dn_bits() {
        let l = list(&[(1000, 1)]);
        let enc = EncodedList::encode(&l, &[1]).unwrap();
        assert_eq!(enc.metas()[0].dn_bits, 0);
        assert_eq!(enc.decode_all(), l);
    }

    #[test]
    fn width_zero_both_fields_decodes_without_reading_bits() {
        // A singleton with tf 0: dn_bits = 0 AND tf_bits = 0, so the block
        // payload is empty and the decoder must not touch any bytes.
        let l = list(&[(1000, 0)]);
        let enc = EncodedList::encode(&l, &[1]).unwrap();
        assert_eq!(enc.metas()[0].dn_bits, 0);
        assert_eq!(enc.metas()[0].tf_bits, 0);
        assert!(enc.payload().is_empty());
        assert_eq!(enc.decode_block(0), vec![Posting::new(1000, 0)]);
        assert_eq!(enc.find(1000), Some(0));
    }

    #[test]
    fn width_zero_tf_decodes_run_of_zeros() {
        // Multi-posting block with every tf 0: tf_bits = 0, docIDs still
        // delta-decode correctly.
        let l = list(&[(3, 0), (4, 0), (5, 0), (6, 0)]);
        let enc = EncodedList::encode(&l, &[4]).unwrap();
        assert_eq!(enc.metas()[0].tf_bits, 0);
        assert_eq!(enc.decode_all(), l);
        assert_eq!(enc.find(5), Some(0));
        assert_eq!(enc.find(7), None);
    }

    #[test]
    fn decode_block_into_appends_and_reuses_capacity() {
        let l = list(&[(0, 1), (2, 2), (11, 1), (20, 9), (38, 1), (46, 2)]);
        let enc = EncodedList::encode(&l, &[3, 3]).unwrap();
        let mut scratch = Vec::new();
        enc.decode_block_into(0, &mut scratch);
        enc.decode_block_into(1, &mut scratch); // appends
        assert_eq!(scratch, l.as_slice());
        let cap = scratch.capacity();
        // Reuse: clear + decode must not reallocate.
        scratch.clear();
        enc.decode_block_into(1, &mut scratch);
        assert_eq!(scratch, enc.decode_block(1));
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn try_decode_block_into_reports_corruption_not_panic() {
        let l = list(&[(0, 1), (2, 2), (11, 1), (20, 9)]);
        let enc = EncodedList::encode(&l, &[2, 2]).unwrap();
        let mut out = Vec::new();

        // Out-of-range block index.
        assert!(matches!(
            enc.try_decode_block_into(9, &mut out),
            Err(IndexError::CorruptIndex { context: "block index out of range" })
        ));

        // Offset pointing past the payload.
        let bad = tampered(&enc, |p| p.metas[1].offset = (1 << 43) - 1);
        assert!(matches!(
            bad.try_decode_block_into(1, &mut out),
            Err(IndexError::CorruptIndex { context: "payload bounds" })
        ));

        // Widths out of the packed range.
        let bad = tampered(&enc, |p| p.metas[0].dn_bits = 40);
        assert!(matches!(
            bad.try_decode_block_into(0, &mut out),
            Err(IndexError::CorruptIndex { context: "block bitwidths" })
        ));

        // A count overrunning the payload.
        let bad = tampered(&enc, |p| p.metas[1].count = MAX_BLOCK_LEN as u16);
        assert!(matches!(
            bad.try_decode_block_into(1, &mut out),
            Err(IndexError::CorruptIndex { context: "payload bounds" })
        ));

        // Every error left the scratch untouched.
        assert!(out.is_empty());
    }

    #[test]
    fn validate_accepts_encoder_output_and_catches_tampering() {
        let l = list(&[(0, 1), (2, 2), (11, 1), (20, 9), (38, 1), (46, 2)]);
        let enc = EncodedList::encode(&l, &[2, 2, 2]).unwrap();
        assert!(enc.validate().is_ok());

        let bad = tampered(&enc, |p| p.num_postings += 1);
        assert!(matches!(
            bad.validate(),
            Err(IndexError::CorruptIndex { context: "posting count mismatch" })
        ));

        let bad = tampered(&enc, |p| p.skips[1] = p.skips[0]); // not strictly increasing
        assert!(matches!(
            bad.validate(),
            Err(IndexError::CorruptIndex { context: "skip values not increasing" })
        ));

        let bad = tampered(&enc, |p| p.metas[2].offset = (1 << 43) - 1); // out of the payload
        assert!(matches!(
            bad.validate(),
            Err(IndexError::CorruptIndex { context: "payload bounds" })
        ));

        let bad = tampered(&enc, |p| {
            p.skips.pop();
        });
        assert!(matches!(
            bad.validate(),
            Err(IndexError::CorruptIndex { context: "skip/meta count mismatch" })
        ));

        let bad = tampered(&enc, |p| p.metas[0].dn_bits = 63);
        assert!(matches!(
            bad.validate(),
            Err(IndexError::CorruptIndex { context: "block bitwidths" })
        ));
    }

    #[test]
    fn compressed_bytes_accounts_overheads() {
        let l = list(&[(0, 1), (3, 1), (9, 1), (10, 1)]);
        let enc = EncodedList::encode(&l, &[2, 2]).unwrap();
        let payload = enc.payload().len() as u64;
        assert_eq!(enc.compressed_bytes(), payload + 2 * 12);
    }

    #[test]
    fn iter_streams_all_blocks() {
        let l = list(&[(0, 1), (2, 2), (11, 1), (20, 9), (38, 1), (46, 2)]);
        let enc = EncodedList::encode(&l, &[2, 3, 1]).unwrap();
        let collected: Vec<Posting> = enc.iter().collect();
        assert_eq!(collected, l.as_slice());
        // size_hint is exact at the start.
        assert_eq!(enc.iter().size_hint(), (6, Some(6)));
        let mut it = enc.iter();
        it.next();
        assert_eq!(it.size_hint().0, 5);
    }

    #[test]
    fn iter_on_empty_list() {
        let enc = EncodedList::default();
        assert_eq!(enc.iter().count(), 0);
    }

    #[test]
    fn encode_with_bitpack_is_byte_identical_to_encode() {
        let l = list(&[(0, 1), (2, 2), (11, 1), (20, 9), (38, 1), (46, 2)]);
        let a = EncodedList::encode(&l, &[2, 3, 1]).unwrap();
        let b = EncodedList::encode_with(&l, &[2, 3, 1], CodecId::BitPack).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_codec_roundtrips_decode_find_and_iter() {
        let pairs: Vec<(u32, u32)> = (0..300u32).map(|i| (i * 7 + (i % 5), i % 13)).collect();
        let l = list(&pairs);
        let lens = [vec![150usize], vec![97], vec![53]].concat();
        for codec in CodecId::ALL {
            let enc = EncodedList::encode_with(&l, &lens, codec).unwrap();
            assert!(enc.validate().is_ok(), "{codec}");
            assert_eq!(enc.decode_all(), l, "{codec}");
            assert_eq!(enc.iter().collect::<Vec<_>>(), l.as_slice(), "{codec}");
            for &(d, t) in &pairs {
                assert_eq!(enc.find(d), Some(t), "{codec} doc {d}");
            }
            assert_eq!(enc.find(1), None, "{codec}");
            assert_eq!(enc.find(u32::MAX), None, "{codec}");
        }
    }

    #[test]
    fn find_decompresses_one_block_only() {
        let l = list(&[(0, 1), (2, 2), (11, 1), (20, 9), (38, 1), (46, 2)]);
        let enc = EncodedList::encode(&l, &[2, 2, 2]).unwrap();
        assert_eq!(enc.find(20), Some(9));
        assert_eq!(enc.find(21), None);
        assert_eq!(enc.find(0), Some(1));
        assert_eq!(enc.find(46), Some(2));
        assert_eq!(enc.find(47), None);
    }

    proptest! {
        #[test]
        fn prop_iter_equals_decode_all(
            ids in proptest::collection::btree_set(0u32..1 << 20, 1..300),
        ) {
            let l = PostingList::from_sorted(
                ids.iter().map(|&d| Posting::new(d, d % 7 + 1)).collect(),
            );
            let lens = crate::partition::Partitioner::dynamic(32).partition(&l);
            let enc = EncodedList::encode(&l, &lens).unwrap();
            let streamed: Vec<Posting> = enc.iter().collect();
            prop_assert_eq!(streamed, l.into_inner());
        }

        #[test]
        fn prop_find_agrees_with_membership(
            ids in proptest::collection::btree_set(0u32..2000, 1..120),
        ) {
            let l = PostingList::from_sorted(
                ids.iter().map(|&d| Posting::new(d, d % 5 + 1)).collect(),
            );
            let lens = crate::partition::Partitioner::dynamic(8).partition(&l);
            let enc = EncodedList::encode(&l, &lens).unwrap();
            for d in 0..2000u32 {
                let expect = ids.contains(&d).then(|| d % 5 + 1);
                prop_assert_eq!(enc.find(d), expect, "doc {}", d);
            }
        }

        #[test]
        fn prop_roundtrip_random_partition(
            ids in proptest::collection::btree_set(0u32..1 << 24, 1..500),
            seed in 0u64..1000,
        ) {
            let postings: Vec<Posting> = ids
                .iter()
                .enumerate()
                .map(|(i, &d)| Posting::new(d, (seed as u32).wrapping_mul(i as u32 + 1) % 1000 + 1))
                .collect();
            let l = PostingList::from_sorted(postings);
            // Deterministic pseudo-random partition from the seed.
            let mut lens = Vec::new();
            let mut left = l.len();
            let mut s = seed.wrapping_add(1);
            while left > 0 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let take = (s >> 33) as usize % left.min(64) + 1;
                lens.push(take.min(left));
                left -= take.min(left);
            }
            let enc = EncodedList::encode(&l, &lens).unwrap();
            prop_assert_eq!(enc.decode_all(), l);
            prop_assert_eq!(enc.num_blocks(), lens.len());
        }

        /// `decode_block_into` (fused batch kernel) matches `decode_block`
        /// for every block of random lists under random partitions,
        /// including when the scratch buffer carries stale capacity.
        #[test]
        fn prop_decode_block_into_equals_decode_block(
            ids in proptest::collection::btree_set(0u32..1 << 24, 1..400),
            seed in 0u64..1000,
        ) {
            let postings: Vec<Posting> = ids
                .iter()
                .enumerate()
                .map(|(i, &d)| Posting::new(d, (seed as u32).wrapping_mul(i as u32) % 512))
                .collect();
            let l = PostingList::from_sorted(postings);
            let mut lens = Vec::new();
            let mut left = l.len();
            let mut s = seed.wrapping_add(7);
            while left > 0 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let take = ((s >> 33) as usize % left.min(97) + 1).min(left);
                lens.push(take);
                left -= take;
            }
            let enc = EncodedList::encode(&l, &lens).unwrap();
            let mut scratch = vec![Posting::new(u32::MAX, u32::MAX); 8]; // stale junk
            for b in 0..enc.num_blocks() {
                scratch.clear();
                enc.decode_block_into(b, &mut scratch);
                prop_assert_eq!(&scratch, &enc.decode_block(b), "block {}", b);
            }
        }

        #[test]
        fn prop_candidate_block_finds_members(
            ids in proptest::collection::btree_set(0u32..10_000, 2..200),
        ) {
            let l = PostingList::from_sorted(
                ids.iter().map(|&d| Posting::new(d, 1)).collect(),
            );
            let lens = [vec![7usize; l.len() / 7], vec![l.len() % 7]]
                .concat()
                .into_iter()
                .filter(|&x| x > 0)
                .collect::<Vec<_>>();
            let enc = EncodedList::encode(&l, &lens).unwrap();
            for &d in &ids {
                let b = enc.candidate_block(d).expect("member must have a candidate block");
                let decoded = enc.decode_block(b);
                prop_assert!(decoded.iter().any(|p| p.doc_id == d));
            }
        }
    }
}
