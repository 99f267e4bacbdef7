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
//! Every index — built in RAM, loaded onto the heap or mapped — is a set of
//! typed views of one v5 file's bytes ([`crate::io`]): the file's mapping,
//! or one owned copy of it behind the same [`Mmap`] type. The metadata words, skip
//! values and score bounds of all its lists are three columns of that file,
//! read a word at a time ([`Column`]) where they lie; nothing is copied into
//! per-block tables. An [`EncodedList`] is a handle — the shared file and
//! the list's term id, whose directory entry locates its slices of each
//! column and of the payload — so a term costs a fixed record (DESIGN.md
//! §19).
//!
//! Beside the bytes sit what a list's *first touch* checks it against: the
//! index's `dl̄` table and each list's kept verdict. The first touch is one
//! check on two schedules — the list CRC, the structural checks, then the
//! content oracle over the list's blocks — run for every list before a heap
//! load returns, and on a mapped list's first use (the policy table in
//! [`crate::io`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::marker::PhantomData;
use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bounds::{self, ListBounds};
use crate::codec::{self, BlockColumns, CodecId};
use crate::error::IndexError;
use crate::io::{self, Entry, FileWriter, Layout};
use crate::mmap::Mmap;
use crate::partition::Partitioner;
use crate::posting::{DocId, Posting, PostingList};
use crate::score::{Bm25Params, Fixed};
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

/// A word type a column of an index file stores little-endian.
pub trait LeWord: Copy {
    /// Bytes per word.
    const BYTES: usize;
    /// The word whose little-endian bytes are `bytes` (exactly
    /// [`BYTES`](Self::BYTES) of them).
    fn from_le(bytes: &[u8]) -> Self;
}

/// The `N` bytes at the front of `bytes` (which holds at least `N`).
pub(crate) fn le<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut word = [0; N];
    word.copy_from_slice(&bytes[..N]);
    word
}

impl LeWord for u32 {
    const BYTES: usize = 4;
    #[inline]
    fn from_le(bytes: &[u8]) -> Self {
        u32::from_le_bytes(le(bytes))
    }
}

impl LeWord for u64 {
    const BYTES: usize = 8;
    #[inline]
    fn from_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes(le(bytes))
    }
}

impl LeWord for Fixed {
    const BYTES: usize = 4;
    #[inline]
    fn from_le(bytes: &[u8]) -> Self {
        Fixed::from_raw(u32::from_le_bytes(le(bytes)))
    }
}

impl LeWord for BlockMeta {
    const BYTES: usize = 8;
    #[inline]
    fn from_le(bytes: &[u8]) -> Self {
        BlockMeta::unpack(u64::from_le_bytes(le(bytes)))
    }
}

/// A typed view of a run of little-endian words of an index file — one
/// list's slice of a metadata, skip or bound column — that reads each word
/// where it lies, on access. Copying it copies the view, not the words.
#[derive(Clone, Copy)]
pub struct Column<'a, T> {
    bytes: &'a [u8],
    word: PhantomData<T>,
}

/// One list's metadata words.
pub type Metas<'a> = Column<'a, BlockMeta>;
/// One list's skip values: the raw first docID of each block.
pub type Skips<'a> = Column<'a, DocId>;

/// The iterator of a [`Column`]'s words, in order.
pub type ColumnIter<'a, T> = std::iter::Map<std::slice::ChunksExact<'a, u8>, fn(&[u8]) -> T>;

impl<T> Default for Column<'_, T> {
    fn default() -> Self {
        Column { bytes: &[], word: PhantomData }
    }
}

impl<'a, T: LeWord> Column<'a, T> {
    /// The whole words of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        let whole = bytes.len() / T::BYTES * T::BYTES;
        Column { bytes: bytes.get(..whole).unwrap_or(&[]), word: PhantomData }
    }

    /// Number of words.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / T::BYTES
    }

    /// True when the column holds no word.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Word `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        (i < self.len()).then(|| self.word(i))
    }

    /// Word `i`, which is in range.
    #[inline]
    fn word(&self, i: usize) -> T {
        T::from_le(&self.bytes[i * T::BYTES..(i + 1) * T::BYTES])
    }

    /// Word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, as slice indexing does.
    #[inline]
    pub fn at(&self, i: usize) -> T {
        match self.get(i) {
            Some(word) => word,
            None => panic!("column index {i} out of range for length {}", self.len()),
        }
    }

    /// The first word.
    pub fn first(&self) -> Option<T> {
        self.get(0)
    }

    /// The last word.
    pub fn last(&self) -> Option<T> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// The words in order.
    pub fn iter(&self) -> ColumnIter<'a, T> {
        self.bytes.chunks_exact(T::BYTES).map(T::from_le as fn(&[u8]) -> T)
    }

    /// Words `range`, cut to the words there are.
    pub fn slice(&self, range: Range<usize>) -> Self {
        let end = range.end.min(self.len());
        let start = range.start.min(end);
        Column {
            bytes: self.bytes.get(start * T::BYTES..end * T::BYTES).unwrap_or(&[]),
            word: PhantomData,
        }
    }

    /// The index of the first word for which `pred` is false, in a column
    /// where `pred` holds for a prefix: [`slice::partition_point`].
    #[inline]
    pub fn partition_point(&self, mut pred: impl FnMut(T) -> bool) -> usize {
        // Halving with a conditional move, as the standard library's does.
        let (mut base, mut size) = (0, self.len());
        if size == 0 {
            return 0;
        }
        while size > 1 {
            let half = size / 2;
            let mid = base + half;
            base = if pred(self.word(mid)) { mid } else { base };
            size -= half;
        }
        base + usize::from(pred(self.word(base)))
    }

    /// The words, copied out.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }

    /// The bytes the words are read from.
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

impl<'a, T: LeWord> IntoIterator for Column<'a, T> {
    type Item = T;
    type IntoIter = ColumnIter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Equality is over the words, wherever they lie.
impl<T> PartialEq for Column<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl<T> Eq for Column<'_, T> {}

impl<T: LeWord + std::fmt::Debug> std::fmt::Debug for Column<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The one v5 file behind every [`EncodedList`] and [`ListBounds`] of an
/// index, its sections located ([`Layout`]), and beside it what a list's
/// first touch holds the list to: the `dl̄` table, the list's term
/// constant, and the verdict it keeps.
#[derive(Debug)]
pub(crate) struct Store {
    /// The index file's mapping, or an owned copy ([`Mmap::from_vec`]).
    bytes: Arc<Mmap>,
    layout: Layout,
    /// One first-touch verdict per list: [`UNVERIFIED`], [`VERIFIED`],
    /// [`FAULT`] with the fault's slot in [`KEPT_FAULTS`] in the high 32
    /// bits, or [`CHECKSUM_BAD`] with the computed CRC there.
    verdicts: Box<[AtomicU64]>,
    /// One `dl̄` per document of the index, shared with the index.
    dl_bars: Arc<[Fixed]>,
    /// One term constant per list: a function of its df and the header,
    /// or the explicit statistics a build was given
    /// ([`crate::InvertedIndex::from_lists_with_stats`]).
    idf_bars: Box<[Fixed]>,
}

const UNVERIFIED: u64 = 0;
const VERIFIED: u64 = 1;
const FAULT: u64 = 2;
const CHECKSUM_BAD: u64 = 3;

/// The `CorruptIndex` contexts a first touch names past its list CRC, so
/// that a kept verdict names the same one again. A fault not listed here
/// is not kept, and the next touch runs the check again.
const KEPT_FAULTS: [&str; 8] = [
    "docIDs not increasing",
    "posting list references docID beyond corpus",
    "score bounds mismatch",
    "block bitwidths",
    "block count",
    "payload bounds",
    "posting count mismatch",
    "skip values not increasing",
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

impl Store {
    /// The store over `bytes`, whose sections `layout` locates, with
    /// `verified` lists (an index as built) or lists that still owe their
    /// first touch.
    pub(crate) fn new(
        bytes: Arc<Mmap>,
        layout: Layout,
        dl_bars: Arc<[Fixed]>,
        idf_bars: Vec<Fixed>,
        verified: bool,
    ) -> Self {
        let initial = if verified { VERIFIED } else { UNVERIFIED };
        let verdicts = (0..layout.n_terms).map(|_| AtomicU64::new(initial)).collect();
        Store { bytes, layout, verdicts, dl_bars, idf_bars: idf_bars.into() }
    }

    /// The file bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// The mapping or owned copy the bytes live in.
    pub(crate) fn backing(&self) -> &Arc<Mmap> {
        &self.bytes
    }

    /// The file's sections.
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The term name of list `id`, as bytes.
    #[inline]
    pub(crate) fn name_bytes(&self, id: u32) -> &[u8] {
        self.layout.name(self.bytes(), id as usize)
    }

    /// The term name of list `id`: UTF-8, as the open checked.
    pub(crate) fn name(&self, id: u32) -> &str {
        std::str::from_utf8(self.name_bytes(id)).unwrap_or("")
    }

    /// The term constant of list `id`.
    pub(crate) fn idf_bar(&self, id: u32) -> Fixed {
        self.idf_bars.get(id as usize).copied().unwrap_or(Fixed::ZERO)
    }

    /// Heap bytes of this store beside the `dl̄` table it shares: its
    /// per-term records, and the file bytes it owns (0 for a mapping).
    pub(crate) fn heap_bytes(&self) -> (u64, u64) {
        let per_term = self.verdicts.len() * size_of::<AtomicU64>()
            + self.idf_bars.len() * size_of::<Fixed>();
        (per_term as u64, self.bytes.heap_bytes())
    }
}

/// One list's columns and payload: what the decode and validation kernels
/// run on, and the handle a query walk holds for a whole query. The public
/// way to one is [`EncodedList::verified`], which runs the list's deferred
/// checks first, so that a walk checks a list once rather than at every
/// block and reads its directory entry once rather than at every decode.
#[derive(Debug, Clone, Copy)]
pub struct ListView<'a> {
    metas: Metas<'a>,
    skips: Skips<'a>,
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
    pub fn metas(&self) -> Metas<'a> {
        self.metas
    }

    /// Skip list: the raw first docID of each block.
    pub fn skips(&self) -> Skips<'a> {
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
            lo => self.skips.partition_point(|s| s <= lo).saturating_sub(1),
        };
        let end = if window.hi() >= DOC_END {
            self.skips.len()
        } else {
            self.skips.partition_point(|s| u64::from(s) < window.hi())
        };
        start..end
    }

    /// Block `idx`'s metadata, skip value and payload bytes: from the
    /// block's offset to the end of the list payload, not the block's own
    /// bytes, so that its last pairs load full windows (the masks keep
    /// the next block's bits out).
    #[inline]
    fn block(&self, idx: usize) -> Result<(BlockMeta, DocId, &'a [u8]), IndexError> {
        let meta = self
            .metas
            .get(idx)
            .ok_or(IndexError::CorruptIndex { context: "block index out of range" })?;
        let skip = self
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
        if self.skips.get(idx).is_some_and(|s| s < window.lo()) {
            let below = out[from..].partition_point(|p| p.doc_id < window.lo());
            out.drain(from..from + below);
        }
        if self.skips.get(idx + 1).map_or(DOC_END, u64::from) > window.hi() {
            let keep = out[from..].partition_point(|p| u64::from(p.doc_id) < window.hi());
            out.truncate(from + keep);
        }
        Ok(decoded)
    }

    /// [`EncodedList::find`] minus the deferred checks: the candidate
    /// block's decode and a binary search of it.
    fn find(&self, doc_id: DocId) -> Option<u32> {
        let block = self.skips.partition_point(|s| s <= doc_id).checked_sub(1)?;
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
        let mut skips = self.skips.iter();
        if let Some(mut prev) = skips.next() {
            for skip in skips {
                if prev >= skip {
                    return Err(IndexError::CorruptIndex {
                        context: "skip values not increasing",
                    });
                }
                prev = skip;
            }
        }
        Ok(())
    }
}

/// A posting list compressed with the IIU scheme: block metadata, skip list
/// and a byte-aligned bit-packed payload.
///
/// A handle on its index's file (or, for a list encoded on its own, a
/// one-list file of its own) and its directory entry's windows, read once
/// at open: cloning it copies the handle, not the bytes.
#[derive(Clone)]
pub struct EncodedList {
    store: Arc<Store>,
    id: u32,
    /// The list's blocks in every column.
    first: u32,
    blocks: u32,
    /// The list's payload, as absolute offsets into the file.
    payload: (usize, usize),
}

/// This list's slices of the file, not the whole index's.
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
        // An empty list encodes whatever the partition; it cannot fail.
        EncodedList::encode(&PostingList::new(), &[]).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Equality is over logical content (structure + payload bytes);
/// where the file lives (heap vs mapping, shared or not) and
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
    /// The list is written as the one list of a v5 file of its own, over an
    /// empty corpus, and viewed there as an index's lists are.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::ValueTooWide`] if a docID or tf needs 32 or
    /// more bits (the 5-bit metadata width fields top out at 31), and
    /// [`IndexError::BadPartition`] if `block_lens` is inconsistent with the
    /// list length or violates [`MAX_BLOCK_LEN`].
    pub fn encode(list: &PostingList, block_lens: &[usize]) -> Result<Self, IndexError> {
        let (partitioner, params) = (Partitioner::default(), Bm25Params::default());
        let mut file = FileWriter::new(Vec::new(), &[], 1, partitioner, params)?;
        file.push("", list.as_slice(), block_lens, Fixed::ZERO, &[])?;
        let bytes = Arc::new(Mmap::from_vec(file.finish()?));
        let layout = io::parse(bytes.as_slice())?;
        let store = Store::new(bytes, layout, Arc::default(), vec![Fixed::ZERO], true);
        let entry = store.layout().entries(store.bytes()).next().unwrap_or_default();
        Ok(EncodedList::new(&Arc::new(store), 0, &entry))
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

    /// The handle of list `id` of `store`, whose directory entry is
    /// `entry`.
    pub(crate) fn new(store: &Arc<Store>, id: u32, entry: &Entry) -> Self {
        EncodedList {
            store: Arc::clone(store),
            id,
            first: entry.blocks.start as u32,
            blocks: entry.blocks.len() as u32,
            payload: (entry.payload.start, entry.payload.end),
        }
    }

    /// The list's blocks in every column.
    fn block_range(&self) -> Range<usize> {
        self.first as usize..self.first as usize + self.blocks as usize
    }

    #[cfg(test)]
    pub(crate) fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The list's view.
    #[inline]
    fn view(&self) -> ListView<'_> {
        ListView {
            metas: self.metas(),
            skips: self.skips(),
            payload: self.payload(),
            num_postings: self.num_postings(),
        }
    }

    /// The list's stored block bounds.
    pub(crate) fn bounds(&self) -> ListBounds<'_> {
        let (layout, bytes, blocks) =
            (self.store.layout(), self.store.bytes(), self.block_range());
        ListBounds::new(layout.ubs(bytes, blocks.clone()), layout.max_tfs(bytes, blocks))
    }

    /// Runs the list's deferred first touch, if it still owes one (lists
    /// served from a mapped file), once, and keeps the verdict: the list
    /// CRC, the structural checks ([`EncodedList::validate`]), then the
    /// content oracle — every block decoded once, docIDs strictly
    /// increasing and inside the corpus, and the stored block bounds equal
    /// to the ones they give. A heap-loaded list ran the same check before
    /// its load returned, and a built one computed its bounds, so both
    /// return `Ok` unconditionally. Engines call this at term-resolve time
    /// so corruption surfaces as a typed error before any panicking decode
    /// wrapper runs; the decode entry points below also call it as defense
    /// in depth, once per block. A query walk instead takes
    /// [`EncodedList::verified`] once per list and decodes through that
    /// view, so the check runs once per list per query.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::ChecksumMismatch`] on a corrupt list, and
    /// [`IndexError::CorruptIndex`] when a structural check fails, a block
    /// fails to decode, its docIDs are out of order or beyond the corpus
    /// (`docIDs not increasing`, `posting list references docID beyond
    /// corpus`), or the stored bounds differ (`score bounds mismatch`).
    #[inline]
    pub fn ensure_verified(&self) -> Result<(), IndexError> {
        let Some(verdict) = self.store.verdicts.get(self.id as usize) else {
            return Ok(());
        };
        let verdict = verdict.load(Ordering::Acquire);
        if verdict == VERIFIED {
            return Ok(());
        }
        self.kept_or_touch(verdict)
    }

    /// The kept verdict other than [`VERIFIED`], or the first touch when
    /// there is none yet.
    #[cold]
    fn kept_or_touch(&self, verdict: u64) -> Result<(), IndexError> {
        let high = (verdict >> 32) as u32;
        match verdict & u64::from(u32::MAX) {
            UNVERIFIED => self.touch(&mut BlockColumns::default()),
            FAULT => Err(IndexError::CorruptIndex { context: KEPT_FAULTS[high as usize] }),
            _ => Err(IndexError::ChecksumMismatch {
                section: "term record",
                expected: self.store.layout().crc(self.store.bytes(), self.id as usize),
                found: high,
            }),
        }
    }

    /// The first touch, its verdict kept.
    pub(crate) fn touch(&self, cols: &mut BlockColumns) -> Result<(), IndexError> {
        let outcome = self.first_touch(cols);
        if let Some(verdict) = self.store.verdicts.get(self.id as usize) {
            verdict.store(kept(&outcome), Ordering::Release);
        }
        outcome
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

    /// The list's first touch, the one check both backings hold a list to
    /// and the one caller of the content oracle ([`bounds::matches`]): the
    /// list CRC over its column slices and payload, the structural checks,
    /// then one pass over the blocks with `cols` as its decode buffer. Not
    /// kept; [`EncodedList::touch`] keeps it. Concurrent racers recompute
    /// harmlessly: the outcome is a pure function of immutable bytes.
    pub(crate) fn first_touch(&self, cols: &mut BlockColumns) -> Result<(), IndexError> {
        let store = &self.store;
        let (layout, bytes) = (store.layout(), store.bytes());
        let found = layout.list_crc(bytes, self.block_range(), self.payload());
        let expected = layout.crc(bytes, self.id as usize);
        if found != expected {
            return Err(IndexError::ChecksumMismatch {
                section: "term record",
                expected,
                found,
            });
        }
        let view = self.view();
        view.validate()?;
        let idf_bar = store.idf_bar(self.id);
        bounds::matches(self.bounds(), view, idf_bar, &store.dl_bars, cols)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks as usize
    }

    /// Number of postings across all blocks.
    pub fn num_postings(&self) -> u64 {
        self.store.layout().df(self.store.bytes(), self.id as usize)
    }

    /// Block metadata words.
    pub fn metas(&self) -> Metas<'_> {
        self.store.layout().metas(self.store.bytes(), self.block_range())
    }

    /// Skip list: the raw first docID of each block.
    #[inline]
    pub fn skips(&self) -> Skips<'_> {
        self.store.layout().skips(self.store.bytes(), self.block_range())
    }

    /// The bit-packed payload bytes (borrowed from the heap or straight
    /// from a file mapping, depending on how the list was loaded).
    pub fn payload(&self) -> &[u8] {
        self.store.bytes().get(self.payload.0..self.payload.1).unwrap_or(&[])
    }

    /// True when the payload is served from a file mapping rather than
    /// owned heap bytes.
    pub fn is_mapped(&self) -> bool {
        self.store.backing().is_mapped()
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
        self.skips().partition_point(|s| s <= doc_id).checked_sub(1)
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
        // A mapped list whose deferred check fails reports "absent"
        // rather than panicking; engines surface the typed error via
        // `ensure_verified` at resolve time.
        self.verified().ok()?.find(doc_id)
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
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A list of the parts given, written as the one list of a file of its
    /// own with nothing checked — the way a hostile file would present
    /// them — and held as verified, so only the decoders stand guard.
    pub(crate) fn from_parts(
        metas: &[BlockMeta],
        skips: &[DocId],
        payload: &[u8],
        num_postings: u64,
    ) -> EncodedList {
        let blocks: Vec<_> =
            metas.iter().zip(skips).map(|(m, &s)| (m.pack(), s, Fixed::ZERO, 0)).collect();
        let (partitioner, params) = (Partitioner::default(), Bm25Params::default());
        let mut file = FileWriter::new(Vec::new(), &[], 1, partitioner, params).unwrap();
        io::tests::push_raw(&mut file, "", num_postings, &blocks, payload);
        let bytes = Arc::new(Mmap::from_vec(file.finish().unwrap()));
        let layout = io::parse(bytes.as_slice()).unwrap();
        let store = Store::new(bytes, layout, Arc::default(), vec![Fixed::ZERO], true);
        let entry = store.layout().entries(store.bytes()).next().unwrap();
        EncodedList::new(&Arc::new(store), 0, &entry)
    }

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

    /// `enc` with its parts edited ([`from_parts`]).
    fn tampered(enc: &EncodedList, edit: impl FnOnce(&mut Parts)) -> EncodedList {
        let mut parts = Parts {
            metas: enc.metas().to_vec(),
            skips: enc.skips().to_vec(),
            payload: enc.payload().to_vec(),
            num_postings: enc.num_postings(),
        };
        edit(&mut parts);
        from_parts(&parts.metas, &parts.skips, &parts.payload, parts.num_postings)
    }

    #[test]
    fn a_list_handle_is_a_file_a_term_id_and_its_windows() {
        // A term's whole heap cost past the dictionary: this handle and
        // its verdict.
        assert_eq!(std::mem::size_of::<EncodedList>(), 40);
    }

    #[test]
    fn a_column_reads_words_where_they_lie() {
        let bytes: Vec<u8> = [3u32, 9, 27, 81].iter().flat_map(|w| w.to_le_bytes()).collect();
        // An unaligned start and a trailing partial word.
        let padded = [&[0u8][..], &bytes, &[7, 7]].concat();
        let col = Column::<u32>::new(&padded[1..]);
        assert_eq!(col.len(), 4);
        assert_eq!(col.to_vec(), vec![3, 9, 27, 81]);
        assert_eq!((col.get(3), col.get(4)), (Some(81), None));
        assert_eq!((col.first(), col.last()), (Some(3), Some(81)));
        assert_eq!(col.slice(1..3).to_vec(), vec![9, 27]);
        assert_eq!(col.slice(3..9).to_vec(), vec![81]);
        assert!(col.slice(5..9).is_empty());
        for target in 0..90 {
            let want = [3u32, 9, 27, 81].partition_point(|&w| w <= target);
            assert_eq!(col.partition_point(|w| w <= target), want, "{target}");
        }
        assert_eq!(col, Column::new(&bytes));
        assert_eq!(format!("{col:?}"), "[3, 9, 27, 81]");
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
        assert_eq!(enc.skips().to_vec(), vec![7]);
        // Max d-gap is 123 (7 bits), max tf is 11 (4 bits).
        assert_eq!(enc.metas().at(0).dn_bits, 7);
        assert_eq!(enc.metas().at(0).tf_bits, 4);
        assert_eq!(enc.decode_all(), l);
    }

    #[test]
    fn encode_multi_block_roundtrip() {
        let l = list(&[(0, 1), (2, 2), (11, 1), (20, 9), (38, 1), (46, 2)]);
        let enc = EncodedList::encode(&l, &[2, 3, 1]).unwrap();
        assert_eq!(enc.num_blocks(), 3);
        assert_eq!(enc.skips().to_vec(), vec![0, 11, 46]);
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
        assert_eq!(enc.metas().at(0).dn_bits, 1);
        assert_eq!(enc.metas().at(0).tf_bits, 1);
        assert_eq!(enc.decode_all(), l);
    }

    #[test]
    fn singleton_block_uses_zero_dn_bits() {
        let l = list(&[(1000, 1)]);
        let enc = EncodedList::encode(&l, &[1]).unwrap();
        assert_eq!(enc.metas().at(0).dn_bits, 0);
        assert_eq!(enc.decode_all(), l);
    }

    #[test]
    fn width_zero_both_fields_decodes_without_reading_bits() {
        // A singleton with tf 0: dn_bits = 0 AND tf_bits = 0, so the block
        // payload is empty and the decoder must not touch any bytes.
        let l = list(&[(1000, 0)]);
        let enc = EncodedList::encode(&l, &[1]).unwrap();
        assert_eq!(enc.metas().at(0).dn_bits, 0);
        assert_eq!(enc.metas().at(0).tf_bits, 0);
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
        assert_eq!(enc.metas().at(0).tf_bits, 0);
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
