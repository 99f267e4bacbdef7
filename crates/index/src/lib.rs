//! Inverted-index substrate for the IIU reproduction.
//!
//! This crate implements the *indexing scheme* half of the IIU
//! hardware/software co-design (Heo et al., ASPLOS 2020, §3):
//!
//! * posting lists of `(docID, term-frequency)` tuples ([`Posting`],
//!   [`PostingList`]);
//! * delta (d-gap) encoding of docIDs ([`delta`]);
//! * per-block bit-packing of `(d-gap, tf)` pairs ([`bitpack`], [`block`]);
//! * the block codec: encode, one-window-per-pair decode and the cost
//!   model of the bit-packed blocks ([`codec`]);
//! * the dynamic-programming block partitioner minimizing
//!   `C(B_i) = (b_dn + b_tf) · |B_i| + 96` bits ([`partition`]);
//! * per-block metadata words (5 + 5 + 11 + 43 bits) and skip lists
//!   ([`block::BlockMeta`], [`block::EncodedList`]);
//! * BM25 scoring with the hardware's precomputed sub-expressions and
//!   Q16.16 fixed-point arithmetic ([`score`]);
//! * an index builder, tokenizer and binary file format ([`builder`],
//!   [`tokenize`], [`io`]).
//!
//! # Example
//!
//! ```
//! use iiu_index::{IndexBuilder, BuildOptions};
//!
//! let mut builder = IndexBuilder::new(BuildOptions::default());
//! builder.add_document("the quick brown fox");
//! builder.add_document("the lazy dog");
//! builder.add_document("the quick dog");
//! let index = builder.build();
//!
//! let list = index.decode_term("quick").unwrap();
//! assert_eq!(list.iter().map(|p| p.doc_id).collect::<Vec<_>>(), vec![0, 2]);
//! ```

// The hardened load/query modules (io, checksum, faultinject, index,
// block, bounds) re-deny unwrap/expect locally; the rest of the crate documents its
// panics instead. verify.sh runs clippy with -D clippy::unwrap_used
// -D clippy::expect_used, which these scoped attributes focus on the
// modules where a panic would take down a serving thread.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod bitpack;
pub mod block;
pub mod bounds;
pub mod builder;
pub mod checksum;
pub mod codec;
pub mod delta;
pub mod error;
pub mod faultinject;
pub mod incremental;
pub mod index;
pub mod io;
pub mod memtable;
pub mod mmap;
pub mod partition;
pub mod positions;
pub mod posting;
pub mod recovery;
pub mod reorder;
pub mod score;
pub mod segment;
pub mod shard;
pub mod stats;
pub mod storage;
pub mod tokenize;
pub mod wal;

pub use block::{BlockMeta, EncodedList};
pub use bounds::ListBounds;
pub use builder::{BuildOptions, IndexBuilder};
pub use checksum::{crc32, Crc32};
pub use codec::CodecId;
pub use error::IndexError;
pub use faultinject::{
    corrupt, mapped_survival_report, survival_report, Corruption, MappedSurvivalReport,
    ShardChaosPlan, SplitMix64, SurvivalReport,
};
pub use incremental::{IncrementalIndex, IncrementalOptions};
pub use index::{IndexSource, InvertedIndex, TermId, TermInfo};
pub use memtable::WriteBuffer;
pub use mmap::Mmap;
pub use partition::Partitioner;
pub use positions::{PositionIndex, PositionList};
pub use posting::{DocId, Posting, PostingList, TermFreq};
pub use recovery::RecoveryReport;
pub use score::{Bm25Params, Fixed};
pub use segment::{LoadedSegment, SegmentMeta};
pub use shard::{DocWindow, ShardedIndex, DOC_END};
pub use stats::{HeapBytes, IndexSizeStats};
pub use wal::{IngestDoc, Wal, WalReplay};
