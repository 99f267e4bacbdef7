//! Error types for index construction and serialization.

use std::error::Error;
use std::fmt;

/// Errors produced while building, encoding or (de)serializing an index.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexError {
    /// A partition's block lengths do not match the posting list.
    BadPartition {
        /// Number of postings in the list being encoded.
        list_len: usize,
        /// Sum of the proposed block lengths.
        partition_sum: usize,
    },
    /// A d-gap or term frequency needs 32 or more bits; the 5-bit metadata
    /// width fields only reach 31.
    ValueTooWide {
        /// Required docID d-gap bitwidth.
        dn_bits: u8,
        /// Required term-frequency bitwidth.
        tf_bits: u8,
    },
    /// A compressed list outgrew the 43-bit payload offset field.
    ListTooLarge {
        /// Offending payload size in bytes.
        bytes: u64,
    },
    /// The serialized index bytes are malformed.
    CorruptIndex {
        /// What was being parsed when the failure occurred.
        context: &'static str,
    },
    /// A section checksum did not match its contents.
    ChecksumMismatch {
        /// Which section failed (e.g. `"header"`, `"doc length table"`,
        /// `"term record"`, `"footer"`).
        section: &'static str,
        /// The checksum stored in the file.
        expected: u32,
        /// The checksum computed over the actual bytes.
        found: u32,
    },
    /// The serialized index has an unsupported magic number or version —
    /// including the retired index formats v1–v3 and the retired
    /// round-robin shard manifests.
    UnsupportedFormat {
        /// The magic/version actually found.
        found: u64,
    },
    /// A v5 header names a block codec id other than bit-packing's 0 — one
    /// of the retired ids (1, 2) or one no build ever wrote. Distinct from
    /// [`IndexError::CorruptIndex`] because the byte is CRC-valid: the file
    /// is not damaged, it needs regenerating.
    UnknownCodec {
        /// The codec id byte actually found.
        id: u8,
    },
    /// A term was queried that the index does not contain.
    UnknownTerm {
        /// The missing term.
        term: String,
    },
    /// An index built with explicit statistics (a document shard) was
    /// given to the serializer: the file would keep neither its `avgdl`
    /// nor its `idf̄`s, so no loader could accept it.
    ExplicitStatistics,
    /// A phrase query was issued but the index has no positional sidecar
    /// (build with [`crate::BuildOptions::track_positions`]).
    PositionsUnavailable,
    /// A filesystem operation on the write path failed (WAL append/fsync,
    /// segment seal, recovery scan). The message is the stringified
    /// `std::io::Error` (which is neither `Clone` nor `Eq`).
    Io {
        /// What was being done when the failure occurred.
        context: &'static str,
        /// The underlying I/O error, stringified.
        message: String,
    },
    /// The write-ahead log contains a record that is provably corrupt —
    /// not merely torn at the tail (torn tails are truncated and recovered
    /// from, never reported as errors).
    CorruptWal {
        /// What check failed (e.g. `"record checksum"`, `"sequence gap"`).
        context: &'static str,
        /// Byte offset of the offending record's frame in the log.
        offset: u64,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::BadPartition { list_len, partition_sum } => write!(
                f,
                "partition covers {partition_sum} postings but the list has {list_len}"
            ),
            IndexError::ValueTooWide { dn_bits, tf_bits } => write!(
                f,
                "value too wide for 5-bit width fields (needs dn={dn_bits}, tf={tf_bits} bits)"
            ),
            IndexError::ListTooLarge { bytes } => {
                write!(f, "compressed list of {bytes} bytes exceeds the 43-bit offset field")
            }
            IndexError::CorruptIndex { context } => {
                write!(f, "corrupt serialized index while reading {context}")
            }
            IndexError::ChecksumMismatch { section, expected, found } => write!(
                f,
                "checksum mismatch in {section}: stored {expected:#010x}, computed {found:#010x}"
            ),
            IndexError::UnsupportedFormat { found } => {
                write!(f, "unsupported index format (magic/version {found:#x})")
            }
            IndexError::UnknownCodec { id } => {
                write!(
                    f,
                    "unknown or retired block codec id {id}: regenerate the index with \
                     `iiu gen`, `iiu build` or `iiu ingest`"
                )
            }
            IndexError::UnknownTerm { term } => write!(f, "unknown term {term:?}"),
            IndexError::ExplicitStatistics => write!(
                f,
                "an index built with explicit statistics has no loadable file: its bounds \
                 hold only under statistics the file does not keep"
            ),
            IndexError::PositionsUnavailable => {
                write!(f, "phrase queries need an index built with position tracking")
            }
            IndexError::Io { context, message } => {
                write!(f, "i/o failure while {context}: {message}")
            }
            IndexError::CorruptWal { context, offset } => {
                write!(f, "corrupt WAL record at byte offset {offset}: {context}")
            }
        }
    }
}

impl Error for IndexError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = IndexError::BadPartition { list_len: 10, partition_sum: 9 };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains('9'));
        let e = IndexError::UnknownTerm { term: "zebra".into() };
        assert!(e.to_string().contains("zebra"));
        let e = IndexError::ChecksumMismatch {
            section: "doc length table",
            expected: 0xDEAD_BEEF,
            found: 0x0BAD_F00D,
        };
        let s = e.to_string();
        assert!(s.contains("doc length table"));
        assert!(s.contains("0xdeadbeef") && s.contains("0x0badf00d"), "{s}");
        let e =
            IndexError::Io { context: "appending to the WAL", message: "disk full".into() };
        let s = e.to_string();
        assert!(s.contains("appending to the WAL") && s.contains("disk full"), "{s}");
        let e = IndexError::CorruptWal { context: "record checksum", offset: 424_242 };
        let s = e.to_string();
        assert!(s.contains("424242") && s.contains("record checksum"), "{s}");
    }

    #[test]
    fn error_is_send_sync() {
        // The full bound callers need to box and send across threads.
        fn assert_error<T: Error + Send + Sync + 'static>() {}
        assert_error::<IndexError>();
    }
}
