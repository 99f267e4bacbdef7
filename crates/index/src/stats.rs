//! Size accounting for compressed indexes (feeds Table 2 and Fig. 14).

/// Aggregate storage statistics for an index or a set of posting lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexSizeStats {
    /// Total postings across all lists.
    pub postings: u64,
    /// Size of the postings stored uncompressed (8 B each).
    pub uncompressed_bytes: u64,
    /// Bit-packed payload bytes.
    pub payload_bytes: u64,
    /// Per-block 64-bit metadata words, in bytes.
    pub metadata_bytes: u64,
    /// Per-block 32-bit skip values, in bytes.
    pub skip_bytes: u64,
    /// Exact cost under the paper's Eq. 3 model, in bits.
    pub model_bits: u64,
    /// Total number of blocks.
    pub num_blocks: u64,
}

impl IndexSizeStats {
    /// Total physical compressed size (payload + metadata + skips).
    pub fn compressed_bytes(&self) -> u64 {
        self.payload_bytes + self.metadata_bytes + self.skip_bytes
    }

    /// The paper's compression ratio: uncompressed size over compressed
    /// size (higher is better; Table 2).
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes() == 0 {
            return 0.0;
        }
        self.uncompressed_bytes as f64 / self.compressed_bytes() as f64
    }

    /// Compression ratio under the exact bit-cost model (no byte
    /// alignment), matching the DP objective.
    pub fn model_compression_ratio(&self) -> f64 {
        if self.model_bits == 0 {
            return 0.0;
        }
        (self.uncompressed_bytes * 8) as f64 / self.model_bits as f64
    }

    /// Achieved storage cost in bits per posting across the physical
    /// compressed sections (payload + metadata + skips).
    pub fn bits_per_posting(&self) -> f64 {
        if self.postings == 0 {
            return 0.0;
        }
        (self.compressed_bytes() * 8) as f64 / self.postings as f64
    }

    /// Average postings per block (the lever Fig. 14 sweeps via `maxSize`).
    pub fn avg_block_len(&self) -> f64 {
        if self.num_blocks == 0 {
            return 0.0;
        }
        self.postings as f64 / self.num_blocks as f64
    }
}

/// Where an opened index's heap memory is
/// ([`crate::InvertedIndex::heap_bytes`]): the bytes each of its tables
/// requested. A mapped index's file lives in the mapping, not here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapBytes {
    /// Per-term records: list handles, kept first-touch verdicts, and the
    /// term constants of an index built with explicit statistics.
    pub terms: u64,
    /// The dictionary's term-id table.
    pub dictionary: u64,
    /// Document-length and `dl̄` tables.
    pub doc_tables: u64,
    /// File bytes owned on the heap (0 for a mapped index).
    pub file: u64,
}

impl HeapBytes {
    /// All of it.
    pub fn total(&self) -> u64 {
        self.terms + self.dictionary + self.doc_tables + self.file
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty() {
        let s = IndexSizeStats::default();
        assert_eq!(s.compression_ratio(), 0.0);
        assert_eq!(s.model_compression_ratio(), 0.0);
        assert_eq!(s.avg_block_len(), 0.0);
    }

    #[test]
    fn ratio_math() {
        let s = IndexSizeStats {
            postings: 100,
            uncompressed_bytes: 800,
            payload_bytes: 60,
            metadata_bytes: 16,
            skip_bytes: 8,
            model_bits: 640,
            num_blocks: 2,
        };
        assert_eq!(s.compressed_bytes(), 84);
        assert!((s.compression_ratio() - 800.0 / 84.0).abs() < 1e-12);
        assert!((s.model_compression_ratio() - 6400.0 / 640.0).abs() < 1e-12);
        assert_eq!(s.avg_block_len(), 50.0);
    }
}
