//! Frontend of the IIU: Block Reader and Block Scheduler (paper §4.3,
//! Fig. 8).
//!
//! The Block Reader (BR) streams a compressed posting list through a small
//! window of 64-byte stream-buffer entries. Every entry carries a fetch
//! counter: it is evicted — and the next line eagerly prefetched — only
//! once every block overlapping the entry has fetched it. The Block
//! Scheduler (B-SCH) streams the per-block metadata and skip values and
//! dispatches blocks to free decompression units.

use iiu_index::block::BlockMeta;

use crate::dram::LINE_BYTES;

/// A sliding-window stream over one contiguous memory region.
///
/// Lines are requested in order (bounded by the window), arrive possibly
/// out of order, and are consumed by `fetch`; a line's slot is recycled
/// once its precomputed consumer count reaches zero.
#[derive(Debug)]
pub struct StreamBuffer {
    base_addr: u64,
    total_lines: usize,
    window: usize,
    /// First line whose consumers are not all done.
    head: usize,
    /// Next line to request.
    next_issue: usize,
    valid: Vec<bool>,
    consumers_left: Vec<u32>,
    /// Stalled cycles where a consumer wanted a line that was not valid.
    pub stall_cycles: u64,
}

impl StreamBuffer {
    /// Creates a stream over `[base_addr, base_addr + len_bytes)` with the
    /// given per-line consumer counts (one count per 64-byte line).
    ///
    /// # Panics
    ///
    /// Panics if `consumers` does not cover the region or the window is 0.
    pub fn new(base_addr: u64, len_bytes: u64, consumers: Vec<u32>, window: usize) -> Self {
        assert!(window > 0, "stream window must be positive");
        assert_eq!(base_addr % LINE_BYTES, 0, "stream base must be line-aligned");
        let total_lines = len_bytes.div_ceil(LINE_BYTES) as usize;
        assert_eq!(consumers.len(), total_lines, "one consumer count per line");
        StreamBuffer {
            base_addr,
            total_lines,
            window,
            head: 0,
            next_issue: 0,
            valid: vec![false; total_lines],
            consumers_left: consumers,
            stall_cycles: 0,
        }
    }

    /// An empty stream (no lines).
    pub fn empty() -> Self {
        StreamBuffer {
            base_addr: 0,
            total_lines: 0,
            window: 1,
            head: 0,
            next_issue: 0,
            valid: Vec::new(),
            consumers_left: Vec::new(),
            stall_cycles: 0,
        }
    }

    /// Address of the next line to request, if the window has room.
    pub fn want_issue(&self) -> Option<u64> {
        if self.next_issue < self.total_lines && self.next_issue < self.head + self.window {
            Some(self.base_addr + self.next_issue as u64 * LINE_BYTES)
        } else {
            None
        }
    }

    /// Marks the line returned by [`StreamBuffer::want_issue`] as issued.
    pub fn mark_issued(&mut self) {
        self.next_issue += 1;
    }

    /// Records the arrival of the line at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the stream.
    pub fn deliver(&mut self, addr: u64) {
        let rel = ((addr - self.base_addr) / LINE_BYTES) as usize;
        assert!(rel < self.total_lines, "delivery outside stream");
        self.valid[rel] = true;
    }

    /// A consumer attempts to fetch line `rel`; returns true on success
    /// (counts one consumption), false if the line has not arrived yet or
    /// is beyond the current window.
    ///
    /// # Panics
    ///
    /// Panics if the line was already fully consumed (caller accounting
    /// bug).
    pub fn fetch(&mut self, rel: usize) -> bool {
        if rel >= self.next_issue || !self.valid[rel] {
            self.stall_cycles += 1;
            return false;
        }
        assert!(
            self.consumers_left[rel] > 0,
            "line {rel} fetched more times than its consumer count"
        );
        self.consumers_left[rel] -= 1;
        while self.head < self.total_lines && self.consumers_left[self.head] == 0 {
            self.head += 1;
        }
        true
    }

    /// Relative line index for an absolute address within the stream.
    pub fn rel_line(&self, addr: u64) -> usize {
        ((addr - self.base_addr) / LINE_BYTES) as usize
    }

    /// Whether every line has been issued and consumed.
    pub fn is_done(&self) -> bool {
        self.head >= self.total_lines
    }

    /// Total lines in the stream.
    pub fn total_lines(&self) -> usize {
        self.total_lines
    }
}

/// Computes per-line consumer counts for a payload region: each block
/// consumes every line its byte range overlaps.
pub fn payload_consumers(
    metas: impl IntoIterator<Item = BlockMeta>,
    payload_len: u64,
) -> Vec<u32> {
    let total_lines = payload_len.div_ceil(LINE_BYTES) as usize;
    let mut counts = vec![0u32; total_lines];
    for meta in metas {
        let start = meta.offset;
        let end = meta.offset + meta.payload_bytes().max(1);
        let first = (start / LINE_BYTES) as usize;
        let last = ((end - 1) / LINE_BYTES) as usize;
        for c in counts.iter_mut().take(last + 1).skip(first) {
            *c += 1;
        }
    }
    counts
}

/// The Block Scheduler's view of one list: it streams metadata words and
/// skip values and exposes how many *complete* block descriptors have
/// arrived.
#[derive(Debug)]
pub struct BlockScheduler {
    /// Metadata stream (8 bytes per block).
    pub meta_stream: StreamBuffer,
    /// Skip-value stream (4 bytes per block).
    pub skip_stream: StreamBuffer,
    num_blocks: usize,
    meta_lines_fetched: usize,
    skip_lines_fetched: usize,
    /// Next block index to dispatch.
    pub next_block: usize,
    /// Max blocks buffered ahead of dispatch; beyond it, reads stall
    /// (the paper's "B-SCH buffer is full, future reads are stalled").
    backlog_cap: usize,
}

impl BlockScheduler {
    /// Creates a scheduler for a list with `num_blocks` blocks whose
    /// metadata and skip arrays live at the given bases.
    pub fn new(meta_base: u64, skip_base: u64, num_blocks: usize, window: usize) -> Self {
        let meta_lines = (num_blocks as u64 * 8).div_ceil(LINE_BYTES);
        let skip_lines = (num_blocks as u64 * 4).div_ceil(LINE_BYTES);
        BlockScheduler {
            meta_stream: StreamBuffer::new(
                meta_base,
                num_blocks as u64 * 8,
                vec![1; meta_lines as usize],
                window,
            ),
            skip_stream: StreamBuffer::new(
                skip_base,
                num_blocks as u64 * 4,
                vec![1; skip_lines as usize],
                window,
            ),
            num_blocks,
            meta_lines_fetched: 0,
            skip_lines_fetched: 0,
            next_block: 0,
            backlog_cap: window * 16,
        }
    }

    /// Consumes arrived lines into the fetched prefix (the B-SCH reads its
    /// own streams; one line per stream per cycle). Stalls once the
    /// undispatched backlog reaches the buffer capacity.
    pub fn absorb(&mut self) {
        if self.blocks_ready().saturating_sub(self.next_block) >= self.backlog_cap {
            return;
        }
        if self.meta_lines_fetched < self.meta_stream.total_lines()
            && self.meta_stream.fetch(self.meta_lines_fetched)
        {
            self.meta_lines_fetched += 1;
        }
        if self.skip_lines_fetched < self.skip_stream.total_lines()
            && self.skip_stream.fetch(self.skip_lines_fetched)
        {
            self.skip_lines_fetched += 1;
        }
    }

    /// Number of blocks whose metadata *and* skip value have arrived.
    pub fn blocks_ready(&self) -> usize {
        let by_meta = (self.meta_lines_fetched * LINE_BYTES as usize) / 8;
        let by_skip = (self.skip_lines_fetched * LINE_BYTES as usize) / 4;
        by_meta.min(by_skip).min(self.num_blocks)
    }

    /// Whether every block has been dispatched.
    pub fn all_dispatched(&self) -> bool {
        self.next_block >= self.num_blocks
    }

    /// Takes the next ready block index for dispatch, if one is available.
    pub fn pop_ready_block(&mut self) -> Option<usize> {
        if !self.all_dispatched() && self.next_block < self.blocks_ready() {
            let b = self.next_block;
            self.next_block += 1;
            Some(b)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_window_limits_issue() {
        let mut s = StreamBuffer::new(0, 64 * 10, vec![1; 10], 2);
        assert_eq!(s.want_issue(), Some(0));
        s.mark_issued();
        assert_eq!(s.want_issue(), Some(64));
        s.mark_issued();
        // Window of 2: third line must wait until the head advances.
        assert_eq!(s.want_issue(), None);
        s.deliver(0);
        assert!(s.fetch(0));
        assert_eq!(s.want_issue(), Some(128));
    }

    #[test]
    fn fetch_requires_delivery() {
        let mut s = StreamBuffer::new(0, 64, vec![1], 4);
        s.mark_issued();
        assert!(!s.fetch(0));
        assert_eq!(s.stall_cycles, 1);
        s.deliver(0);
        assert!(s.fetch(0));
        assert!(s.is_done());
    }

    #[test]
    fn multi_consumer_line_freed_after_all_fetches() {
        let mut s = StreamBuffer::new(0, 64, vec![2], 1);
        s.mark_issued();
        s.deliver(0);
        assert!(s.fetch(0));
        assert!(!s.is_done());
        assert!(s.fetch(0));
        assert!(s.is_done());
    }

    #[test]
    #[should_panic(expected = "more times than")]
    fn over_fetch_panics() {
        let mut s = StreamBuffer::new(0, 64, vec![1], 1);
        s.mark_issued();
        s.deliver(0);
        assert!(s.fetch(0));
        let _ = s.fetch(0);
    }

    #[test]
    fn payload_consumer_counts_overlap() {
        // Block 0: bytes [0, 100) -> lines 0, 1. Block 1: [100, 120) -> line 1.
        let metas = vec![
            BlockMeta { dn_bits: 4, tf_bits: 4, count: 100, offset: 0 },
            BlockMeta { dn_bits: 4, tf_bits: 4, count: 20, offset: 100 },
        ];
        let counts = payload_consumers(metas, 120);
        assert_eq!(counts, vec![1, 2]);
    }

    #[test]
    fn scheduler_blocks_ready_needs_meta_and_skip() {
        let mut sch = BlockScheduler::new(0, 1024, 20, 4);
        assert_eq!(sch.blocks_ready(), 0);
        // Deliver first meta line (8 blocks' metadata) but no skips.
        sch.meta_stream.mark_issued();
        sch.meta_stream.deliver(0);
        sch.absorb();
        assert_eq!(sch.blocks_ready(), 0);
        // Deliver first skip line (16 blocks' skips).
        sch.skip_stream.mark_issued();
        sch.skip_stream.deliver(1024);
        sch.absorb();
        assert_eq!(sch.blocks_ready(), 8);
        assert_eq!(sch.pop_ready_block(), Some(0));
        assert_eq!(sch.pop_ready_block(), Some(1));
    }

    #[test]
    fn scheduler_dispatches_all_blocks() {
        let mut sch = BlockScheduler::new(0, 1024, 3, 4);
        while sch.meta_stream.want_issue().is_some() {
            let a = sch.meta_stream.want_issue().unwrap();
            sch.meta_stream.mark_issued();
            sch.meta_stream.deliver(a);
        }
        while sch.skip_stream.want_issue().is_some() {
            let a = sch.skip_stream.want_issue().unwrap();
            sch.skip_stream.mark_issued();
            sch.skip_stream.deliver(a);
        }
        for _ in 0..4 {
            sch.absorb();
        }
        let mut got = Vec::new();
        while let Some(b) = sch.pop_ready_block() {
            got.push(b);
        }
        assert_eq!(got, vec![0, 1, 2]);
        assert!(sch.all_dispatched());
    }

    #[test]
    fn empty_stream_is_done() {
        let s = StreamBuffer::new(0, 0, Vec::new(), 1);
        assert!(s.is_done());
        assert_eq!(s.want_issue(), None);
    }
}
