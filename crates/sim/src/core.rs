//! The IIU Core's processing units (paper §4.3, Figs. 9–11).
//!
//! Each core couples two decompression units (DCU, 1 posting/cycle), two
//! scoring units (SU, 18-cycle fully-pipelined BM25), one binary search
//! unit (BSU, with a 32-entry traversal cache over the skip list) and a
//! merge/intersect stage, wired by query type:
//!
//! * single term: `DCUi → SUi → write-back`;
//! * intersection: `DCU0 → [BSU steers DCU1 block loads] → match → SU0+SU1
//!   → add → write-back`;
//! * union: `DCUi → SUi → 2-way merge → write-back`.

use std::collections::VecDeque;

use iiu_index::score::term_score_fixed;
use iiu_index::{DocId, Fixed, Posting, Skips};

use crate::dram::LINE_BYTES;
use crate::frontend::StreamBuffer;
use crate::mai::Mai;

/// One decoded result before write-back.
pub type Scored = (DocId, Fixed);

// ---------------------------------------------------------------------------
// Decompression Unit
// ---------------------------------------------------------------------------

/// A block being decoded out of a Block Reader stream.
#[derive(Debug)]
pub struct StreamJob {
    /// Which BR stream the block lives in.
    pub stream_idx: usize,
    /// Functionally pre-decoded postings of the block.
    pub postings: Vec<Posting>,
    /// Bit offset of the block within the stream region.
    pub start_bit: u64,
    /// Bits per posting.
    pub pair_bits: u64,
    /// Stream-relative lines the block spans (inclusive).
    pub first_line: usize,
    /// Last stream-relative line (inclusive).
    pub last_line: usize,
}

/// A candidate block being fetched directly from memory (intersection's
/// DCU1 path).
#[derive(Debug)]
pub struct FetchJob {
    /// Functionally pre-decoded postings of the block.
    pub postings: Vec<Posting>,
    /// Bits per posting.
    pub pair_bits: u64,
    /// Line-aligned base address of the first line.
    pub base_addr: u64,
    /// Bit offset of the block within the first line.
    pub start_bit: u64,
    /// Total lines to fetch.
    pub lines_total: usize,
}

#[derive(Debug)]
enum DcuState {
    Idle,
    Stream {
        job: StreamJob,
        emitted: usize,
        next_fetch_line: usize,
        avail_bits: u64,
    },
    Fetch {
        job: FetchJob,
        emitted: usize,
        lines_issued: usize,
        arrived: Vec<bool>,
        avail_lines: usize,
    },
}

/// A decompression unit: extracts one `(d-gap, tf)` pair per cycle from
/// bit-packed block data, gated by data arrival from the Block Reader or
/// memory (Fig. 10).
#[derive(Debug)]
pub struct Dcu {
    state: DcuState,
    /// Decoded postings awaiting the next stage.
    pub out: VecDeque<Posting>,
    cap: usize,
    /// Max lines in flight for direct fetches.
    fetch_outstanding: usize,
    /// Cycles spent decoding or fetching.
    pub busy_cycles: u64,
    /// Postings decoded.
    pub postings_decoded: u64,
    /// Blocks completed.
    pub blocks_done: u64,
    /// A block load has been requested but not yet materialized (used by
    /// the intersection control to defer job construction).
    pending_job: bool,
    /// Recycled postings buffer from the last finished/aborted job, handed
    /// back out via [`Dcu::take_spare`] so block loads do not allocate.
    spare: Vec<Posting>,
}

impl Dcu {
    /// Creates a DCU with the given output-queue capacity.
    pub fn new(queue_cap: usize, fetch_outstanding: usize) -> Self {
        Dcu {
            state: DcuState::Idle,
            out: VecDeque::with_capacity(queue_cap),
            cap: queue_cap,
            fetch_outstanding,
            busy_cycles: 0,
            postings_decoded: 0,
            blocks_done: 0,
            pending_job: false,
            spare: Vec::new(),
        }
    }

    /// Takes the recycled postings buffer (cleared) for the next block
    /// load; empty on the first use, warm afterwards.
    pub fn take_spare(&mut self) -> Vec<Posting> {
        let mut buf = std::mem::take(&mut self.spare);
        buf.clear();
        buf
    }

    /// Keeps the larger of the current spare and a retired job's buffer.
    fn recycle(&mut self, mut buf: Vec<Posting>) {
        buf.clear();
        if buf.capacity() > self.spare.capacity() {
            self.spare = buf;
        }
    }

    /// Retires the current job (if any), reclaiming its buffer.
    fn retire(&mut self) {
        match std::mem::replace(&mut self.state, DcuState::Idle) {
            DcuState::Idle => {}
            DcuState::Stream { job, .. } => self.recycle(job.postings),
            DcuState::Fetch { job, .. } => self.recycle(job.postings),
        }
    }

    /// Marks that a block load will be supplied by the controller.
    pub fn set_pending_job(&mut self) {
        self.pending_job = true;
    }

    /// Whether a block load has been requested but not yet started.
    pub fn has_pending_job(&self) -> bool {
        self.pending_job
    }

    /// Whether the unit is idle with a requested-but-unstarted block load.
    pub fn wants_job(&self) -> bool {
        self.pending_job && self.is_idle()
    }

    /// Whether the unit can accept a new block.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, DcuState::Idle)
    }

    /// Starts decoding a block out of a BR stream.
    ///
    /// # Panics
    ///
    /// Panics if the unit is busy.
    pub fn start_stream(&mut self, job: StreamJob) {
        assert!(self.is_idle(), "DCU busy");
        let next_fetch_line = job.first_line;
        self.state = DcuState::Stream { job, emitted: 0, next_fetch_line, avail_bits: 0 };
    }

    /// Starts a direct-fetch block decode (intersection DCU1).
    ///
    /// # Panics
    ///
    /// Panics if the unit is busy.
    pub fn start_fetch(&mut self, job: FetchJob) {
        assert!(self.is_idle(), "DCU busy");
        self.pending_job = false;
        let lines = job.lines_total;
        self.state = DcuState::Fetch {
            job,
            emitted: 0,
            lines_issued: 0,
            arrived: vec![false; lines],
            avail_lines: 0,
        };
    }

    /// Discards the in-flight block and output queue (used when the
    /// intersection moves to a new candidate block).
    pub fn abort(&mut self) {
        self.retire();
        self.out.clear();
        self.pending_job = false;
    }

    /// Records the arrival of a directly fetched line. Lines that fall
    /// outside the current job's window — on either side — are stale
    /// deliveries for a block that already finished (or was aborted) while
    /// its last fetches were still in flight, and are ignored.
    pub fn deliver_fetch_line(&mut self, addr: u64) {
        if let DcuState::Fetch { job, arrived, avail_lines, .. } = &mut self.state {
            let Some(off) = addr.checked_sub(job.base_addr) else {
                return;
            };
            let rel = (off / LINE_BYTES) as usize;
            if rel < arrived.len() {
                arrived[rel] = true;
                while *avail_lines < arrived.len() && arrived[*avail_lines] {
                    *avail_lines += 1;
                }
            }
        }
    }

    /// One cycle of work. `streams` are the Block Reader's stream buffers;
    /// `mai`/`token_base` serve direct fetches (the line index is added to
    /// the token).
    pub fn tick(&mut self, streams: &mut [StreamBuffer], mai: &mut Mai, token_base: u64) {
        if self.out.len() >= self.cap {
            return; // backpressure from the next stage
        }
        let mut done = false;
        match &mut self.state {
            DcuState::Idle => {}
            DcuState::Stream { job, emitted, next_fetch_line, avail_bits } => {
                if *emitted < job.postings.len() {
                    let needed = (*emitted as u64 + 1) * job.pair_bits;
                    if *avail_bits >= needed {
                        self.out.push_back(job.postings[*emitted]);
                        *emitted += 1;
                        self.busy_cycles += 1;
                        self.postings_decoded += 1;
                    } else if *next_fetch_line <= job.last_line
                        && streams[job.stream_idx].fetch(*next_fetch_line)
                    {
                        *avail_bits = ((*next_fetch_line as u64 + 1) * LINE_BYTES * 8)
                            .saturating_sub(job.start_bit);
                        *next_fetch_line += 1;
                        self.busy_cycles += 1;
                    }
                }
                if *emitted == job.postings.len() {
                    // Consume any trailing lines so the stream's consumer
                    // counts balance (cannot normally trigger: the last
                    // posting's bits end in the last spanned line).
                    while *next_fetch_line <= job.last_line {
                        if !streams[job.stream_idx].fetch(*next_fetch_line) {
                            return; // retry next cycle
                        }
                        *next_fetch_line += 1;
                    }
                    self.blocks_done += 1;
                    done = true;
                }
            }
            DcuState::Fetch { job, emitted, lines_issued, arrived, avail_lines } => {
                // Keep requests in flight.
                while *lines_issued < job.lines_total
                    && *lines_issued < *avail_lines + self.fetch_outstanding
                {
                    let addr = job.base_addr + *lines_issued as u64 * LINE_BYTES;
                    if mai.request_read(addr, token_base + *lines_issued as u64) {
                        *lines_issued += 1;
                    } else {
                        break;
                    }
                }
                let avail_bits =
                    (*avail_lines as u64 * LINE_BYTES * 8).saturating_sub(job.start_bit);
                let needed = (*emitted as u64 + 1) * job.pair_bits;
                if avail_bits >= needed {
                    self.out.push_back(job.postings[*emitted]);
                    *emitted += 1;
                    self.busy_cycles += 1;
                    self.postings_decoded += 1;
                    if *emitted == job.postings.len() {
                        self.blocks_done += 1;
                        done = true;
                    }
                }
                let _ = arrived;
            }
        }
        if done {
            self.retire();
        }
    }
}

// ---------------------------------------------------------------------------
// Scoring Unit
// ---------------------------------------------------------------------------

/// A scoring unit: a fully-pipelined 18-cycle BM25 datapath that loads the
/// per-document `dl̄` constant from memory and computes
/// `s = idf̄ · tf / (tf + dl̄)` in Q16.16.
///
/// The pipeline is the unit of memory-level parallelism: each of the up to
/// 18 in-flight entries may have its own outstanding dl-table read ("18
/// inputs can be simultaneously in flight", §4.3). A small line buffer
/// exploits the ascending-docID locality of the table.
#[derive(Debug)]
pub struct ScoringUnit {
    latency: u64,
    /// In-flight entries, in input order.
    pipe: VecDeque<SuEntry>,
    /// Completed scores awaiting the next stage.
    pub out: VecDeque<Scored>,
    cap: usize,
    idf_bar: Fixed,
    /// Recently fetched dl-table lines (tiny LRU).
    cached_lines: VecDeque<u64>,
    /// Outstanding dl-line reads.
    pending_lines: Vec<u64>,
    /// Documents scored.
    pub scored: u64,
    /// dl-table line misses (each costs a memory read).
    pub dl_misses: u64,
    /// Cycles a new input was accepted.
    pub busy_cycles: u64,
}

#[derive(Debug)]
struct SuEntry {
    ready_cycle: u64,
    doc: DocId,
    tf: u32,
    line: u64,
    dl_arrived: bool,
}

impl ScoringUnit {
    /// dl-line buffer entries.
    const LINE_BUF: usize = 16;
    /// Max outstanding dl-line reads (input-queue lookahead included).
    const MAX_PENDING: usize = 8;
    /// Prefetch issues per cycle from the input queue.
    const PREFETCH_PER_CYCLE: usize = 2;

    /// Creates a scoring unit for a term with the given precomputed
    /// `idf̄` and pipeline latency.
    pub fn new(idf_bar: Fixed, latency: u64, queue_cap: usize) -> Self {
        ScoringUnit {
            latency,
            pipe: VecDeque::new(),
            out: VecDeque::with_capacity(queue_cap),
            cap: queue_cap,
            idf_bar,
            cached_lines: VecDeque::new(),
            pending_lines: Vec::new(),
            scored: 0,
            dl_misses: 0,
            busy_cycles: 0,
        }
    }

    /// Records the arrival of a requested dl-table line: resolves every
    /// pipeline entry waiting on it and refreshes the line buffer.
    pub fn deliver_dl_line(&mut self, line_addr: u64) {
        if let Some(pos) = self.pending_lines.iter().position(|&l| l == line_addr) {
            self.pending_lines.swap_remove(pos);
        }
        self.remember_line(line_addr);
        for e in &mut self.pipe {
            if e.line == line_addr {
                e.dl_arrived = true;
            }
        }
    }

    fn remember_line(&mut self, line_addr: u64) {
        if let Some(pos) = self.cached_lines.iter().position(|&l| l == line_addr) {
            self.cached_lines.remove(pos);
        }
        self.cached_lines.push_back(line_addr);
        while self.cached_lines.len() > Self::LINE_BUF {
            self.cached_lines.pop_front();
        }
    }

    /// One cycle: retire the pipeline head if its latency elapsed and its
    /// dl value arrived, then accept one input from `input`, issuing its
    /// dl-line read if needed. `dl_of` maps a docID to its `dl̄` value;
    /// `dl_addr_of` to the table address.
    pub fn tick(
        &mut self,
        cycle: u64,
        input: &mut VecDeque<Posting>,
        mai: &mut Mai,
        token: u64,
        dl_of: &dyn Fn(DocId) -> Fixed,
        dl_addr_of: &dyn Fn(DocId) -> u64,
    ) {
        // Retire (in order; one per cycle).
        if let Some(head) = self.pipe.front() {
            if head.ready_cycle <= cycle && head.dl_arrived && self.out.len() < self.cap {
                let head = self.pipe.pop_front().expect("checked");
                let score = term_score_fixed(self.idf_bar, dl_of(head.doc), head.tf);
                self.out.push_back((head.doc, score));
            }
        }
        // Accept.
        if self.pipe.len() >= self.latency as usize {
            return; // pipeline full
        }
        // Decoupled dl prefetch: docIDs are known as soon as the DCU
        // decodes them, so line reads for queued inputs issue ahead of the
        // pipeline (this is what lets the unit sustain one pair per cycle
        // despite per-document memory reads).
        let mut issued = 0usize;
        for p in input.iter() {
            if issued >= Self::PREFETCH_PER_CYCLE
                || self.pending_lines.len() >= Self::MAX_PENDING
            {
                break;
            }
            let line = dl_addr_of(p.doc_id) / LINE_BYTES * LINE_BYTES;
            if !self.cached_lines.contains(&line) && !self.pending_lines.contains(&line) {
                if !mai.request_read(line, token) {
                    break; // MAI full
                }
                self.pending_lines.push(line);
                self.dl_misses += 1;
                issued += 1;
            }
        }

        let Some(&p) = input.front() else { return };
        let line = dl_addr_of(p.doc_id) / LINE_BYTES * LINE_BYTES;
        let cached = self.cached_lines.contains(&line);
        if !cached && !self.pending_lines.contains(&line) {
            return; // prefetch could not issue (MAI full): retry
        }
        self.pipe.push_back(SuEntry {
            ready_cycle: cycle + self.latency,
            doc: p.doc_id,
            tf: p.tf,
            line,
            dl_arrived: cached,
        });
        input.pop_front();
        self.scored += 1;
        self.busy_cycles += 1;
    }

    /// Whether nothing is in flight or buffered.
    pub fn is_drained(&self) -> bool {
        self.pipe.is_empty() && self.out.is_empty()
    }

    /// Whether the internal pipeline is empty (outputs may still be
    /// queued).
    pub fn is_pipe_empty(&self) -> bool {
        self.pipe.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Binary Search Unit
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum BsuState {
    Idle,
    Searching { target: DocId, lo: usize, hi: usize, waiting: Option<(usize, u64)> },
    Done(Option<usize>),
}

/// The binary search unit: finds the candidate block of a docID by binary
/// search over the longer list's skip list, caching the most recent
/// traversal path in a small *traversal cache* (Fig. 11) so ascending
/// searches reuse the common prefix without memory traffic.
#[derive(Debug)]
pub struct Bsu {
    skip_base: u64,
    /// LRU of `(node index, cached)` — values come functionally from the
    /// skip array; the cache models which probes avoid memory.
    cache: VecDeque<usize>,
    cache_cap: usize,
    state: BsuState,
    /// Total probes (tree nodes visited).
    pub probes: u64,
    /// Probes served by the traversal cache.
    pub cache_hits: u64,
    /// Cycles doing useful work.
    pub busy_cycles: u64,
}

impl Bsu {
    /// Creates a BSU over a skip array at `skip_base` with a traversal
    /// cache of `cache_cap` entries (the paper uses 32).
    pub fn new(skip_base: u64, cache_cap: usize) -> Self {
        Bsu {
            skip_base,
            cache: VecDeque::new(),
            cache_cap,
            state: BsuState::Idle,
            probes: 0,
            cache_hits: 0,
            busy_cycles: 0,
        }
    }

    /// Whether a search can be started.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, BsuState::Idle)
    }

    /// Begins a candidate-block search for `target` over `num_skips` skip
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if a search is in progress.
    pub fn start(&mut self, target: DocId, num_skips: usize) {
        assert!(self.is_idle(), "BSU busy");
        self.state = BsuState::Searching { target, lo: 0, hi: num_skips, waiting: None };
    }

    /// Records the arrival of a skip-list line.
    pub fn deliver_line(&mut self, line_addr: u64) {
        let arrived_node = match &mut self.state {
            BsuState::Searching { waiting, .. } => match *waiting {
                Some((node, addr)) if addr == line_addr => {
                    *waiting = None;
                    Some(node)
                }
                _ => None,
            },
            _ => None,
        };
        if let Some(node) = arrived_node {
            self.touch_cache(node);
        }
    }

    fn touch_cache(&mut self, node: usize) {
        if let Some(pos) = self.cache.iter().position(|&n| n == node) {
            self.cache.remove(pos);
        }
        self.cache.push_back(node);
        while self.cache.len() > self.cache_cap {
            self.cache.pop_front();
        }
    }

    /// One cycle of search; `skips` provides functional values.
    pub fn tick(&mut self, skips: Skips<'_>, mai: &mut Mai, token: u64) {
        let (target, lo, hi, waiting) = match &self.state {
            BsuState::Searching { target, lo, hi, waiting } => {
                (*target, *lo, *hi, waiting.is_some())
            }
            _ => return,
        };
        if waiting {
            return; // memory read outstanding
        }
        if lo >= hi {
            self.state = BsuState::Done(lo.checked_sub(1));
            return;
        }
        let mid = (lo + hi) / 2;
        self.busy_cycles += 1;
        let cached = self.cache.iter().any(|&n| n == mid);
        if !cached {
            let addr = (self.skip_base + mid as u64 * 4) / LINE_BYTES * LINE_BYTES;
            if mai.request_read(addr, token) {
                self.probes += 1;
                if let BsuState::Searching { waiting, .. } = &mut self.state {
                    *waiting = Some((mid, addr));
                }
            }
            return; // compare happens after arrival
        }
        self.probes += 1;
        self.cache_hits += 1;
        self.touch_cache(mid);
        let (new_lo, new_hi) = if skips.at(mid) <= target { (mid + 1, hi) } else { (lo, mid) };
        if let BsuState::Searching { lo, hi, .. } = &mut self.state {
            *lo = new_lo;
            *hi = new_hi;
        }
    }

    /// After a probe's line arrives, the comparison proceeds on the next
    /// tick; this helper applies it when the wait has cleared.
    pub fn resolve_after_delivery(&mut self, skips: Skips<'_>) {
        let back = self.cache.back().copied();
        if let BsuState::Searching { target, lo, hi, waiting } = &mut self.state {
            if waiting.is_none() && *lo < *hi {
                // The just-delivered mid is the back of the cache.
                if let Some(mid) = back {
                    if mid == (*lo + *hi) / 2 {
                        if skips.at(mid) <= *target {
                            *lo = mid + 1;
                        } else {
                            *hi = mid;
                        }
                    }
                }
            }
        }
    }

    /// Takes the finished search's result: `Some(block)` or `None` when
    /// the target precedes every skip value.
    pub fn take_result(&mut self) -> Option<Option<usize>> {
        if let BsuState::Done(r) = self.state {
            self.state = BsuState::Idle;
            Some(r)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Write-back
// ---------------------------------------------------------------------------

/// Accumulates results into 64-byte lines and writes them to memory (8-byte
/// `(docID, score)` pairs, 8 per line).
///
/// With an optional on-device top-k filter (the extension the paper leaves
/// to the host, §4.5: "Though IIU offloads scoring from the host CPU, we
/// run the top-k selection process on it"), only the k best results survive
/// to memory — one streaming compare per candidate, write traffic reduced
/// to ⌈k/8⌉ lines at flush.
#[derive(Debug)]
pub struct WriteBack {
    base: u64,
    /// All results, in emission order (functional output of the query).
    pub results: Vec<Scored>,
    in_line: usize,
    lines_written: u64,
    /// On-device top-k: `(k, size-k min-heap keyed by score then docID)`.
    topk: Option<(usize, std::collections::BinaryHeap<std::cmp::Reverse<(Fixed, DocId)>>)>,
    /// Candidates seen (pre-filter), for host-model accounting.
    pub candidates_seen: u64,
}

impl WriteBack {
    /// Results per 64-byte line.
    const PER_LINE: usize = 8;

    /// Creates a write-back unit targeting the result region at `base`.
    pub fn new(base: u64) -> Self {
        WriteBack {
            base,
            results: Vec::new(),
            in_line: 0,
            lines_written: 0,
            topk: None,
            candidates_seen: 0,
        }
    }

    /// Creates a write-back unit with an on-device top-k filter of size
    /// `k` (0 disables the filter).
    pub fn with_device_topk(base: u64, k: usize) -> Self {
        let mut wb = WriteBack::new(base);
        if k > 0 {
            wb.topk = Some((k, std::collections::BinaryHeap::with_capacity(k + 1)));
        }
        wb
    }

    /// Accepts one result; issues a memory write when a line fills (or
    /// streams it through the top-k filter when enabled).
    pub fn push(&mut self, r: Scored, mai: &mut Mai) {
        self.candidates_seen += 1;
        if let Some((k, heap)) = &mut self.topk {
            // Streaming size-k min-heap, strict admission (paper Fig. 13).
            let entry = std::cmp::Reverse((r.1, r.0));
            if heap.len() < *k {
                heap.push(entry);
            } else if let Some(min) = heap.peek() {
                if min.0 .0 < r.1 {
                    heap.pop();
                    heap.push(entry);
                }
            }
            return; // nothing reaches memory until flush
        }
        self.results.push(r);
        self.in_line += 1;
        if self.in_line == Self::PER_LINE {
            mai.request_write(self.base + self.lines_written * LINE_BYTES);
            self.lines_written += 1;
            self.in_line = 0;
        }
    }

    /// Flushes a partial final line (and, with device top-k, spills the
    /// surviving k results).
    pub fn flush(&mut self, mai: &mut Mai) {
        if let Some((_, heap)) = &mut self.topk {
            let mut survivors: Vec<Scored> =
                heap.drain().map(|std::cmp::Reverse((s, d))| (d, s)).collect();
            survivors.sort_unstable_by_key(|&(d, _)| d);
            for r in survivors {
                self.results.push(r);
                self.in_line += 1;
                if self.in_line == Self::PER_LINE {
                    mai.request_write(self.base + self.lines_written * LINE_BYTES);
                    self.lines_written += 1;
                    self.in_line = 0;
                }
            }
        }
        if self.in_line > 0 {
            mai.request_write(self.base + self.lines_written * LINE_BYTES);
            self.lines_written += 1;
            self.in_line = 0;
        }
    }

    /// Lines written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{DramConfig, MemorySystem};
    use crate::frontend::StreamBuffer;

    fn mai_and_mem() -> (Mai, MemorySystem) {
        (Mai::new(128), MemorySystem::new(DramConfig::ddr4_2400()))
    }

    fn drive(mai: &mut Mai, mem: &mut MemorySystem, cycle: &mut u64) -> Vec<(u64, Vec<u64>)> {
        *cycle += 1;
        mai.tick(*cycle, mem);
        let mut out = Vec::new();
        while let Some(r) = mai.pop_response() {
            out.push(r);
        }
        out
    }

    #[test]
    fn dcu_stream_decodes_one_posting_per_cycle_when_data_ready() {
        let postings: Vec<Posting> = (0..16).map(|i| Posting::new(i * 3, 1)).collect();
        // One line holds the whole block: pair_bits 8, 16 postings = 128 bits.
        let mut streams = vec![StreamBuffer::new(0, 64, vec![1], 4)];
        streams[0].mark_issued();
        streams[0].deliver(0);
        let mut dcu = Dcu::new(32, 4);
        dcu.start_stream(StreamJob {
            stream_idx: 0,
            postings: postings.clone(),
            start_bit: 0,
            pair_bits: 8,
            first_line: 0,
            last_line: 0,
        });
        let (mut mai, _mem) = mai_and_mem();
        // Cycle 1 fetches the line; cycles 2..=17 decode.
        for _ in 0..17 {
            dcu.tick(&mut streams, &mut mai, 0);
        }
        assert_eq!(dcu.out.len(), 16);
        assert!(dcu.is_idle());
        assert_eq!(dcu.postings_decoded, 16);
        assert_eq!(dcu.blocks_done, 1);
        assert_eq!(
            dcu.out.iter().map(|p| p.doc_id).collect::<Vec<_>>(),
            postings.iter().map(|p| p.doc_id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dcu_stalls_without_data() {
        let mut streams = vec![StreamBuffer::new(0, 64, vec![1], 4)];
        streams[0].mark_issued(); // issued but never delivered
        let mut dcu = Dcu::new(8, 4);
        dcu.start_stream(StreamJob {
            stream_idx: 0,
            postings: vec![Posting::new(1, 1)],
            start_bit: 0,
            pair_bits: 8,
            first_line: 0,
            last_line: 0,
        });
        let (mut mai, _mem) = mai_and_mem();
        for _ in 0..10 {
            dcu.tick(&mut streams, &mut mai, 0);
        }
        assert!(dcu.out.is_empty());
        assert!(!dcu.is_idle());
    }

    #[test]
    fn dcu_backpressure_blocks_decode() {
        let mut streams = vec![StreamBuffer::new(0, 64, vec![1], 4)];
        streams[0].mark_issued();
        streams[0].deliver(0);
        let mut dcu = Dcu::new(2, 4); // tiny output queue
        dcu.start_stream(StreamJob {
            stream_idx: 0,
            postings: (0..8).map(|i| Posting::new(i, 1)).collect(),
            start_bit: 0,
            pair_bits: 8,
            first_line: 0,
            last_line: 0,
        });
        let (mut mai, _mem) = mai_and_mem();
        for _ in 0..20 {
            dcu.tick(&mut streams, &mut mai, 0);
        }
        assert_eq!(dcu.out.len(), 2, "output queue capacity must gate decode");
        let mut drained = dcu.out.len();
        dcu.out.clear();
        for _ in 0..40 {
            dcu.tick(&mut streams, &mut mai, 0);
            drained += dcu.out.len();
            dcu.out.clear();
        }
        assert!(dcu.is_idle());
        assert_eq!(drained, 8);
    }

    #[test]
    fn dcu_fetch_issues_and_decodes() {
        let (mut mai, mut mem) = mai_and_mem();
        let mut dcu = Dcu::new(64, 4);
        dcu.start_fetch(FetchJob {
            postings: (0..32).map(|i| Posting::new(i * 2, 1)).collect(),
            pair_bits: 16,
            base_addr: 1024,
            start_bit: 0,
            lines_total: 1,
        });
        let mut streams: Vec<StreamBuffer> = Vec::new();
        let mut cycle = 0u64;
        for _ in 0..300 {
            dcu.tick(&mut streams, &mut mai, 100);
            for (addr, tags) in drive(&mut mai, &mut mem, &mut cycle) {
                for _t in tags {
                    dcu.deliver_fetch_line(addr);
                }
            }
            if dcu.is_idle() && dcu.out.len() == 32 {
                break;
            }
        }
        assert_eq!(dcu.out.len(), 32);
        assert_eq!(dcu.blocks_done, 1);
    }

    #[test]
    fn su_pipeline_latency_and_throughput() {
        let (mut mai, mut mem) = mai_and_mem();
        let mut su = ScoringUnit::new(Fixed::from_f64(4.0), 18, 64);
        let mut input: VecDeque<Posting> = (0..32).map(|i| Posting::new(i, 2)).collect();
        let dl = |_d: DocId| Fixed::from_f64(1.2);
        let dl_addr = |d: DocId| u64::from(d) * 4;
        let mut cycle = 0u64;
        let mut first_out_cycle = None;
        for _ in 0..400 {
            cycle += 1;
            su.tick(cycle, &mut input, &mut mai, 7, &dl, &dl_addr);
            mai.tick(cycle, &mut mem);
            while let Some((addr, _)) = mai.pop_response() {
                su.deliver_dl_line(addr);
            }
            if first_out_cycle.is_none() && !su.out.is_empty() {
                first_out_cycle = Some(cycle);
            }
            if su.out.len() == 32 {
                break;
            }
        }
        assert_eq!(su.out.len(), 32);
        assert_eq!(su.scored, 32);
        // One dl line covers docIDs 0..16, the next covers 16..32.
        assert_eq!(su.dl_misses, 2);
        let first = first_out_cycle.expect("produced output");
        // Memory latency (~32 cycles) + 18-cycle pipeline.
        assert!(first > 18, "first output at {first} ignores pipeline latency");
        // Scores are the fixed-point BM25 values.
        let expected = term_score_fixed(Fixed::from_f64(4.0), Fixed::from_f64(1.2), 2);
        assert!(su.out.iter().all(|&(_, s)| s == expected));
    }

    #[test]
    fn bsu_search_with_cold_and_warm_cache() {
        // Fig. 11: skips {1, 8, 19, 37, 48, 54, 76}; search 40 then 64.
        let words: Vec<u8> =
            [1u32, 8, 19, 37, 48, 54, 76].iter().flat_map(|s| s.to_le_bytes()).collect();
        let skips = Skips::new(&words);
        let (mut mai, mut mem) = mai_and_mem();
        let mut bsu = Bsu::new(4096, 32);
        let mut cycle = 0u64;
        let mut run = |bsu: &mut Bsu, target: u32, mai: &mut Mai, mem: &mut MemorySystem| {
            bsu.start(target, skips.len());
            for _ in 0..2000 {
                bsu.tick(skips, mai, 1);
                cycle += 1;
                mai.tick(cycle, mem);
                while let Some((addr, _)) = mai.pop_response() {
                    bsu.deliver_line(addr);
                    bsu.resolve_after_delivery(skips);
                }
                if let Some(r) = bsu.take_result() {
                    return r;
                }
            }
            panic!("BSU did not finish");
        };
        let r40 = run(&mut bsu, 40, &mut mai, &mut mem);
        assert_eq!(r40, Some(3)); // block with skip 37
        let cold_hits = bsu.cache_hits;
        let r64 = run(&mut bsu, 64, &mut mai, &mut mem);
        assert_eq!(r64, Some(5)); // block with skip 54
        assert!(
            bsu.cache_hits > cold_hits,
            "second ascending search must reuse the traversal cache"
        );
        let r0 = run(&mut bsu, 0, &mut mai, &mut mem);
        assert_eq!(r0, None); // precedes every skip
    }

    #[test]
    fn writeback_device_topk_keeps_best_k() {
        let (mut mai, _mem) = mai_and_mem();
        let mut wb = WriteBack::with_device_topk(0, 3);
        for i in 0..100u32 {
            wb.push((i, Fixed::from_raw((i * 37) % 91)), &mut mai);
        }
        assert_eq!(mai.writes_issued, 0, "nothing reaches memory pre-flush");
        wb.flush(&mut mai);
        assert_eq!(wb.results.len(), 3);
        assert_eq!(wb.candidates_seen, 100);
        assert_eq!(mai.writes_issued, 1);
        // The kept scores are the global top 3.
        let mut all: Vec<u32> = (0..100u32).map(|i| (i * 37) % 91).collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        let mut kept: Vec<u32> = wb.results.iter().map(|&(_, s)| s.raw()).collect();
        kept.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(kept, all[..3].to_vec());
    }

    #[test]
    fn writeback_batches_lines() {
        let (mut mai, _mem) = mai_and_mem();
        let mut wb = WriteBack::new(1 << 20);
        for i in 0..20u32 {
            wb.push((i, Fixed::ONE), &mut mai);
        }
        assert_eq!(wb.lines_written(), 2); // 16 of 20 results flushed
        wb.flush(&mut mai);
        assert_eq!(wb.lines_written(), 3);
        assert_eq!(wb.results.len(), 20);
        assert_eq!(mai.writes_issued, 3);
    }
}
