//! The whole accelerator: query scheduler, (Block Reader, Block Scheduler)
//! pairs, IIU Cores, the reconfigurable interconnect between them, and the
//! shared MAI/DRAM path (paper §4, Figs. 6, 7, 12).
//!
//! One query scheduler (§4.4) drives every run. It hands *units* — one
//! BR/B-SCH pair with some cores — to queries, and the interconnect
//! configurations of Fig. 12 are allocations of that one machine, each a
//! list of *lanes*: a lane is N units of C cores draining one FCFS queue.
//!
//! * [`IiuMachine::run_query`] is one lane of one unit with *n* cores:
//!   intra-query parallelism, minimum latency (Fig. 12a).
//! * [`IiuMachine::run_batch`] is one lane of *n* single-core units
//!   draining a backlog: inter-query parallelism, maximum throughput
//!   (Fig. 12b).
//! * [`IiuMachine::run_arrivals`] is the same lane fed by an open-loop
//!   arrival process.
//! * [`IiuMachine::run_hybrid`] is a one-unit lane with several cores for
//!   a latency-critical query beside a lane of single-core units for a
//!   backlog (Fig. 12c).

use std::collections::VecDeque;

use iiu_index::block::EncodedList;
use iiu_index::{DocId, Fixed, InvertedIndex, Posting, Skips, TermId};

use crate::core::{Bsu, Dcu, FetchJob, ScoringUnit, StreamJob, WriteBack};
use crate::dram::{DramConfig, MemorySystem, LINE_BYTES, TICKS_PER_CYCLE};
use crate::error::{
    CoreSnapshot, ExecSnapshot, SchedulerSnapshot, SimError, StallSnapshot, StreamSnapshot,
};
use crate::frontend::{payload_consumers, BlockScheduler, StreamBuffer};
use crate::layout::MemoryLayout;
use crate::mai::Mai;

/// Cycles without any forward progress before the watchdog declares a
/// stall (independent of the absolute [`SimConfig::max_cycles`] budget).
const NO_PROGRESS_WINDOW: u64 = 1_000_000;

/// Accelerator configuration (defaults follow Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Block Reader / Block Scheduler pairs.
    pub n_pairs: usize,
    /// IIU Cores.
    pub n_cores: usize,
    /// Stream-buffer window per BR stream, in 64-byte entries.
    pub br_window: usize,
    /// B-SCH metadata/skip stream window, in lines.
    pub bsch_window: usize,
    /// Inter-stage queue capacity.
    pub queue_cap: usize,
    /// Scoring-unit pipeline depth (paper: 18 cycles).
    pub su_latency: u64,
    /// BSU traversal-cache entries (paper: 32).
    pub bsu_cache_entries: usize,
    /// Outstanding lines per direct block fetch (intersection DCU1).
    pub dcu_fetch_outstanding: usize,
    /// MAI table entries (paper: 128).
    pub mai_entries: usize,
    /// On-device top-k filter size (0 = off, the paper's configuration:
    /// top-k runs on the host). When set, each core's write-back unit
    /// keeps only its k best results, shrinking both write traffic and the
    /// host's top-k pass to `cores × k` candidates.
    pub device_topk: usize,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Accelerator clock in GHz (paper: 1.0; cycles are nanoseconds).
    pub clock_ghz: f64,
    /// Absolute cycle budget per run. `None` derives a generous budget
    /// from the posting-list sizes involved; the watchdog additionally
    /// aborts any run that makes no forward progress for
    /// 1,000,000 consecutive cycles. When either limit trips, the run
    /// methods return [`SimError::Stalled`] with a per-unit snapshot.
    pub max_cycles: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_pairs: 8,
            n_cores: 8,
            br_window: 64,
            bsch_window: 4,
            queue_cap: 16,
            su_latency: 18,
            bsu_cache_entries: 32,
            dcu_fetch_outstanding: 8,
            mai_entries: 128,
            device_topk: 0,
            dram: DramConfig::ddr4_2400(),
            clock_ghz: 1.0,
            max_cycles: None,
        }
    }
}

/// A query in accelerator terms (terms already resolved to ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimQuery {
    /// Decompress and score one term's full posting list.
    Single(TermId),
    /// SvS intersection of two lists.
    Intersect(TermId, TermId),
    /// 2-way merge union of two lists.
    Union(TermId, TermId),
}

/// Aggregated unit statistics for one query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Postings decompressed by all DCUs.
    pub postings_decoded: u64,
    /// Blocks decoded via the Block Reader stream path.
    pub blocks_decoded: u64,
    /// Candidate L1 blocks fetched by DCU1s (intersection).
    pub l1_blocks_fetched: u64,
    /// L1 blocks never touched (skipped by membership testing).
    pub l1_blocks_skipped: u64,
    /// BSU probes.
    pub bsu_probes: u64,
    /// BSU traversal-cache hits.
    pub bsu_cache_hits: u64,
    /// Scoring-unit dl-line misses (memory reads).
    pub dl_misses: u64,
    /// Documents scored.
    pub docs_scored: u64,
    /// DCU busy cycles (across units).
    pub dcu_busy: u64,
    /// SU input-accept cycles (across units).
    pub su_busy: u64,
    /// Result postings written back (post device-top-k when enabled).
    pub candidates: u64,
    /// Candidates produced before any on-device top-k filtering.
    pub candidates_seen: u64,
}

/// Memory-system statistics for a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemStats {
    /// Bytes read from DRAM.
    pub bytes_read: u64,
    /// Bytes written to DRAM.
    pub bytes_written: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses.
    pub row_misses: u64,
    /// Peak MAI occupancy.
    pub peak_mai: usize,
    /// All-bank DRAM refreshes during the run.
    pub refreshes: u64,
    /// Achieved / peak DRAM bandwidth over the run (0..=1).
    pub bandwidth_utilization: f64,
}

/// Result of one query on the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRun {
    /// `(docID, score)` results sorted by docID (what the write-back units
    /// leave in memory for the host's top-k pass).
    pub results: Vec<(DocId, Fixed)>,
    /// IIU cycles from dispatch to completion (at 1 GHz: nanoseconds).
    pub cycles: u64,
    /// Unit statistics.
    pub stats: ExecStats,
    /// Memory statistics (whole-machine; meaningful for single-query runs).
    pub mem: MemStats,
}

/// Result of a batched (inter-query) run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRun {
    /// Total cycles from first dispatch to full drain.
    pub cycles: u64,
    /// Per-query results and stats, in input order.
    pub queries: Vec<QueryRun>,
    /// Whole-run memory statistics.
    pub mem: MemStats,
}

/// Result of a hybrid run (Fig. 12c): one latency-critical query with a
/// dedicated multi-core allocation, sharing the machine with a throughput
/// backlog.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridRun {
    /// The latency-critical query's run (its `cycles` include contention
    /// from the co-running backlog).
    pub latency_query: QueryRun,
    /// The backlog's runs, in input order.
    pub batch: Vec<QueryRun>,
    /// Cycles until the backlog fully drained.
    pub batch_cycles: u64,
    /// Whole-run memory statistics.
    pub mem: MemStats,
}

// ---------------------------------------------------------------------------
// Token encoding: exec(16b) | kind(8b) | unit(8b) | sub(8b) | payload(24b)
// ---------------------------------------------------------------------------

const KIND_BR: u64 = 0;
const KIND_META: u64 = 1;
const KIND_SKIP: u64 = 2;
const KIND_DCU_FETCH: u64 = 3;
const KIND_SU_DL: u64 = 4;
const KIND_BSU: u64 = 5;

fn token(exec: usize, kind: u64, unit: usize, sub: usize) -> u64 {
    (exec as u64) << 48 | kind << 40 | (unit as u64) << 32 | (sub as u64) << 24
}

fn token_exec(t: u64) -> usize {
    (t >> 48) as usize
}

fn token_kind(t: u64) -> u64 {
    (t >> 40) & 0xff
}

fn token_unit(t: u64) -> usize {
    ((t >> 32) & 0xff) as usize
}

fn token_sub(t: u64) -> usize {
    ((t >> 24) & 0xff) as usize
}

// ---------------------------------------------------------------------------
// Per-core instance
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Single,
    Intersect,
    Union,
}

#[derive(Debug)]
struct CoreInstance {
    dcu: [Dcu; 2],
    su: [ScoringUnit; 2],
    bsu: Bsu,
    wb: WriteBack,
    /// Matched postings awaiting SU0 (intersection).
    match_q0: VecDeque<Posting>,
    /// Matched postings awaiting SU1 (intersection).
    match_q1: VecDeque<Posting>,
    /// Currently loaded L1 candidate block (intersection).
    cur_block: Option<usize>,
    /// A BSU search is outstanding.
    bsu_pending: bool,
    l1_blocks_fetched: u64,
}

// ---------------------------------------------------------------------------
// Query execution
// ---------------------------------------------------------------------------

struct QueryExec<'a> {
    exec_id: usize,
    role: Role,
    index: &'a InvertedIndex,
    /// Driving list (L0; the shorter one for intersection).
    l0: TermId,
    /// Second list (intersection/union).
    l1: Option<TermId>,
    /// Payload streams: 0 = L0; 1 = L1 (union only).
    streams: Vec<StreamBuffer>,
    /// Block schedulers: 0 = L0; 1 = L1 (union only).
    bschs: Vec<BlockScheduler>,
    cores: Vec<CoreInstance>,
    queue_cap: usize,
    start_cycle: u64,
    flushed: bool,
    done_cycle: Option<u64>,
}

impl<'a> QueryExec<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        exec_id: usize,
        query: SimQuery,
        index: &'a InvertedIndex,
        layout: &MemoryLayout,
        cfg: &SimConfig,
        n_cores: usize,
        result_base: u64,
        start_cycle: u64,
    ) -> Self {
        let (role, l0, l1) = match query {
            SimQuery::Single(t) => (Role::Single, t, None),
            SimQuery::Intersect(a, b) => {
                // SvS: the shorter list drives.
                let (s, l) = if index.encoded_list(a).num_postings()
                    <= index.encoded_list(b).num_postings()
                {
                    (a, b)
                } else {
                    (b, a)
                };
                (Role::Intersect, s, Some(l))
            }
            SimQuery::Union(a, b) => (Role::Union, a, Some(b)),
        };

        let mk_stream = |term: TermId| {
            let region = layout.term(term);
            let list = index.encoded_list(term);
            StreamBuffer::new(
                region.payload_base,
                region.payload_len,
                payload_consumers(list.metas(), region.payload_len),
                cfg.br_window,
            )
        };
        let mk_bsch = |term: TermId| {
            let region = layout.term(term);
            BlockScheduler::new(
                region.meta_base,
                region.skip_base,
                region.num_blocks as usize,
                cfg.bsch_window,
            )
        };

        let mut streams = vec![mk_stream(l0)];
        let mut bschs = vec![mk_bsch(l0)];
        if role == Role::Union {
            let l1 = l1.expect("union has two lists");
            streams.push(mk_stream(l1));
            bschs.push(mk_bsch(l1));
        }

        // Union uses exactly one core: the merge unit is the serial
        // bottleneck and the paper observes no scaling with extra cores.
        let cores_used = if role == Role::Union { 1 } else { n_cores.max(1) };
        let l1_skip_base = l1.map(|t| layout.term(t).skip_base).unwrap_or(0);
        let idf0 = index.term_info(l0).idf_bar;
        let idf1 = l1.map(|t| index.term_info(t).idf_bar).unwrap_or(Fixed::ZERO);
        let cores = (0..cores_used)
            .map(|ci| CoreInstance {
                dcu: [
                    Dcu::new(cfg.queue_cap, cfg.dcu_fetch_outstanding),
                    Dcu::new(cfg.queue_cap, cfg.dcu_fetch_outstanding),
                ],
                su: [
                    ScoringUnit::new(idf0, cfg.su_latency, cfg.queue_cap),
                    ScoringUnit::new(
                        if role == Role::Single { idf0 } else { idf1 },
                        cfg.su_latency,
                        cfg.queue_cap,
                    ),
                ],
                bsu: Bsu::new(l1_skip_base, cfg.bsu_cache_entries),
                // Disjoint result sub-regions per core (1 MiB apart).
                wb: WriteBack::with_device_topk(
                    result_base + ((ci as u64) << 20),
                    cfg.device_topk,
                ),
                match_q0: VecDeque::new(),
                match_q1: VecDeque::new(),
                cur_block: None,
                bsu_pending: false,
                l1_blocks_fetched: 0,
            })
            .collect();

        QueryExec {
            exec_id,
            role,
            index,
            l0,
            l1,
            streams,
            bschs,
            cores,
            queue_cap: cfg.queue_cap,
            start_cycle,
            flushed: false,
            done_cycle: None,
        }
    }

    fn list(&self, term: TermId) -> &'a EncodedList {
        self.index.encoded_list(term)
    }

    /// Builds a stream-decode job for block `b` of `term` (fed through
    /// `stream_idx`). `postings` is the target DCU's recycled buffer —
    /// the functional decode lands there without allocating.
    fn stream_job(
        &self,
        term: TermId,
        stream_idx: usize,
        b: usize,
        mut postings: Vec<Posting>,
    ) -> StreamJob {
        let list = self.list(term);
        let meta = list.metas().at(b);
        let bytes = meta.payload_bytes();
        let (first_line, last_line) = if bytes == 0 {
            (1, 0) // empty range: nothing to fetch
        } else {
            (
                (meta.offset / LINE_BYTES) as usize,
                ((meta.offset + bytes - 1) / LINE_BYTES) as usize,
            )
        };
        postings.clear();
        list.decode_block_into(b, &mut postings);
        StreamJob {
            stream_idx,
            postings,
            start_bit: meta.offset * 8,
            pair_bits: u64::from(meta.pair_bits()),
            first_line,
            last_line,
        }
    }

    /// Builds a direct-fetch job for candidate block `b` of L1
    /// (intersection), decoding into the recycled `postings` buffer.
    fn fetch_job(
        &self,
        l1_payload_base: u64,
        b: usize,
        mut postings: Vec<Posting>,
    ) -> FetchJob {
        let list = self.list(self.l1.expect("intersection has L1"));
        let meta = list.metas().at(b);
        let bytes = meta.payload_bytes();
        let abs_start = l1_payload_base + meta.offset;
        let base_addr = abs_start / LINE_BYTES * LINE_BYTES;
        let lines_total = if bytes == 0 {
            0
        } else {
            ((abs_start + bytes - 1) / LINE_BYTES - base_addr / LINE_BYTES + 1) as usize
        };
        postings.clear();
        list.decode_block_into(b, &mut postings);
        FetchJob {
            postings,
            pair_bits: u64::from(meta.pair_bits()),
            base_addr,
            start_bit: (abs_start - base_addr) * 8,
            lines_total,
        }
    }

    fn deliver(&mut self, tok: u64, addr: u64) {
        match token_kind(tok) {
            KIND_BR => self.streams[token_unit(tok)].deliver(addr),
            KIND_META => self.bschs[token_unit(tok)].meta_stream.deliver(addr),
            KIND_SKIP => self.bschs[token_unit(tok)].skip_stream.deliver(addr),
            KIND_DCU_FETCH => self.cores[token_unit(tok)].dcu[1].deliver_fetch_line(addr),
            KIND_SU_DL => self.cores[token_unit(tok)].su[token_sub(tok)].deliver_dl_line(addr),
            KIND_BSU => {
                let l1 = self.l1.expect("BSU only used for intersection");
                let skips = self.index.encoded_list(l1).skips();
                let core = &mut self.cores[token_unit(tok)];
                core.bsu.deliver_line(addr);
                core.bsu.resolve_after_delivery(skips);
            }
            k => unreachable!("unknown token kind {k}"),
        }
    }

    fn is_done(&self) -> bool {
        self.done_cycle.is_some()
    }

    /// The query this execution serves (an intersection may report its
    /// operands swapped: the shorter list drives).
    fn query(&self) -> SimQuery {
        match (self.role, self.l1) {
            (Role::Single, _) => SimQuery::Single(self.l0),
            (Role::Intersect, Some(l1)) => SimQuery::Intersect(self.l0, l1),
            (Role::Union, Some(l1)) => SimQuery::Union(self.l0, l1),
            // l1 is always present for two-list roles; fall back rather
            // than panic inside diagnostics code.
            _ => SimQuery::Single(self.l0),
        }
    }

    /// Structured per-unit state dump for the watchdog's stall report.
    fn stall_snapshot(&self) -> ExecSnapshot {
        ExecSnapshot {
            query: self.query(),
            schedulers: self
                .bschs
                .iter()
                .map(|b| SchedulerSnapshot {
                    blocks_ready: b.blocks_ready(),
                    next_block: b.next_block,
                    all_dispatched: b.all_dispatched(),
                })
                .collect(),
            streams: self
                .streams
                .iter()
                .map(|st| StreamSnapshot {
                    done: st.is_done(),
                    total_lines: st.total_lines(),
                    stall_cycles: st.stall_cycles,
                })
                .collect(),
            cores: self
                .cores
                .iter()
                .map(|c| CoreSnapshot {
                    dcu_idle: [c.dcu[0].is_idle(), c.dcu[1].is_idle()],
                    dcu_out_depth: [c.dcu[0].out.len(), c.dcu[1].out.len()],
                    dcu_postings_decoded: [
                        c.dcu[0].postings_decoded,
                        c.dcu[1].postings_decoded,
                    ],
                    dcu1_pending_job: c.dcu[1].has_pending_job(),
                    su_drained: [c.su[0].is_drained(), c.su[1].is_drained()],
                    su_out_depth: [c.su[0].out.len(), c.su[1].out.len()],
                    match_queue_depth: [c.match_q0.len(), c.match_q1.len()],
                    bsu_idle: c.bsu.is_idle(),
                    bsu_pending: c.bsu_pending,
                    bsu_probes: c.bsu.probes,
                    cur_block: c.cur_block,
                })
                .collect(),
        }
    }

    /// One cycle for the whole query execution.
    fn tick(&mut self, cycle: u64, mai: &mut Mai, layout: &MemoryLayout, dl_bars: &[Fixed]) {
        if self.is_done() {
            return;
        }
        let exec = self.exec_id;
        let l0 = self.l0;
        let l1 = self.l1;
        let role = self.role;
        let l1_payload_base = l1.map(|t| layout.term(t).payload_base).unwrap_or(0);
        let l1_skips: Skips<'_> = match (role, l1) {
            (Role::Intersect, Some(t)) => self.index.encoded_list(t).skips(),
            _ => Skips::default(),
        };
        let dl_of = |d: DocId| dl_bars[d as usize];
        let dl_base = layout.dl_addr(0);
        let dl_addr_of = |d: DocId| dl_base + u64::from(d) * 4;

        // --- Cores (downstream stages first) -------------------------------
        let queue_cap = self.queue_cap;
        let mut pending_fetches: Vec<(usize, usize)> = Vec::new();
        let bsch0_done = self.bschs[0].all_dispatched();
        let bsch1_done = self.bschs.get(1).map(|b| b.all_dispatched()).unwrap_or(true);
        for (ci, core) in self.cores.iter_mut().enumerate() {
            match role {
                Role::Single => {
                    for s in 0..2 {
                        if let Some(r) = core.su[s].out.pop_front() {
                            core.wb.push(r, mai);
                        }
                    }
                    for s in 0..2 {
                        let (dcus, sus) = (&mut core.dcu, &mut core.su);
                        sus[s].tick(
                            cycle,
                            &mut dcus[s].out,
                            mai,
                            token(exec, KIND_SU_DL, ci, s),
                            &dl_of,
                            &dl_addr_of,
                        );
                    }
                }
                Role::Intersect => {
                    // Adder: combine paired SU outputs.
                    if !core.su[0].out.is_empty() && !core.su[1].out.is_empty() {
                        let (d0, s0) = core.su[0].out.pop_front().expect("checked");
                        let (d1, s1) = core.su[1].out.pop_front().expect("checked");
                        debug_assert_eq!(d0, d1, "intersection SUs must stay paired");
                        core.wb.push((d0, s0.saturating_add(s1)), mai);
                    }
                    core.su[0].tick(
                        cycle,
                        &mut core.match_q0,
                        mai,
                        token(exec, KIND_SU_DL, ci, 0),
                        &dl_of,
                        &dl_addr_of,
                    );
                    core.su[1].tick(
                        cycle,
                        &mut core.match_q1,
                        mai,
                        token(exec, KIND_SU_DL, ci, 1),
                        &dl_of,
                        &dl_addr_of,
                    );
                }
                Role::Union => {
                    let no_more0 = bsch0_done
                        && core.dcu[0].is_idle()
                        && core.dcu[0].out.is_empty()
                        && core.su[0].is_pipe_empty();
                    let no_more1 = bsch1_done
                        && core.dcu[1].is_idle()
                        && core.dcu[1].out.is_empty()
                        && core.su[1].is_pipe_empty();
                    let h0 = core.su[0].out.front().copied();
                    let h1 = core.su[1].out.front().copied();
                    match (h0, h1) {
                        (Some((da, sa)), Some((db, sb))) => {
                            if da < db {
                                core.wb.push((da, sa), mai);
                                core.su[0].out.pop_front();
                            } else if db < da {
                                core.wb.push((db, sb), mai);
                                core.su[1].out.pop_front();
                            } else {
                                core.wb.push((da, sa.saturating_add(sb)), mai);
                                core.su[0].out.pop_front();
                                core.su[1].out.pop_front();
                            }
                        }
                        (Some((da, sa)), None) if no_more1 => {
                            core.wb.push((da, sa), mai);
                            core.su[0].out.pop_front();
                        }
                        (None, Some((db, sb))) if no_more0 => {
                            core.wb.push((db, sb), mai);
                            core.su[1].out.pop_front();
                        }
                        _ => {}
                    }
                    for s in 0..2 {
                        let (dcus, sus) = (&mut core.dcu, &mut core.su);
                        sus[s].tick(
                            cycle,
                            &mut dcus[s].out,
                            mai,
                            token(exec, KIND_SU_DL, ci, s),
                            &dl_of,
                            &dl_addr_of,
                        );
                    }
                }
            }

            if role == Role::Intersect {
                intersect_step(core, l1_skips, queue_cap);
                if core.dcu[1].wants_job() {
                    if let Some(b) = core.cur_block {
                        pending_fetches.push((ci, b));
                    }
                }
                // Once this core's share of L0 is exhausted, the remains of
                // the last candidate block are flushed.
                if bsch0_done
                    && core.dcu[0].is_idle()
                    && core.dcu[0].out.is_empty()
                    && !core.bsu_pending
                    && !(core.dcu[1].is_idle() && core.dcu[1].out.is_empty())
                {
                    core.dcu[1].abort();
                }
            }

            core.dcu[0].tick(&mut self.streams, mai, token(exec, KIND_DCU_FETCH, ci, 0));
            core.dcu[1].tick(&mut self.streams, mai, token(exec, KIND_DCU_FETCH, ci, 0));

            if role == Role::Intersect {
                core.bsu.tick(l1_skips, mai, token(exec, KIND_BSU, ci, 0));
            }
        }

        // Materialize deferred candidate-block loads (needs &self access).
        for (ci, b) in pending_fetches {
            let spare = self.cores[ci].dcu[1].take_spare();
            let job = self.fetch_job(l1_payload_base, b, spare);
            self.cores[ci].dcu[1].start_fetch(job);
            self.cores[ci].l1_blocks_fetched += 1;
        }

        // --- Block schedulers: absorb + dispatch ---------------------------
        for bsch in &mut self.bschs {
            bsch.absorb();
        }
        match role {
            Role::Single => {
                if let Some(b) = self.bschs[0].pop_ready_block() {
                    if let Some((ci, di)) = self.find_idle_dcu(2) {
                        let spare = self.cores[ci].dcu[di].take_spare();
                        let job = self.stream_job(l0, 0, b, spare);
                        self.cores[ci].dcu[di].start_stream(job);
                    } else {
                        self.bschs[0].next_block -= 1; // no free DCU: retry
                    }
                }
            }
            Role::Intersect => {
                if let Some(b) = self.bschs[0].pop_ready_block() {
                    if let Some((ci, _)) = self.find_idle_dcu(1) {
                        let spare = self.cores[ci].dcu[0].take_spare();
                        let job = self.stream_job(l0, 0, b, spare);
                        self.cores[ci].dcu[0].start_stream(job);
                    } else {
                        self.bschs[0].next_block -= 1;
                    }
                }
            }
            Role::Union => {
                for (si, di) in [(0usize, 0usize), (1, 1)] {
                    if let Some(b) = self.bschs[si].pop_ready_block() {
                        if self.cores[0].dcu[di].is_idle() {
                            let term = if si == 0 { l0 } else { l1.expect("union L1") };
                            let spare = self.cores[0].dcu[di].take_spare();
                            let job = self.stream_job(term, si, b, spare);
                            self.cores[0].dcu[di].start_stream(job);
                        } else {
                            self.bschs[si].next_block -= 1;
                        }
                    }
                }
            }
        }

        // --- Memory issue: BR streams + B-SCH streams ----------------------
        for (si, stream) in self.streams.iter_mut().enumerate() {
            if let Some(addr) = stream.want_issue() {
                if mai.request_read(addr, token(exec, KIND_BR, si, 0)) {
                    stream.mark_issued();
                }
            }
        }
        for (si, bsch) in self.bschs.iter_mut().enumerate() {
            if let Some(addr) = bsch.meta_stream.want_issue() {
                if mai.request_read(addr, token(exec, KIND_META, si, 0)) {
                    bsch.meta_stream.mark_issued();
                }
            }
            if let Some(addr) = bsch.skip_stream.want_issue() {
                if mai.request_read(addr, token(exec, KIND_SKIP, si, 0)) {
                    bsch.skip_stream.mark_issued();
                }
            }
        }

        // --- Completion -----------------------------------------------------
        if self.all_drained() {
            if !self.flushed {
                for core in &mut self.cores {
                    core.wb.flush(mai);
                }
                self.flushed = true;
            }
            self.done_cycle = Some(cycle);
        }
    }

    /// First idle DCU, scanning `dcus_per_core` units per core (1 = DCU0
    /// only).
    fn find_idle_dcu(&self, dcus_per_core: usize) -> Option<(usize, usize)> {
        for (ci, core) in self.cores.iter().enumerate() {
            for di in 0..dcus_per_core {
                if core.dcu[di].is_idle() && !core.dcu[di].has_pending_job() {
                    return Some((ci, di));
                }
            }
        }
        None
    }

    fn all_drained(&self) -> bool {
        let bschs_done = self.bschs.iter().all(|b| b.all_dispatched());
        let cores_done = self.cores.iter().all(|c| {
            c.dcu.iter().all(|d| d.is_idle() && d.out.is_empty() && !d.has_pending_job())
                && c.su.iter().all(|s| s.is_drained())
                && c.match_q0.is_empty()
                && c.match_q1.is_empty()
                && c.bsu.is_idle()
                && !c.bsu_pending
        });
        bschs_done && cores_done
    }

    fn collect(&mut self, end_cycle: u64, mem_stats: MemStats) -> QueryRun {
        let mut results: Vec<(DocId, Fixed)> = Vec::new();
        let mut stats = ExecStats::default();
        for core in &self.cores {
            results.extend(core.wb.results.iter().copied());
            for d in &core.dcu {
                stats.postings_decoded += d.postings_decoded;
                stats.dcu_busy += d.busy_cycles;
            }
            stats.blocks_decoded += match self.role {
                Role::Intersect => core.dcu[0].blocks_done,
                _ => core.dcu[0].blocks_done + core.dcu[1].blocks_done,
            };
            stats.l1_blocks_fetched += core.l1_blocks_fetched;
            for s in &core.su {
                stats.docs_scored += s.scored;
                stats.dl_misses += s.dl_misses;
                stats.su_busy += s.busy_cycles;
            }
            stats.bsu_probes += core.bsu.probes;
            stats.bsu_cache_hits += core.bsu.cache_hits;
            stats.candidates_seen += core.wb.candidates_seen;
        }
        if self.role == Role::Intersect {
            let total = self.list(self.l1.expect("intersection")).num_blocks() as u64;
            stats.l1_blocks_skipped = total.saturating_sub(stats.l1_blocks_fetched);
        }
        results.sort_unstable_by_key(|&(d, _)| d);
        stats.candidates = results.len() as u64;
        QueryRun {
            results,
            cycles: end_cycle.saturating_sub(self.start_cycle),
            stats,
            mem: mem_stats,
        }
    }
}

/// One cycle of the intersection control logic (paper §4.2, Fig. 7b).
///
/// Compares the heads of the two DCU streams, pops the smaller, emits
/// matches to the SU queues, and launches BSU searches / DCU1 block loads
/// when the driving docID leaves the current candidate block.
fn intersect_step(core: &mut CoreInstance, skips1: Skips<'_>, queue_cap: usize) {
    if core.match_q0.len() >= queue_cap || core.match_q1.len() >= queue_cap {
        return;
    }
    if core.bsu_pending {
        if let Some(res) = core.bsu.take_result() {
            core.bsu_pending = false;
            match res {
                None => {
                    // Target precedes every L1 block: no match possible.
                    core.dcu[0].out.pop_front();
                }
                Some(b) => {
                    if core.cur_block != Some(b) {
                        core.dcu[1].abort();
                        core.dcu[1].set_pending_job();
                        core.cur_block = Some(b);
                    }
                }
            }
        }
        return;
    }
    let Some(&h0) = core.dcu[0].out.front() else {
        return;
    };
    let d = h0.doc_id;
    let need_candidate = match core.cur_block {
        None => true,
        Some(b) => skips1.get(b + 1).is_some_and(|s| s <= d),
    };
    if need_candidate {
        if core.bsu.is_idle() {
            core.bsu.start(d, skips1.len());
            core.bsu_pending = true;
        }
        return;
    }
    if core.dcu[1].has_pending_job() {
        return; // candidate block load not yet materialized
    }
    match core.dcu[1].out.front().copied() {
        None => {
            if core.dcu[1].is_idle() {
                // Candidate block exhausted without a match for d.
                core.dcu[0].out.pop_front();
            }
        }
        Some(p1) => {
            if p1.doc_id < d {
                core.dcu[1].out.pop_front();
            } else if p1.doc_id > d {
                core.dcu[0].out.pop_front();
            } else {
                core.match_q0.push_back(Posting::new(d, h0.tf));
                core.match_q1.push_back(Posting::new(d, p1.tf));
                core.dcu[0].out.pop_front();
                core.dcu[1].out.pop_front();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

/// The IIU accelerator simulator over one index.
#[derive(Debug)]
pub struct IiuMachine<'a> {
    index: &'a InvertedIndex,
    layout: MemoryLayout,
    cfg: SimConfig,
}

impl<'a> IiuMachine<'a> {
    /// Creates a machine with the given configuration.
    pub fn new(index: &'a InvertedIndex, cfg: SimConfig) -> Self {
        IiuMachine { index, layout: MemoryLayout::new(index), cfg }
    }

    /// The machine's configuration.
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// The index this machine serves.
    pub fn index(&self) -> &'a InvertedIndex {
        self.index
    }

    /// Verifies every term an admitted query touches. Mmap-backed lists
    /// defer their list checks to first touch; checking here surfaces
    /// corruption as a typed error at admission instead of a panic inside
    /// a DCU tick.
    fn admit(&self, query: &SimQuery) -> Result<(), SimError> {
        let check =
            |t: TermId| self.index.verify_term(t).map_err(|source| SimError::Index { source });
        match *query {
            SimQuery::Single(t) => check(t),
            SimQuery::Intersect(a, b) | SimQuery::Union(a, b) => {
                check(a)?;
                check(b)
            }
        }
    }

    /// The memory layout in use.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Absolute cycle budget for a run: [`SimConfig::max_cycles`] when
    /// set, otherwise derived generously from the posting-list sizes the
    /// queries touch.
    fn cycle_budget<'q>(&self, queries: impl Iterator<Item = &'q SimQuery>) -> u64 {
        if let Some(m) = self.cfg.max_cycles {
            return m;
        }
        let postings: u64 = queries
            .map(|q| match *q {
                SimQuery::Single(t) => self.index.encoded_list(t).num_postings(),
                SimQuery::Intersect(a, b) | SimQuery::Union(a, b) => {
                    self.index.encoded_list(a).num_postings()
                        + self.index.encoded_list(b).num_postings()
                }
            })
            .sum();
        // Even a fully serialized decode+score pipeline under memory
        // contention stays far below 1,000 cycles per posting; the floor
        // covers DRAM warm-up, refresh and drain.
        NO_PROGRESS_WINDOW.saturating_add(postings.saturating_mul(1_000))
    }

    /// Runs one query with intra-query parallelism over `n_cores` cores
    /// (Fig. 12a): one BR/B-SCH pair feeding all allocated cores. The run's
    /// `cycles` and `mem` cover the whole run, through the MAI/DRAM drain
    /// after the query's last write-back.
    ///
    /// # Errors
    ///
    /// [`SimError::BadRequest`] if `n_cores` is 0 or exceeds the
    /// configuration; [`SimError::Stalled`] (with a per-unit progress
    /// snapshot) if the simulation stops making forward progress or
    /// exceeds its cycle budget.
    pub fn run_query(&self, query: SimQuery, n_cores: usize) -> Result<QueryRun, SimError> {
        if n_cores < 1 || n_cores > self.cfg.n_cores {
            return Err(SimError::BadRequest { what: "core allocation out of range" });
        }
        let (mut run, _) =
            self.schedule(&[Lane::backlog(std::slice::from_ref(&query), 1, n_cores)])?;
        Ok(QueryRun { cycles: run.cycles, mem: run.mem, ..run.queries.remove(0) })
    }

    /// Runs a backlog of queries with inter-query parallelism over
    /// `n_units` independent (pair, core) units (Fig. 12b).
    ///
    /// # Errors
    ///
    /// [`SimError::BadRequest`] if `n_units` is 0 or exceeds the
    /// configuration; [`SimError::Stalled`] if the simulation wedges.
    pub fn run_batch(
        &self,
        queries: &[SimQuery],
        n_units: usize,
    ) -> Result<BatchRun, SimError> {
        if n_units < 1 || n_units > self.cfg.n_pairs.min(self.cfg.n_cores) {
            return Err(SimError::BadRequest { what: "unit allocation out of range" });
        }
        Ok(self.schedule(&[Lane::backlog(queries, n_units, 1)])?.0)
    }

    /// Runs an open-loop arrival process: query `i` may not start before
    /// `arrivals[i]` (cycles). Returns per-query *sojourn* times (finish −
    /// arrival), the quantity a latency-vs-offered-load curve plots.
    /// Queries are served FCFS by `n_units` independent (pair, core) units.
    ///
    /// # Errors
    ///
    /// [`SimError::BadRequest`] if `arrivals` is not sorted or sized like
    /// `queries`, or if `n_units` is out of range;
    /// [`SimError::Stalled`] if the simulation wedges.
    pub fn run_arrivals(
        &self,
        queries: &[SimQuery],
        arrivals: &[u64],
        n_units: usize,
    ) -> Result<BatchRun, SimError> {
        if queries.len() != arrivals.len() {
            return Err(SimError::BadRequest { what: "one arrival per query" });
        }
        if !arrivals.windows(2).all(|w| w[0] <= w[1]) {
            return Err(SimError::BadRequest { what: "arrivals must be sorted" });
        }
        if n_units < 1 || n_units > self.cfg.n_pairs.min(self.cfg.n_cores) {
            return Err(SimError::BadRequest { what: "unit allocation out of range" });
        }
        let lane = Lane { arrivals: Some(arrivals), ..Lane::backlog(queries, n_units, 1) };
        Ok(self.schedule(&[lane])?.0)
    }

    /// Runs a hybrid configuration (Fig. 12c): `latency_query` gets one
    /// BR/B-SCH pair with `latency_cores` cores for intra-query
    /// parallelism, while `batch` drains over `batch_units` independent
    /// (pair, core) units on the same MAI/DRAM path. Models serving a
    /// low-latency query alongside a high-throughput stream.
    ///
    /// # Errors
    ///
    /// [`SimError::BadRequest`] if the allocation exceeds the configuration
    /// (`latency_cores + batch_units <= n_cores` and
    /// `1 + batch_units <= n_pairs`);
    /// [`SimError::Stalled`] if the simulation wedges.
    pub fn run_hybrid(
        &self,
        latency_query: SimQuery,
        batch: &[SimQuery],
        latency_cores: usize,
        batch_units: usize,
    ) -> Result<HybridRun, SimError> {
        if latency_cores < 1 || batch_units < 1 {
            return Err(SimError::BadRequest { what: "both sides need resources" });
        }
        if latency_cores + batch_units > self.cfg.n_cores || batch_units >= self.cfg.n_pairs {
            return Err(SimError::BadRequest {
                what: "hybrid allocation exceeds the machine",
            });
        }
        let (mut run, drained_at) = self.schedule(&[
            Lane::backlog(std::slice::from_ref(&latency_query), 1, latency_cores),
            Lane::backlog(batch, batch_units, 1),
        ])?;
        Ok(HybridRun {
            latency_query: run.queries.remove(0),
            batch: run.queries,
            batch_cycles: drained_at[1],
            mem: run.mem,
        })
    }

    /// The query scheduler (§4.4) behind every run method: one cycle loop
    /// over `lanes`. Units take execution slots in lane order; slot `s` is
    /// execution id `s` and writes its results at
    /// `result_base + (s << 24)`. Each cycle takes in arrivals, gives each
    /// free unit the next waiting query of its own lane, ticks every
    /// execution and the MAI, routes MAI responses by token, retires
    /// finished executions (with default `mem`: memory is a whole-run
    /// figure), then applies the watchdog.
    ///
    /// The watchdog's one progress rule: a cycle progresses when DRAM
    /// moved a byte, the MAI issued a read, a query arrived or a query
    /// finished; while every arrived query has finished and more are still
    /// to arrive, the machine is idle, not stalled. No progress for
    /// [`NO_PROGRESS_WINDOW`] cycles, or reaching the budget
    /// ([`Self::cycle_budget`] of every query plus the last arrival), is
    /// [`SimError::Stalled`].
    ///
    /// Returns every query's run in lane then input order, with whole-run
    /// `cycles` and `mem`, and the cycle each lane's last query retired
    /// (0 for an empty lane).
    fn schedule(&self, lanes: &[Lane<'_>]) -> Result<(BatchRun, Vec<u64>), SimError> {
        for q in lanes.iter().flat_map(|l| l.queries) {
            self.admit(q)?;
        }
        let last_arrival =
            lanes.iter().filter_map(|l| l.arrivals?.last().copied()).max().unwrap_or(0);
        let budget = self
            .cycle_budget(lanes.iter().flat_map(|l| l.queries))
            .saturating_add(last_arrival);
        let mut mem = MemorySystem::new(self.cfg.dram);
        let mut mai = Mai::new(self.cfg.mai_entries);
        let dl_bars = self.index.dl_bars();

        let mut queues: Vec<LaneQueue> = Vec::with_capacity(lanes.len());
        let mut total = 0;
        for lane in lanes {
            queues.push(LaneQueue { first: total, ..LaneQueue::default() });
            total += lane.queries.len();
        }
        // Per slot: its lane, and the running (query index, execution).
        let mut units: Vec<(usize, Option<(usize, QueryExec<'a>)>)> = (0..lanes.len())
            .flat_map(|li| std::iter::repeat_with(move || (li, None)).take(lanes[li].units))
            .collect();
        let mut finished: Vec<Option<QueryRun>> = vec![None; total];
        let (mut cycle, mut arrived, mut done) = (0u64, 0usize, 0usize);
        let mut last_progress = 0u64;
        let mut progress_mark = None;

        while done < total || !mai.is_idle() || !mem.is_idle() {
            for (lane, q) in lanes.iter().zip(&mut queues) {
                while q.arrived < lane.queries.len()
                    && lane.arrivals.map_or(0, |a| a[q.arrived]) <= cycle
                {
                    q.arrived += 1;
                    arrived += 1;
                }
            }
            for (slot, (li, running)) in units.iter_mut().enumerate() {
                let (lane, q) = (&lanes[*li], &mut queues[*li]);
                if running.is_none() && q.dispatched < q.arrived {
                    let i = q.dispatched;
                    q.dispatched += 1;
                    // A query's clock starts at its arrival, if it has one.
                    let start = lane.arrivals.map_or(cycle, |a| a[i]);
                    let exec = QueryExec::new(
                        slot,
                        lane.queries[i],
                        self.index,
                        &self.layout,
                        &self.cfg,
                        lane.cores,
                        self.layout.result_base() + ((slot as u64) << 24),
                        start,
                    );
                    *running = Some((q.first + i, exec));
                }
            }

            cycle += 1;
            for (_, exec) in units.iter_mut().filter_map(|(_, r)| r.as_mut()) {
                exec.tick(cycle, &mut mai, &self.layout, dl_bars);
            }
            mai.tick(cycle, &mut mem);
            while let Some((addr, waiters)) = mai.pop_response() {
                for tok in waiters {
                    if let (_, Some((_, exec))) = &mut units[token_exec(tok)] {
                        exec.deliver(tok, addr);
                    }
                }
            }
            for (li, running) in units.iter_mut() {
                if let Some((qi, mut exec)) = running.take_if(|(_, e)| e.is_done()) {
                    finished[qi] = Some(exec.collect(cycle, MemStats::default()));
                    queues[*li].drained_at = cycle;
                    done += 1;
                }
            }

            let mark = (mem.bytes_total(), mai.reads_issued, arrived, done);
            if progress_mark != Some(mark) || (done == arrived && arrived < total) {
                progress_mark = Some(mark);
                last_progress = cycle;
            }
            if cycle - last_progress >= NO_PROGRESS_WINDOW || cycle >= budget {
                return Err(SimError::Stalled {
                    snapshot: StallSnapshot {
                        cycle,
                        last_progress_cycle: last_progress,
                        execs: units
                            .iter()
                            .filter_map(|(_, r)| r.as_ref())
                            .map(|(_, e)| e.stall_snapshot())
                            .collect(),
                    },
                });
            }
        }

        let run = BatchRun {
            cycles: cycle,
            queries: finished.into_iter().flatten().collect(),
            mem: mem_stats_of(&mem, &mai, cycle),
        };
        Ok((run, queues.iter().map(|q| q.drained_at).collect()))
    }
}

/// One allocation of the machine: `units` units, each one BR/B-SCH pair
/// with `cores` cores, draining `queries` first come, first served. With
/// `arrivals`, query `i` is queued at cycle `arrivals[i]`; without, every
/// query is queued at cycle 0.
struct Lane<'q> {
    queries: &'q [SimQuery],
    arrivals: Option<&'q [u64]>,
    units: usize,
    cores: usize,
}

impl<'q> Lane<'q> {
    /// `units` units of `cores` cores draining `queries`, all queued at
    /// cycle 0.
    fn backlog(queries: &'q [SimQuery], units: usize, cores: usize) -> Self {
        Lane { queries, arrivals: None, units, cores }
    }
}

/// A lane's queue during a run: its queries `dispatched..arrived` wait.
#[derive(Default)]
struct LaneQueue {
    /// Run-wide index of the lane's first query.
    first: usize,
    arrived: usize,
    dispatched: usize,
    /// Cycle the lane's last finished query retired.
    drained_at: u64,
}

fn mem_stats_of(mem: &MemorySystem, mai: &Mai, cycles: u64) -> MemStats {
    MemStats {
        bytes_read: mem.bytes_read,
        bytes_written: mem.bytes_written,
        row_hits: mem.row_hits,
        row_misses: mem.row_misses,
        peak_mai: mai.peak_occupancy,
        refreshes: mem.refreshes,
        bandwidth_utilization: mem.bandwidth_utilization(cycles * TICKS_PER_CYCLE),
    }
}
