//! Cycle-level simulator of the IIU accelerator (Heo et al., ASPLOS 2020,
//! §4–§5).
//!
//! This crate is the evaluation vehicle of the reproduction: a
//! tick-accurate model of the accelerator's microarchitecture over a
//! DDR4/HBM timing model, driven by real compressed indexes from
//! [`iiu_index`]. It is *execution-driven*: the decompression units emit
//! functionally correct postings (pre-decoded from the index) while every
//! data movement — Block Reader stream lines, candidate-block fetches,
//! skip-list probes, `dl̄` table reads, result write-backs — flows through
//! the MAI and the DRAM timing model, so timing and bandwidth are earned,
//! not assumed.
//!
//! Modules:
//!
//! * [`dram`] — DDR4-2400 / HBM-like channel/bank timing (the DRAMSim2
//!   substitute), FR-FCFS scheduling;
//! * [`mai`] — the 128-entry Memory Address Interface with coalescing;
//! * [`layout`] — index → address-space mapping;
//! * [`frontend`] — Block Reader stream buffers with fetch counters, and
//!   the Block Scheduler;
//! * [`core`] — DCU, SU (18-stage BM25), BSU (32-entry traversal cache),
//!   write-back;
//! * [`machine`] — the full accelerator: one query scheduler whose
//!   allocations are the intra-query, inter-query and hybrid
//!   configurations;
//! * [`error`] — typed [`SimError`] and the watchdog's stall snapshots;
//! * [`host`] — the host-CPU top-k model (Fig. 13/17);
//! * [`power`] — Table 3 area/power constants and the Fig. 20 energy
//!   model.
//!
//! # Example
//!
//! ```
//! use iiu_index::{BuildOptions, IndexBuilder};
//! use iiu_sim::{IiuMachine, SimConfig, SimQuery};
//!
//! let mut b = IndexBuilder::new(BuildOptions::default());
//! b.add_document("business lausanne");
//! b.add_document("cameo business");
//! let index = b.build();
//!
//! let machine = IiuMachine::new(&index, SimConfig::default());
//! let term = index.term_id("business").unwrap();
//! let run = machine.run_query(SimQuery::Single(term), 1).unwrap();
//! assert_eq!(run.results.len(), 2);
//! assert!(run.cycles > 0);
//! ```

// Internal queue plumbing relies on checked-elsewhere pops; the hardened
// surfaces are the run-method results. verify.sh lints the workspace with
// -D clippy::unwrap_used/expect_used, which source-level allows override.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod core;
pub mod dram;
pub mod error;
pub mod frontend;
pub mod host;
pub mod layout;
pub mod machine;
pub mod mai;
pub mod power;

pub use dram::DramConfig;
pub use error::{
    CoreSnapshot, ExecSnapshot, SchedulerSnapshot, SimError, StallSnapshot, StreamSnapshot,
};
pub use host::HostModel;
pub use layout::MemoryLayout;
pub use machine::{
    BatchRun, ExecStats, HybridRun, IiuMachine, MemStats, QueryRun, SimConfig, SimQuery,
};
pub use power::{table3_total_area_mm2, table3_total_power_w, PowerModel, TABLE3};
