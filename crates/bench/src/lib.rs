//! Experiment harness regenerating every table and figure of the IIU
//! paper's evaluation (§5), plus the ablations DESIGN.md calls out.
//!
//! Each experiment is a function in [`experiments`] that returns a
//! machine-readable [`serde_json::Value`] and pretty-prints the same rows
//! the paper reports. One thin binary per experiment lives in `src/bin/`;
//! `run_all` executes everything and writes `results/*.json`.
//!
//! Scale: the paper's corpora have tens of millions of documents; the
//! synthetic stand-ins default to a laptop-feasible scale and can be grown
//! with the `IIU_SCALE` environment variable (documents = base × scale).
//! Shapes (orderings, ratios, crossovers) — the reproduction target — are
//! stable across scales; absolute numbers are not expected to match a
//! 29.9 M-document corpus.

// The harness is experiment-runner code: panicking on a broken experiment
// setup is the right behavior — but via explicit `panic!` with a message,
// not unwrap()/expect(). The library crate sits on verify.sh's clippy
// deny wall like the serving crates; only the gate *binaries* (whose
// whole body is one experiment run) keep a crate-root allow.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod context;
pub mod experiments;
pub mod gate;
pub mod micro;
pub mod report;

pub use context::{Ctx, DatasetName};
pub use report::{print_table, workspace_root, write_json};
