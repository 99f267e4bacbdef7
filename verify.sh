#!/usr/bin/env sh
# Full verification gate: build, tests, the separately-built benchmark
# package's tests and smoke run, the fault-injected serving soak, the
# no-panic lint wall, warning-free rustdoc, and the hot-path decode,
# shard-scaling, mmap storage, and serve tail-latency perf gates.
#
# Usage: ./verify.sh [--quick]
#   --quick  skip the perf gates and the torn-write recovery and
#            incremental-equivalence campaigns (the slowest steps; use
#            while iterating on functional changes).
#
# The clippy pass denies unwrap()/expect() across the workspace. Crates
# whose internals legitimately panic (simulator queue plumbing, the bench
# harness) opt back out with a crate-root
# `#![allow(clippy::unwrap_used, clippy::expect_used)]`; the hardened
# crates (iiu-codecs decode paths, iiu-index
# io/checksum/faultinject/bounds and the whole incremental write path
# (wal/memtable/segment/recovery/incremental), all of iiu-baseline
# including the supervised shard pool, all of iiu-serve, the iiu-bench
# library, and iiu-workloads) re-deny via
# `#![cfg_attr(not(test), deny(...))]` so a panicking call cannot sneak
# back into an untrusted-input or serving path. The second clippy line
# keeps iiu-serve, iiu-baseline, iiu-codecs, iiu-workloads and
# iiu-bench honest even if the workspace-wide wall is ever relaxed.
set -eu

quick=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        *) echo "usage: $0 [--quick]" >&2; exit 2 ;;
    esac
done

cargo build --release --workspace
cargo test -q --workspace

# The repo benchmark (benchmark/, BENCHMARK.json) is a package of its own
# that the workspace commands above never build: compile it against this
# tree, run its unit tests, and run every workload once on the small
# corpus (oracle and fingerprint checks, no timing assertion), so a change
# to the public API it calls cannot break it unnoticed.
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload all --smoke

# Pruned top-k equivalence (DESIGN.md §13): release-mode run of the
# property suite proving block-max pruned search is bit-identical to
# exhaustive scoring across query shapes, k values, and engines.
cargo test --release --test topk_equivalence -q

# Sharded-search equivalence (DESIGN.md §14): release-mode proof that the
# document-sharded engine returns bit-identical hits (score and docID
# order) to the unsharded engine across shard counts and query shapes,
# including under the cross-shard shared threshold.
cargo test --release --test shard_equivalence -q

# Acceptance soak for the resilient serving layer (DESIGN.md §10): 10k
# queries open-loop at 2x the measured sustainable rate with injected
# stalls, an all-fail burst, and injected panics. Release mode, ~30s
# budget (typically far less); exact outcome accounting, a breaker
# trip+recovery, and zero worker deaths are asserted inside.
cargo test --release --test soak -q

# Shard-level chaos campaign (DESIGN.md §15): 10k queries forced onto the
# sharded CPU path while shard workers are panicked (randomly and in a
# quarantine-tripping burst), stalled past the pool deadline, and killed
# mid-stream. Asserts total availability, truthful
# Degradation::ShardsUnavailable labeling, bit-identical surviving-shard
# hits against an unsharded reference, and quarantine trip + half-open
# recovery + worker respawn — the only end-to-end run of the supervision
# state machine's trip/probe/recover cycle on the shard and worker planes.
# Runs in both modes (~0.35 s in release).
cargo test --release --test shard_chaos -q

# Torn-write recovery campaign (DESIGN.md §16): 1,200 randomized
# crash-and-recover trials over the incremental write path (torn WAL
# tails, garbage appends, stale temp segments, deleted and stale WALs),
# plus typed-error checks for unrecoverable damage and a
# write-while-serving soak. Zero panics, zero hangs, and bit-identical
# post-recovery search are asserted inside. Skipped under --quick.
if [ "$quick" -eq 0 ]; then
    cargo test --release --test recovery_chaos -q
else
    echo "verify: --quick set, skipping torn-write recovery campaign"
fi

# Incremental-equivalence gate (DESIGN.md §16): the 60k-doc CC-News-like
# corpus grown through randomized batches, auto-seals, merges and 8
# injected crash/reopen events must be bit-identical to the one-shot
# build — full index equality plus hit-for-hit agreement on single-term,
# AND and OR queries. Skipped under --quick.
if [ "$quick" -eq 0 ]; then
    cargo test --release --test incremental_equivalence -q
else
    echo "verify: --quick set, skipping incremental equivalence gate"
fi

cargo clippy --workspace -- -D clippy::unwrap_used -D clippy::expect_used
cargo clippy -p iiu-serve -p iiu-baseline -p iiu-codecs -p iiu-workloads -p iiu-bench -- -D clippy::unwrap_used -D clippy::expect_used

# Rustdoc with warnings denied, in both modes: every intra-doc link must
# resolve, so an item deleted from the code cannot survive in the docs as
# a dangling link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Decode perf gate + codec shootout (DESIGN.md §11, §13, §18):
# re-measures the unpack kernels, end-to-end query throughput,
# pruned-vs-exhaustive top-k, and the bit-packed block decode at every
# gated width, rewrites BENCH_decode.json, and fails if any gated min_ns
# exceeds the committed baseline by more than the fail_above_ratio in
# BENCH_decode_thresholds.json, if pruning stops skipping blocks, if the
# single-term k=10 pruning gain drops below 1.5x, if pruned AND or pruned
# OR at k=10 fails to beat the same run's exhaustive wall time, or if the
# shootout's bits/posting exceeds its committed max_bits_per_posting.
# Regenerate baselines (only after an intentional perf change, on a quiet
# machine) with:
#   cargo run --release -p iiu-bench --bin decode_bench -- \
#     --write-thresholds BENCH_decode_thresholds.json
# Under --quick, only the one-block-per-width decode smoke runs (no
# timing), checked against a reference summed without the codec.
if [ "$quick" -eq 0 ]; then
    cargo run --release -p iiu-bench --bin decode_bench -- \
        --check BENCH_decode_thresholds.json
else
    echo "verify: --quick set, running codec decode smoke instead of perf gate"
    cargo run --release -p iiu-bench --bin decode_bench -- --smoke
fi

# Shard scaling gate (DESIGN.md §14): re-measures document-sharded vs
# unsharded pruned top-k on the 60k-doc corpus, rewrites BENCH_shard.json,
# and fails if a gated wall min_ns regresses past the committed baseline,
# if the 4-shard single-term k=10 modeled QPS gain drops below 2.5x, or
# if per-shard pruning stops skipping blocks. Regenerate baselines with:
#   cargo run --release -p iiu-bench --bin shard_bench -- \
#     --write-thresholds BENCH_shard_thresholds.json
if [ "$quick" -eq 0 ]; then
    cargo run --release -p iiu-bench --bin shard_bench -- \
        --check BENCH_shard_thresholds.json
else
    echo "verify: --quick set, skipping shard scaling gate"
fi

# Mmap storage gate (DESIGN.md §19): loads the same corpus heap-side and
# through the zero-copy mapped loader, proves the sources interchangeable
# (equal indexes, bit-identical pruned hits per query shape), times warm
# mapped block decode and end-to-end queries against in-RAM (within-run
# max_warm_ratio plus committed min_ns baselines), reports an advisory
# cold-cache sweep, and re-execs itself to stream a 1M-doc corpus to disk
# and serve it through a fresh mapping — failing if that child's peak RSS
# exceeds the committed rss_max_kb. Rewrites BENCH_mmap.json. Regenerate
# baselines with:
#   cargo run --release -p iiu-bench --bin mmap_bench -- \
#     --write-thresholds BENCH_mmap_thresholds.json
# Under --quick, only the source-equivalence smoke runs (no timing, no
# RSS child).
if [ "$quick" -eq 0 ]; then
    cargo run --release -p iiu-bench --bin mmap_bench -- \
        --check BENCH_mmap_thresholds.json
else
    echo "verify: --quick set, running mmap source-equivalence smoke instead of perf gate"
    cargo run --release -p iiu-bench --bin mmap_bench -- --smoke
fi

# Serve tail-latency gate (DESIGN.md §17): offers the same 100k-query
# Zipf-skewed stream to the serving layer twice at equal offered load —
# fixed topology (every query fans out) vs the hybrid inter/intra-query
# scheduler — with the device path sabotaged so everything runs the
# sharded CPU path. Proves the two modes' hit streams bit-identical,
# rewrites BENCH_serve.json, and fails unless the hybrid p99 is strictly
# below the fixed p99, both routes were exercised, and the committed
# end-to-end latency ceilings hold. Regenerate baselines with:
#   cargo run --release -p iiu-bench --bin serve_bench -- \
#     --write-thresholds BENCH_serve_thresholds.json
if [ "$quick" -eq 0 ]; then
    cargo run --release -p iiu-bench --bin serve_bench -- \
        --check BENCH_serve_thresholds.json
else
    echo "verify: --quick set, skipping serve tail-latency gate"
fi

echo "verify: OK"
