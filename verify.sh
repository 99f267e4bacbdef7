#!/usr/bin/env sh
# Full verification gate: the one-park/wake-primitive, one-spawn-site
# (thread::Builder/spawn/scope outside tests), one-unsafe-module and
# one-scratch-per-thread (no DecodeScratch built, no thread_local!,
# outside ops.rs and executor.rs) guards, build, tests, the separately-built benchmark package's tests
# and smoke run, the fault-injected serving soak, the no-panic lint wall,
# warning-free rustdoc, and the hot-path decode, shard-scaling, mmap
# storage, and serve tail-latency perf gates.
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

# One way to park and wake (DESIGN.md §15): every wait and wake-up goes
# through iiu_baseline::park::Monitor, so no condition variable or
# notify may appear outside its module. Runs in both modes; grep, so CI
# needs nothing extra.
park_hits=$(grep -rnE 'Condvar|notify_(one|all)|wait_timeout' crates src \
    | grep -v '^crates/baseline/src/park\.rs:' || true)
if [ -n "$park_hits" ]; then
    echo "verify: park/wake outside crates/baseline/src/park.rs (use park::Monitor):" >&2
    echo "$park_hits" >&2
    exit 1
fi

# One set of threads (DESIGN.md §14, "Execution substrate"): product code
# starts threads in one place, the executor, so `thread::Builder`,
# `thread::spawn` and `thread::scope` may not appear in `crates/` or `src/`
# outside crates/baseline/src/executor.rs. Test code may spawn: the
# integration tests under `crates/*/tests/`, and everything from a
# top-level `#[cfg(test)]` followed by a `mod` line to the end of its file.
# Runs in both modes; grep and awk, so CI needs nothing extra.
spawn_hits=$(grep -rlE 'thread::(Builder|spawn|scope)' crates src \
    | grep -vE '^crates/baseline/src/executor\.rs$|^crates/[^/]+/tests/' \
    | xargs -r awk 'FNR == 1 { tests = 0; cfg = 0 }
        cfg && /^mod / { tests = 1 }
        { cfg = /^#\[cfg\(test\)\]/ }
        !tests && /thread::(Builder|spawn|scope)/ { print FILENAME ":" FNR ":" $0 }' || true)
if [ -n "$spawn_hits" ]; then
    echo "verify: thread spawn outside crates/baseline/src/executor.rs (use the executor):" >&2
    echo "$spawn_hits" >&2
    exit 1
fi

# One unsafe module (DESIGN.md §19): the product's only `unsafe` is the
# file mapping in crates/index/src/mmap.rs, so that is the one file Miri
# has to cover; the two counting-allocator tests are the only other
# users. A block, fn, impl, trait or extern marked `unsafe` anywhere else
# in `crates/`, `src/`, `tests/` or `examples/` fails the run; the word in
# prose does not. Runs in both modes; grep, so CI needs nothing extra.
unsafe_hits=$(grep -rnE '\bunsafe[[:space:]]*(\{|fn|impl|trait|extern)' \
    crates src tests examples \
    | grep -vE '^(crates/index/src/mmap\.rs|tests/index_memory\.rs|tests/query_allocations\.rs):' \
    || true)
if [ -n "$unsafe_hits" ]; then
    echo "verify: unsafe outside crates/index/src/mmap.rs and the allocator tests:" >&2
    echo "$unsafe_hits" >&2
    exit 1
fi

# One decode scratch per thread (DESIGN.md §12, "Scratch ownership"):
# every engine, fan-out part, pruned primer and live read borrows the
# calling thread's DecodeScratch through iiu_baseline::ops::with_scratch,
# so product code neither builds one (`DecodeScratch::new()` /
# `DecodeScratch::default()`) nor keeps per-thread state of its own
# (`thread_local!`) outside crates/baseline/src/{ops,executor}.rs. Test
# code is exempt: the integration tests under `crates/*/tests/`, an item
# right after a `#[cfg(test)]` line, and everything from a top-level
# `#[cfg(test)]` followed by a `mod` line to the end of its file. Runs in
# both modes; grep and awk, so CI needs nothing extra.
scratch_pat='DecodeScratch::(new|default)[(][)]|thread_local!'
scratch_hits=$(grep -rlE "$scratch_pat" crates src \
    | grep -vE '^crates/baseline/src/(ops|executor)\.rs$|^crates/[^/]+/tests/' \
    | xargs -r awk -v pat="$scratch_pat" 'FNR == 1 { tests = 0; cfg = 0 }
        cfg && /^mod / { tests = 1 }
        !tests && !cfg && $0 ~ pat { print FILENAME ":" FNR ":" $0 }
        { cfg = /^[[:space:]]*#\[cfg\(test\)\]/ }' || true)
if [ -n "$scratch_hits" ]; then
    echo "verify: a DecodeScratch or thread-local outside crates/baseline/src/{ops,executor}.rs" \
        "(borrow the thread's through ops::with_scratch):" >&2
    echo "$scratch_hits" >&2
    exit 1
fi

cargo build --release --workspace
cargo test -q --workspace

# CLI smoke: `iiu gen` writes a small index, `iiu inspect` loads it on
# the heap and mapped and survives a fault-injection campaign over it;
# the same file under the retired v2 magic ("IIUX" + 2 in byte 0) exits 1
# with the rebuild hint. `iiu ingest` grows an incremental directory
# through seals and a merge, `iiu inspect` reopens it, and `iiu stats
# --mmap yes` on it exits 1 (segments load onto the heap). Runs in both
# modes.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release -q --bin iiu -- gen "$smoke_dir/smoke.iiu" --docs 3000 >/dev/null
cargo run --release -q --bin iiu -- inspect "$smoke_dir/smoke.iiu" \
    --mmap yes --fault-rate 0.001 --trials 50
cp "$smoke_dir/smoke.iiu" "$smoke_dir/v2.iiu"
printf '\002' | dd of="$smoke_dir/v2.iiu" bs=1 count=1 conv=notrunc 2>/dev/null
status=0
cargo run --release -q --bin iiu -- inspect "$smoke_dir/v2.iiu" \
    >/dev/null 2>"$smoke_dir/v2.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "retired format: rebuild it" "$smoke_dir/v2.err"; then
    echo "verify: inspect of a v2-magic file exited $status without the rebuild hint:" >&2
    cat "$smoke_dir/v2.err" >&2
    exit 1
fi
cargo run --release -q --bin iiu -- ingest "$smoke_dir/live" --docs 3000 \
    --seal-every 1000 --merge-every 2 >/dev/null
cargo run --release -q --bin iiu -- inspect "$smoke_dir/live" >/dev/null
status=0
cargo run --release -q --bin iiu -- stats "$smoke_dir/live" --mmap yes \
    >/dev/null 2>"$smoke_dir/live.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -qF -e "--mmap maps index files" "$smoke_dir/live.err"; then
    echo "verify: stats --mmap on an incremental directory exited $status without" \
        "the index-files message:" >&2
    cat "$smoke_dir/live.err" >&2
    exit 1
fi

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

# The four perf gates below write their reports under target/bench/, not
# over the committed BENCH_*.json at the root: a gate run would otherwise
# rewrite the committed report on every full run, and the rewrite would
# be discarded, leaving the committed file from an older tree. A change
# that means to refresh a committed report runs its gate without --out
# (the default is the root BENCH_*.json), commits the file, and says so
# in CHANGES.md. --check reads only the thresholds file either way.
mkdir -p target/bench

# Decode perf gate + codec shootout (DESIGN.md §12, §13, §18):
# re-measures exhaustive and pruned top-k on the baseline engine and the
# served pair kernel on bit-packed blocks at every gated width, writes
# target/bench/BENCH_decode.json, and fails if any gated min_ns exceeds
# the committed baseline by more than the fail_above_ratio in
# BENCH_decode_thresholds.json, if a gated metric has no baseline (or a
# baseline no metric), if pruning stops skipping blocks, if the
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
        --out target/bench/BENCH_decode.json --check BENCH_decode_thresholds.json
else
    echo "verify: --quick set, running codec decode smoke instead of perf gate"
    cargo run --release -p iiu-bench --bin decode_bench -- --smoke
fi

# Shard scaling gate (DESIGN.md §14): re-measures document-sharded vs
# unsharded pruned top-k on the 60k-doc corpus, writes
# target/bench/BENCH_shard.json, and fails if a gated wall min_ns
# regresses past the committed baseline, if the 4-shard single-term k=10
# modeled QPS gain drops below 2.5x, or if per-shard pruning stops
# skipping blocks. Regenerate baselines with:
#   cargo run --release -p iiu-bench --bin shard_bench -- \
#     --write-thresholds BENCH_shard_thresholds.json
if [ "$quick" -eq 0 ]; then
    cargo run --release -p iiu-bench --bin shard_bench -- \
        --out target/bench/BENCH_shard.json --check BENCH_shard_thresholds.json
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
# exceeds the committed rss_max_kb. Writes target/bench/BENCH_mmap.json.
# Regenerate baselines with:
#   cargo run --release -p iiu-bench --bin mmap_bench -- \
#     --write-thresholds BENCH_mmap_thresholds.json
# Under --quick, only the source-equivalence smoke runs (no timing, no
# RSS child).
if [ "$quick" -eq 0 ]; then
    cargo run --release -p iiu-bench --bin mmap_bench -- \
        --out target/bench/BENCH_mmap.json --check BENCH_mmap_thresholds.json
else
    echo "verify: --quick set, running mmap source-equivalence smoke instead of perf gate"
    cargo run --release -p iiu-bench --bin mmap_bench -- --smoke
fi

# Serve tail-latency gate (DESIGN.md §17): offers the same 100k-query
# Zipf-skewed stream to the serving layer twice at equal offered load —
# fixed topology (every query fans out) vs the hybrid inter/intra-query
# scheduler — with the device path sabotaged so everything runs the
# sharded CPU path. Proves the two modes' hit streams bit-identical,
# writes target/bench/BENCH_serve.json, and fails unless the hybrid p99
# is strictly below the fixed p99, both routes were exercised, and the
# committed end-to-end latency ceilings hold. Regenerate baselines with:
#   cargo run --release -p iiu-bench --bin serve_bench -- \
#     --write-thresholds BENCH_serve_thresholds.json
if [ "$quick" -eq 0 ]; then
    cargo run --release -p iiu-bench --bin serve_bench -- \
        --out target/bench/BENCH_serve.json --check BENCH_serve_thresholds.json
else
    echo "verify: --quick set, skipping serve tail-latency gate"
fi

echo "verify: OK"
