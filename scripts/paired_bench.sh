#!/usr/bin/env sh
# Paired runs of the repo benchmark: a parent commit against this tree.
#
# Usage: scripts/paired_bench.sh <parent-ref> [workloads] [seeds]
#   parent-ref  any commit-ish; its committed files are the parent side
#   workloads   comma-separated (default: the five of BENCHMARK.json)
#   seeds       comma-separated (default: 1,2,3)
#
# Unpacks <parent-ref> (git archive, so nothing is registered in .git)
# under target/paired_bench/parent, builds that tree's benchmark/ package
# and this tree's, each into its own benchmark/target, and for every seed
# and workload runs the two binaries back to back with --trace 0 — which
# side goes first alternates from one seed to the next and from one
# workload to the next — each from its own tree root and for the run
# length BENCHMARK.json fixes. Then prints, per workload and end-to-end
# metric, each side's per-seed values, the medians and change/parent, how
# many seed pairs the change won in the metric's `better` direction ("N/M";
# a tie counts for neither side), and whether every run was correct with
# no failed op. Raw last lines are kept in target/paired_bench/runs.tsv.
#
# Each change/parent ratio is checked against the metric's `better` and
# `bound` in BENCHMARK.json: a lower-is-better metric above 1 + bound, or a
# higher-is-better one below 1 - bound, is marked WORSE. Exits non-zero if
# any metric is WORSE or any run was wrong or failed an op.
#
# Beside each rss_mib row it prints the median of the benchmark harness's
# own sample buffer, `attempted` ops × 8 bytes, in MiB per side: the part
# of rss_mib that grows with ops_per_s rather than with the product. After
# the table it prints every run's `attempted` count and flags each run at
# or above 1,048,576 (2^20) attempted ops: there the buffer's capacity
# doubles from 8 to 16 MiB, a step in rss_mib that is not the product's.
#
# Edits nothing under benchmark/; everything it writes is under target/.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: $0 <parent-ref> [workloads] [seeds]" >&2
    exit 2
fi
ref=$1
workloads=${2:-engine_heavy_heap,engine_heavy_mmap,serve_light,serve_mixed,live_ingest_search}
seeds=${3:-1,2,3}

root=$(git rev-parse --show-toplevel)
cd "$root"
# One shared target directory would make the two builds overwrite each other.
unset CARGO_TARGET_DIR
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
work=$root/target/paired_bench
parent=$work/parent
runs=$work/runs.tsv

rm -rf "$parent"
mkdir -p "$parent"
git archive "$ref" | tar -x -C "$parent"
echo "paired_bench: building parent ($ref) and change" >&2
cargo build --release --offline --quiet --manifest-path "$parent/benchmark/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"

# run <side> <tree> <workload> <seed>: one line "side workload seed json".
run() {
    json=$(cd "$2" && ./benchmark/target/release/benchmark \
        --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)
    printf '%s\t%s\t%s\t%s\n' "$1" "$3" "$4" "$json" >>"$runs"
}

: >"$runs"
pair=0
s=0
for seed in $(echo "$seeds" | tr ',' ' '); do
    s=$((s + 1))
    w=0
    for workload in $(echo "$workloads" | tr ',' ' '); do
        w=$((w + 1))
        pair=$((pair + 1))
        echo "paired_bench: pair $pair: $workload seed $seed" >&2
        # Seed and workload positions together pick who goes first, so each
        # workload alternates from seed to seed whatever the workload count.
        if [ $(((s + w) % 2)) -eq 0 ]; then
            run parent "$parent" "$workload" "$seed"
            run change "$root" "$workload" "$seed"
        else
            run change "$root" "$workload" "$seed"
            run parent "$parent" "$workload" "$seed"
        fi
    done
done

# "name<TAB>better<TAB>bound" for every end-to-end metric: the objects of
# BENCHMARK.json that carry a bound.
bounds=$work/bounds.tsv
tr -d ' \t\n' <BENCHMARK.json | awk '{
    s = $0
    while (match(s, /\{[^{}]*"bound":[^{}]*\}/)) {
        f = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
        match(f, /"name":"[^"]*"/); name = substr(f, RSTART + 8, RLENGTH - 9)
        match(f, /"better":"[^"]*"/); better = substr(f, RSTART + 10, RLENGTH - 11)
        match(f, /"bound":[0-9.]+/); bound = substr(f, RSTART + 8, RLENGTH - 8)
        printf "%s\t%s\t%s\n", name, better, bound
    }
}' >"$bounds"

awk -F '\t' '
function median(list,    v, n, i, j, t) {
    n = split(list, v, " ")
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
FNR == NR { better[$1] = $2; bound[$1] = $3; next }
{
    side = $1; workload = $2; json = $4
    if (!(workload in seen)) { seen[workload] = 1; order[++nw] = workload }
    if (json !~ /"correct":true/ || json !~ /"failed":0[,}]/) bad = bad "\n  " side " " workload " seed " $3
    total++
    if (match(json, /"attempted":[0-9]+/)) {
        ops = substr(json, RSTART + 12, RLENGTH - 12)
        samples[side, workload] = samples[side, workload] sprintf(" %.5g", ops * 8 / 1048576)
        attempted[side, workload] = attempted[side, workload] " " ops
        if (ops + 0 >= 1048576) stepped = stepped "\n  " side " " workload " seed " $3 ": " ops
    }
    while (match(json, /"[a-z0-9_]+":\{"unit":"[^"]*","value":[^}]*\}/)) {
        field = substr(json, RSTART, RLENGTH); json = substr(json, RSTART + RLENGTH)
        name = field; sub(/^"/, "", name); sub(/".*/, "", name)
        value = field; sub(/.*"value":/, "", value); sub(/\}$/, "", value)
        key = workload SUBSEP name
        if (!(key in known)) { known[key] = 1; metrics[workload] = metrics[workload] " " name }
        vals[side, workload, name] = vals[side, workload, name] sprintf(" %.5g", value)
    }
}
END {
    printf "%-20s %-17s %-34s %-34s %10s %10s %7s %6s\n", "workload", "metric", "parent (per seed)", "change (per seed)", "parent med", "change med", "ratio", "won"
    for (w = 1; w <= nw; w++) {
        n = split(metrics[order[w]], names, " ")
        for (i = 1; i <= n; i++) {
            p = vals["parent", order[w], names[i]]; c = vals["change", order[w], names[i]]
            mp = median(p); mc = median(c)
            ratio = mp + 0 == 0 ? 0 : mc / mp
            # Pairs the change won: the i-th values of both sides are one seed.
            won = "-"
            if (names[i] in better) {
                np = split(p, pv, " "); split(c, cv, " "); wins = 0
                for (j = 1; j <= np; j++)
                    if ((better[names[i]] == "lower" && cv[j] + 0 < pv[j] + 0) || (better[names[i]] == "higher" && cv[j] + 0 > pv[j] + 0)) wins++
                won = wins "/" np
            }
            flag = ""
            if (mp + 0 != 0 && names[i] in bound) {
                b = bound[names[i]]
                if ((better[names[i]] == "lower" && ratio > 1 + b) || (better[names[i]] == "higher" && ratio < 1 - b)) {
                    flag = "WORSE"; worse = worse "\n  " order[w] " " names[i] sprintf(" %.3f", ratio)
                }
            }
            if (names[i] == "rss_mib" && (("parent", order[w]) in samples))
                flag = flag sprintf(" (harness samples: parent %.3g, change %.3g MiB)", median(samples["parent", order[w]]), median(samples["change", order[w]]))
            printf "%-20s %-17s %-34s %-34s %10.5g %10.5g %7.3f %6s %s\n", order[w], names[i], substr(p, 2), substr(c, 2), mp, mc, ratio, won, flag
        }
    }
    print "attempted ops per run (per seed):"
    for (w = 1; w <= nw; w++)
        printf "  %-20s parent%s   change%s\n", order[w], attempted["parent", order[w]], attempted["change", order[w]]
    if (stepped != "") printf "runs at or above 2^20 attempted ops (sample buffer 16 MiB, not 8):%s\n", stepped
    status = 0
    if (bad == "") printf "all %d runs: correct=true failed=0\n", total
    else { printf "runs with a wrong answer or a failed op:%s\n", bad; status = 1 }
    if (worse == "") print "every metric within its BENCHMARK.json bound"
    else { printf "WORSE than the parent beyond the BENCHMARK.json bound:%s\n", worse; status = 1 }
    exit status
}' "$bounds" "$runs"
