#!/usr/bin/env sh
# Paired regeneration of the paper's results: a parent commit against this
# tree. The reproduction's twin of paired_bench.sh.
#
# Usage: scripts/paired_results.sh <parent-ref>
#   parent-ref  any commit-ish; its committed files are the parent side
#
# Unpacks <parent-ref> (git archive, so nothing is registered in .git)
# under target/paired_results/parent and copies this tree's tracked and
# unignored files to target/paired_results/change, so the repo's own
# results/ is never written. Builds run_all in each copy with that copy's
# own target directory, runs each from its own root (IIU_SCALE passes
# through from the environment) and prints both wall times. Then compares
# every results/*.json the two runs wrote with cmp, prints `identical N/N`
# or the files that differ, and exits 1 on any difference. Each run's
# stdout and stderr are kept in target/paired_results/<side>.log.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <parent-ref>" >&2
    exit 2
fi
ref=$1

root=$(git rev-parse --show-toplevel)
cd "$root"
# One shared target directory would make the two builds overwrite each other.
unset CARGO_TARGET_DIR
work=$root/target/paired_results
parent=$work/parent
change=$work/change

rm -rf "$parent" "$change"
mkdir -p "$parent" "$change"
git archive "$ref" | tar -x -C "$parent"
git ls-files -z --cached --others --exclude-standard \
    | tar --null --ignore-failed-read -T - -cf - 2>/dev/null \
    | tar -x -C "$change"
# Only what run_all writes is compared.
rm -rf "$parent/results" "$change/results"

# run <side> <tree>: builds and runs run_all in <tree>, prints its wall time.
run() {
    echo "paired_results: building $1" >&2
    (cd "$2" && cargo build --release --offline --quiet -p iiu-bench --bin run_all)
    start=$(date +%s.%N)
    (cd "$2" && ./target/release/run_all >"$work/$1.log" 2>&1)
    end=$(date +%s.%N)
    awk -v s="$start" -v e="$end" -v side="$1" \
        'BEGIN { printf "paired_results: %s run_all wall %.1f s\n", side, e - s }'
}

run parent "$parent"
run change "$change"

total=0
same=0
diff=""
for f in $( (cd "$parent/results" && ls -- *.json; cd "$change/results" && ls -- *.json) \
    | sort -u); do
    total=$((total + 1))
    if cmp -s "$parent/results/$f" "$change/results/$f"; then
        same=$((same + 1))
    else
        diff="$diff $f"
    fi
done
if [ -z "$diff" ]; then
    echo "identical $same/$total"
else
    echo "differ ($same/$total identical):$diff"
    exit 1
fi
