#!/usr/bin/env bash
# Paired A/B of one benchmark workload: the benchmark as built at a base
# revision against the benchmark as built from the working tree.
#
#   scripts/ab.sh <base-rev> <workload> [pairs] [seconds]
#
# Extracts <base-rev> (`git archive`) and copies the working tree into
# $AB_DIR (default benchmark/out/ab), builds each copy's benchmark into
# its own target directory there, then runs pair i = 1..pairs (default
# 10) as base, then working tree, each `faqs-benchmark run --seed i
# --seconds <seconds> --trace 0` (default 25 s). Prints each pair's
# ops_per_s, latency_p50_ms, cpu_ms_per_op and peak_rss_mb, base → working
# tree, then each metric's median ratio (working tree / base). Writes
# nothing outside $AB_DIR; exits non-zero when a run fails or is wrong.
set -euo pipefail
if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: scripts/ab.sh <base-rev> <workload> [pairs] [seconds]" >&2
    exit 2
fi
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
workload=$2 pairs=${3:-10} seconds=${4:-25}
work=${AB_DIR:-$root/benchmark/out/ab}
base=$work/base-${rev:0:12} head=$work/head
mkdir -p "$work"

if [[ ! -d $base ]]; then
    rm -rf "$base.part" && mkdir -p "$base.part"
    git -C "$root" archive "$rev" | tar -x -C "$base.part"
    mv "$base.part" "$base"
fi
# tar keeps modification times, so an unchanged file is not rebuilt.
rm -rf "$head" && mkdir -p "$head"
(cd "$root" && tar --exclude=./.git --exclude=./target --exclude=./benchmark/target \
    --exclude=./benchmark/out -cf - .) | tar -xf - -C "$head"

for side in base head; do
    dir=${!side}
    echo "building $side ($dir)" >&2
    CARGO_TARGET_DIR=$work/target-$side \
        cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml" >&2
done

# One run; its result is the last line of standard output.
run() {
    local side=$1 seed=$2 dir=${!1}
    "$work/target-$side/release/faqs-benchmark" run --root "$dir" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>>"$work/runs.log" | tail -n 1
}

for seed in $(seq 1 "$pairs"); do
    echo "pair $seed/$pairs" >&2
    echo "$seed base $(run base "$seed")"
    echo "$seed head $(run head "$seed")"
done | awk -v workload="$workload" '
    function metric(line, name,   at) {
        if (!match(line, "\"" name "\": \\{\"value\": [-+0-9.eE]+")) return "nan"
        at = substr(line, RSTART, RLENGTH)
        sub(/.*: /, "", at)
        return at + 0
    }
    function median(xs, n,   i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && xs[j - 1] > xs[j]; j--) { t = xs[j]; xs[j] = xs[j - 1]; xs[j - 1] = t }
        return n % 2 ? xs[(n + 1) / 2] : (xs[n / 2] + xs[n / 2 + 1]) / 2
    }
    BEGIN {
        m = split("ops_per_s latency_p50_ms cpu_ms_per_op peak_rss_mb", names, " ")
        printf "%s: base -> working tree\n%-5s", workload, "seed"
        for (k = 1; k <= m; k++) printf "  %-26s", names[k]
        printf "\n"
    }
    {
        line = $0
        if (line !~ /"correct": true/ || line !~ /"failed": 0[,}]/) {
            printf "seed %s %s: failed or wrong run: %s\n", $1, $2, line > "/dev/stderr"
            bad = 1
        }
        for (k = 1; k <= m; k++) v[$2, k] = metric(line, names[k])
        if ($2 != "head") next
        n++
        printf "%-5s", $1
        for (k = 1; k <= m; k++) {
            printf "  %11.4g -> %-11.4g", v["base", k], v["head", k]
            ratio[k, n] = v["head", k] / v["base", k]
        }
        printf "\n"
    }
    END {
        printf "%-5s", "ratio"
        for (k = 1; k <= m; k++) {
            for (i = 1; i <= n; i++) xs[i] = ratio[k, i]
            printf "  %-26s", sprintf("%.3f (median)", median(xs, n))
        }
        printf "\n"
        exit bad
    }'
