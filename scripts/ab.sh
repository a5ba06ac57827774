#!/usr/bin/env bash
# Paired A/B of one benchmark workload: the benchmark as built at a base
# revision against the benchmark as built from the working tree.
#
#   scripts/ab.sh <base-rev> <workload> [pairs] [seconds] [claimed-metric]
#
# Extracts <base-rev> (`git archive`) and copies the working tree into
# $AB_DIR (default benchmark/out/ab), builds each copy's benchmark into
# its own target directory there, then runs pair i = 1..pairs (default
# 10), each `faqs-benchmark run --seed i --seconds <seconds> --trace 0`
# (default 25 s): odd pairs run the base first, even pairs the working
# tree first, so neither side always runs on the warmer machine. Prints
# each pair's five end-to-end metrics (setup_s, ops_per_s,
# latency_p50_ms, cpu_ms_per_op, peak_rss_mb), base → working tree; then
# per metric each side's median and quartiles, the median ratio (working
# tree / base), the pairs the working tree wins (higher ops_per_s,
# lower everything else) and a verdict by the rules a claim is judged by,
# each metric's bound read from BENCHMARK.json's `end_to_end`:
#   unresolved  the base's own q3 - q1 is wider than the bound (as a
#               share of the base median): the runs cannot tell;
#   gain        (claimed metric only) the working tree wins >= 9/10 of
#               the pairs and its median beats the base's by more than
#               the base's q3 - q1; "no gain" otherwise;
#   regression  the median is worse than the base's by more than the
#               bound; "ok" otherwise.
# Writes nothing outside $AB_DIR; exits non-zero when a run fails or is
# wrong.
set -euo pipefail
if [[ $# -lt 2 || $# -gt 5 ]]; then
    echo "usage: scripts/ab.sh <base-rev> <workload> [pairs] [seconds] [claimed-metric]" >&2
    exit 2
fi
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
workload=$2 pairs=${3:-10} seconds=${4:-25} claim=${5:-}
# "name=bound ..." of every end-to-end metric (one JSON key per line).
bounds=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /"name"/ { split($0, q, "\""); name = q[4] }
    on && /"bound"/ { sub(/.*: */, ""); sub(/,.*/, ""); printf "%s=%s ", name, $0 }
    on && /^ *\]/ { on = 0 }' "$root/BENCHMARK.json")
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
    if ((seed % 2)); then order="base head"; else order="head base"; fi
    echo "pair $seed/$pairs ($order)" >&2
    for side in $order; do
        echo "$seed $side $(run "$side" "$seed")"
    done
done | awk -v workload="$workload" -v claim="$claim" -v bounds="$bounds" '
    function metric(line, name,   at) {
        if (!match(line, "\"" name "\": \\{\"value\": [-+0-9.eE]+")) return "nan"
        at = substr(line, RSTART, RLENGTH)
        sub(/.*: /, "", at)
        return at + 0
    }
    function sort(xs, n,   i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && xs[j - 1] > xs[j]; j--) { t = xs[j]; xs[j] = xs[j - 1]; xs[j - 1] = t }
    }
    # Quantile p of sorted xs[1..n], linear between order statistics.
    function quantile(xs, n, p,   at, lo) {
        at = 1 + (n - 1) * p
        lo = int(at)
        return lo >= n ? xs[n] : xs[lo] + (at - lo) * (xs[lo + 1] - xs[lo])
    }
    # Sets med, q1 and q3 of side s for metric k; returns "median (q1–q3)".
    function spread(s, k,   i, xs) {
        for (i = 1; i <= n; i++) xs[i] = v[s, k, i]
        sort(xs, n)
        med = quantile(xs, n, 0.5); q1 = quantile(xs, n, 0.25); q3 = quantile(xs, n, 0.75)
        return sprintf("%.4g (%.4g-%.4g)", med, q1, q3)
    }
    BEGIN {
        m = split("setup_s ops_per_s latency_p50_ms cpu_ms_per_op peak_rss_mb", names, " ")
        higher["ops_per_s"] = 1
        nb = split(bounds, kv, " ")
        for (i = 1; i <= nb; i++) { split(kv[i], p, "="); bound[p[1]] = p[2] + 0 }
        if (claim != "" && !(claim in bound)) {
            printf "claimed metric %s is not an end-to-end metric of BENCHMARK.json\n", claim > "/dev/stderr"
            bad = 1
        }
    }
    {
        line = $0
        if (line !~ /"correct": true/ || line !~ /"failed": 0[,}]/) {
            printf "seed %s %s: failed or wrong run: %s\n", $1, $2, line > "/dev/stderr"
            bad = 1
        }
        if (!($1 in pair)) { pair[$1] = ++n; seed[n] = $1 }
        for (k = 1; k <= m; k++) v[$2, k, pair[$1]] = metric(line, names[k])
    }
    END {
        printf "%s: base -> working tree\n%-5s", workload, "seed"
        for (k = 1; k <= m; k++) printf "  %-26s", names[k]
        printf "\n"
        for (i = 1; i <= n; i++) {
            printf "%-5s", seed[i]
            for (k = 1; k <= m; k++) printf "  %11.4g -> %-11.4g", v["base", k, i], v["head", k, i]
            printf "\n"
        }
        printf "\n%-15s  %-28s  %-28s  %-7s  %-9s  %s\n", "metric", "base median (q1-q3)", "head median (q1-q3)", "ratio", "head wins", "verdict"
        for (k = 1; k <= m; k++) {
            name = names[k]
            wins = 0
            for (i = 1; i <= n; i++) {
                r[i] = v["head", k, i] / v["base", k, i]
                if (higher[name] ? v["head", k, i] > v["base", k, i] : v["head", k, i] < v["base", k, i]) wins++
            }
            sort(r, n)
            base_spread = spread("base", k); base_med = med; iqr = q3 - q1
            head_spread = spread("head", k)
            # How far the head median is better than the base median (< 0: worse).
            better = higher[name] ? med - base_med : base_med - med
            if (iqr > bound[name] * base_med) verdict = "unresolved"
            else if (-better > bound[name] * base_med) verdict = "regression"
            else if (name == claim) verdict = (10 * wins >= 9 * n && better > iqr) ? "gain" : "no gain"
            else verdict = "ok"
            printf "%-15s  %-28s  %-28s  %-7.3f  %-9s  %s\n", name, base_spread, head_spread, quantile(r, n, 0.5), wins "/" n, verdict
        }
        exit bad
    }'
