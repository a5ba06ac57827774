#!/usr/bin/env bash
# scripts/check-one-pass.sh — guards "one upward pass" (ROADMAP item 2),
# its one-scan push-down and one-scan message fold (ROADMAP item 6,
# issues 17 and 21), one Steiner packing per
# distributed run and member set (issue 18), one aggregate capability
# (ROADMAP item 3e, issue 19), one generic-join kernel (issue 20), one
# schedule for the pass (ROADMAP item 3b, issue 22), one profile scan
# per relation state (ROADMAP items 6(i) / 7(c), issue 24), a library
# that reads no environment (ROADMAP item 3d, issue 25) and the
# `unwrap` / `expect` ratchet (ROADMAP item 5f), plus one operator per
# GHD bag, one fold order per plan (ROADMAP item 5d), one planning
# mode (ROADMAP aim 2), one delivery path for every transport, one
# sorted scan per relational job (no reusable index), one plan value,
# a serving front-end without admission control and calibration as a
# pure observer.
#
# Fails unless exactly one non-test source file under
# crates/{core,exec,protocols}/src calls the generic join
# (`generic_join(` or `generic_join_aggregated(`, one kernel), and it is
# crates/core/src/pass.rs: the Theorem G.3 skeleton in faqs-core is the
# only place that joins a bag. Fails, too, when that file makes any
# plain `generic_join(` call: the pass aggregates as it joins
# (`generic_join_aggregated`) and no site lists a bag. Fails, too, when
# the non-test, non-comment part of crates/exec/src/incremental.rs
# calls `aggregate_out_many(`: the incremental session evaluates only
# through `Pass::run` (a delta is a pass with the mutated factor swapped
# for it), and its own push-down may not come back. Fails, too, when a
# non-test, non-comment line under src/ or crates/*/src names
# `push_down_message`, `finish_root` or `local_bag`: the pass's
# push-down, root epilogue and bag have no second caller to serve.
# Fails, too, when a
# non-test, non-comment line there uses the single-variable
# `aggregate_out` outside the independent
# oracles (core/src/brute.rs, protocols/src/degenerate.rs): the pass
# pushes a whole nest down with `aggregate_out_many`, and a per-variable
# loop must not come back beside it. Fails, too, when a non-test,
# non-comment line under src/ or crates/*/src names `JoinIndex`,
# `build_index`, `lookup_many` or `join_indexed`: a sorted arena is its
# own index, so join, semijoin, selection, batch slicing and the
# hash-split witness check are each one sorted scan or binary search
# (a key's rows are one run), every bag of two or more factors is one
# generic-join pass and a node multiplies its child messages in with
# one `fold_keyed` scan; neither a reusable index nor an index-join
# cascade or per-message index built on one may come back beside
# them. Fails, too, when a non-test, non-comment line
# under src/ or crates/*/src names `use_wcoj`, `BagOp` or `JoinStep`:
# the second bag lowering, its operator enum and its planner knob are
# gone. Fails, too, when a
# non-test, non-comment line of crates/protocols/src/distributed.rs calls
# `best_delta(`: the run packs each member set once (`DeltaPackings`)
# and asks it per factor; a per-factor re-packing must not come back.
# Fails, too, when a non-test, non-comment line under src/ or
# crates/*/src names a `*_lattice` item, `AggFn` or `LatticeOps`, or
# takes `lattice:` as a parameter outside the three shim signatures of
# crates/plan/src/planner.rs that benchmark/ compiles against: which
# aggregates a query may use is the carrier's declaration
# (`Semiring::admits`), not the caller's choice of door.
# Fails, too, when a non-test, non-comment line of
# crates/relation/src/genjoin.rs defines `fn gallop` or a field named
# `ranges`: the generic join intersects trie levels (issue 20), and the
# strided cursor with its per-depth range table must not come back
# beside it. Fails, too, when a non-test, non-comment line under
# crates/{relation,core,exec,protocols}/src calls `thread::scope` or
# `thread::spawn`, or names `join_indexed_par`: the pass is never
# thread-scheduled (issue 22 — `exec.parallel_speedup_t2` never read
# above 0.98), parallelism comes from independent requests in
# faqs-serve. Fails, too, when a non-test, non-comment line of
# crates/relation/src/query.rs walks a factor's rows (`.tuples()`,
# `.tuple_at(`, or an `.iter()` on anything but `factors` /
# `free_vars`): `FaqQuery::validate` reads each factor's profile
# (`Relation::max_value`), and a scan loop must not come back beside
# the memo. Fails, too, unless the non-test, non-comment sources hold
# exactly one `Profile::scan(` call and it is
# the memo's initialiser in arena.rs: `stats()`, `max_value()` and every
# door built on them read what that one scan learned (issue 24). Fails,
# too, when a non-test, non-comment line under src/ or crates/*/src
# calls `env::var` / `env::vars` (or their `_os` forms) or names a
# `FAQS_*` variable: the library reads no environment — a configuration
# is a value a caller builds (`ServeConfig`, `CalibrationRegistry`,
# a `Transport`), not a process-wide switch
# (issue 25). Fails, too, when more than `max_unwraps` of the workspace's
# non-test, non-comment lines call `unwrap` / `expect` (ROADMAP item 5f:
# the count can only fall — lower the ratchet with it).
# Fails, too, when a non-test, non-comment line under src/ or
# crates/*/src names `Envelope`, `record_replans` or `note_replan`, or
# defines `fn forced`: a node folds its messages in plan order, and the
# calibration envelope with its mid-flight re-order must not come back.
# Fails, too, when a non-test, non-comment line under src/ or
# crates/*/src names `use_stats`, `stats_aware`,
# `PlannerConfig::structural` or `PlannerConfig::stats`, or defines
# `fn with_planner` or `fn new_with`: every door plans one way, and the
# structural default lives on only as candidate 0 and as
# `structural_plan`, the reference plan.
# Fails, too, when a non-test, non-comment line under src/ or
# crates/*/src names `carries_payload` or `TransportKind::Channel`, or
# one under crates/{network,protocols}/src names `mpsc`: every transport
# delivers the frame's bytes, so every distributed run computes on
# decoded frames under the live oracle, and neither a no-payload path
# nor a channel-inbox transport may come back beside the in-memory one.
# Fails, too, when a non-test, non-comment line under src/ or
# crates/*/src names `ChosenPlan`, `QueryPlan::lower` or
# `join_order_covers_lambda`, or a file outside crates/plan/src calls
# `pre_agg_candidates(`: the planner emits the `QueryPlan` every site
# runs — children, nests, binding orders and shard nests included — so
# neither a second plan type, a lowering step, a cross-crate contract
# check on it nor a second shard push-down guard may come back.
# Fails, too, when a non-test, non-comment line under src/ or
# crates/*/src names `PricedOn`, `TooExpensive`, `QuoteMemo`,
# `cost_quote_with_stats` or `samples_for`, or one under
# crates/serve/src names `MaintainedQueryStats`: every submit queues,
# so neither an admission quote, its per-epoch memo, its pricing basis
# nor the statistics the server maintained only for it may come back.
# Fails, too, when a non-test, non-comment line under src/ or
# crates/*/src names `correction_fresh`, `calibration_replans`,
# `with_calibration`, `plan_query_calibrated` or
# `CalibrationRegistry::off`: calibration observes and never steers —
# the planner scores raw estimates, the digest is the plan cache's only
# staleness rule, and the registry has no on/off state (ROADMAP item
# 20, Measurement B).
# Also prints the non-test src/ line
# total of those three crates and of the whole workspace (src/ +
# crates/*/src) — per file, the lines before the first `#[cfg(test)]` —
# the numbers a simplifying PR reports, and the unwrap/expect count.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

nontest_lines() {
    awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

crates=(core exec protocols)
oracles=(crates/core/src/brute.rs crates/protocols/src/degenerate.rs)
sites=()
per_variable=()
total=0
for crate in "${crates[@]}"; do
    lines=0
    while IFS= read -r file; do
        n=$(nontest_lines "$file")
        lines=$((lines + n))
        # Captured, not piped into `grep -q`: an early exit would SIGPIPE
        # `head`, and under pipefail the match would read as a miss.
        code=$(head -n "$n" "$file" | grep -Ev '^[[:space:]]*//' || true)
        if grep -Eq '(^|[^_[:alnum:]])generic_join(_aggregated)?\(' <<<"$code"; then
            sites+=("$file")
        fi
        if [[ " ${oracles[*]} " != *" $file "* ]] &&
            grep -Eq '(\.|::)aggregate_out([^_[:alnum:]]|$)' <<<"$code"; then
            per_variable+=("$file")
        fi
    done < <(find "crates/$crate/src" -name '*.rs' | sort)
    printf '%-10s %5d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %5d non-test src lines\n' total "$total"

workspace=0
twins=()
lowerings=()
threaded=()
scans=()
readers=()
reorders=()
modes=()
paths=()
epilogues=()
indexes=()
plans=()
admissions=()
steering=()
flags=0
unwraps=0
shims=crates/plan/src/planner.rs
while IFS= read -r file; do
    n=$(nontest_lines "$file")
    workspace=$((workspace + n))
    code=$(head -n "$n" "$file" | grep -Ev '^[[:space:]]*//' || true)
    unwraps=$((unwraps + $(grep -Ec '\.(unwrap\(\)|expect\()' <<<"$code" || true)))
    if [[ "$file" =~ ^crates/(relation|core|exec|protocols)/src/ ]] &&
        grep -Eq 'thread::(scope|spawn)|join_indexed_par' <<<"$code"; then
        threaded+=("$file")
    fi
    calls=$(grep -o 'Profile::scan(' <<<"$code" | wc -l || true)
    if [ "$calls" -gt 0 ]; then
        scans+=("$file x$calls")
    fi
    if grep -Eq 'env::vars?(_os)?\b|FAQS_' <<<"$code"; then
        readers+=("$file")
    fi
    if grep -Eq '\b(Envelope|record_replans|note_replan|fn forced)\b' <<<"$code"; then
        reorders+=("$file")
    fi
    if grep -Eq '\b(use_stats|stats_aware)\b|\bPlannerConfig::(structural|stats)\b|\bfn (with_planner|new_with)\b' <<<"$code"; then
        modes+=("$file")
    fi
    if grep -Eq '\bcarries_payload\b|\bTransportKind::Channel\b' <<<"$code" ||
        { [[ "$file" =~ ^crates/(network|protocols)/src/ ]] && grep -Eq '\bmpsc\b' <<<"$code"; }; then
        paths+=("$file")
    fi
    if grep -Eq '\b(push_down_message|finish_root|local_bag)\b' <<<"$code"; then
        epilogues+=("$file")
    fi
    if grep -Eq '\b(JoinIndex|build_index|lookup_many|join_indexed)\b' <<<"$code"; then
        indexes+=("$file")
    fi
    if grep -Eq '\b(ChosenPlan|join_order_covers_lambda)\b|\bQueryPlan::lower\b' <<<"$code" ||
        { [[ ! "$file" =~ ^crates/plan/src/ ]] && grep -Eq '(^|[^_[:alnum:]])pre_agg_candidates\(' <<<"$code"; }; then
        plans+=("$file")
    fi
    if grep -Eq '\b(PricedOn|TooExpensive|QuoteMemo|cost_quote_with_stats|samples_for)\b' <<<"$code" ||
        { [[ "$file" =~ ^crates/serve/src/ ]] && grep -Eq '\bMaintainedQueryStats\b' <<<"$code"; }; then
        admissions+=("$file")
    fi
    if grep -Eq '\b(correction_fresh|calibration_replans|with_calibration|plan_query_calibrated)\b|\bCalibrationRegistry::off\b' <<<"$code"; then
        steering+=("$file")
    fi
    if grep -Eq '_lattice\b|\bAggFn\b|\bLatticeOps\b' <<<"$code"; then
        twins+=("$file")
    fi
    if grep -Eq '\b(use_wcoj|BagOp|JoinStep)\b' <<<"$code"; then
        lowerings+=("$file")
    fi
    count=$(grep -Ec '\blattice:' <<<"$code" || true)
    if [ "$file" = "$shims" ]; then
        count=$((count > 3 ? count - 3 : 0))
    fi
    flags=$((flags + count))
done < <(find src crates/*/src -name '*.rs')
printf '%-10s %5d non-test src lines (src/ + crates/*/src)\n' workspace "$workspace"
printf '%-10s %5d non-test, non-comment src lines with an unwrap/expect\n' workspace "$unwraps"

printf 'bag-lowering sites: %d\n' "${#sites[@]}"
printf '  %s\n' "${sites[@]}"
pass=crates/core/src/pass.rs
if [ "${sites[*]}" != "$pass" ]; then
    echo "expected exactly one file to call generic_join( / generic_join_aggregated(: $pass" >&2
    exit 1
fi
listings=$(head -n "$(nontest_lines "$pass")" "$pass" |
    grep -Ev '^[[:space:]]*//' |
    grep -Eo '(^|[^_[:alnum:]])generic_join\(' | wc -l || true)
if [ "$listings" -gt 0 ]; then
    echo "$pass lists a bag $listings times: the pass aggregates as it joins (generic_join_aggregated), and no site lists a bag" >&2
    exit 1
fi
session=crates/exec/src/incremental.rs
if head -n "$(nontest_lines "$session")" "$session" |
    grep -Ev '^[[:space:]]*//' |
    grep -En 'aggregate_out_many\(' >&2; then
    echo "$session evaluates beside the pass: a delta is a Pass::run with the mutated factor swapped for it" >&2
    exit 1
fi
if [ "${#epilogues[@]}" -ne 0 ]; then
    printf 'a second push-down, root epilogue or bag listing is back (push_down_message / finish_root / local_bag):\n' >&2
    printf '  %s\n' "${epilogues[@]}" >&2
    exit 1
fi
if [ "${#lowerings[@]}" -ne 0 ]; then
    printf 'a second bag lowering (use_wcoj / BagOp / JoinStep) is back:\n' >&2
    printf '  %s\n' "${lowerings[@]}" >&2
    exit 1
fi
if [ "${#per_variable[@]}" -ne 0 ]; then
    printf 'single-variable aggregate_out outside the oracles:\n' >&2
    printf '  %s\n' "${per_variable[@]}" >&2
    exit 1
fi
if [ "${#twins[@]}" -ne 0 ]; then
    printf 'a *_lattice twin, AggFn or LatticeOps is back:\n' >&2
    printf '  %s\n' "${twins[@]}" >&2
    exit 1
fi
if [ "${#threaded[@]}" -ne 0 ]; then
    printf 'a thread-scheduled pass (thread::scope / thread::spawn / join_indexed_par) is back:\n' >&2
    printf '  %s\n' "${threaded[@]}" >&2
    exit 1
fi
if [ "$flags" -ne 0 ]; then
    echo "a lattice: parameter outside the three shims of $shims" >&2
    exit 1
fi
if [ "${#indexes[@]}" -ne 0 ]; then
    printf "a reusable join index is back (JoinIndex / build_index / lookup_many / join_indexed): a key's rows are one run of the sorted arena, and bags are one generic_join:\n" >&2
    printf '  %s\n' "${indexes[@]}" >&2
    exit 1
fi
runtime=crates/protocols/src/distributed.rs
if head -n "$(nontest_lines "$runtime")" "$runtime" |
    grep -Ev '^[[:space:]]*//' |
    grep -En '(^|[^_[:alnum:]])best_delta\(' >&2; then
    echo "$runtime packs per call: use the run's DeltaPackings" >&2
    exit 1
fi
genjoin=crates/relation/src/genjoin.rs
if head -n "$(nontest_lines "$genjoin")" "$genjoin" |
    grep -Ev '^[[:space:]]*//' |
    grep -En '\bfn gallop\b|\branges[[:space:]]*:' >&2; then
    echo "$genjoin: the strided cursor (gallop / ranges table) is back beside the trie" >&2
    exit 1
fi
query=crates/relation/src/query.rs
if head -n "$(nontest_lines "$query")" "$query" |
    grep -Ev '^[[:space:]]*//' |
    sed -E 's/(factors|free_vars)\.iter\(\)//g' |
    grep -En '\.tuples\(\)|\.tuple_at\(|\.iter\(\)' >&2; then
    echo "$query walks a factor's rows: validate reads the profile (Relation::max_value)" >&2
    exit 1
fi
if [ "${scans[*]}" != "crates/relation/src/arena.rs x1" ]; then
    echo "expected one Profile::scan( call, the memo's initialiser in arena.rs; found: ${scans[*]:-none}" >&2
    exit 1
fi
max_unwraps=80
if [ "$unwraps" -gt "$max_unwraps" ]; then
    echo "$unwraps unwrap/expect lines, ratchet is $max_unwraps: return a typed error or document the invariant elsewhere" >&2
    exit 1
fi
if [ "${#readers[@]}" -ne 0 ]; then
    printf 'the library reads the environment (env::var / env::vars / FAQS_*):\n' >&2
    printf '  %s\n' "${readers[@]}" >&2
    exit 1
fi
if [ "${#reorders[@]}" -ne 0 ]; then
    printf 'the calibration envelope or its mid-flight re-order is back (Envelope / record_replans / note_replan / fn forced):\n' >&2
    printf '  %s\n' "${reorders[@]}" >&2
    exit 1
fi
if [ "${#modes[@]}" -ne 0 ]; then
    printf 'a second planning mode is back (use_stats / stats_aware / PlannerConfig::{structural,stats} / fn with_planner / fn new_with):\n' >&2
    printf '  %s\n' "${modes[@]}" >&2
    exit 1
fi
if [ "${#paths[@]}" -ne 0 ]; then
    printf 'a second delivery path is back (carries_payload / TransportKind::Channel / mpsc in network or protocols):\n' >&2
    printf '  %s\n' "${paths[@]}" >&2
    exit 1
fi
if [ "${#plans[@]}" -ne 0 ]; then
    printf 'a second plan value or shard guard is back (ChosenPlan / QueryPlan::lower / join_order_covers_lambda, or pre_agg_candidates( outside crates/plan/src):\n' >&2
    printf '  %s\n' "${plans[@]}" >&2
    exit 1
fi
if [ "${#admissions[@]}" -ne 0 ]; then
    printf 'admission control is back (PricedOn / TooExpensive / QuoteMemo / cost_quote_with_stats / samples_for, or MaintainedQueryStats in crates/serve/src):\n' >&2
    printf '  %s\n' "${admissions[@]}" >&2
    exit 1
fi
if [ "${#steering[@]}" -ne 0 ]; then
    printf 'calibration steers again (correction_fresh / calibration_replans / with_calibration / plan_query_calibrated / CalibrationRegistry::off):\n' >&2
    printf '  %s\n' "${steering[@]}" >&2
    exit 1
fi
