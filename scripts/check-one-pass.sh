#!/usr/bin/env bash
# scripts/check-one-pass.sh — guards "one upward pass" (ROADMAP item 2).
#
# Fails when more than one non-test source file under
# crates/{core,exec,protocols}/src lowers a bag by BagOp (destructures
# `BagOp::GenericJoin`) or calls `generic_join(`: the Theorem G.3
# skeleton in faqs-core is the only place allowed to. Then prints the
# non-test src/ line total of those three crates — per file, the lines
# before the first `#[cfg(test)]` — the number a simplifying PR reports.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

crates=(core exec protocols)
sites=()
total=0
for crate in "${crates[@]}"; do
    lines=0
    while IFS= read -r file; do
        n=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        lines=$((lines + n))
        if head -n "$n" "$file" | grep -Eq 'BagOp::GenericJoin[[:space:]]*\{|(^|[^_[:alnum:]])generic_join\('; then
            sites+=("$file")
        fi
    done < <(find "crates/$crate/src" -name '*.rs' | sort)
    printf '%-10s %5d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %5d non-test src lines\n' total "$total"

printf 'bag-lowering sites: %d\n' "${#sites[@]}"
printf '  %s\n' "${sites[@]}"
if [ "${#sites[@]}" -ne 1 ]; then
    echo "expected exactly one file to lower bags by BagOp" >&2
    exit 1
fi
