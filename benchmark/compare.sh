#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json — holds result B against result A.
#
# Per workload and end-to-end metric: both values, how much worse B is,
# and the metric's bound from BENCHMARK.json. Exits non-zero on any row
# out of its bound and on any exact count that differs.
#
# benchmark/compare.sh A.json — prints A's end-to-end metrics as the
# Markdown table README.md carries.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/faqs-benchmark" compare --root "$here/.." "$@"
