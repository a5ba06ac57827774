#!/usr/bin/env bash
# Builds the benchmark package and runs it.
#
#   benchmark/run.sh                      every workload, untraced then traced;
#                                         writes benchmark/out/result.json
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one run; the last line of standard
#                                         output is its result as one JSON object
#   --smoke                               1/50 of the measured time and probe calls
#
# Exits non-zero when the build fails, an operation fails or a check fails.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/faqs-benchmark" run --root "$here/.." "$@"
