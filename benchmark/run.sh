#!/usr/bin/env bash
# Benchmark of record for the AutoGlobe control plane; see benchmark/README.md.
#
#   bash benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#   bash benchmark/run.sh [--seed N] [--runs N] [--report FILE]   # every workload
#   bash benchmark/run.sh compare A.json B.json
#   bash benchmark/run.sh compare --pairs N --workload W DIR_A DIR_B
#
# Builds the repository's `experiments` binary and this benchmark (release
# profile, offline, into $CARGO_TARGET_DIR when set), then runs from the
# repository root. With --workload the last line of standard output is the
# run's result as one JSON object.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet -p autoglobe-bench --bin experiments >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

bench="${CARGO_TARGET_DIR:-benchmark/target}/release/autoglobe-benchmark"
if [[ "${1:-}" == compare ]]; then
    shift
    exec "$bench" compare "$@"
fi
exec "$bench" run --experiments "${CARGO_TARGET_DIR:-target}/release/experiments" "$@"
