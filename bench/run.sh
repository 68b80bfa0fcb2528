#!/usr/bin/env bash
# The repo benchmark, one command: builds the release `dss` binary (the
# fleet workloads spawn it) and the benchmark, then runs the benchmark.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the result as JSON
#   bench/run.sh [--seed N] [--seconds S] [--selfcheck]
#       the whole suite, untraced then traced; writes bench/out/results.json
#
# See bench/README.md for the workloads and metrics.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both builds; relative paths are relative to the
# repo root, where both cargo invocations run.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build chatter goes to stderr: stdout belongs to the result.
cargo build --release --offline --bin dss >&2
cargo build --release --offline --manifest-path bench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/dss-perf" \
    --dss-bin "$CARGO_TARGET_DIR/release/dss" --out bench/out "$@"
