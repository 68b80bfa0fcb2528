#!/usr/bin/env bash
# Telemetry-overhead guard: the observability layer must be free when it is
# merely compiled in (recording disabled). Builds the `overhead` binary —
# the 16-flow fused shared_prefix simulation — once with default features
# (telemetry compiled in, off at run time) and once with
# --no-default-features (telemetry compiled out), times both, and fails if
# the compiled-in median exceeds the compiled-out median by more than
# DSS_OVERHEAD_PCT percent (default 10, chosen to sit above scheduler noise
# on shared CI runners; the design target is <2 %).
#
# The two builds are timed in alternating rounds — DSS_OVERHEAD_ITERS
# iterations each in all (default 30), split over 10 rounds, the first
# build of a round alternating — and each side's median is the median of
# its round medians. A host that speeds up or slows down while the guard
# runs then weighs on both sides alike; timing one build's iterations
# after the other's let that drift alone move the reading by ± 10 %.
#
# Separate target dirs keep the two feature resolutions from thrashing one
# build cache.
set -euo pipefail
cd "$(dirname "$0")/.."

ITERATIONS="${DSS_OVERHEAD_ITERS:-30}"
THRESHOLD_PCT="${DSS_OVERHEAD_PCT:-10}"
ROUNDS=10
PER_ROUND=$(((ITERATIONS + ROUNDS - 1) / ROUNDS))

echo "==> building overhead binary (telemetry compiled in)"
cargo build --release -q -p dss-bench --bin overhead \
    --target-dir target/overhead-on
ON_BIN=target/overhead-on/release/overhead

echo "==> building overhead binary (telemetry compiled out)"
cargo build --release -q -p dss-bench --bin overhead --no-default-features \
    --target-dir target/overhead-off
OFF_BIN=target/overhead-off/release/overhead

round_median() {
    "$1" "$PER_ROUND" | awk '/^median_ns/ { print $2 }'
}

median() {
    sort -n | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'
}

OFF_ROUNDS=()
ON_ROUNDS=()
for round in $(seq 1 "$ROUNDS"); do
    if ((round % 2)); then
        OFF_ROUNDS+=("$(round_median "$OFF_BIN")")
        ON_ROUNDS+=("$(round_median "$ON_BIN")")
    else
        ON_ROUNDS+=("$(round_median "$ON_BIN")")
        OFF_ROUNDS+=("$(round_median "$OFF_BIN")")
    fi
    echo "round ${round}: compiled-out ${OFF_ROUNDS[-1]} ns, compiled-in ${ON_ROUNDS[-1]} ns"
done
OFF_NS=$(printf '%s\n' "${OFF_ROUNDS[@]}" | median)
ON_NS=$(printf '%s\n' "${ON_ROUNDS[@]}" | median)

DELTA_PCT=$(awk -v on="$ON_NS" -v off="$OFF_NS" \
    'BEGIN { printf "%.2f", (on - off) * 100.0 / off }')
echo "compiled-out median: ${OFF_NS} ns"
echo "compiled-in  median: ${ON_NS} ns (delta ${DELTA_PCT} %)"

PASS=$(awk -v d="$DELTA_PCT" -v t="$THRESHOLD_PCT" 'BEGIN { print (d <= t) ? 1 : 0 }')
if [ "$PASS" -ne 1 ]; then
    echo "FAIL: disabled telemetry costs ${DELTA_PCT} % (> ${THRESHOLD_PCT} % threshold)" >&2
    exit 1
fi
echo "PASS: disabled telemetry within ${THRESHOLD_PCT} % of the compiled-out build"
