#!/usr/bin/env bash
# Mutation smoke-check for the differential harness.
#
# Deliberately breaks the identical-window rule of operator sharing: the
# mutant has `dss_network::FlowDag` merge operators through a rule that
# ignores an aggregation's window — two aggregation instances whose
# windows differ share one instance as long as everything else matches —
# and asserts that the differential suite *fails*. If the mutant
# survives, the harness has lost its teeth and this script exits
# non-zero. The original file is always restored.
#
# Usage: scripts/mutation_smoke.sh

set -u
cd "$(dirname "$0")/.."

FILE=crates/network/src/shared.rs
ORIG="$FILE.mutation-smoke.orig"

cp "$FILE" "$ORIG"
restore() {
    mv "$ORIG" "$FILE"
    # The copy kept its pre-mutation mtime; without this, cargo would
    # consider the mutant build up to date and keep its stale rlib.
    touch "$FILE"
}
trap restore EXIT

# Every FlowDag merge goes through `FlowOp::eq`; route them all through the
# window-blind rule instead.
sed -i 's/FlowOp::eq\b/window_blind_eq/g' "$FILE"
if cmp -s "$FILE" "$ORIG"; then
    echo "mutation_smoke: FAILED to apply the mutation (FlowOp::eq not found)" >&2
    exit 2
fi
cat >> "$FILE" <<'EOF'

fn window_blind_eq(a: &FlowOp, b: &FlowOp) -> bool {
    match (a, b) {
        (FlowOp::Standard(Operator::Aggregation(x)), FlowOp::Standard(Operator::Aggregation(y))) => {
            x.op == y.op
                && x.element == y.element
                && x.pre_selection == y.pre_selection
                && x.result_filter == y.result_filter
        }
        _ => a == b,
    }
}
EOF
echo "mutation_smoke: applied window-merge mutant to $FILE"

# The harness's own unit tests would catch this too, but the point is the
# end-to-end differential: fused deployments against the oracle.
if cargo test -q --test differential fused_aggregates_with_different_windows_stay_separate \
    >/tmp/mutation_smoke.log 2>&1; then
    echo "mutation_smoke: MUTANT SURVIVED — the differential harness did not catch it" >&2
    tail -20 /tmp/mutation_smoke.log >&2
    exit 1
fi
if grep -q 'error\[E' /tmp/mutation_smoke.log; then
    echo "mutation_smoke: the mutant does not compile" >&2
    grep -m 5 -A 5 'error\[E' /tmp/mutation_smoke.log >&2
    exit 2
fi
echo "mutation_smoke: mutant caught by the differential harness:"
grep -m 3 -E 'counterexample|panicked' /tmp/mutation_smoke.log || tail -5 /tmp/mutation_smoke.log
echo "mutation_smoke: OK"
