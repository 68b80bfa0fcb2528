#!/usr/bin/env bash
# Mutation smoke-check for the differential oracles and dss serve's
# control and data planes.
#
# Each mutant deliberately breaks one rule and asserts that the suite
# meant to guard it *fails*. If a mutant survives, that harness has lost
# its teeth and this script exits non-zero. The original file is always
# restored.
#
# 1. Operator sharing's identical-window rule: the mutant has
#    `dss_network::FlowDag` merge operators through a rule that ignores an
#    aggregation's window — two aggregation instances whose windows differ
#    share one instance as long as everything else matches. The
#    differential suite (fused deployments against the oracle) must fail.
# 2. The catalog's candidate skip: the mutant has
#    `Catalog::candidates_into` also skip the chains the verdict row has
#    *accepted*, not only the ones it rejected. The full-scan oracle
#    (`tests/indexed_search.rs`) must fail.
# 3. The run's two-phase start: the mutant's control machine owes one ack
#    fewer per step, so it releases `RunGo` after n-1 of the fleet's
#    `StartRun` acks. The in-memory fleet (`tests/fleet_sim.rs`) must fail.
# 4. The resend a restarted process's `ResumeFrom` is answered with: the
#    mutant's sent-log starts one batch after the batch containing the
#    requested offset, so the rejoined peer never sees that batch. The
#    in-memory fleet's data sweep (`tests/fleet_sim.rs`) must fail.
# 5. The one-pass statistics collector: the mutant files a child under
#    the first tally of that name it knows, whatever its parent. The
#    property test holding `StreamStats::from_sample` to the per-node
#    collector (`dss_core::stats`) must fail. Photon streams alone would
#    not catch it: a photon's names are unique per path.
# 6. Predicate minimization: the mutant's `minimize` decides every edge
#    (u, v) on the full graph's closure D, dropping it when D(u,k)∘D(k,v)
#    implies it for some k ∉ {u, v}, instead of on what the edges still
#    in the graph derive. That is wrong when an equality puts u on a
#    zero-weight cycle: from `x = y ∧ x ≤ 5` it drops `x ≤ 5`. The
#    property test holding the dense closure and its readers to the
#    reference implementation (`tests/predicate_oracle.rs`) must fail.
# 7. The one read of a wire batch: the mutant's `LastRead` reuses the
#    trees it holds whenever the next batch has as many items, without
#    comparing the bytes. The data plane's one-connection test
#    (`dss_server::data`, taps reading two copies of a stream fed
#    equal-length batches of different items, then two flows in turn)
#    must fail.
#
# A mutant counts as caught only when a test fails: a file that is not
# there, an edit that does not apply or a cargo error is this script's
# failure, never a catch.
#
# Usage: scripts/mutation_smoke.sh

set -u
cd "$(dirname "$0")/.."

FILE=
ORIG=
restore() {
    if [ -n "$ORIG" ] && [ -f "$ORIG" ]; then
        mv "$ORIG" "$FILE"
        # The copy kept its pre-mutation mtime; without this, cargo would
        # consider the mutant build up to date and keep its stale rlib.
        touch "$FILE"
    fi
}
trap restore EXIT

# mutate <file> <sed expression> <what>: backs up <file>, applies the
# expression, and fails if the file is missing, the backup or the edit
# fails, or the edit changed nothing.
mutate() {
    FILE=$1
    ORIG="$FILE.mutation-smoke.orig"
    if [ ! -f "$FILE" ] || ! cp "$FILE" "$ORIG" || ! sed -i "$2" "$FILE"; then
        echo "mutation_smoke: FAILED to apply the $3 mutation to $FILE" >&2
        exit 2
    fi
    if cmp -s "$FILE" "$ORIG"; then
        echo "mutation_smoke: FAILED to apply the $3 mutation" >&2
        exit 2
    fi
    echo "mutation_smoke: applied $3 mutant to $FILE"
}

# expect_caught <what> <cargo test args...>: a test must fail — not the
# build, not cargo.
expect_caught() {
    local what=$1
    shift
    if cargo test -q "$@" >/tmp/mutation_smoke.log 2>&1; then
        echo "mutation_smoke: $what MUTANT SURVIVED — the harness did not catch it" >&2
        tail -20 /tmp/mutation_smoke.log >&2
        exit 1
    fi
    if grep -q 'error\[E' /tmp/mutation_smoke.log; then
        echo "mutation_smoke: the $what mutant does not compile" >&2
        grep -m 5 -A 5 'error\[E' /tmp/mutation_smoke.log >&2
        exit 2
    fi
    if ! grep -q '^test result: FAILED' /tmp/mutation_smoke.log; then
        echo "mutation_smoke: cargo failed on the $what mutant, but no test did" >&2
        tail -20 /tmp/mutation_smoke.log >&2
        exit 2
    fi
    echo "mutation_smoke: $what mutant caught:"
    grep -m 3 -E 'counterexample|panicked' /tmp/mutation_smoke.log || tail -5 /tmp/mutation_smoke.log
    restore
    ORIG=
}

# Mutant 1. Every FlowDag merge goes through `FlowOp::eq`; route them all
# through the window-blind rule instead.
mutate crates/network/src/shared.rs 's/FlowOp::eq\b/window_blind_eq/g' window-merge
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
# The harness's own unit tests would catch this too, but the point is the
# end-to-end differential: fused deployments against the oracle.
expect_caught window-merge --test differential fused_aggregates_with_different_windows_stay_separate

# Mutant 2. The skip test matches rejections only (`Some(Some(Err(_)))`);
# widen it to every remembered verdict.
mutate crates/network/src/catalog.rs 's/Some(Some(Err(_)))/Some(Some(_))/' accepted-skip
expect_caught accepted-skip --test indexed_search

# Mutant 3. Every process owes a step one ack; owe one fewer.
mutate crates/server/src/control.rs 's/let owed = self.map.process_count();/let owed = self.map.process_count() - 1;/' run-go-one-ack-short
expect_caught run-go-one-ack-short --test fleet_sim

# Mutant 4. The resend starts at the batch containing the offset; start
# one batch later.
mutate crates/server/src/data.rs 's/&self.batches\[first\.\.\]/\&self.batches[(first + 1).min(self.batches.len())..]/' resend-one-batch-late
expect_caught resend-one-batch-late --test fleet_sim

# Mutant 5. A child's tally is looked up among its parent's kids; look
# it up among every tally but the root's.
mutate crates/core/src/stats.rs 's/let kids = &tallies\[at\]\.kids;/let kids: \&Vec<usize> = \&(1..tallies.len()).collect();/' name-blind-tally
expect_caught name-blind-tally -p dss-core --lib stats::tests::one_pass

# Mutant 6. Decide each edge on the one closure of the whole graph.
mutate crates/predicate/src/graph.rs 's/let derived = tightest_path(&edges, &live, u, v, &mut dist);/let derived = one_closure_shortcut(closure, u, v);/' one-closure-minimize
cat >> "$FILE" <<'EOF'

fn one_closure_shortcut(d: &Closure, u: usize, v: usize) -> Option<Bound> {
    (0..d.nodes().len())
        .filter(|&k| k != u && k != v)
        .filter_map(|k| d.bound(u, k)?.compose(d.bound(k, v)?))
        .reduce(Bound::min)
}
EOF
expect_caught one-closure-minimize --test predicate_oracle

# Mutant 7. The memo is reused when its bytes are the batch's; reuse it
# when only the item count is.
mutate crates/server/src/data.rs 's/if self\.bytes != view\.bytes() {/if self.trees.len() != view.len() {/' count-only-memo
expect_caught count-only-memo -p dss-server --lib data::tests::taps_on_one_connection_get_their_own_trees_and_each_batch_is_built_once

echo "mutation_smoke: OK"
