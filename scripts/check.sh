#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# Every crate's unit and integration tests, not only the root package's:
# the mailbox, data-plane, telemetry, wire and WAL suites live in crates.
cargo test -q --workspace

echo "==> differential harness at CI's budget (256 cases, pinned default seed)"
# The workspace run above samples 64 cases per property; CI samples 256,
# and the two have disagreed before. Nothing is skipped.
DSS_DIFF_CASES=256 DSS_PROPTEST_SEED=0x0123456789ABCDEF \
    cargo test --release -q --test differential

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> frozen benchmark harness builds and passes its golden tests against the workspace"
# bench/ is frozen for any PR that claims a gain (BENCHMARK.json `paths`)
# and a workspace of its own, so nothing above compiles it: a break of the
# public API it uses (Message, Conn, Client, ...) would otherwise surface
# only in the benchmark pipeline. Same target directory as bench/run.sh.
# Cargo re-resolves bench/Cargo.lock in place (it predates PR 15's
# dependency cut); put the committed file back so the gate leaves bench/
# untouched.
bench_lock=$(mktemp)
cp bench/Cargo.lock "$bench_lock"
bench_ok=0
{
    CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
        cargo build --release --manifest-path bench/Cargo.toml &&
        CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
            cargo test --manifest-path bench/Cargo.toml
} || bench_ok=$?
cp "$bench_lock" bench/Cargo.lock
rm -f "$bench_lock"
[ "$bench_ok" -eq 0 ] || exit "$bench_ok"

echo "==> pairs runner self-test (table arithmetic on canned result lines; runs no benchmark)"
./scripts/bench_pairs.sh --help > /dev/null
./scripts/bench_pairs.sh --self-test

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> product code size equals the committed LOC.txt (non-test, non-comment Rust lines per crate)"
# The table is committed so that every PR shows its per-crate delta in its
# own diff; after a change that moves it: ./scripts/loc.sh > LOC.txt
./scripts/loc.sh | diff -u LOC.txt -

echo "==> dss-network starts threads in pool.rs only"
# The batch simulator's workers (pool.rs's forest scheduler) are the only
# threads the crate starts. The discrete-event runtime models one
# sequential server per peer: handing its microsecond services to host
# threads was measured to cost 2.6-5x wall clock (EXPERIMENTS.md "DES wall
# clock"). Code from the first #[cfg(test)] of a file on is test code and
# may spawn (the mailbox tests do); the blocking mailbox that dss serve's
# worker threads wait on (runtime/mailbox.rs) is the one other file that
# may hold a Condvar.
threads_outside_pool=$(
    find crates/network/src -name '*.rs' ! -name pool.rs | sort | while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /WorkerPool|mpsc|thread::(spawn|scope)|Condvar/ { print f ":" FNR ": " $0 }' "$f"
    done | grep -vE '^crates/network/src/runtime/mailbox\.rs:[0-9]+: .*Condvar' || true
)
if [ -n "$threads_outside_pool" ]; then
    echo "$threads_outside_pool"
    echo "FAIL: a dss-network module other than pool.rs names a threading primitive" >&2
    exit 1
fi

echo "==> the planner routes through Topology::route"
# Routes are remembered per topology and forgotten when it changes
# (DESIGN.md "Catalog indexes & plan-search complexity"); a planner path
# that searched the graph itself would pay the BFS on every registration
# again.
if grep -rn 'shortest_path(' crates/core/src; then
    echo "FAIL: dss_core calls shortest_path directly; use Topology::route" >&2
    exit 1
fi

echo "==> trace snapshot conforms to schemas/trace.schema.json"
cargo build --release -q -p dss-bench --bins
TRACE_TMP=$(mktemp --suffix .trace.json)
trap 'rm -f "$TRACE_TMP"' EXIT
./target/release/experiments --trace "$TRACE_TMP" > /dev/null
./target/release/validate_trace "$TRACE_TMP"

echo "==> telemetry overhead guard (disabled recording must be free)"
./scripts/telemetry_overhead.sh

echo "==> registration smoke (indexed plan search stays flat at scale)"
# 100k subscriptions by default (~10 s); override with DSS_SMOKE_SUBS.
# Rewrites the committed BENCH_subscribe.json with this run's curve.
# Fails on plan divergence from the full-scan reference or when the last
# latency decile's p99 exceeds DSS_SMOKE_FLAT_RATIO (default 2.5) times
# the first decile's.
./target/release/registration_smoke

echo "==> widening handoff smoke (delta migration moves O(delta), not O(window))"
# Re-registers 1/4/16-flow shared DAGs across growing window sizes; fails
# when the migrated state scales with the window size instead of the open
# position count, when a snapshot drops, or when post-handoff outputs are
# not byte-identical to a continuous run of the widened chain.
./target/release/widening_smoke

echo "==> crash recovery smoke (resume-not-replan, exactly-once at every record boundary)"
# Crashes + recovers the durable victim across checkpoint cadences and
# every record boundary of its log; fails on any lost/duplicated delivery,
# any degradation to replan-from-scratch, or a denser checkpoint cadence
# paying a larger replay extent.
./target/release/recovery_smoke

echo "==> flash-crowd rebalance smoke (migrations are loss-free and cut steady p99)"
# A 12-query flash crowd saturates one hub under mis-estimated
# selectivities; the periodic re-balancer must migrate flows off it with
# open windows moving (not restarting), outputs byte-identical to the
# frozen-plan run, nothing lost or duplicated, and the worst steady-state
# p99 no worse than the frozen plan's. DSS_BENCH_FULL=1 runs 32 queries.
./target/release/rebalance_smoke

echo "==> loopback Figure-2 smoke (dss serve fleet, byte-exact vs simulator)"
# Spawns a real 8-process loopback fleet per test; a wedged fleet must not
# hang the gate, so the whole suite runs behind a hard timeout.
timeout 300 cargo test --release -q --test serve

echo "All checks passed."
