//! The differential harness: random cases, the four end-to-end
//! equivalences, and greedy shrinking of failing cases.
//!
//! A [`Case`] is a materialized photon stream plus a handful of random
//! flat subscriptions ([`dss_wxquery::testing::QuerySpec`]). The checks
//! assert, byte-exact after canonical serialization:
//!
//! - [`check_pipeline`] (equivalence 1) — the engine's operator pipeline
//!   ≡ the naive [`Oracle`], split into streamed and flushed results;
//! - [`check_network`] (equivalences 2 and 3) — the planned deployment
//!   delivers the oracle's results under **every** planning strategy
//!   (stream sharing, query shipping, data shipping), with fused
//!   FlowDags on *and* off;
//! - [`check_live`] (equivalence 4) — the discrete-event live runtime
//!   with an injected peer crash delivers exactly the oracle's results:
//!   re-planned queries deliver `oracle(prefix)` before the crash and
//!   `oracle(suffix)` after it (operator state restarts on
//!   re-subscription, windows never flush), untouched queries deliver
//!   `oracle(stream)`;
//! - [`check_live_widening`] (equivalence 4, widening split) — the same
//!   crash script with stream widening enabled: failover re-plans may
//!   patch untouched queries' flows in place, and those queries must
//!   *still* deliver `oracle(stream)` — the planned loss-free handoff
//!   carries their open window state across the in-place rebuild;
//! - [`check_live_migration`] (equivalence 6) — the periodic re-balancer,
//!   forced by a synthetic overload measurement, migrates queries off a
//!   hot peer mid-stream; loss-free migrations must stay whole-stream
//!   byte-exact against the oracle, split migrations are held to the same
//!   prefix/suffix standard as a crash, and no item is ever lost or
//!   duplicated.
//!
//! [`shrink`] reduces a failing case with the query-level simplifications
//! from `dss_wxquery::testing` plus item bisection, re-checking the
//! failing property at each step, so reported counterexamples stay small
//! enough to read.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use proptest::prelude::*;
use proptest::strategy::one_of;

use dss_core::{RebalancePolicy, Registration, Strategy as PlanStrategy, StreamGlobe};
use dss_engine::StreamOperatorExt;
use dss_network::{grid_topology, FaultScript, LiveConfig, SimConfig, WalConfig};
use dss_rass::{GeneratorConfig, PhotonGenerator};
use dss_wxquery::compile_query;
use dss_wxquery::testing::{arb_query, QuerySpec};
use dss_xml::writer::node_to_string;
use dss_xml::{Decimal, Node};

use crate::interpreter::{Oracle, OracleResult};

/// One differential test case: a materialized stream and the
/// subscriptions registered against it.
#[derive(Debug, Clone)]
pub struct Case {
    pub items: Vec<Node>,
    pub queries: Vec<QuerySpec>,
}

impl Case {
    /// Human-readable rendering for failure reports.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "case with {} stream items:", self.items.len());
        for (i, q) in self.queries.iter().enumerate() {
            let _ = writeln!(s, "  q{i}: {}", q.to_text());
        }
        let shown = self.items.len().min(12);
        for item in &self.items[..shown] {
            let _ = writeln!(s, "  item: {}", node_to_string(item));
        }
        if shown < self.items.len() {
            let _ = writeln!(s, "  … {} more items", self.items.len() - shown);
        }
        s
    }
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Blueprint of one synthetic stream item. Deliberately adversarial:
/// elements go missing, appear twice, or hold non-numeric text, and
/// `det_time` increments often land exactly on window-grid boundaries.
#[derive(Debug, Clone)]
struct ItemSketch {
    /// `det_time` advance in tenths (strictly positive keeps the
    /// reference element monotone, as value windows require).
    dt_tenths: i64,
    /// `en` in milli-keV; `None` drops the element entirely.
    en_milli: Option<i64>,
    /// A second `en` element (first-match vs. multi-match paths).
    extra_en_milli: Option<i64>,
    /// `en` holds non-numeric text instead of a value.
    en_garbage: bool,
    phc: Option<i64>,
    /// `(ra, dec)` in tenths of degrees; `None` drops `coord` entirely.
    coord_tenths: Option<(i64, i64)>,
}

fn arb_sketch() -> BoxedStrategy<ItemSketch> {
    (
        1i64..120,
        prop::option::of(0i64..3200),
        (0usize..8, 0i64..3200),
        0usize..16,
        prop::option::of(0i64..120),
        prop::option::of((900i64..1800, -600i64..-200)),
    )
        .prop_map(
            |(dt, en, (extra_k, extra), garbage_k, phc, coord)| ItemSketch {
                dt_tenths: dt,
                en_milli: en,
                extra_en_milli: (extra_k == 0).then_some(extra),
                en_garbage: garbage_k == 0,
                phc,
                coord_tenths: coord,
            },
        )
        .boxed()
}

fn build_items(sketches: Vec<ItemSketch>) -> Vec<Node> {
    let mut t = 0i64; // running det_time in tenths
    let mut items = Vec::with_capacity(sketches.len());
    for s in sketches {
        t += s.dt_tenths;
        let mut item = Node::empty("photon");
        item.push_child(Node::leaf(
            "det_time",
            Decimal::new(t as i128, 1).to_string(),
        ));
        if s.en_garbage {
            item.push_child(Node::leaf("en", "not-a-number"));
        } else if let Some(en) = s.en_milli {
            item.push_child(Node::leaf("en", Decimal::new(en as i128, 3).to_string()));
        }
        if let Some(extra) = s.extra_en_milli {
            item.push_child(Node::leaf("en", Decimal::new(extra as i128, 3).to_string()));
        }
        if let Some(phc) = s.phc {
            item.push_child(Node::leaf("phc", phc.to_string()));
        }
        if let Some((ra, dec)) = s.coord_tenths {
            let mut cel = Node::empty("cel");
            cel.push_child(Node::leaf("ra", Decimal::new(ra as i128, 1).to_string()));
            cel.push_child(Node::leaf("dec", Decimal::new(dec as i128, 1).to_string()));
            let mut coord = Node::empty("coord");
            coord.push_child(cel);
            item.push_child(coord);
        }
        items.push(item);
    }
    items
}

/// A materialized stream: either adversarial synthetic items or a
/// schema-conforming RASS photon stream from `dss_rass::generator`.
pub fn arb_items() -> BoxedStrategy<Vec<Node>> {
    let synthetic = prop::collection::vec(arb_sketch(), 0..=36)
        .prop_map(build_items)
        .boxed();
    let rass = (0u64..1_000_000, 4usize..48)
        .prop_map(|(seed, n)| {
            let cfg = GeneratorConfig {
                seed,
                mean_time_increment: 0.2,
                ..GeneratorConfig::default()
            };
            PhotonGenerator::new(cfg).generate_items(n)
        })
        .boxed();
    one_of(vec![synthetic, rass])
}

/// A full differential case: a stream plus one to three subscriptions.
pub fn arb_case() -> BoxedStrategy<Case> {
    (arb_items(), prop::collection::vec(arb_query(), 1..=3))
        .prop_map(|(items, queries)| Case { items, queries })
        .boxed()
}

// ---------------------------------------------------------------------
// Equivalence 1: engine pipeline ≡ oracle
// ---------------------------------------------------------------------

fn serialize(items: &[Node]) -> Vec<String> {
    items.iter().map(node_to_string).collect()
}

fn oracle_run(q: &QuerySpec, items: &[Node]) -> Result<OracleResult, String> {
    Oracle::compile(&q.to_text())
        .map_err(|e| format!("oracle rejects a query the engine compiles: {e}"))
        .map(|oracle| oracle.run(items))
}

/// Runs one compiled query through the engine's operator pipeline plus
/// restructuring, returning (streamed, flushed) serialized results.
fn engine_pipeline(q: &QuerySpec, items: &[Node]) -> Result<(Vec<String>, Vec<String>), String> {
    let compiled = compile_query(&q.to_text()).map_err(|e| format!("engine compile: {e}"))?;
    let mut pipeline = dss_engine::build_pipeline(compiled.operator_chain());
    let mut post = compiled.restructure_op();
    let mut streamed = Vec::new();
    for item in items {
        for t in pipeline.process(item) {
            for out in post.process_collect(&t) {
                streamed.push(node_to_string(&out));
            }
        }
    }
    let mut flushed = Vec::new();
    for t in pipeline.flush() {
        for out in post.process_collect(&t) {
            flushed.push(node_to_string(&out));
        }
    }
    Ok((streamed, flushed))
}

/// Equivalence 1: for every query, the engine pipeline's streamed and
/// flushed outputs equal the oracle's, byte-exact.
pub fn check_pipeline(case: &Case) -> Result<(), String> {
    for (i, q) in case.queries.iter().enumerate() {
        let expect = oracle_run(q, &case.items)?;
        let (streamed, flushed) = engine_pipeline(q, &case.items)?;
        if streamed != serialize(&expect.closed) {
            return Err(format!(
                "pipeline ≠ oracle (streamed) for q{i} `{}`:\n engine: {streamed:?}\n oracle: {:?}",
                q.to_text(),
                serialize(&expect.closed)
            ));
        }
        if flushed != serialize(&expect.flushed) {
            return Err(format!(
                "pipeline ≠ oracle (flushed) for q{i} `{}`:\n engine: {flushed:?}\n oracle: {:?}",
                q.to_text(),
                serialize(&expect.flushed)
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Equivalences 2 + 3: planned deployments ≡ oracle, fused and unfused,
// under every strategy
// ---------------------------------------------------------------------

/// Peer the `i`-th query subscribes at. Alternating far/near subscribers
/// varies routes and sharing opportunities while always leaving SP2 free
/// to crash in [`check_live`].
fn subscriber(i: usize) -> &'static str {
    if i.is_multiple_of(2) {
        "SP3"
    } else {
        "SP1"
    }
}

/// Builds a 2×2 super-peer grid with the case's stream at SP0 (emitting
/// at `frequency` Hz) and all queries registered under `strategy`.
/// `widening` enables the stream-widening extension before any query
/// registers, so both the initial plans and later failover re-plans may
/// loosen existing streams in place.
fn build_system(
    case: &Case,
    strategy: PlanStrategy,
    frequency: f64,
    widening: bool,
) -> Result<(StreamGlobe, Vec<Registration>), String> {
    let mut sys = StreamGlobe::new(grid_topology(2, 2));
    sys.set_widening(widening);
    sys.register_stream("photons", "SP0", case.items.clone(), frequency)
        .map_err(|e| format!("register_stream: {e}"))?;
    let mut regs = Vec::new();
    for (i, q) in case.queries.iter().enumerate() {
        let reg = sys
            .register_query(format!("q{i}"), &q.to_text(), subscriber(i), strategy)
            .map_err(|e| format!("register q{i} under {strategy:?}: {e}"))?;
        regs.push(reg);
    }
    Ok((sys, regs))
}

/// Equivalences 2 and 3: under every planning strategy, with operator
/// fusion on and off, every query's delivery flow carries exactly the
/// oracle's results (streamed plus end-of-stream flushes — the batch
/// simulator drains and flushes all pipelines).
pub fn check_network(case: &Case) -> Result<(), String> {
    let expected: Vec<Vec<String>> = case
        .queries
        .iter()
        .map(|q| oracle_run(q, &case.items).map(|r| serialize(&r.all())))
        .collect::<Result<_, _>>()?;
    for strategy in PlanStrategy::ALL {
        let (sys, regs) = build_system(case, strategy, 10.0, false)?;
        for shared_ops in [true, false] {
            let cfg = SimConfig {
                shared_ops,
                ..SimConfig::default()
            };
            let out = sys.run_simulation(cfg);
            for (i, reg) in regs.iter().enumerate() {
                let got = serialize(&out.flow_outputs[reg.delivery_flow]);
                if got != expected[i] {
                    return Err(format!(
                        "{strategy:?} (fused={shared_ops}) ≠ oracle for q{i} `{}`:\n \
                         delivered: {got:?}\n oracle: {:?}",
                        case.queries[i].to_text(),
                        expected[i]
                    ));
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Equivalence 4: live runtime with a peer crash ≡ oracle
// ---------------------------------------------------------------------

/// Cap on live-run stream length: sources emit at 1 Hz so crash timing
/// falls in quiet gaps, and the simulated horizon grows linearly with the
/// item count.
const LIVE_MAX_ITEMS: usize = 20;

/// Equivalence 4: run the stream-sharing deployment under the
/// discrete-event runtime at 1 Hz, crash a relay super-peer in the quiet
/// gap after item `k = n/2`, and compare every query's recorded
/// deliveries against the oracle. Re-planned queries must deliver
/// exactly `oracle(items[..k]).closed` before the crash and
/// `oracle(items[k..]).closed` after it (fresh operator state on the
/// re-planned route, and the runtime never flushes); untouched queries
/// must deliver `oracle(items).closed` for the whole stream.
pub fn check_live(case: &Case) -> Result<(), String> {
    check_live_with(case, false)
}

/// Equivalence 4 with stream *widening* enabled: same crash script, but
/// the failover re-plans may now widen a surviving stream instead of
/// opening a new one — patching the *untouched* owner query's flow in
/// place (restore operators splice in front of its chain, so the whole
/// chain below the splice rebuilds). Those untouched queries must still
/// deliver exactly `oracle(stream)` for the whole run, which only holds
/// because the runtime executes the patch as a planned loss-free handoff
/// that migrates the open window state across the rebuild. The one
/// escape hatch: when the planner priced the delta migration above a
/// plain rebuild (or a snapshot found no exact home) the runtime reports
/// dropped windows, and the patched query is held to the same
/// prefix/suffix split as a re-planned one.
pub fn check_live_widening(case: &Case) -> Result<(), String> {
    check_live_with(case, true)
}

fn check_live_with(case: &Case, widening: bool) -> Result<(), String> {
    let items = &case.items[..case.items.len().min(LIVE_MAX_ITEMS)];
    if items.is_empty() {
        return Ok(());
    }
    let sliced = Case {
        items: items.to_vec(),
        queries: case.queries.clone(),
    };
    let (mut sys, regs) = build_system(&sliced, PlanStrategy::StreamSharing, 1.0, widening)?;
    // Crash a peer that carries or processes flows but is neither the
    // source's super-peer nor a subscriber.
    let protected: BTreeSet<String> = std::iter::once("SP0".to_string())
        .chain((0..regs.len()).map(|i| subscriber(i).to_string()))
        .collect();
    let victim = sys
        .deployment()
        .flows()
        .iter()
        .filter(|f| !f.retired)
        .flat_map(|f| f.route.iter().chain(std::iter::once(&f.processing_node)))
        .find(|&&n| !protected.contains(&sys.topology().peer(n).name))
        .copied();
    let n = items.len();
    let k = n / 2;
    let cfg = LiveConfig {
        duration_s: n as f64 + 3.0,
        record_deliveries: true,
        ..LiveConfig::default()
    };
    // Sources emit item i at (i+1)·1 s (origin (i+1)·1e6 µs); the crash
    // lands in the quiet gap after item k-1, when nothing is in flight
    // (per-hop latency is microseconds against a one-second gap).
    let faults = match victim {
        Some(peer) => FaultScript::new().crash_peer(k as f64 + 0.5, peer),
        None => FaultScript::new(),
    };
    let outcome = sys
        .run_live(cfg, &faults)
        .map_err(|e| format!("run_live: {e}"))?;
    let mut replanned: BTreeSet<String> = BTreeSet::new();
    for report in &outcome.failovers {
        if let Some((id, err)) = report.failed.first() {
            return Err(format!("failover could not re-plan {id}: {err}"));
        }
        replanned.extend(report.replanned.iter().map(|r| r.query_id.clone()));
    }
    let crash_origin_us = (k as u64) * 1_000_000;
    let empty = Vec::new();
    for (i, reg) in regs.iter().enumerate() {
        let q = &sliced.queries[i];
        let delivered = outcome.delivered_items.get(&reg.query_id).unwrap_or(&empty);
        if replanned.contains(&reg.query_id) {
            let pre: Vec<String> = delivered
                .iter()
                .filter(|(o, _)| *o <= crash_origin_us)
                .map(|(_, node)| node_to_string(node))
                .collect();
            let post: Vec<String> = delivered
                .iter()
                .filter(|(o, _)| *o > crash_origin_us)
                .map(|(_, node)| node_to_string(node))
                .collect();
            let expect_pre = serialize(&oracle_run(q, &items[..k])?.closed);
            let expect_post = serialize(&oracle_run(q, &items[k..])?.closed);
            if pre != expect_pre {
                return Err(format!(
                    "live ≠ oracle before the crash for {} `{}`:\n delivered: {pre:?}\n \
                     oracle(prefix): {expect_pre:?}",
                    reg.query_id,
                    q.to_text()
                ));
            }
            if post != expect_post {
                return Err(format!(
                    "live ≠ oracle after re-subscription for {} `{}`:\n delivered: {post:?}\n \
                     oracle(suffix): {expect_post:?}",
                    reg.query_id,
                    q.to_text()
                ));
            }
        } else {
            let got: Vec<String> = delivered
                .iter()
                .map(|(_, node)| node_to_string(node))
                .collect();
            let expect = serialize(&oracle_run(q, items)?.closed);
            if got != expect {
                // With widening on, a failover re-plan may have patched
                // this query's flow in place. If the runtime reports
                // dropped window snapshots, the patch was *not* loss-free
                // and the query legitimately restarts its windows at the
                // failover instant — hold it to the crash split instead.
                if widening && outcome.metrics.windows_dropped > 0 {
                    let pre: Vec<String> = delivered
                        .iter()
                        .filter(|(o, _)| *o <= crash_origin_us)
                        .map(|(_, node)| node_to_string(node))
                        .collect();
                    let post: Vec<String> = delivered
                        .iter()
                        .filter(|(o, _)| *o > crash_origin_us)
                        .map(|(_, node)| node_to_string(node))
                        .collect();
                    if pre == serialize(&oracle_run(q, &items[..k])?.closed)
                        && post == serialize(&oracle_run(q, &items[k..])?.closed)
                    {
                        continue;
                    }
                }
                return Err(format!(
                    "live ≠ oracle for unperturbed {} `{}` (widening={widening}, \
                     windows migrated/dropped: {}/{}):\n delivered: {got:?}\n \
                     oracle: {expect:?}",
                    reg.query_id,
                    q.to_text(),
                    outcome.metrics.windows_migrated,
                    outcome.metrics.windows_dropped,
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Equivalence 5: WAL-resumed crash recovery ≡ oracle, whole stream
// ---------------------------------------------------------------------

/// Unique per-process WAL scratch directory for one resumed-recovery run.
fn resume_wal_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dss-oracle-resume-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Equivalence 5: with a write-ahead log configured, a crashed peer is
/// *resumed*, not re-planned — no flows retire, no query re-subscribes,
/// and recovery restores the peer's operator state (and re-services any
/// items deferred while it was down) from the log. Every query must then
/// deliver exactly `oracle(stream)` for the whole run, byte-equal to a
/// run that never crashed: no prefix/suffix split, no lost items, no
/// duplicates.
///
/// Two crash scripts cover the two recovery paths:
///
/// - **state**: any non-protected peer on an active flow crashes in the
///   quiet gap and recovers before the next source emission. No item
///   ever meets the down peer, but the crash wipes its in-memory window
///   state — the whole-stream results prove the checkpoint/replay
///   restore is exact.
/// - **defer**: a peer that *processes* flows (and relays none interior)
///   stays down across a source emission, so an input arrives while it
///   is dead, is deferred into the durable history, and is re-serviced
///   at recovery.
pub fn check_live_resumed(case: &Case) -> Result<(), String> {
    let items = &case.items[..case.items.len().min(LIVE_MAX_ITEMS)];
    if items.is_empty() {
        return Ok(());
    }
    let sliced = Case {
        items: items.to_vec(),
        queries: case.queries.clone(),
    };
    let n = items.len();
    let k = n / 2;
    // Each variant rebuilds the system: run_live flips planning-level
    // reachability during the run, and every run needs a fresh log.
    for variant in ["state", "defer"] {
        let (mut sys, regs) = build_system(&sliced, PlanStrategy::StreamSharing, 1.0, false)?;
        let protected: BTreeSet<String> = std::iter::once("SP0".to_string())
            .chain((0..regs.len()).map(|i| subscriber(i).to_string()))
            .collect();
        let active: Vec<&dss_network::StreamFlow> = sys
            .deployment()
            .flows()
            .iter()
            .filter(|f| !f.retired)
            .collect();
        let victim = match variant {
            // Any non-protected peer touching a flow: it recovers inside
            // the quiet gap, so even a pure relay loses nothing.
            "state" => active
                .iter()
                .flat_map(|f| f.route.iter())
                .find(|&&p| !protected.contains(&sys.topology().peer(p).name))
                .copied(),
            // A processing peer that is not an interior relay hop of any
            // active flow: while it is down, traffic to *it* defers into
            // the durable history, and no other flow routes through it.
            _ => active.iter().map(|f| f.processing_node).find(|&p| {
                !protected.contains(&sys.topology().peer(p).name)
                    && active.iter().all(|f| {
                        let interior: &[_] = if f.route.len() > 2 {
                            &f.route[1..f.route.len() - 1]
                        } else {
                            &[]
                        };
                        !interior.contains(&p)
                    })
            }),
        };
        let Some(victim) = victim else { continue };
        let recover_at = match variant {
            "state" => k as f64 + 0.7, // back up before item k emits
            _ => k as f64 + 1.5,       // item k (at (k+1) s) arrives while down
        };
        let dir = resume_wal_dir();
        let cfg = LiveConfig {
            duration_s: n as f64 + 3.0,
            record_deliveries: true,
            wal: Some(WalConfig::new(&dir)),
            ..LiveConfig::default()
        };
        let faults = FaultScript::new()
            .crash_peer(k as f64 + 0.5, victim)
            .recover_peer(recover_at, victim);
        let outcome = sys
            .run_live(cfg, &faults)
            .map_err(|e| format!("run_live (resumed, {variant}): {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        if !outcome.failovers.is_empty() {
            return Err(format!(
                "durable crash ({variant}) must resume, not replan: got {} failover report(s)",
                outcome.failovers.len()
            ));
        }
        let duplicates: u64 = outcome.metrics.queries.values().map(|q| q.duplicates).sum();
        if outcome.metrics.items_lost != 0 || duplicates != 0 {
            return Err(format!(
                "resumed recovery ({variant}, victim {}) leaked items: lost={} duplicates={}",
                sys.topology().peer(victim).name,
                outcome.metrics.items_lost,
                duplicates
            ));
        }
        let empty = Vec::new();
        for (i, reg) in regs.iter().enumerate() {
            let q = &sliced.queries[i];
            let got: Vec<String> = outcome
                .delivered_items
                .get(&reg.query_id)
                .unwrap_or(&empty)
                .iter()
                .map(|(_, node)| node_to_string(node))
                .collect();
            let expect = serialize(&oracle_run(q, items)?.closed);
            if got != expect {
                return Err(format!(
                    "WAL-resumed run ({variant}, victim {}) ≠ oracle for {} `{}`:\n \
                     delivered: {got:?}\n oracle: {expect:?}",
                    sys.topology().peer(victim).name,
                    reg.query_id,
                    q.to_text()
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Equivalence 6: planned migration (re-balancing) ≡ oracle
// ---------------------------------------------------------------------

/// Equivalence 6: run the stream-sharing deployment under the live
/// runtime with the periodic re-balancer forced on by a synthetic
/// overload measurement (a non-protected peer reads 100% busy), so the
/// planner migrates the costliest resident queries off it mid-stream —
/// the *planned* failover path: quiescence gate, window-state export,
/// retire + re-register, state adoption.
///
/// A migration must never lose or duplicate an item. Queries the
/// re-balancer never touched, and queries whose migration was loss-free
/// (every open window moved), must deliver exactly `oracle(stream)` for
/// the whole run. A migration the runtime reports as a *split* handoff
/// (some window snapshot found no successor) is held to the same
/// prefix/suffix standard as a crash: `oracle(prefix)` strictly before
/// each splitting migration instant and `oracle(suffix)` after it —
/// byte-exact on both sides.
pub fn check_live_migration(case: &Case) -> Result<(), String> {
    let items = &case.items[..case.items.len().min(LIVE_MAX_ITEMS)];
    if items.is_empty() {
        return Ok(());
    }
    let sliced = Case {
        items: items.to_vec(),
        queries: case.queries.clone(),
    };
    let (mut sys, regs) = build_system(&sliced, PlanStrategy::StreamSharing, 1.0, false)?;
    let n = items.len();
    let k = n / 2;
    let peer_count = sys.topology().peer_count();
    // The first tick lands in the quiet gap after item k-1 (items emit at
    // (i+1)·1 s), exactly where check_live crashes its victim.
    let mut policy = RebalancePolicy {
        every_s: k as f64 + 0.5,
        utilization_bound: 0.5,
        max_moves_per_cycle: 16,
        observed_override: None,
    };
    // Probe for a peer whose forced overload yields migration decisions.
    // Unlike a crash victim no peer is off-limits — a migration never
    // takes anything down — but some deployments have no movable
    // (exclusive-chain) work at all.
    let hot = (0..peer_count).find(|&p| {
        let mut observed = vec![0.0; peer_count];
        observed[p] = 1.0;
        !sys.plan_rebalance(&observed, &policy).is_empty()
    });
    let Some(hot) = hot else {
        return Ok(());
    };
    let mut observed = vec![0.0; peer_count];
    observed[hot] = 1.0;
    policy.observed_override = Some(observed);
    let cfg = LiveConfig {
        duration_s: n as f64 + 3.0,
        record_deliveries: true,
        ..LiveConfig::default()
    };
    let outcome = sys
        .run_live_rebalancing(cfg, &FaultScript::new(), &policy)
        .map_err(|e| format!("run_live_rebalancing: {e}"))?;
    for c in &outcome.rebalances {
        if let Some((id, err)) = c.failed.first() {
            return Err(format!("migration could not re-register {id}: {err}"));
        }
    }
    let duplicates: u64 = outcome.metrics.queries.values().map(|q| q.duplicates).sum();
    if outcome.metrics.items_lost != 0 || duplicates != 0 {
        return Err(format!(
            "planned migration (hot peer {}) leaked items: lost={} duplicates={}",
            sys.topology().peer(hot).name,
            outcome.metrics.items_lost,
            duplicates
        ));
    }
    if outcome.rebalances.iter().all(|c| c.migrated.is_empty()) {
        return Err(format!(
            "probe found movable work on {} but no cycle migrated anything: {:?}",
            sys.topology().peer(hot).name,
            outcome.rebalances
        ));
    }
    // Per query: the migration instants whose handoff was NOT loss-free
    // split the stream, exactly like crash instants in check_live.
    let mut cuts: std::collections::BTreeMap<String, Vec<u64>> = std::collections::BTreeMap::new();
    for c in &outcome.rebalances {
        for m in &c.migrated {
            if !m.loss_free {
                cuts.entry(m.query_id.clone()).or_default().push(c.at_us);
            }
        }
    }
    let empty = Vec::new();
    for (i, reg) in regs.iter().enumerate() {
        let q = &sliced.queries[i];
        let delivered = outcome.delivered_items.get(&reg.query_id).unwrap_or(&empty);
        let got: Vec<String> = delivered
            .iter()
            .map(|(_, node)| node_to_string(node))
            .collect();
        let whole = serialize(&oracle_run(q, items)?.closed);
        if got == whole {
            continue;
        }
        // Whole-stream mismatch: only acceptable for a query the runtime
        // reports as split-migrated, and then only if every segment
        // between its splitting instants is byte-exact against the oracle
        // of that item range.
        let Some(query_cuts) = cuts.get(&reg.query_id) else {
            return Err(format!(
                "live+rebalance ≠ oracle for {} `{}` (not split-migrated):\n \
                 delivered: {got:?}\n oracle: {whole:?}",
                reg.query_id,
                q.to_text()
            ));
        };
        let mut bounds: Vec<u64> = vec![0];
        bounds.extend(query_cuts.iter().copied());
        bounds.push(u64::MAX);
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let seg: Vec<String> = delivered
                .iter()
                .filter(|(o, _)| *o > lo && *o <= hi)
                .map(|(_, node)| node_to_string(node))
                .collect();
            // Item i has origin (i+1)·1e6 µs, so origins in (lo, hi] are
            // exactly items[lo/1e6 .. min(hi/1e6, n)].
            let a = ((lo / 1_000_000) as usize).min(n);
            let b = ((hi / 1_000_000) as usize).min(n);
            let expect = serialize(&oracle_run(q, &items[a..b])?.closed);
            if seg != expect {
                return Err(format!(
                    "split migration ≠ oracle for {} `{}` on items[{a}..{b}] \
                     (migration at {} µs):\n delivered: {seg:?}\n oracle: {expect:?}",
                    reg.query_id,
                    q.to_text(),
                    hi
                ));
            }
        }
    }
    Ok(())
}

/// All six equivalences on one case, plus the widening variant of the
/// live check.
pub fn check_all(case: &Case) -> Result<(), String> {
    check_pipeline(case)?;
    check_network(case)?;
    check_live(case)?;
    check_live_widening(case)?;
    check_live_migration(case)?;
    check_live_resumed(case)
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedily shrinks a failing case: fewer queries, fewer items (bisection
/// first, then single removals), simpler queries via
/// [`QuerySpec::shrink`]. Each accepted step must still fail `check`;
/// returns the reduced case and its failure message.
pub fn shrink(
    mut case: Case,
    mut message: String,
    check: &dyn Fn(&Case) -> Result<(), String>,
) -> (Case, String) {
    let mut budget = 400usize;
    'outer: while budget > 0 {
        let mut candidates: Vec<Case> = Vec::new();
        if case.queries.len() > 1 {
            for i in 0..case.queries.len() {
                let mut c = case.clone();
                c.queries.remove(i);
                candidates.push(c);
            }
        }
        let n = case.items.len();
        if n > 1 {
            for range in [0..n / 2, n / 2..n] {
                let mut c = case.clone();
                c.items = case.items[range].to_vec();
                candidates.push(c);
            }
        }
        if n > 0 && n <= 12 {
            for i in 0..n {
                let mut c = case.clone();
                c.items.remove(i);
                candidates.push(c);
            }
        }
        for (i, q) in case.queries.iter().enumerate() {
            for simpler in q.shrink() {
                let mut c = case.clone();
                c.queries[i] = simpler;
                candidates.push(c);
            }
        }
        for candidate in candidates {
            budget = budget.saturating_sub(1);
            if budget == 0 {
                break 'outer;
            }
            if let Err(msg) = check(&candidate) {
                case = candidate;
                message = msg;
                continue 'outer;
            }
        }
        break;
    }
    (case, message)
}

/// Runs `check` on the case; on failure, shrinks and returns a full
/// report (minimal case plus its failure message) for the test to fail
/// with.
pub fn check_shrinking(
    case: &Case,
    check: &dyn Fn(&Case) -> Result<(), String>,
) -> Result<(), String> {
    match check(case) {
        Ok(()) => Ok(()),
        Err(msg) => {
            let (minimal, msg) = shrink(case.clone(), msg, check);
            Err(format!(
                "differential failure (shrunk):\n{}{msg}",
                minimal.describe()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    fn sample_case(seed: u64) -> Case {
        let mut rng = TestRng::from_seed(seed);
        arb_case().sample(&mut rng)
    }

    #[test]
    fn sampled_cases_pass_all_equivalences() {
        for seed in [1u64, 2, 3, 4] {
            let case = sample_case(seed);
            check_all(&case).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn paper_query_roundtrip_through_harness() {
        let items = PhotonGenerator::new(GeneratorConfig {
            seed: 99,
            mean_time_increment: 0.3,
            ..GeneratorConfig::default()
        })
        .generate_items(40);
        let case = Case {
            items,
            queries: vec![sample_case(7).queries[0].clone()],
        };
        check_all(&case).unwrap();
    }

    #[test]
    fn shrink_reduces_failing_cases() {
        let case = sample_case(42);
        let started_with = case.items.len();
        // A fake property: "fails" whenever the stream has > 2 items.
        // Shrinking must keep the case failing while reducing it.
        let check = |c: &Case| -> Result<(), String> {
            if c.items.len() > 2 {
                Err("too many items".to_string())
            } else {
                Ok(())
            }
        };
        if check(&case).is_err() {
            let (minimal, msg) = shrink(case, "initial".into(), &check);
            assert_eq!(msg, "too many items");
            assert!(minimal.items.len() >= 3);
            assert!(minimal.items.len() <= 4, "started at {started_with}");
            assert_eq!(minimal.queries.len(), 1);
        }
    }
}
