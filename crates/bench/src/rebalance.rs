//! Flash-crowd re-balancing bench (E14): measured-load migration, p99.
//!
//! The planner places flows by *estimates*; this scenario makes the
//! estimates wrong on purpose. Five equal super-peers form a star around
//! `HUB`, which hosts the photon stream. The photon energies are skewed:
//! 90 % of items sit in the narrow hot band [2.0, 2.1] keV while a 10 %
//! background tail stretches the observed range down to 0.5 keV — so the
//! uniform-range selectivity estimator prices an `en >= 2.0` cut at ~6 %
//! when it actually passes ~90 % of the stream.
//!
//! One anchor query makes that cut and exposes its filtered stream; a
//! flash crowd of disjoint energy-band selects (plus a few windowed
//! averages) then subscribes from the other spares. Each band is subsumed
//! only by the anchor's cut, so every member taps the anchor's shared
//! stream — and since all peers have equal capacity, the traffic term
//! (one result hop beats two) puts every residual select on the hub. Each
//! one is charged at the *estimated* post-cut rate (~0.6 items/s) but
//! actually processes ~9 items/s: the hub saturates at ~14× its booked
//! load while the admission estimates still show it mostly idle — exactly
//! the gap [`utilization_overlay`] exists to detect.
//!
//! Run A executes the crowd with the frozen plan ([`run_live`]); run B
//! enables the periodic re-balancer ([`run_live_rebalancing`]) with *no
//! observation override*: the measured busy fractions alone must detect
//! the overload (utilization above the bound **and** above what the
//! estimates explain) and migrate the costliest members onto the anchor's
//! delivery corridor (`S1`). The gate fails unless planned migrations
//! happen, nothing is lost or duplicated in either run, both runs deliver
//! byte-identical results in origin order, migrated window state moves
//! rather than restarting, and the worst per-query steady-state p99
//! latency improves with re-balancing — with no individual query
//! regressing beyond a small bound. Latency percentiles are compared over
//! the second half of the run (both runs windowed identically), so the
//! verdict reflects the converged placement, not the warmup the
//! re-balancer needs a few ticks to fix.
//!
//! `DSS_BENCH_FULL=1` scales the crowd up and lengthens the run;
//! EXPERIMENTS.md (E14) describes the full 10k-subscription narrative
//! this stands in for.
//!
//! [`run_live`]: dss_core::StreamGlobe::run_live
//! [`run_live_rebalancing`]: dss_core::StreamGlobe::run_live_rebalancing
//! [`utilization_overlay`]: dss_core::cost::utilization_overlay

use std::collections::BTreeMap;
use std::time::Instant;

use dss_core::{RebalancePolicy, Strategy, StreamGlobe};
use dss_network::runtime::{FaultScript, LiveConfig};
use dss_network::{PeerKind, Topology};
use dss_rass::{GeneratorConfig, PhotonGenerator, SkyRegion, XraySource};

use crate::json::number;

/// The stream host all member taps pile onto.
pub const HUB: &str = "HUB";
/// Spare super-peers around the hub. The anchor subscribes from `S1`, so
/// its shared stream is routed hub → S1 — the corridor migrations re-tap.
pub const SPARES: [&str; 4] = ["S1", "S2", "S3", "S4"];

/// Stream rate (items/s).
const FREQ_HZ: f64 = 10.0;
/// Fraction of photons the generator puts in the hot band — the *actual*
/// pass rate of the anchor's cut (the estimator prices it at ~6 %).
const HOT_FRACTION: f64 = 0.9;
/// Re-balance cadence. Deliberately off any round multiple of the mean
/// 100 ms item spacing; a tick that catches the victims mid-item defers
/// to the next one, so the cadence only sets how often the migration is
/// retried.
const EVERY_S: f64 = 0.295;
/// Utilization bound: a peer measured busier than this (and busier than
/// its booked estimate) sheds queries until it projects under the bound.
const BOUND: f64 = 0.6;
/// Measured hub utilization the capacity is sized for: saturated enough
/// that the serial member chain hurts latency, but strictly under 1.0 so
/// the frozen-plan baseline still drains (no systematic queue growth, no
/// lost items at the horizon).
const TARGET_UTIL: f64 = 0.9;

/// Scenario scale: smoke tier by default, `DSS_BENCH_FULL=1` for the long
/// tier.
#[derive(Debug, Clone, Copy)]
pub struct FlashParams {
    /// Flash-crowd size (anchor + band members).
    pub queries: usize,
    /// Live horizon in simulated seconds.
    pub duration_s: f64,
}

impl FlashParams {
    pub fn tier(full: bool) -> FlashParams {
        if full {
            FlashParams {
                queries: 32,
                duration_s: 180.0,
            }
        } else {
            FlashParams {
                queries: 12,
                duration_s: 60.0,
            }
        }
    }

    /// Latency stats are compared over the second half of the run, after
    /// the re-balancer has had time to converge. Both runs are windowed
    /// identically; exactly-once and byte-exactness still cover *every*
    /// delivery.
    fn warmup_us(&self) -> u64 {
        ((self.duration_s / 2.0) * 1e6) as u64
    }

    /// Every peer's compute capacity (work units/s), sized so the *actual*
    /// hub work of this crowd lands at [`TARGET_UTIL`]. Actual work uses
    /// the true hot-band rate (`HOT_FRACTION · FREQ_HZ`) where the
    /// planner's estimate uses the uniform-range selectivity — the gap
    /// between the two is the whole point of the scenario.
    fn capacity(&self) -> f64 {
        let members = (self.queries - 1) as f64;
        let hot = HOT_FRACTION * FREQ_HZ;
        // Anchor: selection on the raw stream, projection on the hot part.
        let anchor = 1.0 * FREQ_HZ + 1.2 * hot;
        // Every member's residual band select sees the full hot stream.
        let selects = members * 1.0 * hot;
        // Windowed members additionally aggregate their band's share.
        let windowed = (1..self.queries).filter(|i| i % 4 == 3).count() as f64;
        let aggregates = windowed * 2.0 * (hot / members);
        (anchor + selects + aggregates) / TARGET_UTIL
    }
}

/// Star topology of equal super-peers. Equal capacities matter: the load
/// term of the cost function is capacity-normalized and only *penalizes*
/// overflow, so between peers with identical headroom the traffic term
/// decides — and one result hop from the hub beats two from a spare,
/// piling every member tap onto the hub.
fn flash_topology(params: FlashParams) -> Topology {
    let cap = params.capacity();
    let mut topo = Topology::new();
    let hub = topo.add_peer_with(HUB, PeerKind::SuperPeer, cap, 1.0);
    for name in SPARES {
        let s = topo.add_peer_with(name, PeerKind::SuperPeer, cap, 1.0);
        topo.connect(hub, s);
    }
    topo
}

/// Skewed photon stream: 90 % of energies in the narrow hot band
/// [2.0, 2.1] keV, 10 % background down to 0.5 keV. The observed range
/// [0.5, 2.1] makes the uniform estimator price `en >= 2.0` at
/// 0.1/1.6 ≈ 6 % when it actually passes ≈ 90 %.
fn skewed_photons(n: usize) -> Vec<dss_xml::Node> {
    let field = SkyRegion {
        ra_min: 120.0,
        ra_max: 138.0,
        dec_min: -49.0,
        dec_max: -40.0,
    };
    PhotonGenerator::new(GeneratorConfig {
        seed: 0xf1a5_4c04,
        field,
        sources: vec![XraySource {
            region: field,
            weight: HOT_FRACTION,
            en_min: 2.0,
            en_max: 2.1,
        }],
        background_en: (0.5, 2.0),
        mean_time_increment: 1.0 / FREQ_HZ,
    })
    .generate_items(n)
}

/// Energy band of crowd member `i` (of `k` queries), in milli-keV:
/// pairwise *disjoint* slices of the hot band [2.0, 2.1]. Disjoint bands
/// cannot subsume each other, so every member's only sharing parent is
/// the anchor query's `en >= 2.0` stream — a sharing *star*, not a
/// chain. That keeps each member's residual select exclusive (nothing
/// taps it), which is what makes it movable: a shared node cannot migrate
/// without dragging every consumer along.
fn band_milli(i: usize, k: usize) -> (u32, u32) {
    let step = 100 / (k as u32 - 1);
    let lo = 2_000 + step * (i as u32 - 1);
    (lo, lo + step - 1)
}

fn milli(v: u32) -> String {
    format!("{}.{:03}", v / 1000, v % 1000)
}

/// Whether crowd member `i` carries a sliding window (open state a
/// migration must move, not replay).
fn is_windowed(i: usize) -> bool {
    i % 4 == 3
}

/// WXQuery text of crowd member `i`: the anchor cut for member 0, a band
/// select for the rest — with every fourth member instead averaging its
/// band's energies over a sliding `det_time` window.
fn query_text(i: usize, k: usize) -> String {
    if i == 0 {
        return "<photons>\n{ for $p in stream(\"photons\")/photons/photon\n  \
                where $p/en >= 2.000\n  \
                return <hit> { $p/en } { $p/det_time } </hit> }\n</photons>"
            .to_string();
    }
    let (lo, hi) = band_milli(i, k);
    let (lo, hi) = (milli(lo), milli(hi));
    if is_windowed(i) {
        format!(
            "<photons>\n{{ for $w in stream(\"photons\")/photons/photon\n  \
             [en >= {lo} and en <= {hi}]\n  \
             |det_time diff 2 step 1|\n  let $a := avg($w/en)\n  \
             return <avg_en> {{ $a }} </avg_en> }}\n</photons>"
        )
    } else {
        format!(
            "<photons>\n{{ for $p in stream(\"photons\")/photons/photon\n  \
             where $p/en >= {lo} and $p/en <= {hi}\n  \
             return <hit> {{ $p/en }} {{ $p/det_time }} </hit> }}\n</photons>"
        )
    }
}

/// Builds the flash-crowd system. The stream lives on the hub; the anchor
/// query subscribes from `S1`, so its shared `en >= 2.0` stream is routed
/// hub → S1 — the corridor migrations can later re-tap. The crowd
/// subscribes from the *other* spares: the traffic term then puts every
/// band select on the hub (one result hop beats two), which is exactly
/// the pile-up the re-balancer must undo.
fn build(params: FlashParams) -> StreamGlobe {
    // Stop emitting 2 s before the horizon so both runs drain completely —
    // the p99/byte-exact comparison must not depend on who was faster at
    // the cutoff.
    let n_items = ((params.duration_s - 2.0) * FREQ_HZ) as usize;
    let mut sys = StreamGlobe::new(flash_topology(params));
    sys.register_stream("photons", HUB, skewed_photons(n_items), FREQ_HZ)
        .expect("stream registers");
    for i in 0..params.queries {
        let peer = if i == 0 {
            SPARES[0]
        } else {
            SPARES[1 + (i - 1) % (SPARES.len() - 1)]
        };
        let text = query_text(i, params.queries);
        sys.register_query(format!("q{i:02}"), &text, peer, Strategy::StreamSharing)
            .unwrap_or_else(|e| panic!("q{i:02} registers: {e}"));
    }
    sys
}

fn live_config(params: FlashParams) -> LiveConfig {
    LiveConfig {
        duration_s: params.duration_s,
        record_deliveries: true,
        ..LiveConfig::default()
    }
}

/// The re-balancer's knobs for this scenario. No observation override: the
/// measured busy fractions alone must find the hot hub.
pub fn flash_policy() -> RebalancePolicy {
    RebalancePolicy {
        every_s: EVERY_S,
        utilization_bound: BOUND,
        max_moves_per_cycle: 4,
        observed_override: None,
    }
}

/// Per-query origin-sorted serialized deliveries.
type Delivered = BTreeMap<String, Vec<(u64, String)>>;

fn sorted_deliveries(outcome: &dss_core::LiveOutcome) -> Delivered {
    let mut delivered = Delivered::new();
    for (q, items) in &outcome.delivered_items {
        let mut v: Vec<(u64, String)> = items
            .iter()
            .map(|(o, n)| (*o, dss_xml::writer::node_to_string(n)))
            .collect();
        v.sort_by_key(|(o, _)| *o);
        delivered.insert(q.clone(), v);
    }
    delivered
}

/// Mean and p99 of the latency samples delivered at or after `from_us`
/// (same index arithmetic as the runtime's whole-run aggregates).
fn windowed_stats(samples: &[(u64, u64)], from_us: u64) -> (Option<u64>, Option<u64>) {
    let mut lat: Vec<u64> = samples
        .iter()
        .filter(|&&(at, _)| at >= from_us)
        .map(|&(_, l)| l)
        .collect();
    if lat.is_empty() {
        return (None, None);
    }
    lat.sort_unstable();
    let sum: u128 = lat.iter().map(|&l| l as u128).sum();
    let mean = (sum / lat.len() as u128) as u64;
    let idx = (lat.len() - 1).min(lat.len() * 99 / 100);
    (Some(mean), Some(lat[idx]))
}

/// One query's A/B comparison. Latency figures are steady-state: computed
/// over the samples delivered after the warmup window, identically for
/// both runs.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub id: String,
    /// Deliveries within the horizon (identical in both runs when
    /// `byte_exact`).
    pub delivered: u64,
    pub p99_a_us: Option<u64>,
    pub p99_b_us: Option<u64>,
    pub mean_a_us: Option<u64>,
    pub mean_b_us: Option<u64>,
    /// The re-balancer moved this query at least once.
    pub migrated: bool,
    /// Run-B duplicates (must be 0).
    pub duplicates: u64,
    /// Run-B crash-recovery attributions (must stay empty: planned moves
    /// are not failures).
    pub recoveries: usize,
    /// Run-B migration gaps recorded (must be ≥ 1 when `migrated`).
    pub migration_marks: usize,
}

/// The measured A/B experiment.
#[derive(Debug, Clone)]
pub struct FlashRecord {
    pub params: FlashParams,
    /// Every peer's capacity (work units/s) the tier was sized with.
    pub capacity: f64,
    /// Worst per-query steady-state p99 without / with re-balancing.
    pub p99_max_a_us: u64,
    pub p99_max_b_us: u64,
    /// Highest hub utilization any re-balance cycle observed.
    pub hub_util_seen: f64,
    /// Planned migrations executed (run B).
    pub migrations: u64,
    /// Queries moved at least once.
    pub migrated_queries: Vec<String>,
    /// Re-registrations that failed during migration (must be empty).
    pub failed: Vec<(String, String)>,
    /// Cycles that backed off because victims had items in flight.
    pub deferred: u64,
    /// Open window items carried across migrations (windowed members).
    pub items_moved: u64,
    pub windows_moved: u64,
    pub windows_dropped: u64,
    /// Items lost (must be 0 in both runs).
    pub items_lost_a: u64,
    pub items_lost_b: u64,
    /// Origin-sorted deliveries identical between the runs.
    pub byte_exact: bool,
    pub queries: Vec<QueryRecord>,
    /// Host wall-clock (informational).
    pub run_ms: f64,
}

/// Runs the A/B experiment at the given tier.
pub fn run_flash(full: bool) -> FlashRecord {
    let params = FlashParams::tier(full);
    let t0 = Instant::now();

    let mut sys_a = build(params);
    let a = sys_a
        .run_live(live_config(params), &FaultScript::new())
        .expect("baseline run");

    let mut sys_b = build(params);
    let b = sys_b
        .run_live_rebalancing(live_config(params), &FaultScript::new(), &flash_policy())
        .expect("re-balancing run");
    let run_ms = t0.elapsed().as_secs_f64() * 1e3;

    if std::env::var("DSS_REBALANCE_DEBUG").is_ok() {
        let topo = sys_a.topology();
        for v in 0..topo.peer_count() {
            eprintln!(
                "peer {} cap {} node_work {:.1}",
                topo.peer(v).name,
                topo.peer(v).capacity,
                a.metrics.node_work[v]
            );
            for op in &a.metrics.node_ops[v] {
                eprintln!(
                    "  depth {} {} sharers={} in={} out={} work={:.1}",
                    op.depth, op.name, op.sharers, op.items_in, op.items_out, op.work
                );
            }
        }
        for c in b.rebalances.iter().take(12) {
            eprintln!(
                "cycle at {} util {:?} decisions {:?} migrated {:?} deferred {}",
                c.at_us, c.observed_util, c.decisions, c.migrated, c.deferred
            );
        }
    }
    let delivered_a = sorted_deliveries(&a);
    let delivered_b = sorted_deliveries(&b);
    let byte_exact = delivered_a == delivered_b;

    let hub = sys_b.topology().expect_node(HUB);
    let mut migrated_queries: Vec<String> = Vec::new();
    let mut failed = Vec::new();
    let mut hub_util_seen = 0.0f64;
    let mut items_moved = 0;
    let mut windows_moved = 0;
    let mut windows_dropped = 0;
    for c in &b.rebalances {
        if let Some(&u) = c.observed_util.get(hub) {
            hub_util_seen = hub_util_seen.max(u);
        }
        for m in &c.migrated {
            if !migrated_queries.contains(&m.query_id) {
                migrated_queries.push(m.query_id.clone());
            }
        }
        failed.extend(c.failed.iter().cloned());
        items_moved += c.items_moved;
        windows_moved += c.windows_moved;
        windows_dropped += c.windows_dropped;
    }

    let warmup = params.warmup_us();
    let empty: Vec<(u64, u64)> = Vec::new();
    let mut queries = Vec::new();
    let mut p99_max_a = 0u64;
    let mut p99_max_b = 0u64;
    for (id, ma) in &a.metrics.queries {
        let mb = &b.metrics.queries[id];
        let (mean_a, p99_a) = windowed_stats(a.latency_samples.get(id).unwrap_or(&empty), warmup);
        let (mean_b, p99_b) = windowed_stats(b.latency_samples.get(id).unwrap_or(&empty), warmup);
        if let Some(p) = p99_a {
            p99_max_a = p99_max_a.max(p);
        }
        if let Some(p) = p99_b {
            p99_max_b = p99_max_b.max(p);
        }
        queries.push(QueryRecord {
            id: id.clone(),
            delivered: ma.delivered,
            p99_a_us: p99_a,
            p99_b_us: p99_b,
            mean_a_us: mean_a,
            mean_b_us: mean_b,
            migrated: migrated_queries.contains(id),
            duplicates: mb.duplicates,
            recoveries: mb.recoveries_us.len(),
            migration_marks: mb.migrations_us.len(),
        });
    }

    FlashRecord {
        params,
        capacity: params.capacity(),
        p99_max_a_us: p99_max_a,
        p99_max_b_us: p99_max_b,
        hub_util_seen,
        migrations: b.metrics.planned_migrations,
        migrated_queries,
        failed,
        deferred: b.metrics.rebalance_deferred,
        items_moved,
        windows_moved,
        windows_dropped,
        items_lost_a: a.metrics.items_lost,
        items_lost_b: b.metrics.items_lost,
        byte_exact,
        queries,
        run_ms,
    }
}

/// A query may not pay more than this for the others' wins: steady p99
/// with re-balancing must stay within `REGRESSION_FACTOR × baseline +
/// SLACK`.
const REGRESSION_FACTOR: f64 = 1.10;
const REGRESSION_SLACK_US: u64 = 5_000;

/// The CI gate. Empty means pass; each entry is one violated invariant.
pub fn gate(r: &FlashRecord) -> Vec<String> {
    let mut failures = Vec::new();
    if r.migrations == 0 {
        failures.push(format!(
            "no planned migration happened (hub utilization seen: {:.2}) — the overload was not detected",
            r.hub_util_seen
        ));
    }
    for (q, e) in &r.failed {
        failures.push(format!("{q}: migration re-registration failed: {e}"));
    }
    if r.items_lost_a > 0 {
        failures.push(format!("baseline lost {} item(s)", r.items_lost_a));
    }
    if r.items_lost_b > 0 {
        failures.push(format!("re-balanced run lost {} item(s)", r.items_lost_b));
    }
    if !r.byte_exact {
        failures.push("re-balanced deliveries diverge from the baseline".to_string());
    }
    if r.windows_dropped > 0 {
        failures.push(format!(
            "{} migrated window snapshot(s) dropped instead of adopted",
            r.windows_dropped
        ));
    }
    let windowed_migrated = r.migrated_queries.iter().any(|q| {
        q.strip_prefix('q')
            .and_then(|n| n.parse::<usize>().ok())
            .is_some_and(is_windowed)
    });
    if windowed_migrated && r.windows_moved == 0 {
        failures
            .push("a windowed query migrated but no open window state moved with it".to_string());
    }
    for q in &r.queries {
        if q.duplicates > 0 {
            failures.push(format!("{}: {} duplicate deliveries", q.id, q.duplicates));
        }
        if q.recoveries > 0 {
            failures.push(format!(
                "{}: planned migration mis-attributed as crash recovery",
                q.id
            ));
        }
        if q.migrated && q.migration_marks == 0 {
            failures.push(format!("{}: migrated but no migration gap recorded", q.id));
        }
        if q.delivered == 0 {
            failures.push(format!("{}: delivered nothing — scenario untested", q.id));
        }
        if let (Some(pa), Some(pb)) = (q.p99_a_us, q.p99_b_us) {
            let limit = (pa as f64 * REGRESSION_FACTOR) as u64 + REGRESSION_SLACK_US;
            if pb > limit {
                failures.push(format!(
                    "{}: steady p99 regressed under re-balancing ({pa} → {pb} µs, limit {limit})",
                    q.id
                ));
            }
        }
    }
    if r.migrations > 0 && r.p99_max_b_us >= r.p99_max_a_us {
        failures.push(format!(
            "worst steady p99 did not improve: {} µs without vs {} µs with re-balancing",
            r.p99_max_a_us, r.p99_max_b_us
        ));
    }
    failures
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

impl QueryRecord {
    fn to_json(&self) -> String {
        format!(
            "{{\"id\":\"{}\",\"delivered\":{},\"p99_a_us\":{},\"p99_b_us\":{},\
             \"mean_a_us\":{},\"mean_b_us\":{},\"migrated\":{},\"duplicates\":{}}}",
            self.id,
            self.delivered,
            opt(self.p99_a_us),
            opt(self.p99_b_us),
            opt(self.mean_a_us),
            opt(self.mean_b_us),
            self.migrated,
            self.duplicates,
        )
    }
}

/// JSON document written to `BENCH_rebalance.json`.
pub fn record_to_json(r: &FlashRecord) -> String {
    format!(
        "{{\"bench\":\"flash_crowd_rebalance\",\"hub\":\"{HUB}\",\"queries\":{},\
         \"duration_s\":{},\"capacity\":{},\"utilization_bound\":{},\"warmup_s\":{},\
         \"hub_util_seen\":{},\"migrations\":{},\"migrated\":{},\"deferred\":{},\
         \"items_moved\":{},\"windows_moved\":{},\"p99_max_a_us\":{},\"p99_max_b_us\":{},\
         \"items_lost\":[{},{}],\"byte_exact\":{},\"run_ms\":{},\"per_query\":[{}]}}\n",
        r.params.queries,
        number(r.params.duration_s),
        number(r.capacity),
        number(BOUND),
        number(r.params.warmup_us() as f64 / 1e6),
        number(r.hub_util_seen),
        r.migrations,
        r.migrated_queries.len(),
        r.deferred,
        r.items_moved,
        r.windows_moved,
        r.p99_max_a_us,
        r.p99_max_b_us,
        r.items_lost_a,
        r.items_lost_b,
        r.byte_exact,
        number(r.run_ms),
        r.queries
            .iter()
            .map(QueryRecord::to_json)
            .collect::<Vec<_>>()
            .join(","),
    )
}

impl FlashRecord {
    /// Human-readable summary lines.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flash crowd: {} queries on {} (cap {:.0}) for {:.0}s; hub util seen {:.2}",
            self.params.queries, HUB, self.capacity, self.params.duration_s, self.hub_util_seen,
        );
        let _ = writeln!(
            out,
            "  {} migration(s) across {} query(ies), {} deferred tick(s), \
             {} window(s) / {} item(s) moved",
            self.migrations,
            self.migrated_queries.len(),
            self.deferred,
            self.windows_moved,
            self.items_moved,
        );
        let _ = writeln!(
            out,
            "  worst steady p99: {:.1} ms frozen plan → {:.1} ms re-balanced; \
             lost {}/{}, byte-exact: {}",
            self.p99_max_a_us as f64 / 1e3,
            self.p99_max_b_us as f64 / 1e3,
            self.items_lost_a,
            self.items_lost_b,
            self.byte_exact,
        );
        for q in &self.queries {
            let _ = writeln!(
                out,
                "    {}: {:>4} delivered, steady p99 {:>9} → {:>9} µs{}",
                q.id,
                q.delivered,
                opt(q.p99_a_us),
                opt(q.p99_b_us),
                if q.migrated { "  [migrated]" } else { "" },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tier_passes_its_own_gate() {
        let record = run_flash(false);
        let failures = gate(&record);
        assert!(failures.is_empty(), "{}\n{failures:#?}", record.render());
    }

    #[test]
    fn record_json_shape() {
        let j = record_to_json(&run_flash(false));
        assert!(j.contains("\"bench\":\"flash_crowd_rebalance\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
