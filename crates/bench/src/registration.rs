//! Registration-latency-vs-installed-subscriptions curve (E11).
//!
//! The catalog index (PR 6) makes candidate lookup during `Subscribe`
//! sublinear in the number of installed streams: per-registration latency
//! should stay near-flat as the subscription population grows, while the
//! full-scan reference degrades linearly with the deployed flow table.
//! This module registers `n` template subscriptions, records every
//! registration's wall time, summarizes per-decile percentiles, and at a
//! few population checkpoints probes the *same* query through both the
//! indexed search and `subscribe_full_scan` — asserting byte-identical
//! winning plans and recording how many candidates the index pruned.
//!
//! `registration_smoke` runs one 100k tier and adds the 1M tier under
//! `DSS_BENCH_FULL=1` (it takes minutes, not seconds).

use std::time::Instant;

use dss_core::{subscribe_full_scan, subscribe_with, SearchOrder, Strategy, StreamGlobe};
use dss_network::grid_topology;
use dss_rass::{default_photons, QueryTemplateGenerator, ValueSets};
use dss_wxquery::compile_query;

use dss_telemetry::json::number;

/// Grid dimension for the registration workload: 36 super-peers, large
/// enough for non-trivial routes, small enough that the population (not
/// the network) dominates.
pub const GRID_DIM: usize = 6;

/// Value sets for the registration workload: a trimmed-down version of
/// the defaults. Section 4's premise is that many subscribers draw their
/// parameters from a *predefined set of values*, so at large populations
/// almost every registration is served by an already-installed stream.
/// With these sets the distinct-chain space saturates within the first
/// few thousand registrations, after which the catalog's per-chain
/// grouping keeps candidate lookup — and hence registration latency —
/// flat no matter how many subscriptions follow.
pub fn smoke_sets() -> ValueSets {
    let d = ValueSets::default();
    ValueSets {
        ra_ranges: d.ra_ranges[..2].to_vec(),
        dec_ranges: d.dec_ranges[..2].to_vec(),
        en_cuts: d.en_cuts[..3].to_vec(),
        windows: d.windows[..2].to_vec(),
        agg_ops: d.agg_ops[..2].to_vec(),
        projections: d.projections[..2].to_vec(),
    }
}

/// One indexed-vs-full-scan probe at a population checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Subscriptions registered when the probe ran.
    pub installed: usize,
    /// Total deployed flows (including per-subscription delivery flows).
    pub deployed_flows: usize,
    /// Shareable (indexed) flows — saturates once the chain space is
    /// covered at every reachable tap constellation.
    pub shareable_flows: usize,
    /// Distinct operator chains the catalog has interned — the quantity
    /// indexed lookup scales with.
    pub distinct_chains: usize,
    /// Candidate streams the indexed search matched properties against.
    pub indexed_candidates: usize,
    /// Candidate streams the full scan matched properties against.
    pub full_scan_candidates: usize,
    /// Peers visited (identical for both by construction).
    pub nodes_visited: usize,
    /// `Debug` output of both winning plans compared byte-for-byte.
    pub plans_identical: bool,
}

/// Latency summary for one tier.
#[derive(Debug, Clone)]
pub struct TierReport {
    /// Requested subscription count.
    pub subscriptions: usize,
    /// Successful registrations (template queries essentially never fail
    /// without admission control, but the count is kept honest).
    pub registered: usize,
    /// Per-decile median registration latency, µs (10 entries, in
    /// registration order).
    pub decile_p50_us: Vec<f64>,
    /// Per-decile p99 registration latency, µs.
    pub decile_p99_us: Vec<f64>,
    /// Flat-latency headline: last-decile p99 / first-decile p99.
    pub flat_ratio: f64,
    /// Probes at ~10 %, ~50 % and 100 % of the population.
    pub checkpoints: Vec<Checkpoint>,
    /// Wall time for the whole tier.
    pub total_secs: f64,
}

/// The full curve across tiers.
#[derive(Debug, Clone)]
pub struct RegistrationCurve {
    pub seed: u64,
    pub tiers: Vec<TierReport>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one probe query through both search implementations against the
/// current deployment.
fn probe(system: &StreamGlobe, text: &str, v_q_name: &str, installed: usize) -> Checkpoint {
    let compiled = compile_query(text).expect("probe query compiles");
    let v_q = system.topology().expect_node(v_q_name);
    let (ip, is) = subscribe_with(
        system.state(),
        &compiled,
        v_q,
        v_q,
        SearchOrder::Bfs,
        false,
        false,
    )
    .expect("indexed probe plans");
    let (fp, fs) = subscribe_full_scan(
        system.state(),
        &compiled,
        v_q,
        v_q,
        SearchOrder::Bfs,
        false,
        false,
    )
    .expect("full-scan probe plans");
    Checkpoint {
        installed,
        deployed_flows: system.deployment().len(),
        shareable_flows: system.deployment().shareable_len(),
        distinct_chains: system.deployment().distinct_chains(),
        indexed_candidates: is.candidates_matched,
        full_scan_candidates: fs.candidates_matched,
        nodes_visited: is.nodes_visited.max(fs.nodes_visited),
        plans_identical: is.nodes_visited == fs.nodes_visited
            && format!("{ip:?}") == format!("{fp:?}"),
    }
}

/// Registers `n` template subscriptions and summarizes the latency curve.
pub fn run_tier(seed: u64, n: usize) -> TierReport {
    let peers = GRID_DIM * GRID_DIM;
    let mut system = StreamGlobe::new(grid_topology(GRID_DIM, GRID_DIM));
    system
        .register_stream("photons", "SP0", default_photons(seed, 200), 60.0)
        .expect("stream registers");
    let mut tgen = QueryTemplateGenerator::with_sets(seed, "photons", smoke_sets());
    let marks = [n.div_ceil(10), n.div_ceil(2), n];
    let mut lat_us = Vec::with_capacity(n);
    let mut registered = 0usize;
    let mut checkpoints = Vec::new();
    let tier_start = Instant::now();
    for i in 0..n {
        let text = tgen.next_query();
        let peer = format!("SP{}", (i * 13 + 5) % peers);
        let t0 = Instant::now();
        let ok = system
            .register_query(format!("q{i}"), &text, &peer, Strategy::StreamSharing)
            .is_ok();
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        registered += ok as usize;
        if marks.contains(&(i + 1)) {
            // The probe reuses the *registered* query's text: the indexed
            // search must reproduce the exact plan the full scan finds
            // even when a perfect cover is installed.
            checkpoints.push(probe(&system, &text, &peer, i + 1));
        }
    }
    let total_secs = tier_start.elapsed().as_secs_f64();

    let decile = lat_us.len().div_ceil(10).max(1);
    let (mut decile_p50_us, mut decile_p99_us) = (Vec::new(), Vec::new());
    for chunk in lat_us.chunks(decile) {
        let mut sorted = chunk.to_vec();
        sorted.sort_by(f64::total_cmp);
        decile_p50_us.push(percentile(&sorted, 0.50));
        decile_p99_us.push(percentile(&sorted, 0.99));
    }
    let flat_ratio = match (decile_p99_us.first(), decile_p99_us.last()) {
        (Some(&first), Some(&last)) if first > 0.0 => last / first,
        _ => f64::NAN,
    };
    TierReport {
        subscriptions: n,
        registered,
        decile_p50_us,
        decile_p99_us,
        flat_ratio,
        checkpoints,
        total_secs,
    }
}

/// Runs every tier with a fresh system each.
pub fn registration_curve(seed: u64, tiers: &[usize]) -> RegistrationCurve {
    RegistrationCurve {
        seed,
        tiers: tiers.iter().map(|&n| run_tier(seed, n)).collect(),
    }
}

impl Checkpoint {
    fn to_json(&self) -> String {
        format!(
            "{{\"installed\":{},\"deployed_flows\":{},\"shareable_flows\":{},\
             \"distinct_chains\":{},\"indexed_candidates\":{},\
             \"full_scan_candidates\":{},\"nodes_visited\":{},\"plans_identical\":{}}}",
            self.installed,
            self.deployed_flows,
            self.shareable_flows,
            self.distinct_chains,
            self.indexed_candidates,
            self.full_scan_candidates,
            self.nodes_visited,
            self.plans_identical,
        )
    }
}

impl TierReport {
    fn to_json(&self) -> String {
        let list = |v: &[f64]| v.iter().map(|&x| number(x)).collect::<Vec<_>>().join(",");
        format!(
            "{{\"subscriptions\":{},\"registered\":{},\"decile_p50_us\":[{}],\
             \"decile_p99_us\":[{}],\"flat_ratio\":{},\"total_secs\":{},\"checkpoints\":[{}]}}",
            self.subscriptions,
            self.registered,
            list(&self.decile_p50_us),
            list(&self.decile_p99_us),
            number(self.flat_ratio),
            number(self.total_secs),
            self.checkpoints
                .iter()
                .map(Checkpoint::to_json)
                .collect::<Vec<_>>()
                .join(","),
        )
    }

    /// One human-readable summary line.
    pub fn render(&self) -> String {
        let last = self.checkpoints.last();
        format!(
            "{:>9} subs: p50 {:>7.1} -> {:>7.1} µs, p99 {:>7.1} -> {:>7.1} µs, \
             flat ratio {:>5.2}, candidates {} -> {} ({:.1} s)",
            self.subscriptions,
            self.decile_p50_us.first().copied().unwrap_or(0.0),
            self.decile_p50_us.last().copied().unwrap_or(0.0),
            self.decile_p99_us.first().copied().unwrap_or(0.0),
            self.decile_p99_us.last().copied().unwrap_or(0.0),
            self.flat_ratio,
            last.map_or(0, |c| c.full_scan_candidates),
            last.map_or(0, |c| c.indexed_candidates),
            self.total_secs,
        )
    }
}

impl RegistrationCurve {
    /// JSON document written to `BENCH_subscribe.json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bench\":\"subscribe_registration\",\"seed\":{},\"grid_peers\":{},\"tiers\":[{}]}}\n",
            self.seed,
            GRID_DIM * GRID_DIM,
            self.tiers
                .iter()
                .map(TierReport::to_json)
                .collect::<Vec<_>>()
                .join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_report_probes_agree_and_prune() {
        let report = run_tier(11, 400);
        assert_eq!(report.registered, 400);
        assert_eq!(report.decile_p50_us.len(), 10);
        assert_eq!(report.decile_p99_us.len(), 10);
        assert!(report.flat_ratio.is_finite());
        assert_eq!(report.checkpoints.len(), 3);
        for c in &report.checkpoints {
            assert!(c.plans_identical, "{c:?}");
            assert!(c.indexed_candidates <= c.full_scan_candidates, "{c:?}");
        }
        // With 400 template subscriptions installed the delivery flows
        // vastly outnumber shareable streams: the index must prune.
        let last = report.checkpoints.last().unwrap();
        assert!(
            last.indexed_candidates < last.full_scan_candidates,
            "expected pruning at 400 subscriptions: {last:?}"
        );
    }

    #[test]
    fn curve_json_shape() {
        let curve = registration_curve(11, &[60]);
        let j = curve.to_json();
        assert!(j.contains("\"bench\":\"subscribe_registration\""));
        assert!(j.contains("\"tiers\":["));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
