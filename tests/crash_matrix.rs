//! The crash-point matrix: kill a durable peer at *every* WAL-record
//! boundary and prove exactly-once delivery at each one.
//!
//! A probe run measures how many records the victim's log accumulates;
//! the matrix then re-runs the same deployment with
//! [`WalConfig::crash_keep_records`] set to each boundary `i`, modelling
//! a crash that lost everything appended after record `i` (torn tails,
//! lazy fsyncs, truncated segments). Whatever the boundary, recovery
//! must restore the peer from the surviving prefix — falling back to a
//! larger replay extent when checkpoints were lost — and the run must
//! deliver byte-for-byte what an uncrashed run delivers: zero dropped,
//! zero duplicated.
//!
//! Every record is a checkpoint, so every boundary is a distinct recovery
//! state: 0 = the whole log lost (cold replay), N = nothing lost.

use std::collections::BTreeMap;
use std::path::PathBuf;

use data_stream_sharing::core::{Strategy, StreamGlobe};
use data_stream_sharing::network::grid_topology;
use data_stream_sharing::network::runtime::{FaultScript, LiveConfig, WalConfig};
use data_stream_sharing::wxquery::queries;
use data_stream_sharing::xml::Node;
use dss_rass::{GeneratorConfig, PhotonGenerator};

const N_ITEMS: usize = 25;
const DURATION_S: f64 = 40.0;
const CRASH_S: f64 = 10.5;
const RECOVER_S: f64 = 12.5;

/// The victim: the source super-peer. It hosts the shared photon groups
/// (so a crash wipes real operator state, including Q3's open windows)
/// and — the stream fanning out *from* it — never sits as an interior
/// relay on another flow's route, so its outage is fully covered by
/// durable input custody.
const VICTIM: &str = "SP0";

fn build() -> (StreamGlobe, Vec<(String, usize)>) {
    let items = PhotonGenerator::new(GeneratorConfig {
        seed: 20060331,
        mean_time_increment: 1.0,
        ..GeneratorConfig::default()
    })
    .generate_items(N_ITEMS);
    let mut sys = StreamGlobe::new(grid_topology(2, 2));
    sys.register_stream("photons", VICTIM, items, 1.0)
        .expect("stream registers");
    let mut regs = Vec::new();
    for (id, text, peer) in [("q_sel", queries::Q1, "SP3"), ("q_win", queries::Q3, "SP1")] {
        let reg = sys
            .register_query(id, text, peer, Strategy::StreamSharing)
            .expect("query registers");
        regs.push((reg.query_id.clone(), reg.delivery_flow));
    }
    (sys, regs)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dss-crash-matrix-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Run {
    /// Per query: delivered `(origin, serialized item)`, origin-sorted.
    delivered: BTreeMap<String, Vec<(u64, String)>>,
    metrics: data_stream_sharing::network::runtime::RuntimeMetrics,
    failovers: usize,
}

/// One live run; `keep` is the crash-point (`None` probes / runs clean).
fn run(tag: &str, crash: bool, keep: Option<u64>, keep_dir: bool) -> (Run, PathBuf) {
    let (mut sys, _) = build();
    let dir = scratch_dir(tag);
    let mut wal = WalConfig::new(&dir);
    wal.crash_keep_records = keep;
    let cfg = LiveConfig {
        duration_s: DURATION_S,
        record_deliveries: true,
        wal: Some(wal),
        ..LiveConfig::default()
    };
    let victim = sys.topology().expect_node(VICTIM);
    // Precondition for the zero-loss claim: the victim must not relay any
    // flow it does not process (interior route hops have no custody).
    for f in sys.deployment().flows().iter().filter(|f| !f.retired) {
        let interior: &[_] = if f.route.len() > 2 {
            &f.route[1..f.route.len() - 1]
        } else {
            &[]
        };
        assert!(
            !interior.contains(&victim),
            "victim {VICTIM} is an interior relay of {}",
            f.label
        );
    }
    let faults = if crash {
        FaultScript::new()
            .crash_peer(CRASH_S, victim)
            .recover_peer(RECOVER_S, victim)
    } else {
        FaultScript::new()
    };
    let outcome = sys.run_live(cfg, &faults).expect("live run succeeds");
    let mut delivered: BTreeMap<String, Vec<(u64, String)>> = BTreeMap::new();
    for (q, items) in &outcome.delivered_items {
        let mut v: Vec<(u64, String)> = items
            .iter()
            .map(|(o, n): &(u64, Node)| (*o, dss_xml::writer::node_to_string(n)))
            .collect();
        v.sort_by_key(|(o, _)| *o);
        delivered.insert(q.clone(), v);
    }
    if !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    (
        Run {
            delivered,
            metrics: outcome.metrics,
            failovers: outcome.failovers.len(),
        },
        dir,
    )
}

#[test]
fn every_wal_record_boundary_preserves_exactly_once() {
    // Baseline: the same deployment, never crashed.
    let (baseline, _) = run("baseline", false, None, false);
    assert_eq!(baseline.metrics.items_lost, 0);
    for (q, items) in &baseline.delivered {
        assert!(!items.is_empty(), "baseline {q} delivered nothing");
    }

    // Probe: one crash with nothing truncated measures how many records
    // the victim's log holds by the end of the run — an upper bound on
    // every boundary the crash could have landed on.
    let (probe, probe_dir) = run("probe", true, None, true);
    let replay = dss_wal::replay(probe_dir.join(VICTIM)).expect("probe log replays clean");
    let n = replay.records.len() as u64;
    let _ = std::fs::remove_dir_all(&probe_dir);
    assert!(n > 0, "the victim must have written WAL records");
    assert!(
        probe.metrics.wal_replayed_items > 0,
        "probe recovery must re-service history"
    );

    for i in 0..=n {
        let (m, _) = run(&format!("keep-{i}"), true, Some(i), false);
        assert_eq!(
            m.failovers, 0,
            "keep={i}: durable crash must resume, not replan"
        );
        assert_eq!(m.metrics.items_lost, 0, "keep={i}: dropped deliveries");
        assert_eq!(m.metrics.wal_fallbacks, 0, "keep={i}: unexpected fallback");
        let duplicates: u64 = m.metrics.queries.values().map(|q| q.duplicates).sum();
        assert_eq!(duplicates, 0, "keep={i}: duplicated deliveries");
        assert_eq!(
            m.delivered, baseline.delivered,
            "keep={i}: deliveries diverge from the uncrashed run"
        );
    }
}
