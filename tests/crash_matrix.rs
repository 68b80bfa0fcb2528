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
//!
//! Two deployments run the matrix. The first puts a selection on the
//! victim and Q3's windows downstream of it; the second puts all four
//! windowed operators on the victim, so that every kind of
//! [`OpState`](dss_engine::OpState) is checkpointed, lost and restored.

use std::collections::BTreeMap;
use std::path::PathBuf;

use data_stream_sharing::core::{Strategy, StreamGlobe};
use data_stream_sharing::network::grid_topology;
use data_stream_sharing::network::runtime::{FaultScript, LiveConfig, WalConfig};
use data_stream_sharing::wxquery::queries;
use data_stream_sharing::xml::Node;
use dss_engine::OpState;
use dss_rass::{GeneratorConfig, PhotonGenerator};
use dss_wal::WalRecord;

const N_ITEMS: usize = 25;
const DURATION_S: f64 = 40.0;
const CRASH_S: f64 = 10.5;
const RECOVER_S: f64 = 12.5;

/// The victim: the source super-peer. It hosts the shared photon groups
/// (so a crash wipes real operator state) and — the stream fanning out
/// *from* it — never sits as an interior relay on another flow's route, so
/// its outage is fully covered by durable input custody.
const VICTIM: &str = "SP0";

/// One deployment the matrix runs over.
struct Case {
    /// Scratch-directory tag.
    name: &'static str,
    /// Mean `det_time` increment between photons: how many windows the
    /// run's items span.
    time_increment: f64,
    /// `(id, query text, subscriber peer)`, in registration order.
    queries: &'static [(&'static str, &'static str, &'static str)],
}

/// Q1's selection runs on the victim; Q3 aggregates Q1's stream at SP1.
const SELECTION: Case = Case {
    name: "selection",
    time_increment: 1.0,
    queries: &[("q_sel", queries::Q1, "SP3"), ("q_win", queries::Q3, "SP1")],
};

const FINE_WINDOWS: &str = r#"<photons>{ for $w in stream("photons")/photons/photon
    [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0]
    |det_time diff 20 step 10|
    return <wnd>{ $w }</wnd> }</photons>"#;

const COARSE_WINDOWS: &str = r#"<photons>{ for $w in stream("photons")/photons/photon
    [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0]
    |det_time diff 60 step 40|
    return <wnd>{ $w }</wnd> }</photons>"#;

/// With no selection stream to ride, Q3's Φ and the fine window contents'
/// ω are placed at the source; Q4 and the coarse contents, subscribed on
/// the victim's other link, tap them there: Φ↺ and ω↺ run on the victim
/// too.
const WINDOWED: Case = Case {
    name: "windowed",
    time_increment: 4.0,
    queries: &[
        ("q_win", queries::Q3, "SP1"),
        ("q_re", queries::Q4, "SP2"),
        ("q_fine", FINE_WINDOWS, "SP1"),
        ("q_coarse", COARSE_WINDOWS, "SP2"),
    ],
};

fn build(case: &Case) -> StreamGlobe {
    let items = PhotonGenerator::new(GeneratorConfig {
        seed: 20060331,
        mean_time_increment: case.time_increment,
        ..GeneratorConfig::default()
    })
    .generate_items(N_ITEMS);
    let mut sys = StreamGlobe::new(grid_topology(2, 2));
    sys.register_stream("photons", VICTIM, items, 1.0)
        .expect("stream registers");
    for &(id, text, peer) in case.queries {
        sys.register_query(id, text, peer, Strategy::StreamSharing)
            .expect("query registers");
    }
    sys
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
fn run(case: &Case, tag: &str, crash: bool, keep: Option<u64>, keep_dir: bool) -> (Run, PathBuf) {
    let mut sys = build(case);
    let dir = scratch_dir(&format!("{}-{tag}", case.name));
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

/// The matrix over one deployment. Returns the victim's whole log, as the
/// probe run left it.
fn matrix(case: &Case) -> Vec<WalRecord> {
    // Baseline: the same deployment, never crashed.
    let (baseline, _) = run(case, "baseline", false, None, false);
    assert_eq!(baseline.metrics.items_lost, 0);
    assert_eq!(baseline.delivered.len(), case.queries.len());
    for (q, items) in &baseline.delivered {
        assert!(!items.is_empty(), "baseline {q} delivered nothing");
    }

    // Probe: one crash with nothing truncated measures how many records
    // the victim's log holds by the end of the run — an upper bound on
    // every boundary the crash could have landed on.
    let (probe, probe_dir) = run(case, "probe", true, None, true);
    let replay = dss_wal::replay(probe_dir.join(VICTIM)).expect("probe log replays clean");
    let n = replay.records.len() as u64;
    let _ = std::fs::remove_dir_all(&probe_dir);
    assert!(n > 0, "the victim must have written WAL records");
    assert!(
        probe.metrics.wal_replayed_items > 0,
        "probe recovery must re-service history"
    );

    for i in 0..=n {
        let (m, _) = run(case, &format!("keep-{i}"), true, Some(i), false);
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
    replay.records
}

#[test]
fn every_wal_record_boundary_preserves_exactly_once() {
    matrix(&SELECTION);
}

/// The same matrix with Φ, Φ↺, ω and ω↺ on the victim: every boundary
/// loses and restores open windows *and* buffered tiles.
#[test]
fn every_boundary_restores_all_four_state_kinds() {
    let mut kinds = [0usize; 4];
    for record in matrix(&WINDOWED) {
        let WalRecord::Checkpoint { states, .. } = record else {
            panic!("the data-plane log holds checkpoints only: {record:?}");
        };
        for (_, state) in states {
            kinds[match state {
                OpState::Agg { .. } => 0,
                OpState::Window { .. } => 1,
                OpState::ReAgg { .. } => 2,
                OpState::ReWindow { .. } => 3,
            }] += usize::from(state.items() > 0);
        }
    }
    assert!(
        kinds.iter().all(|&n| n > 0),
        "checkpoints holding open state, per kind [Φ, ω, Φ↺, ω↺]: {kinds:?}"
    );
}
