//! Crash-recovery bench (E13): resume-not-replan cost and correctness.
//!
//! Runs the crash-point deployment of `tests/crash_matrix.rs` — a 2×2
//! grid, the photon stream at SP0 (the victim), one stateless and one
//! windowed query downstream — under the durable live runtime, killing
//! and recovering the victim mid-run, across a matrix of
//!
//! * **checkpoint cadences** (`WalConfig::checkpoint_every`): how often
//!   window state is snapshotted into the log, which bounds the replay
//!   extent recovery pays, and
//! * **crash points** (`WalConfig::crash_keep_records`): how much of the
//!   appended log survives the crash (`None` = everything; `Some(i)` =
//!   everything after record `i` was lost).
//!
//! Every cell must deliver byte-for-byte what the uncrashed baseline
//! delivers — zero lost, zero duplicated, zero replans — and the
//! *re-delivery extent* (`wal_replayed_items`) is the measured cost:
//! denser checkpoints must never pay a larger replay than sparser ones
//! on the same crash. Per cadence the victim's log length is probed and
//! every record boundary swept — the whole matrix runs in under a second.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dss_core::{Strategy, StreamGlobe};
use dss_network::grid_topology;
use dss_network::runtime::{FaultScript, LiveConfig, WalConfig};
use dss_rass::{GeneratorConfig, PhotonGenerator};
use dss_wxquery::queries;

use dss_telemetry::json::number;

/// Checkpoint cadences measured (items per window-state checkpoint).
const CADENCES: [u64; 3] = [1, 4, 16];

const N_ITEMS: usize = 25;
const DURATION_S: f64 = 40.0;
const CRASH_S: f64 = 10.5;
const RECOVER_S: f64 = 12.5;

/// The victim: hosts the shared photon groups (a crash wipes real
/// operator state, including the windowed query's open accumulators) and
/// never relays a flow it does not process.
pub const VICTIM: &str = "SP0";

fn build() -> StreamGlobe {
    let items = PhotonGenerator::new(GeneratorConfig {
        seed: 20060331,
        mean_time_increment: 1.0,
        ..GeneratorConfig::default()
    })
    .generate_items(N_ITEMS);
    let mut sys = StreamGlobe::new(grid_topology(2, 2));
    sys.register_stream("photons", VICTIM, items, 1.0)
        .expect("stream registers");
    for (id, text, peer) in [("q_sel", queries::Q1, "SP3"), ("q_win", queries::Q3, "SP1")] {
        sys.register_query(id, text, peer, Strategy::StreamSharing)
            .expect("query registers");
    }
    sys
}

/// A fresh directory per call: the module's tests run whole matrices side
/// by side in one process, and two runs must never share a log.
fn scratch_dir(tag: &str) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dss-recovery-bench-{}-{call}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Per-query delivered `(origin, serialized)` pairs, origin-sorted.
type Delivered = BTreeMap<String, Vec<(u64, String)>>;

struct RawRun {
    delivered: Delivered,
    metrics: dss_network::runtime::RuntimeMetrics,
    failovers: usize,
    run_ms: f64,
}

fn run_once(
    tag: &str,
    cadence: u64,
    crash: bool,
    keep: Option<u64>,
    keep_dir: bool,
) -> (RawRun, PathBuf) {
    let mut sys = build();
    let dir = scratch_dir(tag);
    let mut wal = WalConfig::new(&dir);
    wal.checkpoint_every = cadence;
    wal.crash_keep_records = keep;
    let cfg = LiveConfig {
        duration_s: DURATION_S,
        record_deliveries: true,
        wal: Some(wal),
        ..LiveConfig::default()
    };
    let victim = sys.topology().expect_node(VICTIM);
    let faults = if crash {
        FaultScript::new()
            .crash_peer(CRASH_S, victim)
            .recover_peer(RECOVER_S, victim)
    } else {
        FaultScript::new()
    };
    let t0 = Instant::now();
    let outcome = sys.run_live(cfg, &faults).expect("live run succeeds");
    let run_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut delivered: Delivered = BTreeMap::new();
    for (q, items) in &outcome.delivered_items {
        let mut v: Vec<(u64, String)> = items
            .iter()
            .map(|(o, n)| (*o, dss_xml::writer::node_to_string(n)))
            .collect();
        v.sort_by_key(|(o, _)| *o);
        delivered.insert(q.clone(), v);
    }
    if !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    (
        RawRun {
            delivered,
            metrics: outcome.metrics,
            failovers: outcome.failovers.len(),
            run_ms,
        },
        dir,
    )
}

/// One (cadence, crash point) measurement.
#[derive(Debug, Clone)]
pub struct RecoveryRecord {
    /// Items per window-state checkpoint.
    pub checkpoint_every: u64,
    /// Crash point: WAL records surviving the crash (`None` = all).
    pub keep: Option<u64>,
    /// Window-state checkpoints written: every record of every peer log.
    pub wal_checkpoints: u64,
    /// Re-delivery extent: input items recovery re-serviced.
    pub replayed_items: u64,
    /// Duplicates absorbed by the exactly-once filters.
    pub suppressed: u64,
    /// Items held in durable custody for the down peer.
    pub deferred: u64,
    /// Must be 0: items dropped anywhere.
    pub items_lost: u64,
    /// Must be 0: duplicate deliveries that reached a subscriber.
    pub duplicates: u64,
    /// Must be 0: recoveries degrading to replan-from-scratch.
    pub wal_fallbacks: u64,
    /// Must be 0: replanning failovers (durable crashes resume).
    pub failovers: usize,
    /// Deliveries byte-identical to the uncrashed baseline.
    pub byte_exact: bool,
    /// Host wall-clock of the whole run (informational).
    pub run_ms: f64,
}

/// Crash points measured at one cadence: the whole log survives (`None`)
/// and every record boundary of the victim's log, from "all of it lost"
/// (`Some(0)`) up to its length as probed from a lossless crash run.
fn crash_points(cadence: u64) -> Vec<Option<u64>> {
    let (_, dir) = run_once("probe", cadence, true, None, true);
    let n = dss_wal::replay(dir.join(VICTIM))
        .expect("probe log replays clean")
        .records
        .len() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    std::iter::once(None).chain((0..=n).map(Some)).collect()
}

/// The cadence × crash-point matrix, measured against one uncrashed
/// baseline per cadence.
pub fn run_matrix() -> Vec<RecoveryRecord> {
    // The baseline deliveries are cadence-independent (no crash ⇒ no
    // replay); one clean run pins the expected bytes.
    let (baseline, _) = run_once("baseline", CADENCES[1], false, None, false);
    assert_eq!(baseline.metrics.items_lost, 0, "baseline lost items");
    let mut records = Vec::new();
    for &cadence in &CADENCES {
        for keep in crash_points(cadence) {
            let tag = format!(
                "c{cadence}-k{}",
                keep.map_or_else(|| "all".to_string(), |k| k.to_string())
            );
            let (r, _) = run_once(&tag, cadence, true, keep, false);
            records.push(RecoveryRecord {
                checkpoint_every: cadence,
                keep,
                wal_checkpoints: r.metrics.wal_checkpoints,
                replayed_items: r.metrics.wal_replayed_items,
                suppressed: r.metrics.wal_suppressed,
                deferred: r.metrics.wal_deferred,
                items_lost: r.metrics.items_lost,
                duplicates: r.metrics.queries.values().map(|q| q.duplicates).sum(),
                wal_fallbacks: r.metrics.wal_fallbacks,
                failovers: r.failovers,
                byte_exact: r.delivered == baseline.delivered,
                run_ms: r.run_ms,
            });
        }
    }
    records
}

/// The CI gate over a measured matrix. Empty means pass; each entry is
/// one violated invariant:
///
/// * every cell is byte-exact, loses nothing, duplicates nothing, never
///   falls back to replan-from-scratch, never replans a failover;
/// * every crash actually pays a recovery (`replayed_items > 0` — a
///   zero replay means the crash was not exercised);
/// * at the crash points where the surviving history is the same for
///   every cadence — the whole log survives (`None`) or none of it does
///   (`Some(0)`) — a denser checkpoint cadence never pays a *larger*
///   replay extent than a sparser one: checkpoints bound the
///   re-delivery cost, that is what they are for. (Intermediate record
///   counts are not comparable across cadences: a denser log spends
///   more records per serviced item, so "keep N records" preserves
///   *less history* the denser the cadence.)
pub fn gate(records: &[RecoveryRecord]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in records {
        let cell = format!("cadence {}, keep {:?}", r.checkpoint_every, r.keep);
        if !r.byte_exact {
            failures.push(format!(
                "{cell}: deliveries diverge from the uncrashed baseline"
            ));
        }
        if r.items_lost > 0 {
            failures.push(format!("{cell}: {} item(s) lost", r.items_lost));
        }
        if r.duplicates > 0 {
            failures.push(format!("{cell}: {} duplicate deliveries", r.duplicates));
        }
        if r.wal_fallbacks > 0 {
            failures.push(format!("{cell}: recovery degraded to replan-from-scratch"));
        }
        if r.failovers > 0 {
            failures.push(format!("{cell}: {} replanning failover(s)", r.failovers));
        }
        if r.replayed_items == 0 {
            failures.push(format!(
                "{cell}: the crash forced no replay — nothing was tested"
            ));
        }
    }
    for keep in [None, Some(0)] {
        let mut at_keep: Vec<&RecoveryRecord> = records.iter().filter(|r| r.keep == keep).collect();
        at_keep.sort_by_key(|r| r.checkpoint_every);
        for pair in at_keep.windows(2) {
            if pair[0].replayed_items > pair[1].replayed_items {
                failures.push(format!(
                    "keep {keep:?}: cadence {} replays {} items but sparser cadence {} \
                     replays {} — checkpoints failed to bound the re-delivery extent",
                    pair[0].checkpoint_every,
                    pair[0].replayed_items,
                    pair[1].checkpoint_every,
                    pair[1].replayed_items,
                ));
            }
        }
    }
    failures
}

impl RecoveryRecord {
    fn to_json(&self) -> String {
        format!(
            "{{\"checkpoint_every\":{},\"keep\":{},\"wal_checkpoints\":{},\
             \"replayed_items\":{},\"suppressed\":{},\"deferred\":{},\"items_lost\":{},\
             \"duplicates\":{},\"wal_fallbacks\":{},\"failovers\":{},\"byte_exact\":{},\
             \"run_ms\":{}}}",
            self.checkpoint_every,
            self.keep
                .map_or_else(|| "null".to_string(), |k| k.to_string()),
            self.wal_checkpoints,
            self.replayed_items,
            self.suppressed,
            self.deferred,
            self.items_lost,
            self.duplicates,
            self.wal_fallbacks,
            self.failovers,
            self.byte_exact,
            number(self.run_ms),
        )
    }

    /// One human-readable summary line.
    pub fn render(&self) -> String {
        format!(
            "checkpoint every {:>2}, keep {:>4}: {:>2} replayed, {:>2} suppressed, \
             {} checkpoint(s), lost {}, dup {}, byte-exact: {} ({:.0} ms)",
            self.checkpoint_every,
            self.keep
                .map_or_else(|| "all".to_string(), |k| k.to_string()),
            self.replayed_items,
            self.suppressed,
            self.wal_checkpoints,
            self.items_lost,
            self.duplicates,
            self.byte_exact,
            self.run_ms,
        )
    }
}

/// JSON document written to `BENCH_recovery.json`.
pub fn matrix_to_json(records: &[RecoveryRecord]) -> String {
    format!(
        "{{\"bench\":\"crash_recovery\",\"victim\":\"{}\",\"items\":{},\"records\":[{}]}}\n",
        VICTIM,
        N_ITEMS,
        records
            .iter()
            .map(RecoveryRecord::to_json)
            .collect::<Vec<_>>()
            .join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_passes_its_own_gate() {
        let records = run_matrix();
        for cadence in CADENCES {
            // `None`, `Some(0)` and at least one checkpoint boundary.
            let cells = records.iter().filter(|r| r.checkpoint_every == cadence);
            assert!(cells.count() >= 3, "cadence {cadence} was not swept");
        }
        let failures = gate(&records);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn matrix_json_shape() {
        let j = matrix_to_json(&run_matrix());
        assert!(j.contains("\"bench\":\"crash_recovery\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
