//! Widening-handoff bench (E12): delta migration vs full rebuild.
//!
//! Incremental window maintenance (PR 8) makes widening and
//! re-subscription move O(delta) state — the open window accumulators —
//! instead of forcing an O(window extent) replay to re-warm the rebuilt
//! chain. This module measures exactly that claim on shared stream DAGs:
//! `flows` sinks (1/4/16) share one sliding count-window aggregation
//! chain; after `warm_items` the widening patch splices a restore
//! selection in front of every chain (empty keep-prefix, whole chain
//! rebuilds) and the re-registration runs twice on identically warmed
//! DAGs —
//!
//! * the **delta** path (`FlowDag::reregister_migrating_batch`), whose
//!   [`MigrationReport`](dss_engine::MigrationReport) counts the open
//!   windows actually moved, and
//! * the **rebuild** path (plain `reregister` per flow), which drops the
//!   state; the raw-item extent a replay would need to re-accumulate it
//!   is derived from the window grid.
//!
//! The headline: `items_moved` stays at the open-position count (delta)
//! no matter how large the window grows, while the rebuild extent scales
//! linearly with the window size — and the post-handoff outputs are
//! byte-identical to a chain that ran the widened operator list over the
//! entire stream.

use std::time::Instant;

use dss_network::{FlowDag, FlowOp};
use dss_predicate::{Atom, CompOp, PredicateGraph};
use dss_properties::{AggOp, AggregationSpec, Operator, ResultFilter, WindowSpec};
use dss_xml::writer::node_to_string;
use dss_xml::{Decimal, Node, Path};

use dss_telemetry::json::number;

/// Sharing fan-outs measured (the ISSUE's 1/4/16-flow shared DAGs).
const FLOW_TIERS: [usize; 3] = [1, 4, 16];

/// Count-window sizes measured; the rebuild extent grows with these
/// while the migrated delta must not.
const WINDOW_SIZES: [i64; 3] = [16, 64, 256];

/// Open positions per chain: sliding count windows with
/// `step = size / POSITIONS`, so every config keeps the same number of
/// concurrently open windows regardless of window size.
const POSITIONS: i64 = 4;

fn item(i: usize) -> Node {
    Node::elem(
        "photon",
        vec![
            Node::leaf("en", format!("{}", 1.0 + (i % 10) as f64 / 10.0)),
            Node::leaf("det_time", i.to_string()),
        ],
    )
}

/// Sum of `en` over a sliding count window of `size` items stepping by
/// `size / POSITIONS`.
fn agg(size: i64) -> FlowOp {
    FlowOp::Standard(Operator::Aggregation(AggregationSpec {
        op: AggOp::Sum,
        element: "en".parse::<Path>().expect("static path"),
        window: WindowSpec::count(
            Decimal::from_int(size),
            Some(Decimal::from_int(size / POSITIONS)),
        )
        .expect("valid count window"),
        pre_selection: PredicateGraph::new(),
        result_filter: ResultFilter::none(),
    }))
}

/// The widening restore op: a selection every item passes (`en ≥ 0.5`
/// while the stream emits `en ≥ 1.0`), spliced in at position 0 so the
/// keep-prefix is empty and the whole stateful chain rebuilds.
fn restore() -> FlowOp {
    FlowOp::Standard(Operator::Selection(PredicateGraph::from_atoms(&[
        Atom::var_const(
            "en".parse::<Path>().expect("static path"),
            CompOp::Ge,
            "0.5".parse::<Decimal>().expect("static decimal"),
        ),
    ])))
}

/// Registers `flows` identical chains and feeds `warm` items.
fn warmed(flows: usize, size: i64, warm: usize) -> FlowDag {
    let mut dag = FlowDag::new();
    let chain = vec![agg(size)];
    for f in 0..flows {
        dag.register(f, &chain);
    }
    for i in 0..warm {
        dag.process_into(&item(i), &mut |_, _| {});
    }
    dag
}

/// Raw items a replay-based rebuild must re-accumulate to restore the
/// open windows after `warm` items: for every open window start `s`
/// (grid multiples of `size / POSITIONS` with `s + size > warm - 1`),
/// the items `[s, warm)` already consumed into it.
fn rebuild_extent(size: i64, warm: usize) -> u64 {
    let mu = size / POSITIONS;
    let last = warm as i64 - 1;
    if last < 0 {
        return 0;
    }
    let mut total = 0u64;
    let mut s = 0i64;
    while s <= last {
        if s + size > last {
            total += (warm as i64 - s) as u64;
        }
        s += mu;
    }
    total
}

/// One (flows, window size) measurement.
#[derive(Debug, Clone)]
pub struct HandoffRecord {
    /// Sinks sharing the stateful chain.
    pub flows: usize,
    /// Count-window size Δ (items).
    pub window_size: i64,
    /// Items processed before the widening patch.
    pub warm_items: usize,
    /// Open windows the delta path moved (`MigrationReport::items_moved`).
    pub items_moved: u64,
    /// Snapshots adopted — 1 per config: the shared chain exports once no
    /// matter how many sinks ride it.
    pub ops_migrated: u64,
    /// Snapshots dropped — must be 0: the specs are identical.
    pub ops_dropped: u64,
    /// Raw-item extent a replay-based rebuild needs for the same state.
    pub rebuild_items: u64,
    /// Wall time of the migrating batch re-registration.
    pub delta_us: f64,
    /// Wall time of the plain (state-dropping) re-registrations.
    pub rebuild_us: f64,
    /// Post-handoff outputs byte-identical to a continuous run of the
    /// widened chain over the whole stream.
    pub byte_exact: bool,
}

/// Runs one config: warm, widen via both paths, verify byte-exactness of
/// the delta path against a continuous reference.
fn run_handoff(flows: usize, size: i64) -> HandoffRecord {
    let warm = (2 * size + 5) as usize;
    let tail = size as usize;
    let new: Vec<FlowOp> = vec![restore(), agg(size)];

    // Delta path, then continue the stream and record per-flow outputs.
    let mut dag = warmed(flows, size, warm);
    let batch: Vec<(usize, &[FlowOp])> = (0..flows).map(|f| (f, new.as_slice())).collect();
    let t0 = Instant::now();
    let report = dag.reregister_migrating_batch(&batch);
    let delta_us = t0.elapsed().as_secs_f64() * 1e6;
    let mut got: Vec<(usize, String)> = Vec::new();
    for i in warm..warm + tail {
        dag.process_into(&item(i), &mut |f, n| got.push((f, node_to_string(n))));
    }

    // Continuous reference: the widened chain over the whole stream.
    let mut reference = FlowDag::new();
    for f in 0..flows {
        reference.register(f, &new);
    }
    let mut expect: Vec<(usize, String)> = Vec::new();
    for i in 0..warm + tail {
        reference.process_into(&item(i), &mut |f, n| {
            if i >= warm {
                expect.push((f, node_to_string(n)));
            }
        });
    }

    // Rebuild path: identically warmed DAG, plain re-registration.
    let mut plain = warmed(flows, size, warm);
    let t0 = Instant::now();
    for f in 0..flows {
        plain.reregister(f, &new);
    }
    let rebuild_us = t0.elapsed().as_secs_f64() * 1e6;

    HandoffRecord {
        flows,
        window_size: size,
        warm_items: warm,
        items_moved: report.items_moved,
        ops_migrated: report.ops_migrated,
        ops_dropped: report.ops_dropped,
        rebuild_items: rebuild_extent(size, warm),
        delta_us,
        rebuild_us,
        byte_exact: got == expect,
    }
}

/// The full 1/4/16-flow × window-size matrix.
pub fn run_matrix() -> Vec<HandoffRecord> {
    let mut records = Vec::new();
    for &flows in &FLOW_TIERS {
        for &size in &WINDOW_SIZES {
            records.push(run_handoff(flows, size));
        }
    }
    records
}

/// The CI gate over a measured matrix. Empty means pass; each entry is
/// one violated invariant:
///
/// * every handoff must be byte-exact and drop nothing;
/// * per flow tier, `items_moved` at the largest window must not exceed
///   the smallest window's (+1 for grid-alignment slack) — moved state
///   scales with the *delta* (open positions), never the window size;
/// * per flow tier, the rebuild extent must grow with the window size —
///   the baseline the delta path is beating.
pub fn gate(records: &[HandoffRecord]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in records {
        if !r.byte_exact {
            failures.push(format!(
                "{} flows, window {}: post-handoff outputs diverge from the continuous run",
                r.flows, r.window_size
            ));
        }
        if r.ops_dropped > 0 {
            failures.push(format!(
                "{} flows, window {}: {} snapshot(s) dropped on an identical-spec handoff",
                r.flows, r.window_size, r.ops_dropped
            ));
        }
    }
    for &flows in &FLOW_TIERS {
        let tier: Vec<&HandoffRecord> = records.iter().filter(|r| r.flows == flows).collect();
        let (Some(smallest), Some(largest)) = (tier.first(), tier.last()) else {
            continue;
        };
        if largest.items_moved > smallest.items_moved + 1 {
            failures.push(format!(
                "{} flows: items moved scales with window size ({} @ {} vs {} @ {}) — \
                 the delta path is not O(delta)",
                flows,
                largest.items_moved,
                largest.window_size,
                smallest.items_moved,
                smallest.window_size
            ));
        }
        if largest.rebuild_items <= smallest.rebuild_items {
            failures.push(format!(
                "{} flows: rebuild extent did not grow with the window ({} @ {} vs {} @ {})",
                flows,
                largest.rebuild_items,
                largest.window_size,
                smallest.rebuild_items,
                smallest.window_size
            ));
        }
    }
    failures
}

impl HandoffRecord {
    fn to_json(&self) -> String {
        format!(
            "{{\"flows\":{},\"window_size\":{},\"warm_items\":{},\"items_moved\":{},\
             \"ops_migrated\":{},\"ops_dropped\":{},\"rebuild_items\":{},\
             \"delta_us\":{},\"rebuild_us\":{},\"byte_exact\":{}}}",
            self.flows,
            self.window_size,
            self.warm_items,
            self.items_moved,
            self.ops_migrated,
            self.ops_dropped,
            self.rebuild_items,
            number(self.delta_us),
            number(self.rebuild_us),
            self.byte_exact,
        )
    }

    /// One human-readable summary line.
    pub fn render(&self) -> String {
        format!(
            "{:>2} flows, window {:>4}: moved {:>2} open window(s) vs {:>4} replay items, \
             handoff {:>7.1} µs vs rebuild {:>7.1} µs, byte-exact: {}",
            self.flows,
            self.window_size,
            self.items_moved,
            self.rebuild_items,
            self.delta_us,
            self.rebuild_us,
            self.byte_exact,
        )
    }
}

/// JSON document written to `BENCH_widening.json`.
pub fn matrix_to_json(records: &[HandoffRecord]) -> String {
    format!(
        "{{\"bench\":\"widening_handoff\",\"positions\":{},\"records\":[{}]}}\n",
        POSITIONS,
        records
            .iter()
            .map(HandoffRecord::to_json)
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
        assert_eq!(records.len(), FLOW_TIERS.len() * WINDOW_SIZES.len());
        let failures = gate(&records);
        assert!(failures.is_empty(), "{failures:?}");
        for r in &records {
            // The shared chain exports exactly one snapshot no matter how
            // many sinks ride it — the sharing win carries over to the
            // handoff.
            assert_eq!(r.ops_migrated, 1, "{r:?}");
            assert!(r.items_moved > 0, "{r:?}");
            assert!(
                r.items_moved <= (POSITIONS + 1) as u64,
                "moved more than the open positions: {r:?}"
            );
            assert!(r.rebuild_items as i64 >= r.window_size, "{r:?}");
        }
    }

    #[test]
    fn rebuild_extent_scales_with_window() {
        let small = rebuild_extent(16, 37);
        let large = rebuild_extent(256, 517);
        assert!(small > 0 && large >= 4 * small, "{small} vs {large}");
    }

    #[test]
    fn matrix_json_shape() {
        let j = matrix_to_json(&run_matrix());
        assert!(j.contains("\"bench\":\"widening_handoff\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
