//! The window-based aggregation operator Φ.
//!
//! Windows are anchored on an *absolute grid*: a window with step µ and
//! size Δ starts at `k·µ` for integer `k` (possibly negative) and covers
//! reference values in `[k·µ, k·µ + Δ)`. For `count` windows the reference
//! value is the item's arrival index; for `diff` windows it is the value of
//! the ordered reference element (the stream must be sorted by it, as the
//! paper requires).
//!
//! Grid anchoring is what makes *sharing* work: two aggregates over the same
//! stream with compatible windows (`Δ' mod Δ = 0`, `Δ mod µ = 0`,
//! `µ' mod µ = 0`) automatically produce alignable windows regardless of
//! where the data happens to start, so the re-aggregation operator can tile
//! coarse windows from fine partials (Figure 5).
//!
//! Empty windows (no contributing values) are never emitted; consumers —
//! including the re-aggregation operator — treat a missing partial as empty
//! once a later partial has been seen (streams of partials are ordered by
//! window start).

use dss_properties::{AggOp, AggregationSpec, ResultFilter};
use dss_xml::{Decimal, Node};

use crate::agg_item::AggItem;
use crate::migrate::OpState;
use crate::op::{Emit, StreamOperator};
use crate::window_track::WindowTracker;

pub use crate::window_track::grid_floor;

/// Applies a result filter to a closed window under the given aggregate
/// operator. Empty windows fail every non-trivial filter (fail-closed);
/// `avg` filters are evaluated exactly via cross-multiplication.
pub fn filter_accepts(op: AggOp, item: &AggItem, filter: &ResultFilter) -> bool {
    if filter.is_trivial() {
        return true;
    }
    match op {
        AggOp::Avg => filter
            .conditions
            .iter()
            .all(|(cmp, c)| item.avg_compare(*cmp, *c)),
        _ => match item.final_value(op) {
            Some(v) => filter.accepts(v),
            None => false,
        },
    }
}

/// Window-based aggregation from raw stream items.
#[derive(Debug)]
pub struct AggregateOp {
    spec: AggregationSpec,
    tracker: WindowTracker<AggItem>,
    /// Reusable scratch for the matched element values of one item.
    values: Vec<Decimal>,
}

impl AggregateOp {
    /// Creates the operator. The spec's `pre_selection` is *not* applied
    /// here — a separate upstream [`SelectOp`](crate::select::SelectOp)
    /// does that, mirroring the operator chains recorded in properties.
    pub fn new(spec: AggregationSpec) -> AggregateOp {
        let tracker = WindowTracker::new(spec.window.clone());
        AggregateOp {
            spec,
            tracker,
            values: Vec::new(),
        }
    }

    /// The aggregation spec.
    pub fn spec(&self) -> &AggregationSpec {
        &self.spec
    }
}

/// Finalizes a closed window: patches its coordinates, drops empty windows,
/// applies the result filter, serializes. A free function (not a method) so
/// the tracker callbacks can borrow `spec` while the tracker is borrowed
/// mutably.
fn emit_window(spec: &AggregationSpec, start: Decimal, mut window: AggItem, out: &mut Emit) {
    if window.count == 0 {
        return; // empty windows are never emitted
    }
    window.start = start;
    window.size = spec.window.size();
    if filter_accepts(spec.op, &window, &spec.result_filter) {
        out.push(window.to_node());
    }
}

impl StreamOperator for AggregateOp {
    fn name(&self) -> &'static str {
        "Φ"
    }

    fn process_into(&mut self, item: &Node, out: &mut Emit) {
        let AggregateOp {
            spec,
            tracker,
            values,
        } = self;
        // Gather every matched element value into the reused scratch, then
        // fold them into the windows containing the item's reference value.
        values.clear();
        spec.element.visit(item, &mut |n| {
            if let Some(v) = n.decimal() {
                values.push(v);
            }
        });
        tracker.observe(
            item,
            |acc, _| {
                for v in values.iter() {
                    acc.add_value(*v);
                }
            },
            |start, window| emit_window(spec, start, window, out),
        );
    }

    fn flush_into(&mut self, out: &mut Emit) {
        let AggregateOp { spec, tracker, .. } = self;
        tracker.flush(|start, window| emit_window(spec, start, window, out));
    }

    fn base_load(&self) -> f64 {
        2.0
    }

    fn snapshot_state(&self) -> Option<OpState> {
        let (open, youngest_start, items_seen) = self.tracker.snapshot_open()?;
        Some(OpState::Agg {
            spec: self.spec.clone(),
            open,
            youngest_start,
            items_seen,
        })
    }

    fn import_state(&mut self, state: &OpState) -> Option<u64> {
        let OpState::Agg {
            spec,
            open,
            youngest_start,
            items_seen,
        } = state
        else {
            return None;
        };
        // Accumulation depends only on the window grid and the aggregated
        // element (op/filter/pre-selection shape emission, not state), so
        // equal element + adoptable window ⇒ exact.
        if spec.element != self.spec.element {
            return None;
        }
        self.tracker
            .adopt_open(&spec.window, open.clone(), *youngest_start, *items_seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::StreamOperatorExt;
    use dss_predicate::{CompOp, PredicateGraph};
    use dss_properties::WindowSpec;
    use dss_xml::Path;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn photon(t: &str, en: &str) -> Node {
        Node::elem(
            "photon",
            vec![Node::leaf("det_time", t), Node::leaf("en", en)],
        )
    }

    fn diff_spec(
        op: AggOp,
        size: &str,
        step: Option<&str>,
        filter: ResultFilter,
    ) -> AggregationSpec {
        AggregationSpec {
            op,
            element: p("en"),
            window: WindowSpec::diff(p("det_time"), d(size), step.map(d)).unwrap(),
            pre_selection: PredicateGraph::new(),
            result_filter: filter,
        }
    }

    fn count_spec(op: AggOp, size: &str, step: Option<&str>) -> AggregationSpec {
        AggregationSpec {
            op,
            element: p("en"),
            window: WindowSpec::count(d(size), step.map(d)).unwrap(),
            pre_selection: PredicateGraph::new(),
            result_filter: ResultFilter::none(),
        }
    }

    fn run(op: &mut AggregateOp, items: &[(&str, &str)]) -> Vec<AggItem> {
        let mut out = Vec::new();
        for (t, en) in items {
            out.extend(op.process_collect(&photon(t, en)));
        }
        out.extend(op.flush_collect());
        out.iter().map(|n| AggItem::from_node(n).unwrap()).collect()
    }

    #[test]
    fn grid_floor_behaviour() {
        assert_eq!(grid_floor(d("35"), d("10")), d("30"));
        assert_eq!(grid_floor(d("30"), d("10")), d("30"));
        assert_eq!(grid_floor(d("-5"), d("10")), d("-10"));
        assert_eq!(grid_floor(d("7.5"), d("2.5")), d("7.5"));
        assert_eq!(grid_floor(d("7.4"), d("2.5")), d("5"));
        assert_eq!(grid_floor(d("0"), d("40")), d("0"));
    }

    #[test]
    fn tumbling_diff_window_sums() {
        // Window |det_time diff 10|: [0,10), [10,20), …
        let mut op = AggregateOp::new(diff_spec(AggOp::Sum, "10", None, ResultFilter::none()));
        let out = run(
            &mut op,
            &[
                ("1", "1.0"),
                ("5", "2.0"),
                ("12", "4.0"),
                ("15", "8.0"),
                ("23", "16.0"),
            ],
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].start, d("0"));
        assert_eq!(out[0].sum, Some(d("3")));
        assert_eq!(out[1].start, d("10"));
        assert_eq!(out[1].sum, Some(d("12")));
        assert_eq!(out[2].start, d("20"));
        assert_eq!(out[2].sum, Some(d("16")));
    }

    #[test]
    fn sliding_diff_window_overlaps() {
        // |diff 20 step 10| (Query 3's window): starts 0, 10, 20, …
        let mut op = AggregateOp::new(diff_spec(
            AggOp::Count,
            "20",
            Some("10"),
            ResultFilter::none(),
        ));
        let out = run(
            &mut op,
            &[("5", "1"), ("15", "1"), ("25", "1"), ("35", "1")],
        );
        // Windows: [0,20)→2, [10,30)→2, [20,40)→2, [30,50)→1.
        let starts: Vec<Decimal> = out.iter().map(|a| a.start).collect();
        assert_eq!(starts, vec![d("0"), d("10"), d("20"), d("30")]);
        let counts: Vec<u64> = out.iter().map(|a| a.count).collect();
        assert_eq!(counts, vec![2, 2, 2, 1]);
    }

    #[test]
    fn windows_align_to_absolute_grid_regardless_of_data_start() {
        // First item at t = 35 with |diff 20 step 10|: the first windows
        // containing it are [20,40) and [30,50) — grid-aligned, not
        // data-aligned.
        let mut op = AggregateOp::new(diff_spec(
            AggOp::Count,
            "20",
            Some("10"),
            ResultFilter::none(),
        ));
        let out = run(&mut op, &[("35", "1"), ("36", "1")]);
        let starts: Vec<Decimal> = out.iter().map(|a| a.start).collect();
        assert_eq!(starts, vec![d("20"), d("30")]);
        assert_eq!(out[0].count, 2);
    }

    #[test]
    fn empty_windows_not_emitted_across_gaps() {
        let mut op = AggregateOp::new(diff_spec(AggOp::Sum, "10", None, ResultFilter::none()));
        let out = run(&mut op, &[("5", "1.0"), ("95", "2.0")]);
        let starts: Vec<Decimal> = out.iter().map(|a| a.start).collect();
        assert_eq!(starts, vec![d("0"), d("90")]);
    }

    #[test]
    fn count_window_tumbling() {
        // |count 3|: windows over item indices [0,3), [3,6), …
        let mut op = AggregateOp::new(count_spec(AggOp::Sum, "3", None));
        let items: Vec<(String, String)> =
            (0..7).map(|i| (i.to_string(), "1.0".to_string())).collect();
        let refs: Vec<(&str, &str)> = items
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let out = run(&mut op, &refs);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].count, 3);
        assert_eq!(out[1].count, 3);
        assert_eq!(out[2].count, 1); // flush of the open window
    }

    #[test]
    fn count_window_sliding() {
        // |count 20 step 10| from the paper's window example: the window
        // always contains 20 items, updated every 10.
        let mut op = AggregateOp::new(count_spec(AggOp::Count, "20", Some("10")));
        let items: Vec<(String, String)> = (0..40)
            .map(|i| (i.to_string(), "1.0".to_string()))
            .collect();
        let refs: Vec<(&str, &str)> = items
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let out = run(&mut op, &refs);
        // Complete windows at starts 0 and 10 and 20 (closed by items 20–39)
        // plus flush of [30,50) partial.
        let starts: Vec<Decimal> = out.iter().map(|a| a.start).collect();
        assert_eq!(starts, vec![d("0"), d("10"), d("20"), d("30")]);
        assert_eq!(out[0].count, 20);
        assert_eq!(out[1].count, 20);
        assert_eq!(out[3].count, 10);
    }

    #[test]
    fn avg_carried_as_sum_and_count() {
        let mut op = AggregateOp::new(diff_spec(AggOp::Avg, "10", None, ResultFilter::none()));
        let out = run(&mut op, &[("1", "1.0"), ("2", "2.0")]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sum, Some(d("3")));
        assert_eq!(out[0].count, 2);
        assert_eq!(out[0].final_value(AggOp::Avg), Some(d("1.5")));
    }

    #[test]
    fn result_filter_drops_windows() {
        // Query 4 style: avg(en) >= 1.3.
        let filter = ResultFilter::single(CompOp::Ge, d("1.3"));
        let mut op = AggregateOp::new(diff_spec(AggOp::Avg, "10", None, filter));
        let out = run(
            &mut op,
            &[
                ("1", "1.0"),
                ("2", "1.2"),
                ("11", "1.4"),
                ("12", "1.6"),
                ("21", "1.3"),
            ],
        );
        // [0,10): avg 1.1 dropped; [10,20): avg 1.5 kept; [20,30): 1.3 kept.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].start, d("10"));
        assert_eq!(out[1].start, d("20"));
    }

    #[test]
    fn min_max_windows() {
        let mut op = AggregateOp::new(diff_spec(AggOp::Min, "10", None, ResultFilter::none()));
        let out = run(&mut op, &[("1", "3.0"), ("2", "1.5"), ("3", "2.0")]);
        assert_eq!(out[0].min, Some(d("1.5")));
        assert_eq!(out[0].max, Some(d("3")));
    }

    #[test]
    fn items_without_reference_value_are_skipped() {
        let mut op = AggregateOp::new(diff_spec(AggOp::Sum, "10", None, ResultFilter::none()));
        let mut out = Vec::new();
        out.extend(op.process_collect(&Node::elem("photon", vec![Node::leaf("en", "1.0")])));
        out.extend(op.process_collect(&photon("5", "2.0")));
        out.extend(op.flush_collect());
        let items: Vec<AggItem> = out.iter().map(|n| AggItem::from_node(n).unwrap()).collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].sum, Some(d("2")));
    }

    #[test]
    fn items_without_aggregated_element_do_not_count() {
        let mut op = AggregateOp::new(diff_spec(AggOp::Count, "10", None, ResultFilter::none()));
        let mut out = Vec::new();
        out.extend(op.process_collect(&Node::elem("photon", vec![Node::leaf("det_time", "1")])));
        out.extend(op.process_collect(&photon("2", "1.0")));
        out.extend(op.flush_collect());
        let items: Vec<AggItem> = out.iter().map(|n| AggItem::from_node(n).unwrap()).collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].count, 1);
    }

    #[test]
    fn fractional_diff_windows() {
        let mut op = AggregateOp::new(diff_spec(AggOp::Sum, "0.5", None, ResultFilter::none()));
        let out = run(&mut op, &[("0.1", "1.0"), ("0.4", "1.0"), ("0.6", "1.0")]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].start, d("0"));
        assert_eq!(out[0].sum, Some(d("2")));
        assert_eq!(out[1].start, d("0.5"));
    }
}
