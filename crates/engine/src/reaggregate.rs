//! The re-aggregation operator: computes a coarse window aggregate from the
//! shared partial results of a finer one (Figure 5 of the paper).
//!
//! Input items are [`AggItem`]s produced by an upstream
//! [`AggregateOp`](crate::AggregateOp) (possibly at another peer). The
//! tiling of the new windows from those partials is the
//! [`TileAssembler`]'s (see [`crate::retile`]); this operator parses the
//! partials and applies the new spec's result filter to what comes out.

use dss_properties::AggregationSpec;
use dss_xml::{Decimal, Node};

use crate::agg_item::AggItem;
use crate::aggregate::filter_accepts;
use crate::migrate::OpState;
use crate::op::{Emit, StreamOperator};
use crate::retile::{Tile, TileAssembler};

impl Tile for AggItem {
    fn empty(start: Decimal, size: Decimal) -> AggItem {
        AggItem::empty(start, size)
    }

    fn start(&self) -> Decimal {
        self.start
    }

    fn merge(&mut self, other: &AggItem) {
        AggItem::merge(self, other);
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Re-aggregation from shared fine partials to a coarser window spec.
#[derive(Debug)]
pub struct ReAggregateOp {
    /// Spec of the reused (incoming) aggregate stream.
    reused: AggregationSpec,
    /// Spec of the aggregate to produce.
    new: AggregationSpec,
    assembler: TileAssembler<AggItem>,
}

impl ReAggregateOp {
    /// Creates the operator.
    ///
    /// # Panics
    /// Panics if the window specs are not shareable — the planner must only
    /// install re-aggregations that `MatchAggregations` approved.
    pub fn new(reused: AggregationSpec, new: AggregationSpec) -> ReAggregateOp {
        let assembler = TileAssembler::new(&reused.window, &new.window);
        ReAggregateOp {
            reused,
            new,
            assembler,
        }
    }

    /// The produced aggregation spec.
    pub fn spec(&self) -> &AggregationSpec {
        &self.new
    }
}

/// Emits a completed window if it passes the result filter. A free function
/// so the assembler callbacks can borrow `spec` while the assembler is
/// borrowed mutably.
fn emit_merged(spec: &AggregationSpec, merged: AggItem, out: &mut Emit) {
    if filter_accepts(spec.op, &merged, &spec.result_filter) {
        out.push(merged.to_node());
    }
}

impl StreamOperator for ReAggregateOp {
    fn name(&self) -> &'static str {
        "Φ↺"
    }

    fn process_into(&mut self, item: &Node, out: &mut Emit) {
        if let Ok(partial) = AggItem::from_node(item) {
            let ReAggregateOp { new, assembler, .. } = self;
            assembler.observe(partial, |merged| emit_merged(new, merged, out));
        }
    }

    fn flush_into(&mut self, out: &mut Emit) {
        let ReAggregateOp { new, assembler, .. } = self;
        assembler.flush(|merged| emit_merged(new, merged, out));
    }

    fn base_load(&self) -> f64 {
        0.5
    }

    fn snapshot_state(&self) -> Option<OpState> {
        let (tiles, next_window, max_seen) = self.assembler.snapshot()?;
        Some(OpState::ReAgg {
            reused: self.reused.clone(),
            new: self.new.clone(),
            tiles,
            next_window,
            max_seen,
        })
    }

    fn import_state(&mut self, state: &OpState) -> Option<u64> {
        match state {
            OpState::ReAgg {
                reused,
                new,
                tiles,
                next_window,
                max_seen,
            } if *reused == self.reused && *new == self.new => {
                Some(self.assembler.adopt(tiles, *next_window, *max_seen))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateOp;
    use crate::op::StreamOperatorExt;
    use dss_predicate::{CompOp, PredicateGraph};
    use dss_properties::{AggOp, ResultFilter, WindowSpec};
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

    /// Runs items through `fine` aggregation, feeds the partials into a
    /// re-aggregation to `coarse`, and also runs the same items directly
    /// through `coarse`; returns (shared, direct) results.
    fn shared_vs_direct(
        fine: AggregationSpec,
        coarse: AggregationSpec,
        items: &[(f64, f64)],
    ) -> (Vec<AggItem>, Vec<AggItem>) {
        let mut fine_op = AggregateOp::new(fine.clone());
        let mut re_op = ReAggregateOp::new(fine, coarse.clone());
        let mut direct_op = AggregateOp::new(coarse);

        let mut shared = Vec::new();
        let mut direct = Vec::new();
        for (t, en) in items {
            let item = photon(&format!("{t}"), &format!("{en}"));
            for partial in fine_op.process_collect(&item) {
                shared.extend(re_op.process_collect(&partial));
            }
            direct.extend(direct_op.process_collect(&item));
        }
        for partial in fine_op.flush_collect() {
            shared.extend(re_op.process_collect(&partial));
        }
        shared.extend(re_op.flush_collect());
        direct.extend(direct_op.flush_collect());

        let parse = |v: Vec<Node>| v.iter().map(|n| AggItem::from_node(n).unwrap()).collect();
        (parse(shared), parse(direct))
    }

    /// Figure 5: Query 4 (|diff 60 step 40|) assembled from Query 3
    /// (|diff 20 step 10|) equals computing Query 4 directly.
    #[test]
    fn figure5_shared_equals_direct() {
        let q3 = diff_spec(AggOp::Avg, "20", Some("10"), ResultFilter::none());
        let q4 = diff_spec(AggOp::Avg, "60", Some("40"), ResultFilter::none());
        let items: Vec<(f64, f64)> = (0..200)
            .map(|i| (i as f64 * 1.7 + 3.0, 1.0 + (i % 7) as f64 * 0.2))
            .collect();
        let (shared, direct) = shared_vs_direct(q3, q4, &items);
        assert!(!direct.is_empty());
        assert_eq!(shared, direct);
    }

    #[test]
    fn shared_equals_direct_with_result_filter() {
        let q3 = diff_spec(AggOp::Avg, "20", Some("10"), ResultFilter::none());
        let q4 = diff_spec(
            AggOp::Avg,
            "60",
            Some("40"),
            ResultFilter::single(CompOp::Ge, d("1.3")),
        );
        let items: Vec<(f64, f64)> = (0..300)
            .map(|i| (i as f64 * 0.9, 1.0 + (i % 10) as f64 * 0.1))
            .collect();
        let (shared, direct) = shared_vs_direct(q3, q4, &items);
        assert!(!direct.is_empty());
        assert_eq!(shared, direct);
    }

    #[test]
    fn tumbling_from_tumbling() {
        let fine = diff_spec(AggOp::Sum, "10", None, ResultFilter::none());
        let coarse = diff_spec(AggOp::Sum, "30", None, ResultFilter::none());
        let items: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 1.0)).collect();
        let (shared, direct) = shared_vs_direct(fine, coarse, &items);
        assert!(!direct.is_empty());
        assert_eq!(shared, direct);
    }

    #[test]
    fn min_max_reaggregation() {
        for op in [AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Sum] {
            let fine = diff_spec(op, "5", None, ResultFilter::none());
            let coarse = diff_spec(op, "20", Some("10"), ResultFilter::none());
            let items: Vec<(f64, f64)> = (0..150)
                .map(|i| (i as f64 * 0.8, (i % 13) as f64 * 0.5))
                .collect();
            let (shared, direct) = shared_vs_direct(fine, coarse, &items);
            assert!(!direct.is_empty(), "{op}");
            assert_eq!(shared, direct, "{op}");
        }
    }

    #[test]
    fn data_not_starting_at_zero() {
        let fine = diff_spec(AggOp::Avg, "20", Some("10"), ResultFilter::none());
        let coarse = diff_spec(AggOp::Avg, "60", Some("40"), ResultFilter::none());
        // Data begins at t = 1234.5 — grid anchoring must keep shared and
        // direct aligned.
        let items: Vec<(f64, f64)> = (0..200)
            .map(|i| (1234.5 + i as f64 * 1.1, 1.0 + (i % 5) as f64 * 0.3))
            .collect();
        let (shared, direct) = shared_vs_direct(fine, coarse, &items);
        assert!(!direct.is_empty());
        assert_eq!(shared, direct);
    }

    #[test]
    fn gaps_in_data() {
        let fine = diff_spec(AggOp::Sum, "10", None, ResultFilter::none());
        let coarse = diff_spec(AggOp::Sum, "40", None, ResultFilter::none());
        // Two bursts with a long silent gap between them.
        let mut items: Vec<(f64, f64)> = (0..30).map(|i| (i as f64, 1.0)).collect();
        items.extend((0..30).map(|i| (500.0 + i as f64, 2.0)));
        let (shared, direct) = shared_vs_direct(fine, coarse, &items);
        assert!(!direct.is_empty());
        assert_eq!(shared, direct);
    }

    #[test]
    fn avg_partials_serve_sum_subscription() {
        // The paper's relaxation: avg is shipped as (sum, count), so its
        // partials can compute a sum aggregate.
        let fine = diff_spec(AggOp::Avg, "10", None, ResultFilter::none());
        let coarse_sum = diff_spec(AggOp::Sum, "20", None, ResultFilter::none());
        let items: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 1.5)).collect();
        let (shared, direct) = shared_vs_direct(fine, coarse_sum, &items);
        assert!(!direct.is_empty());
        assert_eq!(shared, direct);
    }

    #[test]
    #[should_panic(expected = "shareable")]
    fn incompatible_windows_rejected() {
        let fine = diff_spec(AggOp::Sum, "20", Some("15"), ResultFilter::none());
        let coarse = diff_spec(AggOp::Sum, "60", None, ResultFilter::none());
        let _ = ReAggregateOp::new(fine, coarse);
    }

    #[test]
    fn non_agg_items_ignored() {
        let fine = diff_spec(AggOp::Sum, "10", None, ResultFilter::none());
        let coarse = diff_spec(AggOp::Sum, "20", None, ResultFilter::none());
        let mut op = ReAggregateOp::new(fine, coarse);
        assert!(op.process_collect(&photon("1", "1.0")).is_empty());
        assert!(op.flush_collect().is_empty());
    }
}
