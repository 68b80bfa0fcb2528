//! The cost model (Section 3.2).
//!
//! The cost function `C` focuses on the additional network traffic and peer
//! load a new subscription causes:
//!
//! ```text
//! C(P) = γ   · Σ_{e ∈ E_P} [ u_b(e) + max(0, u_b(e) − a_b(e)) · e^(u_b(e) − a_b(e)) ]
//!      + (1−γ) · Σ_{v ∈ V_P} [ u_l(v) + max(0, u_l(v) − a_l(v)) · e^(u_l(v) − a_l(v)) ]
//! ```
//!
//! with `u_b(e)` the relative bandwidth the plan's *additional* streams use
//! on connection `e`, `u_l(v)` the relative computational load its
//! *additional* operators put on peer `v`, and `a_b` / `a_l` the currently
//! available relative bandwidth/load. Overload draws an exponential
//! penalty.

use dss_properties::{AggOp, Operator, WindowKind, WindowSpec};

use crate::stats::StreamStats;

/// Cost-model parameters.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// γ ∈ [0, 1]: weight of network traffic vs. peer load.
    pub gamma: f64,
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams { gamma: 0.5 }
    }
}

/// Estimated size/frequency of a (possibly transformed) stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamEstimate {
    /// Average serialized bytes of one item (`size(p)`).
    pub item_size: f64,
    /// Items per second (`freq(p)`).
    pub frequency: f64,
}

impl StreamEstimate {
    /// Estimated data rate in bytes per second.
    pub fn bytes_per_s(&self) -> f64 {
        self.item_size * self.frequency
    }

    /// Estimated data rate in kilobits per second.
    pub fn kbps(&self) -> f64 {
        self.bytes_per_s() * 8.0 / 1000.0
    }
}

/// Rough serialized size of one window-aggregate partial (`<agg>` item with
/// start/size/count plus the operator's value fields).
pub fn agg_item_size_estimate(op: AggOp) -> f64 {
    // <agg></agg> + <start>…</start> + <size>…</size> + <count>…</count>
    let base = 11.0 + 3.0 * 20.0;
    match op {
        AggOp::Count => base,
        AggOp::Sum => base + 22.0,
        AggOp::Min | AggOp::Max => base + 20.0,
        // avg travels as (sum, count); min/max fields absent.
        AggOp::Avg => base + 22.0,
    }
}

/// Base computational load `bload(o)` of a property-level operator, in the
/// same units the execution engine charges (see each operator's
/// `base_load`).
pub fn base_load(op: &Operator) -> f64 {
    match op {
        Operator::Selection(_) => 1.0,
        Operator::Projection(_) => 1.2,
        Operator::Aggregation(_) => 2.0,
        Operator::WindowOutput(_) => 1.5,
        Operator::Udf { .. } => 3.0,
    }
}

/// Estimates the stream produced by applying `chain` to a stream with the
/// given original statistics (`size(p)` and `freq(p)` of Section 3.2).
pub fn estimate_chain(stats: &StreamStats, chain: &[Operator]) -> StreamEstimate {
    let mut est = StreamEstimate {
        item_size: stats.item_size,
        frequency: stats.frequency,
    };
    for op in chain {
        match op {
            Operator::Selection(g) => {
                // Selections scale the frequency, not the item size.
                est.frequency *= stats.selectivity(g);
            }
            Operator::Projection(spec) => {
                // Projections scale the item size, not the frequency.
                est.item_size = est.item_size.min(stats.projected_size(&spec.output));
            }
            Operator::Aggregation(spec) => {
                est.item_size = agg_item_size_estimate(spec.op);
                est.frequency = window_output_frequency(stats, &spec.window, est.frequency);
                // A result filter further reduces the frequency; without
                // per-window value statistics we fall back to a fixed
                // factor per *distinct* condition — duplicated or implied
                // bounds collapse through the predicate graph's minimized
                // form instead of compounding as if independent.
                if !spec.result_filter.is_trivial() {
                    est.frequency *=
                        0.5f64.powi(spec.result_filter.distinct_condition_count() as i32);
                }
            }
            Operator::WindowOutput(spec) => {
                // "For item-based data windows … multiplying the window
                // size with the average size of the items contained in the
                // window and adding the sizes of the enclosing window tags.
                // For time-based data windows this works analogously except
                // that the average number of data items contained in the
                // window must be estimated" (Section 3.2).
                let items_per_window = match spec.window.kind() {
                    dss_properties::WindowKind::Count => spec.window.size().to_f64(),
                    dss_properties::WindowKind::Diff => {
                        let r = spec
                            .window
                            .reference()
                            .expect("diff windows carry a reference");
                        (spec.window.size().to_f64() / stats.avg_increment(r)).max(1.0)
                    }
                };
                // Window wrapper: <window>, <start>, <size>, <items> tags.
                let wrapper = 80.0;
                est.item_size = items_per_window * est.item_size + wrapper;
                est.frequency = window_output_frequency(stats, &spec.window, est.frequency);
            }
            Operator::Udf { .. } => {
                // Unknown semantics: assume size/frequency preserving.
            }
        }
    }
    est
}

/// Output frequency of a window aggregate (Section 3.2): one value per
/// window step.
///
/// * item-based windows: the input frequency divided by the step size µ
///   (`input_frequency` is the post-selection item rate — fewer items means
///   fewer window updates);
/// * value-based windows: the window advances with the *reference element*,
///   not with item counts, so the update rate is determined by the raw
///   stream's time axis: the average number of raw items read per update is
///   `µ / avg-increment(reference)`, and the update rate is the raw
///   frequency divided by that. A pre-selection thins window contents but
///   does not slow the reference clock.
pub fn window_output_frequency(
    stats: &StreamStats,
    window: &WindowSpec,
    input_frequency: f64,
) -> f64 {
    match window.kind() {
        WindowKind::Count => input_frequency / window.step().to_f64(),
        WindowKind::Diff => {
            let reference = window.reference().expect("diff windows carry a reference");
            let inc = stats.avg_increment(reference);
            let items_per_update = (window.step().to_f64() / inc).max(1.0);
            stats.frequency / items_per_update
        }
    }
}

/// One connection's contribution to the plan cost.
#[derive(Debug, Clone, Copy)]
pub struct EdgeUse {
    /// `u_b(e)`: relative bandwidth used by the plan's additional streams.
    pub used: f64,
    /// `a_b(e)`: relative bandwidth still available before the plan.
    pub available: f64,
}

/// One peer's contribution to the plan cost.
#[derive(Debug, Clone, Copy)]
pub struct NodeUse {
    /// `u_l(v)`: relative load of the plan's additional operators.
    pub used: f64,
    /// `a_l(v)`: relative load still available before the plan.
    pub available: f64,
}

fn penalized(used: f64, available: f64) -> f64 {
    let over = used - available;
    used + if over > 0.0 { over * over.exp() } else { 0.0 }
}

/// Evaluates the cost function `C` over a plan's affected connections and
/// peers.
pub fn plan_cost(params: &CostParams, edges: &[EdgeUse], nodes: &[NodeUse]) -> f64 {
    let (traffic, load) = plan_cost_split(params, edges, nodes);
    traffic + load
}

/// [`plan_cost`] split into its two weighted terms
/// `(γ·Σ penalized(u_b, a_b), (1−γ)·Σ penalized(u_l, a_l))`. Adding the
/// terms reproduces `plan_cost` bit-for-bit (same multiplications, same
/// final addition), so per-candidate breakdowns reported by the tracing
/// layer sum exactly to the plan's `C(P)`.
pub fn plan_cost_split(params: &CostParams, edges: &[EdgeUse], nodes: &[NodeUse]) -> (f64, f64) {
    (
        traffic_term(params, edges.iter().copied()),
        load_term(params, nodes.iter().copied()),
    )
}

/// The weighted traffic term `γ·Σ penalized(u_b, a_b)` of `C`, summed in
/// iteration order — the one place the term is written down, so a caller
/// that walks a route without collecting it gets the same bits as
/// [`plan_cost_split`] over the collected slice.
pub(crate) fn traffic_term(params: &CostParams, edges: impl Iterator<Item = EdgeUse>) -> f64 {
    params.gamma * edges.map(|e| penalized(e.used, e.available)).sum::<f64>()
}

/// The weighted load term `(1−γ)·Σ penalized(u_l, a_l)` of `C` (see
/// [`traffic_term`]).
pub(crate) fn load_term(params: &CostParams, nodes: impl Iterator<Item = NodeUse>) -> f64 {
    (1.0 - params.gamma) * nodes.map(|n| penalized(n.used, n.available)).sum::<f64>()
}

/// Work units/s a peer runs *beyond* its estimated charges, derived from
/// an observed utilization sample: `observed·capacity − estimated_work`,
/// floored at zero. This is the feedback the re-planner injects into
/// [`crate::NetworkState::set_load_feedback`] — only genuine model error
/// (measured load exceeding the books) shifts future placement, so a peer
/// whose estimates already cover its load contributes nothing and a
/// balanced network produces no churn.
pub fn utilization_overlay(observed_util: f64, capacity: f64, estimated_work: f64) -> f64 {
    (observed_util * capacity - estimated_work).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_predicate::{Atom, CompOp, PredicateGraph};
    use dss_properties::{AggregationSpec, ProjectionSpec, ResultFilter};
    use dss_xml::{Decimal, Node, Path};

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn stats() -> StreamStats {
        let sample: Vec<Node> = (0..100)
            .map(|i| {
                Node::elem(
                    "photon",
                    vec![
                        Node::leaf("en", format!("{}", 1.0 + (i % 10) as f64 / 10.0)),
                        Node::leaf("det_time", format!("{}", i * 3)),
                        Node::leaf("phc", format!("{i}")),
                    ],
                )
            })
            .collect();
        StreamStats::from_sample(&sample, 100.0)
    }

    #[test]
    fn selection_scales_frequency() {
        let s = stats();
        let g = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.45"))]);
        let est = estimate_chain(&s, &[Operator::Selection(g)]);
        assert!((est.frequency / s.frequency - 0.5).abs() < 0.05, "{est:?}");
        assert_eq!(est.item_size, s.item_size);
    }

    #[test]
    fn projection_scales_size() {
        let s = stats();
        let spec = ProjectionSpec::returning([p("en")]);
        let est = estimate_chain(&s, &[Operator::Projection(spec)]);
        assert!(est.item_size < s.item_size);
        assert_eq!(est.frequency, s.frequency);
    }

    #[test]
    fn aggregation_fixes_size_and_divides_frequency() {
        let s = stats();
        // diff window, step 30, avg det_time increment 3 ⇒ 10 items per
        // update ⇒ frequency /10.
        let spec = AggregationSpec {
            op: AggOp::Avg,
            element: p("en"),
            window: WindowSpec::diff(p("det_time"), d("60"), Some(d("30"))).unwrap(),
            pre_selection: PredicateGraph::new(),
            result_filter: ResultFilter::none(),
        };
        let est = estimate_chain(&s, &[Operator::Aggregation(spec)]);
        assert!((est.frequency - 10.0).abs() < 0.5, "{est:?}");
        assert_eq!(est.item_size, agg_item_size_estimate(AggOp::Avg));

        // count window, step 10 ⇒ frequency /10.
        let spec = AggregationSpec {
            op: AggOp::Count,
            element: p("en"),
            window: WindowSpec::count(d("20"), Some(d("10"))).unwrap(),
            pre_selection: PredicateGraph::new(),
            result_filter: ResultFilter::none(),
        };
        let est = estimate_chain(&s, &[Operator::Aggregation(spec)]);
        assert!((est.frequency - 10.0).abs() < 1e-9);
    }

    #[test]
    fn window_output_size_follows_paper_formula() {
        use dss_properties::WindowOutputSpec;
        let s = stats();
        // diff window Δ=30, avg det_time increment 3 ⇒ ~10 items per window.
        let spec = WindowOutputSpec {
            window: WindowSpec::diff(p("det_time"), d("30"), None).unwrap(),
            pre_selection: PredicateGraph::new(),
        };
        let est = estimate_chain(&s, &[Operator::WindowOutput(spec)]);
        let expected_items = 10.0;
        assert!(
            (est.item_size - (expected_items * s.item_size + 80.0)).abs() < s.item_size,
            "window item size {} vs expected ~{}",
            est.item_size,
            expected_items * s.item_size
        );
        // One window per step: frequency divided by items-per-step (10).
        assert!((est.frequency - s.frequency / 10.0).abs() < 1.0);

        // count windows: exactly Δ items.
        let spec = WindowOutputSpec {
            window: WindowSpec::count(d("20"), Some(d("5"))).unwrap(),
            pre_selection: PredicateGraph::new(),
        };
        let est = estimate_chain(&s, &[Operator::WindowOutput(spec)]);
        assert!((est.item_size - (20.0 * s.item_size + 80.0)).abs() < 1e-6);
        assert!((est.frequency - s.frequency / 5.0).abs() < 1e-9);
    }

    #[test]
    fn chain_composes() {
        let s = stats();
        let g = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.45"))]);
        let proj = ProjectionSpec::returning([p("en")]);
        let est = estimate_chain(&s, &[Operator::Selection(g), Operator::Projection(proj)]);
        assert!(est.frequency < s.frequency);
        assert!(est.item_size < s.item_size);
        assert!(est.bytes_per_s() < s.item_size * s.frequency);
        assert!(est.kbps() > 0.0);
    }

    /// Count-window estimate paths never consult the diff-window
    /// reference: a stream with no numeric leaves (hence no increment
    /// statistics at all) must estimate count-window chains without
    /// reaching the `expect("diff windows carry a reference")` sites.
    #[test]
    fn count_window_estimates_need_no_reference_stats() {
        let sample: Vec<Node> = (0..10)
            .map(|i| Node::elem("ev", vec![Node::leaf("tag", format!("t{i}"))]))
            .collect();
        let s = StreamStats::from_sample(&sample, 8.0);
        assert_eq!(
            window_output_frequency(&s, &WindowSpec::count(d("4"), Some(d("2"))).unwrap(), 8.0),
            4.0
        );
        let agg = AggregationSpec {
            op: AggOp::Avg,
            element: p("tag"),
            window: WindowSpec::count(d("4"), Some(d("2"))).unwrap(),
            pre_selection: PredicateGraph::new(),
            result_filter: ResultFilter::single(CompOp::Ge, d("1.0")),
        };
        let est = estimate_chain(&s, &[Operator::Aggregation(agg)]);
        // freq/step, then halved once for the single filter condition.
        assert!((est.frequency - 8.0 / 2.0 * 0.5).abs() < 1e-9, "{est:?}");
        let wo = dss_properties::WindowOutputSpec {
            window: WindowSpec::count(d("4"), None).unwrap(),
            pre_selection: PredicateGraph::new(),
        };
        let est = estimate_chain(&s, &[Operator::WindowOutput(wo)]);
        assert!((est.item_size - (4.0 * s.item_size + 80.0)).abs() < 1e-6);
    }

    /// Diff windows carry a reference by construction (`WindowSpec::diff`
    /// requires one), and an *unobserved* reference path estimates through
    /// the increment fallback of 1.0 rather than panicking.
    #[test]
    fn diff_window_with_unobserved_reference_uses_increment_fallback() {
        let s = stats();
        let w = WindowSpec::diff(p("nosuch"), d("6"), Some(d("3"))).unwrap();
        let f = window_output_frequency(&s, &w, s.frequency);
        // Fallback increment 1.0 ⇒ 3 items per update ⇒ frequency / 3.
        assert!((f - s.frequency / 3.0).abs() < 1e-9, "{f}");
    }

    /// Duplicate or implied result-filter conditions collapse through the
    /// predicate graph's minimized form instead of compounding the 0.5
    /// factor as if they were independent.
    #[test]
    fn duplicate_result_filter_conditions_do_not_compound() {
        let s = stats();
        let with_filter = |filter: ResultFilter| {
            let agg = AggregationSpec {
                op: AggOp::Avg,
                element: p("en"),
                window: WindowSpec::count(d("10"), None).unwrap(),
                pre_selection: PredicateGraph::new(),
                result_filter: filter,
            };
            estimate_chain(&s, &[Operator::Aggregation(agg)]).frequency
        };
        let single = with_filter(ResultFilter::single(CompOp::Ge, d("1.3")));
        let duplicated = with_filter(ResultFilter {
            conditions: vec![(CompOp::Ge, d("1.3")), (CompOp::Ge, d("1.3"))],
        });
        let implied = with_filter(ResultFilter {
            conditions: vec![(CompOp::Ge, d("1.3")), (CompOp::Ge, d("1.0"))],
        });
        assert_eq!(
            single, duplicated,
            "duplicate condition must not halve again"
        );
        assert_eq!(single, implied, "implied condition must not halve again");
        // Genuinely independent bounds still compound.
        let two_sided = with_filter(ResultFilter {
            conditions: vec![(CompOp::Ge, d("1.3")), (CompOp::Le, d("1.6"))],
        });
        assert!((two_sided - single * 0.5).abs() < 1e-12);
    }

    #[test]
    fn cost_without_overload_is_linear() {
        let params = CostParams { gamma: 0.5 };
        let c = plan_cost(
            &params,
            &[EdgeUse {
                used: 0.2,
                available: 0.9,
            }],
            &[NodeUse {
                used: 0.1,
                available: 0.8,
            }],
        );
        assert!((c - (0.5 * 0.2 + 0.5 * 0.1)).abs() < 1e-12);
    }

    #[test]
    fn overload_draws_exponential_penalty() {
        let params = CostParams { gamma: 1.0 };
        let fine = plan_cost(
            &params,
            &[EdgeUse {
                used: 0.5,
                available: 0.6,
            }],
            &[],
        );
        let over = plan_cost(
            &params,
            &[EdgeUse {
                used: 0.9,
                available: 0.6,
            }],
            &[],
        );
        assert!(over > fine);
        // Penalty term: 0.3 · e^0.3 added on top of u_b.
        assert!((over - (0.9 + 0.3 * 0.3f64.exp())).abs() < 1e-12);
    }

    #[test]
    fn gamma_weights_components() {
        let edges = [EdgeUse {
            used: 1.0,
            available: 1.0,
        }];
        let nodes = [NodeUse {
            used: 0.5,
            available: 1.0,
        }];
        let traffic_only = plan_cost(&CostParams { gamma: 1.0 }, &edges, &nodes);
        let load_only = plan_cost(&CostParams { gamma: 0.0 }, &edges, &nodes);
        assert!((traffic_only - 1.0).abs() < 1e-12);
        assert!((load_only - 0.5).abs() < 1e-12);
    }

    #[test]
    fn agg_item_sizes_are_plausible() {
        // Compare the estimate with an actual serialized partial.
        let mut item = dss_engine::AggItem::empty(d("1200"), d("60"));
        item.add_value(d("1.3"));
        item.add_value(d("2.7"));
        let actual = dss_xml::writer::serialized_size(&item.to_node()) as f64;
        let est = agg_item_size_estimate(AggOp::Avg);
        assert!(
            (actual - est).abs() / actual < 0.8,
            "est {est} vs actual {actual}"
        );
    }
}
