//! `MatchProperties` (Algorithm 2) and `MatchAggregations` (Section 3.3).

use std::cell::OnceCell;

use dss_predicate::{implied_by_closure, match_predicates, Closure, PredicateGraph};

use crate::operator::{AggOp, AggregationSpec, Operator, ProjectionSpec, WindowOutputSpec};
use crate::properties::InputProperties;

/// Algorithm 2's projection condition `R ⊇ R'` for a subscription with no
/// projection operator of its own: a projected stream can still serve it
/// when the subscription's complete read set is finite
/// ([`InputProperties::projectionless_reads`]) and every read path survives
/// the stream's projection. Sound because such a chain's result consists of
/// aggregate values only — no consumer downstream sees the dropped
/// elements.
fn projection_covers_reads(r: &ProjectionSpec, new_props: &InputProperties) -> bool {
    new_props
        .projectionless_reads()
        .is_some_and(|reads| reads.iter().all(|p| r.outputs_path(p)))
}

/// Semantic equality of two selections: each implies the other.
fn same_selection(a: &PredicateGraph, b: &PredicateGraph) -> bool {
    match_predicates(a, b) && match_predicates(b, a)
}

/// Matching for window-contents operators: can the windowed item sequences
/// described by `reused` be used to produce those described by `new`?
///
/// Window contents compose exactly like distributive aggregates — a coarse
/// window's contents are the concatenation of its non-overlapping tiles —
/// so the same three modulo conditions apply, plus (as with aggregates) the
/// pre-windowing selections must be semantically identical: an item missing
/// from a reused window cannot be recovered downstream.
fn match_window_output(reused: &WindowOutputSpec, new: &WindowOutputSpec) -> bool {
    new.window.shareable_from(&reused.window)
        && same_selection(&reused.pre_selection, &new.pre_selection)
}

/// `MatchAggregations`: can the results of the aggregation described by
/// `reused` be used to compute the aggregation described by `new`?
///
/// Conditions (Section 3.3, "Window-based Aggregation"):
///
/// 1. Compatible aggregation operators. Normally they must be equal; but
///    because `avg` aggregates are internally transported as their
///    `(sum, count)` pair, a reused `avg` also serves new `sum` and `count`
///    subscriptions.
/// 2. Same aggregated element (same input data is checked by the caller at
///    the stream level).
/// 3. If the reused aggregation result was filtered, the new subscription
///    must apply the same or a more restrictive filter (otherwise required
///    partials may have been dropped).
/// 4. Window compatibility: `Δ' mod Δ = 0`, `Δ mod µ = 0`, `µ' mod µ = 0`,
///    with equal ordered reference elements for `diff` windows.
/// 5. Selections applied *before* aggregation must be the same in both —
///    implication is not enough once values are folded into aggregates.
///    Checked last: it is the one condition that computes closures.
fn match_aggregations(reused: &AggregationSpec, new: &AggregationSpec) -> bool {
    let ops_compatible = reused.op == new.op
        || (reused.op == AggOp::Avg && matches!(new.op, AggOp::Sum | AggOp::Count));
    if !ops_compatible || reused.element != new.element {
        return false;
    }
    let windows_compose = if reused.result_filter.is_trivial() {
        new.window.shareable_from(&reused.window)
    } else {
        // A filtered aggregate stream is missing the windows its filter
        // dropped. Those windows are unrecoverable, so reuse is only sound
        // when (a) no window composition is needed — the windows are
        // identical — and (b) the new subscription filters at least as
        // restrictively. ("Reusing such aggregate values for computing
        // more coarse-grained window aggregates is not possible in
        // general", Section 3.3 — here enforced.) Filters on different
        // aggregate operators compare different quantities (an avg
        // threshold says nothing about a sum), so the restrictiveness
        // check is only meaningful for equal operators.
        new.window == reused.window
            && reused.op == new.op
            && new
                .result_filter
                .at_least_as_restrictive_as(&reused.result_filter)
    };
    windows_compose && same_selection(&reused.pre_selection, &new.pre_selection)
}

/// Why [`Wanted::served_by`] rejected a candidate, named after the paper's
/// check that said no.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchFailure {
    /// Algorithm 2 lines 1–4: the original input streams differ.
    Origin,
    /// An operator of the shared stream has no same-kind partner in the new
    /// query at all — a structural `MatchProperties` failure.
    MissingPartner { kind: &'static str },
    /// Same-kind partners exist but every one failed the kind's
    /// compatibility check (`MatchPredicates`, `MatchAggregations`, …).
    CheckFailed {
        kind: &'static str,
        check: &'static str,
    },
}

impl MatchFailure {
    /// The paper-level check name (`MatchProperties`, `MatchPredicates`,
    /// `MatchAggregations`, `MatchWindowOutput`).
    pub fn check_name(&self) -> &'static str {
        match self {
            MatchFailure::Origin | MatchFailure::MissingPartner { .. } => "MatchProperties",
            MatchFailure::CheckFailed { check, .. } => check,
        }
    }
}

fn operator_kind_name(o: &Operator) -> &'static str {
    match o {
        Operator::Selection(_) => "selection",
        Operator::Projection(_) => "projection",
        Operator::Aggregation(_) => "aggregation",
        Operator::WindowOutput(_) => "window-output",
        Operator::Udf { .. } => "udf",
    }
}

fn operator_check_name(o: &Operator) -> &'static str {
    match o {
        Operator::Selection(_) => "MatchPredicates",
        Operator::Aggregation(_) => "MatchAggregations",
        Operator::WindowOutput(_) => "MatchWindowOutput",
        // Projection cover and UDF parameter equality are structural parts
        // of MatchProperties itself.
        Operator::Projection(_) | Operator::Udf { .. } => "MatchProperties",
    }
}

/// A subscription input as `MatchProperties` reads it when it is matched
/// against many candidate streams, as one plan search does: the transitive
/// closure of each of its selections is computed on first use and kept.
pub struct Wanted<'a> {
    props: &'a InputProperties,
    /// Per operator of `props`: a selection's closure, once computed.
    closures: Vec<OnceCell<Closure>>,
}

impl<'a> Wanted<'a> {
    /// Prepares `props` for matching; no closure is computed yet.
    pub fn new(props: &'a InputProperties) -> Wanted<'a> {
        Wanted {
            props,
            closures: props.operators().iter().map(|_| OnceCell::new()).collect(),
        }
    }

    /// The subscription input's properties.
    pub fn props(&self) -> &'a InputProperties {
        self.props
    }

    /// `MatchProperties` (Algorithm 2) for one input stream: `Ok(())` when
    /// the data stream described by `stream` can be shared to answer this
    /// subscription input, otherwise which check rejected it.
    ///
    /// For every operator applied to the candidate stream there must be a
    /// corresponding operator in the new subscription with compatible
    /// conditions — otherwise the stream is missing data the subscription
    /// needs:
    ///
    /// * selection: the new predicates must imply the stream's
    ///   (`MatchPredicates`),
    /// * projection: the stream's output elements must cover everything the
    ///   subscription references (`R ⊇ R'`),
    /// * aggregation: `MatchAggregations`,
    /// * unknown (user-defined) operators: assumed deterministic, shareable
    ///   only with an identical input vector.
    pub fn served_by(&self, stream: &InputProperties) -> Result<(), MatchFailure> {
        // Lines 1–4: the original input streams must be identical.
        if !stream.same_origin(self.props) {
            return Err(MatchFailure::Origin);
        }
        // Lines 6–36: every operator of the stream needs a compatible partner.
        'stream_ops: for o in stream.operators() {
            let mut saw_kind = false;
            for (i, o_new) in self.props.operators().iter().enumerate() {
                if o.kind() != o_new.kind() {
                    continue;
                }
                saw_kind = true;
                if self.same_kind_compatible(o, o_new, i) {
                    continue 'stream_ops;
                }
            }
            // A stream projection needs no same-kind partner when the new
            // chain's finite read set is covered by the projected output.
            if let Operator::Projection(r) = o {
                if projection_covers_reads(r, self.props) {
                    continue;
                }
            }
            let kind = operator_kind_name(o);
            return Err(if saw_kind {
                MatchFailure::CheckFailed {
                    kind,
                    check: operator_check_name(o),
                }
            } else {
                MatchFailure::MissingPartner { kind }
            });
        }
        Ok(())
    }

    /// The kind-specific compatibility check of Algorithm 2's inner loop,
    /// against this subscription's `i`-th operator `o_new`. Callers
    /// guarantee `o.kind() == o_new.kind()`.
    fn same_kind_compatible(&self, o: &Operator, o_new: &Operator, i: usize) -> bool {
        match (o, o_new) {
            (Operator::Selection(g), Operator::Selection(g_new)) => {
                g.is_trivial()
                    || implied_by_closure(g, self.closures[i].get_or_init(|| g_new.closure()))
            }
            (Operator::Projection(r), Operator::Projection(r_new)) => r.covers(r_new),
            (Operator::Aggregation(c), Operator::Aggregation(c_new)) => {
                match_aggregations(c, c_new)
            }
            (Operator::WindowOutput(w), Operator::WindowOutput(w_new)) => {
                match_window_output(w, w_new)
            }
            (
                Operator::Udf { params, .. },
                Operator::Udf {
                    params: new_params, ..
                },
            ) => params == new_params,
            _ => unreachable!("kind equality guarantees identical variants"),
        }
    }
}

/// [`Wanted::served_by`] for a one-off pair: `Ok(())` when the stream
/// described by `stream_props` can serve the subscription input described
/// by `new_props`, otherwise which check rejected it.
fn explain_match_input_properties(
    stream_props: &InputProperties,
    new_props: &InputProperties,
) -> Result<(), MatchFailure> {
    Wanted::new(new_props).served_by(stream_props)
}

/// `MatchProperties` (Algorithm 2) for one input stream: `true` iff the
/// data stream described by `stream_props` can be shared to answer the
/// subscription input described by `new_props`.
pub fn match_input_properties(stream_props: &InputProperties, new_props: &InputProperties) -> bool {
    explain_match_input_properties(stream_props, new_props).is_ok()
}

/// Stream *widening* (the paper's ongoing work): computes properties of a
/// stream that contains everything **both** inputs need, obtained by
/// loosening the existing stream's operators — the selection becomes the
/// predicate hull, the projection the union of output sets. Consumers of
/// either original stream re-apply their own narrower operators downstream.
///
/// Only selection/projection chains are widenable: folding values into
/// aggregates or windows loses the items needed to widen. Returns `None`
/// when widening is not possible, and also when one side already matches
/// the other (no widening needed — plain sharing applies).
pub fn widen_input(a: &InputProperties, b: &InputProperties) -> Option<InputProperties> {
    if !a.same_origin(b) {
        return None;
    }
    if match_input_properties(a, b) {
        return None; // plain sharing already applies
    }
    if !a.is_widenable() || !b.is_widenable() {
        return None;
    }
    // Widened selection: the hull, dropped entirely when either side is
    // unfiltered.
    let mut ops = Vec::new();
    if let (Some(ga), Some(gb)) = (a.selection(), b.selection()) {
        let hull = ga.hull(gb);
        if !hull.is_trivial() {
            ops.push(Operator::Selection(hull));
        }
    }
    // Widened projection: the widened stream must *carry* everything either
    // side references — downstream restore-selections read predicate
    // elements that may not be in anyone's output set — so the widened
    // output is the union of the referenced sets (each consumer re-projects
    // to its own narrower output downstream).
    if let (Some(pa), Some(pb)) = (a.projection(), b.projection()) {
        let referenced: std::collections::BTreeSet<_> =
            pa.referenced.union(&pb.referenced).cloned().collect();
        ops.push(Operator::Projection(crate::operator::ProjectionSpec {
            output: referenced.clone(),
            referenced,
        }));
    }
    let widened = InputProperties::new(a.stream(), ops).ok()?;
    // Sanity: the widened stream must serve both sides.
    debug_assert!(match_input_properties(&widened, a));
    debug_assert!(match_input_properties(&widened, b));
    Some(widened)
}

/// Pairs an operator kind with itself across two chains — helper used by
/// the planner to determine which *additional* operators must be installed
/// on top of a reused stream (everything in `new_props` not already covered
/// by `stream_props` semantics is re-applied; re-applying an operator the
/// stream already satisfies is harmless for selections/projections).
pub fn residual_operators(
    stream_props: &InputProperties,
    new_props: &InputProperties,
) -> Vec<Operator> {
    // If the stream is the unmodified original, everything must be applied.
    if stream_props.is_original() {
        return new_props.operators().to_vec();
    }
    new_props
        .operators()
        .iter()
        .filter(|o_new| {
            // Drop operators that are *exactly* satisfied by the stream
            // already; keep the rest for installation.
            !stream_props.operators().iter().any(|o| match (o, *o_new) {
                (Operator::Selection(g), Operator::Selection(g_new)) => {
                    // The stream's filter equals the new one semantically.
                    match_predicates(g, g_new) && match_predicates(g_new, g)
                }
                (Operator::Projection(r), Operator::Projection(r_new)) => {
                    r.covers(r_new) && r_new.covers(r)
                }
                (Operator::Aggregation(c), Operator::Aggregation(c_new)) => {
                    // Identical aggregation (same op, window, filter):
                    // nothing to re-apply. A compatible-but-coarser window
                    // still needs a re-aggregation operator.
                    c == c_new
                }
                (Operator::WindowOutput(w), Operator::WindowOutput(w_new)) => {
                    // Identical windowing: nothing to re-apply; a coarser
                    // compatible window still needs a re-windowing operator.
                    w == w_new
                }
                (
                    Operator::Udf { name, params },
                    Operator::Udf {
                        name: n2,
                        params: p2,
                    },
                ) => name == n2 && params == p2,
                _ => false,
            })
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{ProjectionSpec, ResultFilter};
    use crate::window::WindowSpec;
    use dss_predicate::{Atom, CompOp, PredicateGraph};
    use dss_xml::{Decimal, Path};

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn q1_selection() -> PredicateGraph {
        PredicateGraph::from_atoms(&[
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("120.0")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("138.0")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Ge, d("-49.0")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Le, d("-40.0")),
        ])
    }

    fn q2_selection() -> PredicateGraph {
        PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("1.3")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("130.5")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("135.5")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Ge, d("-48.0")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Le, d("-45.0")),
        ])
    }

    fn q1_props() -> InputProperties {
        InputProperties::new(
            "photons",
            vec![
                Operator::Selection(q1_selection()),
                Operator::Projection(ProjectionSpec::returning([
                    p("coord/cel/ra"),
                    p("coord/cel/dec"),
                    p("phc"),
                    p("en"),
                    p("det_time"),
                ])),
            ],
        )
        .unwrap()
    }

    fn q2_props() -> InputProperties {
        InputProperties::new(
            "photons",
            vec![
                Operator::Selection(q2_selection()),
                Operator::Projection(ProjectionSpec::returning([
                    p("coord/cel/ra"),
                    p("coord/cel/dec"),
                    p("en"),
                    p("det_time"),
                ])),
            ],
        )
        .unwrap()
    }

    /// The motivating example: Query 2's result is completely contained in
    /// Query 1's answer, so Q1's stream is shareable for Q2 — not vice
    /// versa.
    #[test]
    fn q2_can_reuse_q1_stream() {
        assert!(match_input_properties(&q1_props(), &q2_props()));
        assert!(!match_input_properties(&q2_props(), &q1_props()));
    }

    #[test]
    fn different_origin_streams_never_match() {
        let other = InputProperties::original("spectra");
        assert!(!match_input_properties(&other, &q2_props()));
    }

    /// The explain variant agrees with the boolean form and names the
    /// check that lost.
    #[test]
    fn explain_agrees_and_names_the_losing_check() {
        assert_eq!(
            explain_match_input_properties(&q1_props(), &q2_props()),
            Ok(())
        );

        let other = InputProperties::original("spectra");
        assert_eq!(
            explain_match_input_properties(&other, &q2_props()),
            Err(MatchFailure::Origin)
        );

        // Q2's narrower selection cannot serve Q1: the selection partner
        // exists but MatchPredicates fails.
        let failure = explain_match_input_properties(&q2_props(), &q1_props()).unwrap_err();
        assert_eq!(
            failure,
            MatchFailure::CheckFailed {
                kind: "selection",
                check: "MatchPredicates"
            }
        );
        assert_eq!(failure.check_name(), "MatchPredicates");

        // A filtered stream offered to an unfiltered subscription: the
        // stream's selection has no partner at all.
        let unfiltered = InputProperties::new(
            "photons",
            vec![Operator::Projection(ProjectionSpec::returning([p("en")]))],
        )
        .unwrap();
        let filtered =
            InputProperties::new("photons", vec![Operator::Selection(q1_selection())]).unwrap();
        let failure = explain_match_input_properties(&filtered, &unfiltered).unwrap_err();
        assert_eq!(failure, MatchFailure::MissingPartner { kind: "selection" });
        assert_eq!(failure.check_name(), "MatchProperties");
    }

    /// One `Wanted` judged against many streams keeps each selection's
    /// closure with its own operator: every verdict equals a fresh one's,
    /// also for a chain with two selections.
    #[test]
    fn a_reused_wanted_judges_like_a_fresh_one() {
        let two_selections = InputProperties::new(
            "photons",
            vec![
                Operator::Selection(q2_selection()),
                Operator::Projection(ProjectionSpec::returning([p("en")])),
                Operator::Selection(q1_selection()),
            ],
        )
        .unwrap();
        let only =
            |g: PredicateGraph| InputProperties::new("photons", vec![Operator::Selection(g)]);
        let chains = [
            InputProperties::original("photons"),
            q1_props(),
            q2_props(),
            agg_only_query(),
            two_selections,
            only(q1_selection()).unwrap(),
            only(q2_selection()).unwrap(),
        ];
        for wanted in &chains {
            let prepared = Wanted::new(wanted);
            for _ in 0..2 {
                for stream in &chains {
                    assert_eq!(
                        prepared.served_by(stream),
                        explain_match_input_properties(stream, wanted),
                        "{stream} for {wanted}"
                    );
                }
            }
        }
        let wanted = &chains[4];
        assert_eq!(Wanted::new(wanted).served_by(&chains[5]), Ok(()));
        assert_eq!(Wanted::new(wanted).served_by(&chains[6]), Ok(()));
    }

    #[test]
    fn original_stream_matches_everything_with_same_origin() {
        let original = InputProperties::original("photons");
        assert!(match_input_properties(&original, &q1_props()));
        assert!(match_input_properties(&original, &q2_props()));
        assert!(match_input_properties(
            &original,
            &InputProperties::original("photons")
        ));
    }

    #[test]
    fn filtered_stream_cannot_serve_unfiltered_subscription() {
        let original = InputProperties::original("photons");
        assert!(!match_input_properties(&q1_props(), &original));
    }

    #[test]
    fn udf_matching_requires_identical_params() {
        let stream = InputProperties::new(
            "photons",
            vec![Operator::Udf {
                name: "deskew".into(),
                params: vec!["7".into()],
            }],
        )
        .unwrap();
        let same = stream.clone();
        assert!(match_input_properties(&stream, &same));
        let diff_params = InputProperties::new(
            "photons",
            vec![Operator::Udf {
                name: "deskew".into(),
                params: vec!["8".into()],
            }],
        )
        .unwrap();
        assert!(!match_input_properties(&stream, &diff_params));
        let diff_name = InputProperties::new(
            "photons",
            vec![Operator::Udf {
                name: "other".into(),
                params: vec!["7".into()],
            }],
        )
        .unwrap();
        assert!(!match_input_properties(&stream, &diff_name));
    }

    fn agg(window: WindowSpec, filter: ResultFilter) -> AggregationSpec {
        AggregationSpec {
            op: AggOp::Avg,
            element: p("en"),
            window,
            pre_selection: q1_selection(),
            result_filter: filter,
        }
    }

    fn q3_agg() -> AggregationSpec {
        agg(
            WindowSpec::diff(p("det_time"), d("20"), Some(d("10"))).unwrap(),
            ResultFilter::none(),
        )
    }

    fn q4_agg() -> AggregationSpec {
        agg(
            WindowSpec::diff(p("det_time"), d("60"), Some(d("40"))).unwrap(),
            ResultFilter::single(CompOp::Ge, d("1.3")),
        )
    }

    /// Figure 5: Query 4's windows are assembled from Query 3's.
    #[test]
    fn q4_reuses_q3_aggregates() {
        assert!(match_aggregations(&q3_agg(), &q4_agg()));
        assert!(!match_aggregations(&q4_agg(), &q3_agg()));
    }

    #[test]
    fn filtered_aggregate_only_serves_more_restrictive() {
        // Q4's output is filtered with $a >= 1.3. A new subscription with
        // the same windows and no filter cannot reuse it…
        let unfiltered = agg(q4_agg().window.clone(), ResultFilter::none());
        assert!(!match_aggregations(&q4_agg(), &unfiltered));
        // …but one with an equal or tighter filter can.
        let tighter = agg(
            q4_agg().window.clone(),
            ResultFilter::single(CompOp::Ge, d("1.5")),
        );
        assert!(match_aggregations(&q4_agg(), &tighter));
        assert!(match_aggregations(&q4_agg(), &q4_agg()));
    }

    #[test]
    fn filtered_aggregate_never_serves_coarser_windows() {
        // Q4's filter drops windows; composing coarser windows from the
        // surviving partials would be wrong, however restrictive the new
        // filter is.
        let coarser = agg(
            WindowSpec::diff(p("det_time"), d("120"), Some(d("40"))).unwrap(),
            ResultFilter::single(CompOp::Ge, d("2.0")),
        );
        assert!(!match_aggregations(&q4_agg(), &coarser));
    }

    #[test]
    fn filtered_avg_never_serves_sum_or_count() {
        // An avg filter thresholds a different quantity than a sum filter;
        // cross-operator reuse of a filtered stream is unsound.
        let mut sum_new = agg(
            q4_agg().window.clone(),
            ResultFilter::single(CompOp::Ge, d("99")),
        );
        sum_new.op = AggOp::Sum;
        assert!(!match_aggregations(&q4_agg(), &sum_new));
    }

    #[test]
    fn aggregation_requires_same_pre_selection() {
        let mut other = q4_agg();
        other.pre_selection = q2_selection();
        assert!(!match_aggregations(&q3_agg(), &other));
    }

    #[test]
    fn aggregation_requires_same_element() {
        let mut other = q4_agg();
        other.element = p("phc");
        assert!(!match_aggregations(&q3_agg(), &other));
    }

    #[test]
    fn avg_serves_sum_and_count() {
        let mut sum = q4_agg();
        sum.op = AggOp::Sum;
        sum.result_filter = ResultFilter::none();
        let mut reused = q3_agg();
        reused.op = AggOp::Avg;
        assert!(match_aggregations(&reused, &sum));
        let mut count = sum.clone();
        count.op = AggOp::Count;
        assert!(match_aggregations(&reused, &count));
        // sum does not serve avg (count partial missing).
        let mut avg_new = sum.clone();
        avg_new.op = AggOp::Avg;
        let mut sum_reused = reused.clone();
        sum_reused.op = AggOp::Sum;
        assert!(!match_aggregations(&sum_reused, &avg_new));
        // min never serves max.
        let mut min_reused = reused.clone();
        min_reused.op = AggOp::Min;
        let mut max_new = avg_new.clone();
        max_new.op = AggOp::Max;
        assert!(!match_aggregations(&min_reused, &max_new));
    }

    /// A subscription whose chain is selection + aggregation (no projection
    /// operator of its own) reading only elements the stream projects.
    fn agg_only_query() -> InputProperties {
        InputProperties::new(
            "photons",
            vec![
                Operator::Selection(q2_selection()),
                Operator::Aggregation(AggregationSpec {
                    op: AggOp::Avg,
                    element: p("en"),
                    window: WindowSpec::diff(p("det_time"), d("20"), Some(d("10"))).unwrap(),
                    pre_selection: q2_selection(),
                    result_filter: ResultFilter::none(),
                }),
            ],
        )
        .unwrap()
    }

    /// A projected stream serves an aggregation subscription with no
    /// projection operator, as long as the projection covers the
    /// subscription's complete (finite) read set — Algorithm 2's `R ⊇ R'`
    /// is about coverage, not about the new chain containing a π operator.
    #[test]
    fn projected_stream_serves_aggregation_only_query() {
        // Q1's stream projects to {ra, dec, phc, en, det_time}, which
        // covers everything the aggregate reads (selection vars, element,
        // window reference).
        assert!(match_input_properties(&q1_props(), &agg_only_query()));
        assert_eq!(
            explain_match_input_properties(&q1_props(), &agg_only_query()),
            Ok(())
        );
        // The subscription still re-applies its own narrower selection and
        // the aggregation on top of the reused stream.
        assert_eq!(residual_operators(&q1_props(), &agg_only_query()).len(), 2);
    }

    #[test]
    fn projected_stream_rejected_when_aggregation_reads_dropped_elements() {
        // Same stream selection, but the projection drops det_time — the
        // aggregate's window reference. Coverage fails.
        let narrow = InputProperties::new(
            "photons",
            vec![
                Operator::Selection(q1_selection()),
                Operator::Projection(ProjectionSpec::returning([
                    p("coord/cel/ra"),
                    p("coord/cel/dec"),
                    p("en"),
                ])),
            ],
        )
        .unwrap();
        assert!(!match_input_properties(&narrow, &agg_only_query()));
        assert_eq!(
            explain_match_input_properties(&narrow, &agg_only_query()),
            Err(MatchFailure::MissingPartner { kind: "projection" })
        );
    }

    #[test]
    fn projected_stream_never_serves_raw_item_query() {
        // A selection-only subscription delivers raw items: its read set is
        // unbounded, so a projected stream cannot serve it.
        let raw =
            InputProperties::new("photons", vec![Operator::Selection(q2_selection())]).unwrap();
        assert!(!match_input_properties(&q1_props(), &raw));
        assert!(raw.projectionless_reads().is_none());
        assert!(agg_only_query().projectionless_reads().is_some());
    }

    #[test]
    fn aggregate_streams_match_via_properties() {
        let stream =
            InputProperties::new("photons", vec![Operator::Aggregation(q3_agg())]).unwrap();
        let newq = InputProperties::new("photons", vec![Operator::Aggregation(q4_agg())]).unwrap();
        assert!(match_input_properties(&stream, &newq));
        assert!(!match_input_properties(&newq, &stream));
    }

    fn window_output(
        size: &str,
        step: Option<&str>,
        sel: PredicateGraph,
    ) -> crate::operator::WindowOutputSpec {
        crate::operator::WindowOutputSpec {
            window: WindowSpec::diff(p("det_time"), d(size), step.map(d)).unwrap(),
            pre_selection: sel,
        }
    }

    #[test]
    fn window_output_matching_mirrors_aggregates() {
        use crate::matching::match_window_output;
        let fine = window_output("20", Some("10"), q1_selection());
        let coarse = window_output("60", Some("40"), q1_selection());
        assert!(match_window_output(&fine, &coarse));
        assert!(!match_window_output(&coarse, &fine));
        // Different pre-selection (even a tighter one) blocks sharing.
        let other_sel = window_output("20", Some("10"), q2_selection());
        assert!(!match_window_output(&other_sel, &coarse));
        // Identical specs always match.
        assert!(match_window_output(&fine, &fine));
    }

    #[test]
    fn window_output_streams_match_via_properties() {
        let fine = InputProperties::new(
            "photons",
            vec![Operator::WindowOutput(window_output(
                "20",
                Some("10"),
                PredicateGraph::new(),
            ))],
        )
        .unwrap();
        let coarse = InputProperties::new(
            "photons",
            vec![Operator::WindowOutput(window_output(
                "60",
                Some("40"),
                PredicateGraph::new(),
            ))],
        )
        .unwrap();
        assert!(match_input_properties(&fine, &coarse));
        assert!(!match_input_properties(&coarse, &fine));
        // Residual: identical windowing needs nothing, coarser needs one op.
        assert!(residual_operators(&fine, &fine).is_empty());
        assert_eq!(residual_operators(&fine, &coarse).len(), 1);
    }

    #[test]
    fn widening_q2_stream_for_q1_yields_q1_stream() {
        // Q2's stream cannot serve Q1 (narrower region + energy cut), but
        // widening it produces exactly Q1's stream: the region hull is
        // Vela, the energy cut is unbounded in Q1, and Q2's outputs are a
        // subset of Q1's.
        let widened = widen_input(&q2_props(), &q1_props()).expect("widenable");
        assert!(match_input_properties(&widened, &q1_props()));
        assert!(match_input_properties(&widened, &q2_props()));
        assert_eq!(widened.selection(), q1_props().selection());
        assert_eq!(
            widened.projection().unwrap().output,
            q1_props().projection().unwrap().output
        );
    }

    #[test]
    fn widening_not_needed_when_sharing_applies() {
        // Q1's stream already serves Q2 — no widening necessary.
        assert!(widen_input(&q1_props(), &q2_props()).is_none());
    }

    #[test]
    fn widening_rejects_aggregates_and_foreign_streams() {
        let agg_stream =
            InputProperties::new("photons", vec![Operator::Aggregation(q3_agg())]).unwrap();
        assert!(widen_input(&agg_stream, &q1_props()).is_none());
        assert!(widen_input(&q1_props(), &agg_stream).is_none());
        let other = InputProperties::original("spectra");
        assert!(widen_input(&other, &q1_props()).is_none());
    }

    #[test]
    fn widening_disjoint_regions_takes_bounding_box() {
        let region = |ra_lo: &str, ra_hi: &str| {
            InputProperties::new(
                "photons",
                vec![
                    Operator::Selection(PredicateGraph::from_atoms(&[
                        Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d(ra_lo)),
                        Atom::var_const(p("coord/cel/ra"), CompOp::Le, d(ra_hi)),
                    ])),
                    Operator::Projection(ProjectionSpec::returning([p("en")])),
                ],
            )
            .unwrap()
        };
        let a = region("100", "110");
        let b = region("150", "160");
        let w = widen_input(&a, &b).expect("widenable");
        assert!(match_input_properties(&w, &a));
        assert!(match_input_properties(&w, &b));
        let sel = w.selection().unwrap();
        assert!(sel.implies_atom(&Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("100"))));
        assert!(sel.implies_atom(&Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("160"))));
    }

    #[test]
    fn residual_ops_from_original_is_full_chain() {
        let original = InputProperties::original("photons");
        let res = residual_operators(&original, &q2_props());
        assert_eq!(res.len(), q2_props().operators().len());
    }

    #[test]
    fn residual_ops_from_equal_stream_is_empty() {
        let res = residual_operators(&q1_props(), &q1_props());
        assert!(
            res.is_empty(),
            "identical stream needs no extra operators, got {res:?}"
        );
    }

    #[test]
    fn residual_ops_from_wider_stream_keeps_narrowing_ops() {
        let res = residual_operators(&q1_props(), &q2_props());
        // Q2 still needs its (tighter) selection and its projection applied
        // on top of Q1's stream.
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn residual_ops_identical_aggregation_dropped() {
        let stream =
            InputProperties::new("photons", vec![Operator::Aggregation(q3_agg())]).unwrap();
        assert!(residual_operators(&stream, &stream).is_empty());
        let newq = InputProperties::new("photons", vec![Operator::Aggregation(q4_agg())]).unwrap();
        // Q4 over Q3's stream needs a re-aggregation operator.
        assert_eq!(residual_operators(&stream, &newq).len(), 1);
    }
}
