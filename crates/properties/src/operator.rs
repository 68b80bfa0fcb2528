//! Operators and their conditions, as recorded in stream/subscription
//! properties (Section 3.1).

use std::collections::BTreeSet;
use std::fmt;

use dss_predicate::{Atom, CompOp, PredicateGraph};
use dss_xml::{Decimal, Path};

use crate::window::WindowSpec;

/// Window-based aggregation operator `Φ ∈ {min, max, sum, count, avg}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    Min,
    Max,
    Sum,
    Count,
    Avg,
}

impl AggOp {
    /// Parses the WXQuery spelling.
    pub fn parse(s: &str) -> Option<AggOp> {
        match s {
            "min" => Some(AggOp::Min),
            "max" => Some(AggOp::Max),
            "sum" => Some(AggOp::Sum),
            "count" => Some(AggOp::Count),
            "avg" => Some(AggOp::Avg),
            _ => None,
        }
    }
}

impl fmt::Display for AggOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Sum => "sum",
            AggOp::Count => "count",
            AggOp::Avg => "avg",
        };
        write!(f, "{s}")
    }
}

/// Projection conditions: which elements the produced stream *returns*
/// (marked with bullets in the paper's Figure 3) and which elements the
/// query *references* at all (marked or unmarked).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ProjectionSpec {
    /// Elements present in the result stream (`getOutElems`).
    pub output: BTreeSet<Path>,
    /// All elements the query needs from the input (`getRefElems`); always a
    /// superset of `output`.
    pub referenced: BTreeSet<Path>,
}

impl ProjectionSpec {
    /// Builds a projection whose referenced set defaults to the output set.
    pub fn returning<I: IntoIterator<Item = Path>>(output: I) -> ProjectionSpec {
        let output: BTreeSet<Path> = output.into_iter().collect();
        ProjectionSpec {
            referenced: output.clone(),
            output,
        }
    }

    /// Extends the referenced set (e.g. with predicate variables that are
    /// read but not returned).
    pub fn with_referenced<I: IntoIterator<Item = Path>>(mut self, extra: I) -> ProjectionSpec {
        self.referenced.extend(extra);
        self
    }

    /// `true` if `path` (or an ancestor of it) is in the output set — the
    /// produced stream contains the complete subtree holding `path`.
    pub fn outputs_path(&self, path: &Path) -> bool {
        self.output.iter().any(|out| out.is_prefix_of(path))
    }

    /// The paper's projection-matching condition `R ⊇ R'`: every element
    /// referenced by the new subscription is available (as a complete
    /// subtree) in this projection's output.
    pub fn covers(&self, new: &ProjectionSpec) -> bool {
        new.referenced.iter().all(|r| self.outputs_path(r))
    }
}

impl fmt::Display for ProjectionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π{{")?;
        let mut first = true;
        for path in &self.referenced {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{path}")?;
            if self.output.contains(path) {
                write!(f, "•")?;
            }
        }
        write!(f, "}}")
    }
}

/// A filter applied to an aggregation *result* (`where $a ≥ 1.3` in
/// Query 4): a conjunction of atomic comparisons against constants.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ResultFilter {
    /// `(θ, c)` pairs, each asserting `$a θ c`.
    pub conditions: Vec<(CompOp, Decimal)>,
}

impl ResultFilter {
    /// The empty (always-true) filter.
    pub fn none() -> ResultFilter {
        ResultFilter::default()
    }

    /// A single-condition filter.
    pub fn single(op: CompOp, c: Decimal) -> ResultFilter {
        ResultFilter {
            conditions: vec![(op, c)],
        }
    }

    /// `true` if no condition is present.
    pub fn is_trivial(&self) -> bool {
        self.conditions.is_empty()
    }

    /// Evaluates the filter against an aggregate value.
    pub fn accepts(&self, value: Decimal) -> bool {
        self.conditions.iter().all(|(op, c)| op.evaluate(value, *c))
    }

    /// Number of *distinct* conditions after predicate-graph minimization:
    /// duplicated or implied bounds collapse, so `$a ≥ 1 and $a ≥ 2`
    /// counts as one condition. Capped at the literal count (an equality
    /// asserts two directed bounds but is still one condition); an
    /// unsatisfiable filter keeps its literal count.
    pub fn distinct_condition_count(&self) -> usize {
        if self.conditions.len() <= 1 {
            return self.conditions.len();
        }
        self.to_graph()
            .minimize()
            .edge_count()
            .min(self.conditions.len())
    }

    fn to_graph(&self) -> PredicateGraph {
        let var: Path = "agg_result".parse().expect("valid synthetic name");
        PredicateGraph::from_atoms(
            &self
                .conditions
                .iter()
                .map(|(op, c)| Atom::var_const(var.clone(), *op, *c))
                .collect::<Vec<_>>(),
        )
    }

    /// `true` if this filter is at least as restrictive as `other` (every
    /// value it accepts is accepted by `other`). This is the condition for
    /// reusing a *filtered* aggregate stream: the new subscription must
    /// apply "the same or a more restrictive filter".
    pub fn at_least_as_restrictive_as(&self, other: &ResultFilter) -> bool {
        dss_predicate::match_predicates(&other.to_graph(), &self.to_graph())
    }
}

impl fmt::Display for ResultFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conditions.is_empty() {
            return write!(f, "true");
        }
        let mut first = true;
        for (op, c) in &self.conditions {
            if !first {
                write!(f, " and ")?;
            }
            first = false;
            write!(f, "$a {op} {c}")?;
        }
        Ok(())
    }
}

/// Conditions of a window-based aggregation operator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggregationSpec {
    /// The aggregation operator Φ.
    pub op: AggOp,
    /// The aggregated element (identifier of the element whose values are
    /// aggregated), relative to the stream item root.
    pub element: Path,
    /// The data window.
    pub window: WindowSpec,
    /// Selection applied to the stream *before* aggregation. For sharing,
    /// the paper requires this to be **the same** in both subscriptions
    /// (implication is not enough once values are folded into aggregates).
    pub pre_selection: PredicateGraph,
    /// Filter applied to the aggregation result (Query 4's `$a ≥ 1.3`).
    pub result_filter: ResultFilter,
}

impl fmt::Display for AggregationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}) over {}", self.op, self.element, self.window)?;
        if !self.result_filter.is_trivial() {
            write!(f, " having {}", self.result_filter)?;
        }
        Ok(())
    }
}

/// Conditions of a window-contents operator: the query returns the raw
/// contents of each data window (the cost model's third result class,
/// "queries returning the contents of data windows").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowOutputSpec {
    /// The data window.
    pub window: WindowSpec,
    /// Selection applied to the stream *before* windowing. Like
    /// aggregation pre-selections, this must be identical for sharing —
    /// items missing from a window cannot be recovered downstream.
    pub pre_selection: PredicateGraph,
}

impl fmt::Display for WindowOutputSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "window-contents over {}", self.window)
    }
}

/// An operator entry in a properties structure, with its conditions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operator {
    /// Selection σ with a predicate graph.
    Selection(PredicateGraph),
    /// Projection Π.
    Projection(ProjectionSpec),
    /// Window-based aggregation Φ.
    Aggregation(AggregationSpec),
    /// Window-contents output (windowed item sequences).
    WindowOutput(WindowOutputSpec),
    /// An unknown, user-defined operator. Assumed deterministic; shareable
    /// only with identical input vector (parameter list).
    Udf { name: String, params: Vec<String> },
}

impl Operator {
    /// Short operator-kind tag used when pairing operators in Algorithm 2
    /// (its `o = o'` comparison is on the operator kind; conditions are
    /// compared separately).
    pub fn kind(&self) -> OperatorKind {
        match self {
            Operator::Selection(_) => OperatorKind::Selection,
            Operator::Projection(_) => OperatorKind::Projection,
            Operator::Aggregation(_) => OperatorKind::Aggregation,
            Operator::WindowOutput(_) => OperatorKind::WindowOutput,
            Operator::Udf { name, .. } => OperatorKind::Udf(name.clone()),
        }
    }
}

/// Operator kind for pairing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OperatorKind {
    Selection,
    Projection,
    Aggregation,
    WindowOutput,
    Udf(String),
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operator::Selection(g) => write!(f, "σ[{g}]"),
            Operator::Projection(p) => write!(f, "{p}"),
            Operator::Aggregation(a) => write!(f, "Φ[{a}]"),
            Operator::WindowOutput(w) => write!(f, "ω[{w}]"),
            Operator::Udf { name, params } => write!(f, "udf:{name}({})", params.join(", ")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    #[test]
    fn agg_op_parse_display() {
        for (s, op) in [
            ("min", AggOp::Min),
            ("max", AggOp::Max),
            ("sum", AggOp::Sum),
            ("count", AggOp::Count),
            ("avg", AggOp::Avg),
        ] {
            assert_eq!(AggOp::parse(s), Some(op));
            assert_eq!(op.to_string(), s);
        }
        assert_eq!(AggOp::parse("median"), None);
    }

    #[test]
    fn projection_covers_exact() {
        // Q1 returns ra, dec, phc, en, det_time.
        let q1 = ProjectionSpec::returning([
            p("coord/cel/ra"),
            p("coord/cel/dec"),
            p("phc"),
            p("en"),
            p("det_time"),
        ]);
        // Q2 references ra, dec, en, det_time.
        let q2 = ProjectionSpec::returning([
            p("coord/cel/ra"),
            p("coord/cel/dec"),
            p("en"),
            p("det_time"),
        ]);
        assert!(q1.covers(&q2));
        assert!(!q2.covers(&q1)); // q1 also needs phc
    }

    #[test]
    fn projection_covers_via_subtree_prefix() {
        let whole_coord = ProjectionSpec::returning([p("coord"), p("en")]);
        let needs_ra = ProjectionSpec::returning([p("coord/cel/ra")]);
        assert!(whole_coord.covers(&needs_ra));
        // The reverse fails: ra alone does not provide all of coord.
        assert!(!needs_ra.covers(&whole_coord));
    }

    #[test]
    fn projection_referenced_vs_output() {
        // A query returning only `en` but *filtering* on ra references both.
        let q = ProjectionSpec::returning([p("en")]).with_referenced([p("coord/cel/ra")]);
        let narrow_stream = ProjectionSpec::returning([p("en")]);
        assert!(
            !narrow_stream.covers(&q),
            "stream lacks ra, which q's predicate reads"
        );
        let wide_stream = ProjectionSpec::returning([p("en"), p("coord/cel/ra")]);
        assert!(wide_stream.covers(&q));
    }

    #[test]
    fn result_filter_accepts() {
        let f = ResultFilter::single(CompOp::Ge, d("1.3"));
        assert!(f.accepts(d("1.3")));
        assert!(!f.accepts(d("1.2")));
        assert!(ResultFilter::none().accepts(d("-100")));
    }

    #[test]
    fn result_filter_restrictiveness() {
        let ge13 = ResultFilter::single(CompOp::Ge, d("1.3"));
        let ge15 = ResultFilter::single(CompOp::Ge, d("1.5"));
        let none = ResultFilter::none();
        assert!(ge15.at_least_as_restrictive_as(&ge13));
        assert!(!ge13.at_least_as_restrictive_as(&ge15));
        assert!(ge13.at_least_as_restrictive_as(&ge13));
        assert!(ge13.at_least_as_restrictive_as(&none));
        assert!(!none.at_least_as_restrictive_as(&ge13));
    }

    #[test]
    fn operator_kinds() {
        let sel = Operator::Selection(PredicateGraph::new());
        let proj = Operator::Projection(ProjectionSpec::default());
        assert_eq!(sel.kind(), OperatorKind::Selection);
        assert_ne!(sel.kind(), proj.kind());
        let u1 = Operator::Udf {
            name: "deskew".into(),
            params: vec!["a".into()],
        };
        let u2 = Operator::Udf {
            name: "other".into(),
            params: vec!["a".into()],
        };
        assert_ne!(u1.kind(), u2.kind());
    }

    #[test]
    fn displays() {
        let proj = ProjectionSpec::returning([p("en")]).with_referenced([p("phc")]);
        assert_eq!(proj.to_string(), "π{en•, phc}");
        let f = ResultFilter::single(CompOp::Ge, d("1.3"));
        assert_eq!(f.to_string(), "$a >= 1.3");
    }
}
