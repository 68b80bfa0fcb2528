//! Shrinking-friendly random WXQuery specifications (feature `testing`).
//!
//! The differential harness needs random *flat* subscriptions that always
//! compile, render back to WXQuery text, and reduce to readable minimal
//! counterexamples. [`QuerySpec`] is the structured form: strategies
//! produce it, [`QuerySpec::to_text`] renders it through the crate's own
//! [`ast`](crate::ast) `Display` normal form, and [`QuerySpec::shrink`]
//! proposes one-step simplifications (drop an atom, drop the window step,
//! drop the result filter, …) for a greedy shrinking loop — the vendored
//! `proptest` has no built-in shrinking.
//!
//! The vocabulary follows the RASS photon schema used everywhere else in
//! the workspace (`en`, `det_time`, `phc`, `coord/cel/ra`,
//! `coord/cel/dec`), so generated queries are meaningful against
//! `dss_rass::generator` streams as well as the harness's own items.

use proptest::prelude::*;

use dss_predicate::CompOp;
use dss_properties::AggOp;
use dss_xml::Decimal;

use crate::ast::{
    Clause, Condition, Content, ElementCtor, Expr, Flwr, ForSource, PredAtom, PredTerm, VarPath,
    WindowAst,
};
use crate::compile_query;

/// Numeric leaf paths of the photon schema, usable in predicates,
/// projections, and aggregations.
const SCHEMA_PATHS: &[&str] = &["en", "det_time", "phc", "coord/cel/ra", "coord/cel/dec"];

/// The ordered reference element for `diff` windows.
const REFERENCE_PATH: &str = "det_time";

/// One selection conjunct `item/path θ rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomSpec {
    pub path: String,
    pub op: CompOp,
    pub rhs: RhsSpec,
}

/// Right-hand side of a selection conjunct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RhsSpec {
    Const(Decimal),
    /// `item/path + offset` — compares two elements of the same item.
    PathPlus(String, Decimal),
}

/// A data window `|count Δ step µ|` or `|ref diff Δ step µ|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowChoice {
    Count {
        size: Decimal,
        step: Option<Decimal>,
    },
    Diff {
        size: Decimal,
        step: Option<Decimal>,
    },
}

/// The `let`/`return` shape of the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BodySpec {
    /// Selection/projection: `return <tag> { $p/path }* </tag>`.
    Project { tag: String, paths: Vec<String> },
    /// Windowed aggregation with an optional result filter on `$a`.
    Aggregate {
        tag: String,
        op: AggOp,
        element: String,
        filter: Vec<(CompOp, Decimal)>,
    },
    /// Window contents: `return <tag> { $w } </tag>`.
    Window { tag: String },
}

/// A structured flat WXQuery subscription that renders to text and
/// shrinks toward simpler queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    pub stream: String,
    pub stream_root: String,
    pub item: String,
    /// Optional enclosing result-root element constructor.
    pub result_root: Option<String>,
    pub selection: Vec<AtomSpec>,
    /// Required by `Aggregate` and `Window` bodies, absent for `Project`.
    pub window: Option<WindowChoice>,
    pub body: BodySpec,
}

impl QuerySpec {
    /// The bound variable name: `$w` for windowed queries (paper
    /// convention), `$p` otherwise.
    fn var(&self) -> &'static str {
        if self.window.is_some() {
            "w"
        } else {
            "p"
        }
    }

    /// Builds the AST; infallible by construction.
    fn to_ast(&self) -> Expr {
        let var = self.var().to_string();
        let vp = |path: &str| VarPath {
            var: var.clone(),
            path: path.parse().expect("schema path parses"),
        };
        let conditions: Condition = self
            .selection
            .iter()
            .map(|a| PredAtom {
                lhs: vp(&a.path),
                op: a.op,
                rhs: match &a.rhs {
                    RhsSpec::Const(c) => PredTerm::Const(*c),
                    RhsSpec::PathPlus(p, c) => PredTerm::VarPlus(vp(p), *c),
                },
            })
            .collect();
        let window = self.window.as_ref().map(|w| match w {
            WindowChoice::Count { size, step } => WindowAst::Count {
                size: *size,
                step: *step,
            },
            WindowChoice::Diff { size, step } => WindowAst::Diff {
                reference: REFERENCE_PATH.parse().expect("reference path parses"),
                size: *size,
                step: *step,
            },
        });
        let mut clauses = vec![Clause::For {
            var: var.clone(),
            source: ForSource::Stream(self.stream.clone()),
            path: format!("{}/{}", self.stream_root, self.item)
                .parse()
                .expect("stream path parses"),
            conditions,
            window,
        }];
        let mut where_: Condition = Vec::new();
        let ret = match &self.body {
            BodySpec::Project { tag, paths } => Expr::Element(ElementCtor {
                tag: tag.clone(),
                content: paths
                    .iter()
                    .map(|p| Content::Enclosed(Expr::PathOutput(vp(p))))
                    .collect(),
            }),
            BodySpec::Aggregate {
                tag,
                op,
                element,
                filter,
            } => {
                clauses.push(Clause::Let {
                    var: "a".to_string(),
                    op: *op,
                    source: vp(element),
                });
                for (op, c) in filter {
                    where_.push(PredAtom {
                        lhs: VarPath {
                            var: "a".to_string(),
                            path: "".parse().expect("empty path parses"),
                        },
                        op: *op,
                        rhs: PredTerm::Const(*c),
                    });
                }
                Expr::Element(ElementCtor {
                    tag: tag.clone(),
                    content: vec![Content::Enclosed(Expr::PathOutput(VarPath {
                        var: "a".to_string(),
                        path: "".parse().expect("empty path parses"),
                    }))],
                })
            }
            BodySpec::Window { tag } => Expr::Element(ElementCtor {
                tag: tag.clone(),
                content: vec![Content::Enclosed(Expr::PathOutput(VarPath {
                    var: var.clone(),
                    path: "".parse().expect("empty path parses"),
                }))],
            }),
        };
        let flwr = Expr::Flwr(Flwr {
            clauses,
            where_,
            ret: Box::new(ret),
        });
        match &self.result_root {
            Some(root) => Expr::Element(ElementCtor {
                tag: root.clone(),
                content: vec![Content::Enclosed(flwr)],
            }),
            None => flwr,
        }
    }

    /// Renders the subscription text (the AST `Display` normal form,
    /// which round-trips through the parser).
    pub fn to_text(&self) -> String {
        self.to_ast().to_string()
    }

    /// `true` when the rendered text compiles into an executable plan
    /// (conflicting random bounds are unsatisfiable and rejected by the
    /// compiler; strategies filter on this).
    fn compiles(&self) -> bool {
        compile_query(&self.to_text()).is_ok()
    }

    /// One-step simplifications, most aggressive first. Every candidate
    /// still compiles; the caller re-checks its failing property and
    /// recurses on the first candidate that still fails.
    pub fn shrink(&self) -> Vec<QuerySpec> {
        let mut out = Vec::new();
        let mut push = |candidate: QuerySpec| {
            if candidate != *self && candidate.compiles() {
                out.push(candidate);
            }
        };
        // Collapse to the simplest query of the same stream: bare
        // projection of the first output path (or none).
        if self.window.is_some() || self.selection.len() > 1 {
            let mut plain = self.clone();
            plain.window = None;
            plain.selection.truncate(1);
            plain.body = BodySpec::Project {
                tag: "x".to_string(),
                paths: match &self.body {
                    BodySpec::Project { paths, .. } => paths.iter().take(1).cloned().collect(),
                    BodySpec::Aggregate { element, .. } => vec![element.clone()],
                    BodySpec::Window { .. } => vec![REFERENCE_PATH.to_string()],
                },
            };
            push(plain);
        }
        // Drop the enclosing result root.
        if self.result_root.is_some() {
            let mut c = self.clone();
            c.result_root = None;
            push(c);
        }
        // Drop one selection atom at a time.
        for i in 0..self.selection.len() {
            let mut c = self.clone();
            c.selection.remove(i);
            push(c);
        }
        // Replace a two-path comparison with a constant one.
        for (i, atom) in self.selection.iter().enumerate() {
            if let RhsSpec::PathPlus(_, offset) = &atom.rhs {
                let mut c = self.clone();
                c.selection[i].rhs = RhsSpec::Const(*offset);
                push(c);
            }
        }
        // Make the window tumbling (drop the explicit step).
        match &self.window {
            Some(WindowChoice::Count {
                size,
                step: Some(_),
            }) => {
                let mut c = self.clone();
                c.window = Some(WindowChoice::Count {
                    size: *size,
                    step: None,
                });
                push(c);
            }
            Some(WindowChoice::Diff {
                size,
                step: Some(_),
            }) => {
                let mut c = self.clone();
                c.window = Some(WindowChoice::Diff {
                    size: *size,
                    step: None,
                });
                push(c);
            }
            _ => {}
        }
        match &self.body {
            BodySpec::Project { tag, paths } if paths.len() > 1 => {
                for i in 0..paths.len() {
                    let mut shorter = paths.clone();
                    shorter.remove(i);
                    let mut c = self.clone();
                    c.body = BodySpec::Project {
                        tag: tag.clone(),
                        paths: shorter,
                    };
                    push(c);
                }
            }
            BodySpec::Aggregate {
                tag,
                op,
                element,
                filter,
            } => {
                // Drop one filter condition at a time.
                for i in 0..filter.len() {
                    let mut shorter = filter.clone();
                    shorter.remove(i);
                    let mut c = self.clone();
                    c.body = BodySpec::Aggregate {
                        tag: tag.clone(),
                        op: *op,
                        element: element.clone(),
                        filter: shorter,
                    };
                    push(c);
                }
                // Simplify the aggregate down the lattice avg → sum → count.
                let simpler = match op {
                    AggOp::Avg => Some(AggOp::Sum),
                    AggOp::Min | AggOp::Max => Some(AggOp::Sum),
                    AggOp::Sum => Some(AggOp::Count),
                    AggOp::Count => None,
                };
                if let Some(simpler) = simpler {
                    let mut c = self.clone();
                    c.body = BodySpec::Aggregate {
                        tag: tag.clone(),
                        op: simpler,
                        element: element.clone(),
                        filter: filter.clone(),
                    };
                    push(c);
                }
            }
            _ => {}
        }
        out
    }
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// A decimal in `[lo, hi]` units at the given scale.
fn decimal_in(lo: i64, hi: i64, scale: u32) -> BoxedStrategy<Decimal> {
    (lo..=hi)
        .prop_map(move |u| Decimal::new(u as i128, scale))
        .boxed()
}

/// A plausible predicate constant for the schema path, inside (or near)
/// the value range `dss_rass::generator` produces.
fn arb_constant_for(path: &'static str) -> BoxedStrategy<Decimal> {
    match path {
        "en" => decimal_in(100, 3000, 3),
        "det_time" => decimal_in(0, 600, 1),
        "phc" => decimal_in(0, 100, 0),
        "coord/cel/ra" => decimal_in(900, 1800, 1),
        "coord/cel/dec" => decimal_in(-600, -200, 1),
        _ => decimal_in(-100, 100, 1),
    }
}

fn arb_schema_path() -> BoxedStrategy<&'static str> {
    (0usize..SCHEMA_PATHS.len())
        .prop_map(|i| SCHEMA_PATHS[i])
        .boxed()
}

fn arb_comp_op() -> BoxedStrategy<CompOp> {
    prop_oneof![
        Just(CompOp::Ge),
        Just(CompOp::Le),
        Just(CompOp::Gt),
        Just(CompOp::Lt),
    ]
}

/// One selection conjunct; mostly path-vs-constant, occasionally
/// path-vs-path-plus-offset.
pub fn arb_atom() -> BoxedStrategy<AtomSpec> {
    arb_schema_path()
        .prop_flat_map(|path| {
            (
                Just(path),
                arb_comp_op(),
                arb_constant_for(path),
                arb_schema_path(),
                0usize..8,
            )
        })
        .prop_map(|(path, op, c, other, kind)| {
            let rhs = if kind == 0 && other != path {
                // Offset scale stays at or above both operand scales.
                RhsSpec::PathPlus(other.to_string(), Decimal::new(c.units(), 3))
            } else {
                RhsSpec::Const(c)
            };
            AtomSpec {
                path: path.to_string(),
                op,
                rhs,
            }
        })
        .boxed()
}

/// A window spec; `diff` windows reference `det_time`, sizes and steps
/// are positive, and steps may exceed the size (sampling windows).
pub fn arb_window() -> BoxedStrategy<WindowChoice> {
    let count =
        (1i64..8, 1i64..10, any::<bool>()).prop_map(|(size, step, tumbling)| WindowChoice::Count {
            size: Decimal::from_int(size),
            step: (!tumbling).then(|| Decimal::from_int(step)),
        });
    let diff = (1i64..80, 1i64..100, any::<bool>()).prop_map(|(size, step, tumbling)| {
        WindowChoice::Diff {
            // Scale 1 keeps window boundaries off the data's scale-4 grid
            // often enough to exercise boundary comparisons.
            size: Decimal::new(size as i128, 1),
            step: (!tumbling).then(|| Decimal::new(step as i128, 1)),
        }
    });
    prop_oneof![count, diff].boxed()
}

fn arb_agg_op() -> BoxedStrategy<AggOp> {
    prop_oneof![
        Just(AggOp::Avg),
        Just(AggOp::Sum),
        Just(AggOp::Count),
        Just(AggOp::Min),
        Just(AggOp::Max),
    ]
}

fn arb_tag() -> BoxedStrategy<String> {
    prop_oneof![
        Just("out".to_string()),
        Just("hit".to_string()),
        Just("r".to_string()),
    ]
}

/// A complete random flat subscription, guaranteed to compile.
pub fn arb_query() -> BoxedStrategy<QuerySpec> {
    let selection = prop::collection::vec(arb_atom(), 0..=3);
    let kind = 0usize..4;
    (
        selection,
        prop::option::of(arb_window()),
        kind,
        arb_tag(),
        arb_agg_op(),
        arb_schema_path(),
        prop::collection::vec((arb_comp_op(), decimal_in(0, 3000, 3)), 0..=2),
        prop::collection::vec(arb_schema_path(), 1..=3),
        any::<bool>(),
    )
        .prop_filter_map(
            "query must compile (satisfiable predicates)",
            |(selection, window, kind, tag, op, element, filter, paths, rooted)| {
                let windowed = window.is_some();
                let (window, body) = match kind {
                    // Plain projection: no window allowed.
                    0 | 1 => (
                        None,
                        BodySpec::Project {
                            tag,
                            paths: paths.iter().map(|p| p.to_string()).collect(),
                        },
                    ),
                    // Aggregation: force a window if none was sampled.
                    2 => (
                        Some(window.unwrap_or(WindowChoice::Count {
                            size: Decimal::from_int(4),
                            step: None,
                        })),
                        BodySpec::Aggregate {
                            tag,
                            op,
                            element: element.to_string(),
                            filter: if windowed { filter } else { Vec::new() },
                        },
                    ),
                    _ => (
                        Some(window.unwrap_or(WindowChoice::Diff {
                            size: Decimal::from_int(20),
                            step: None,
                        })),
                        BodySpec::Window { tag },
                    ),
                };
                let spec = QuerySpec {
                    stream: "photons".to_string(),
                    stream_root: "photons".to_string(),
                    item: "photon".to_string(),
                    result_root: rooted.then(|| "photons".to_string()),
                    selection,
                    window,
                    body,
                };
                spec.compiles().then_some(spec)
            },
        )
        .boxed()
}

impl Arbitrary for QuerySpec {
    fn arbitrary() -> BoxedStrategy<QuerySpec> {
        arb_query()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use proptest::test_runner::TestRng;

    #[test]
    fn sampled_queries_compile_and_round_trip() {
        let mut rng = TestRng::deterministic();
        let strat = arb_query();
        for _ in 0..200 {
            let spec = strat.sample(&mut rng);
            let text = spec.to_text();
            let ast = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(ast, spec.to_ast(), "display round trip changed {text}");
            assert!(spec.compiles(), "sampled query does not compile: {text}");
        }
    }

    #[test]
    fn shrink_candidates_compile_and_terminate() {
        let mut rng = TestRng::deterministic();
        let strat = arb_query();
        for _ in 0..50 {
            let spec = strat.sample(&mut rng);
            // Greedy shrinking must hit a fixpoint: every step strictly
            // reduces a finite measure.
            let mut cur = spec;
            for _ in 0..200 {
                let candidates = cur.shrink();
                for c in &candidates {
                    assert!(
                        c.compiles(),
                        "shrink produced non-compiling {}",
                        c.to_text()
                    );
                }
                match candidates.into_iter().next() {
                    Some(next) => cur = next,
                    None => break,
                }
            }
            assert!(cur.shrink().len() < 60);
        }
    }

    #[test]
    fn windowed_bodies_require_windows() {
        let mut rng = TestRng::deterministic();
        let strat = arb_query();
        for _ in 0..200 {
            let spec = strat.sample(&mut rng);
            match spec.body {
                BodySpec::Project { .. } => assert!(spec.window.is_none()),
                BodySpec::Aggregate { .. } | BodySpec::Window { .. } => {
                    assert!(spec.window.is_some())
                }
            }
        }
    }
}
