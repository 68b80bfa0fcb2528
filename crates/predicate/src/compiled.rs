//! The per-item form of a predicate graph.
//!
//! A [`PredicateGraph`] is shaped for reasoning — one edge per ordered node
//! pair, so closure, implication and the hull are graph algorithms. Checking
//! an item edge by edge from that shape resolves a variable once per edge
//! that mentions it and re-adds the edge's constant every time.
//! [`CompiledPredicate`] is the same conjunction regrouped by variable when
//! an operator is built: each variable is resolved once per item and met
//! with its constant bounds at once. A conjunction of pure tests has the
//! same value in any order, so the regrouping cannot change a verdict.

use dss_xml::{Decimal, Node, Path};

use crate::bound::{within, Bound};
use crate::graph::{NodeRef, PredicateGraph};

/// One variable of the predicate with the constants it is compared to.
#[derive(Debug, Clone)]
struct VarCheck {
    path: Path,
    /// `x (≤|<) c`, from the edge `x → 0` with weight `c`.
    upper: Option<Bound>,
    /// `x (≥|>) c`, from the edge `0 → x` with weight `−c`; `strict`
    /// means `>`.
    lower: Option<Bound>,
}

/// A conjunctive predicate compiled for evaluation: true of an item iff
/// every variable resolves to a decimal and every edge of the graph it was
/// compiled from is [`satisfied_by`](Bound::satisfied_by) the values (the
/// empty graph is true of everything).
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    /// An infeasible constant edge (`0 − 0 < 0`): false of every item.
    never: bool,
    /// The distinct variables, in order of first use by an edge.
    vars: Vec<VarCheck>,
    /// Variable-to-variable edges `vars[i] − vars[j] (≤|<) bound`.
    pairs: Vec<(usize, usize, Bound)>,
}

impl PredicateGraph {
    /// Regroups the edges by variable for per-item evaluation.
    pub fn compile(&self) -> CompiledPredicate {
        let mut out = CompiledPredicate {
            never: false,
            vars: Vec::new(),
            pairs: Vec::new(),
        };
        for (u, v, bound) in self.edges() {
            match (u, v) {
                (NodeRef::Zero, NodeRef::Zero) => {
                    out.never |= !bound.satisfied_by(Decimal::ZERO, Decimal::ZERO);
                }
                (NodeRef::Var(p), NodeRef::Zero) => {
                    let i = out.var(p);
                    out.vars[i].upper = Some(bound);
                }
                (NodeRef::Zero, NodeRef::Var(p)) => {
                    // 0 − x (≤|<) w  ⇔  x (≥|>) −w
                    let i = out.var(p);
                    out.vars[i].lower = Some(Bound {
                        weight: -bound.weight,
                        strict: bound.strict,
                    });
                }
                (NodeRef::Var(p), NodeRef::Var(q)) => {
                    let pair = (out.var(p), out.var(q), bound);
                    out.pairs.push(pair);
                }
            }
        }
        out
    }
}

impl CompiledPredicate {
    /// Index of `path` among the variables, appending it on first use.
    fn var(&mut self, path: &Path) -> usize {
        self.vars
            .iter()
            .position(|v| v.path == *path)
            .unwrap_or_else(|| {
                self.vars.push(VarCheck {
                    path: path.clone(),
                    upper: None,
                    lower: None,
                });
                self.vars.len() - 1
            })
    }

    /// Evaluates the predicate against a stream item; missing, empty and
    /// non-numeric elements fail closed. `values` is scratch for the
    /// resolved variables (overwritten; pass the same `Vec` for every item
    /// and a steady stream allocates nothing).
    pub fn evaluate(&self, item: &Node, values: &mut Vec<Decimal>) -> bool {
        if self.never {
            return false;
        }
        values.clear();
        for var in &self.vars {
            let Some(x) = var.path.decimal(item) else {
                return false;
            };
            if var.upper.is_some_and(|b| !within(x, b.weight, b.strict))
                || var.lower.is_some_and(|b| !within(b.weight, x, b.strict))
            {
                return false;
            }
            values.push(x);
        }
        self.pairs
            .iter()
            .all(|&(i, j, bound)| bound.satisfied_by(values[i], values[j]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The edge-by-edge rule the compiled form is defined by — the body of
    /// `PredicateGraph::evaluate` before there was a compiled form.
    fn edge_by_edge(g: &PredicateGraph, item: &Node) -> bool {
        let value = |n: &NodeRef| match n {
            NodeRef::Zero => Some(Decimal::ZERO),
            NodeRef::Var(p) => p.decimal_value(item).ok(),
        };
        g.edges().all(|(u, v, b)| {
            let lv = match value(u) {
                Some(x) => x,
                None => return false,
            };
            let rv = match value(v) {
                Some(x) => x,
                None => return false,
            };
            b.satisfied_by(lv, rv)
        })
    }

    /// Twelve variables, so a graph can name more than eight.
    const VARS: [&str; 12] = [
        "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k/x", "k/y",
    ];

    fn var(i: usize) -> NodeRef {
        NodeRef::Var(VARS[i].parse().unwrap())
    }

    /// `(kind, i, j, halves, strict)`: an upper or lower constant bound on
    /// variable `i`, or a bound on `i − j`. Constants and most values are
    /// multiples of 0.5 within ±3, so a value often sits exactly on a bound
    /// and strictness decides.
    type Edge = (u32, usize, usize, i64, bool);

    fn graph(edges: &[Edge], loose: bool, infeasible: bool) -> PredicateGraph {
        let mut g = PredicateGraph::new();
        for &(kind, i, j, halves, strict) in edges {
            // Loose bounds (c ≥ 2.5 on values within ±2.5) keep graphs of
            // many edges satisfiable by some items.
            let halves = if loose { 5 + halves.abs() % 3 } else { halves };
            let bound = Bound {
                weight: Decimal::new(i128::from(halves * 5), 1),
                strict,
            };
            match kind {
                0..=3 => g.add_edge(var(i), NodeRef::Zero, bound),
                4..=6 => g.add_edge(NodeRef::Zero, var(i), bound),
                _ => g.add_edge(var(i), var(j), bound),
            }
        }
        if infeasible {
            g.add_edge(NodeRef::Zero, NodeRef::Zero, Bound::lt(Decimal::ZERO));
        }
        g
    }

    /// The text of one element, or `None` for `<name/>`.
    fn arb_text() -> impl Strategy<Value = Option<String>> {
        let plain = || "[-]{0,1}[0-2][.][05]".prop_map(Some);
        prop_oneof![
            plain(),
            plain(),
            plain(),
            plain(),
            "[0-4]".prop_map(Some),
            " {1,2}[-]{0,1}[0-4][.][0-9] {0,2}".prop_map(Some),
            "[+][0-4][.][0-9]".prop_map(Some),
            "[1-9][0-9]{18,39}".prop_map(Some),
            "[-]{0,1}0{20}[0-4]".prop_map(Some),
            "[0-4][.][0-9]{18}".prop_map(Some),
            "[0-4][.][0-9]{19}".prop_map(Some),
            Just(Some("-0.0".to_string())),
            "[a-z]{1,3}".prop_map(Some),
            Just(Some(String::new())),
            Just(None),
        ]
    }

    /// Per variable zero to two same-named elements: missing, single, or
    /// repeated siblings of which `Path::first` lets only the first count.
    fn arb_item() -> impl Strategy<Value = Node> {
        let occurrences = prop_oneof![
            prop::collection::vec(arb_text(), 1),
            prop::collection::vec(arb_text(), 1),
            prop::collection::vec(arb_text(), 1),
            prop::collection::vec(arb_text(), 0..=2),
        ];
        prop::collection::vec(occurrences, VARS.len()).prop_map(|per_var| {
            let leaf = |name: &str, text: &Option<String>| match text {
                Some(t) => Node::leaf(name, t.as_str()),
                None => Node::empty(name),
            };
            let mut children = Vec::new();
            let mut nested = Vec::new();
            for (name, texts) in VARS.iter().zip(&per_var) {
                match name.split_once('/') {
                    None => children.extend(texts.iter().map(|t| leaf(name, t))),
                    // One <k> per occurrence: a first <k> without the leaf
                    // is backtracked over, one with an unreadable leaf is not.
                    Some((_, inner)) => {
                        for (slot, t) in texts.iter().enumerate() {
                            if nested.len() <= slot {
                                nested.push(Vec::new());
                            }
                            nested[slot].push(leaf(inner, t));
                        }
                    }
                }
            }
            children.extend(nested.into_iter().map(|kids| Node::elem("k", kids)));
            Node::elem("item", children)
        })
    }

    fn arb_edges() -> impl Strategy<Value = Vec<Edge>> {
        let edge = || {
            (
                0u32..9,
                0..VARS.len(),
                0..VARS.len(),
                -6i64..=6,
                any::<bool>(),
            )
        };
        prop_oneof![
            prop::collection::vec(edge(), 0..5),
            prop::collection::vec(edge(), 9..30),
        ]
    }

    proptest! {
        #[test]
        fn compiled_equals_edge_by_edge(
            edges in arb_edges(),
            loose in any::<bool>(),
            infeasible in 0u32..8,
            items in prop::collection::vec(arb_item(), 1..6),
        ) {
            let g = graph(&edges, loose, infeasible == 0);
            let compiled = g.compile();
            // One scratch for all items, as an operator holds it.
            let mut values = Vec::new();
            for item in &items {
                prop_assert_eq!(
                    compiled.evaluate(item, &mut values),
                    edge_by_edge(&g, item),
                    "{} on {:?}", g, item
                );
            }
        }
    }

    #[test]
    fn the_generated_cases_reach_both_verdicts_and_many_variables() {
        // The property above is only as good as its inputs: count what a
        // few hundred of them look like.
        let mut rng = TestRng::deterministic();
        let (mut passed, mut failed, mut many_vars, mut var_var) = (0, 0, 0, 0);
        for _ in 0..300 {
            let g = graph(&arb_edges().sample(&mut rng), rng.bool(), false);
            let compiled = g.compile();
            many_vars += usize::from(compiled.vars.len() > 8);
            var_var += usize::from(!compiled.pairs.is_empty());
            let item = arb_item().sample(&mut rng);
            assert_eq!(
                compiled.evaluate(&item, &mut Vec::new()),
                edge_by_edge(&g, &item)
            );
            if edge_by_edge(&g, &item) {
                passed += 1;
            } else {
                failed += 1;
            }
        }
        assert!(passed >= 30, "only {passed} of 300 items passed");
        assert!(failed >= 30, "only {failed} of 300 items failed");
        assert!(
            many_vars >= 30,
            "only {many_vars} graphs over more than eight variables"
        );
        assert!(var_var >= 30, "only {var_var} graphs with a var–var edge");
    }

    #[test]
    fn compile_folds_constant_bounds_per_variable() {
        let ra: Path = "coord/cel/ra".parse().unwrap();
        let en: Path = "en".parse().unwrap();
        let d = |s: &str| s.parse::<Decimal>().unwrap();
        let mut g = PredicateGraph::new();
        g.add_edge(NodeRef::Var(ra.clone()), NodeRef::Zero, Bound::le(d("138")));
        g.add_edge(
            NodeRef::Zero,
            NodeRef::Var(ra.clone()),
            Bound::lt(d("-120")),
        );
        g.add_edge(
            NodeRef::Var(en.clone()),
            NodeRef::Var(ra.clone()),
            Bound::le(d("0")),
        );
        let c = g.compile();
        // First use: the (Zero, ra) edge sorts first.
        assert_eq!(c.vars.len(), 2);
        assert_eq!(c.vars[0].path, ra);
        assert_eq!(c.vars[0].upper, Some(Bound::le(d("138"))));
        assert_eq!(c.vars[0].lower, Some(Bound::lt(d("120")))); // ra > 120
        assert_eq!(c.vars[1].path, en);
        assert_eq!((c.vars[1].upper, c.vars[1].lower), (None, None));
        assert_eq!(c.pairs, vec![(1, 0, Bound::le(d("0")))]);
        assert!(!c.never);

        let photon = |ra: &str, en: &str| {
            Node::elem(
                "photon",
                vec![
                    Node::elem("coord", vec![Node::elem("cel", vec![Node::leaf("ra", ra)])]),
                    Node::leaf("en", en),
                ],
            )
        };
        let mut values = Vec::new();
        assert!(c.evaluate(&photon("130", "1.4"), &mut values));
        assert!(c.evaluate(&photon("138", "138.0"), &mut values));
        assert!(!c.evaluate(&photon("120", "1.4"), &mut values)); // strict
        assert!(!c.evaluate(&photon("130", "130.1"), &mut values)); // en ≤ ra

        // The trivial predicate holds of anything; an infeasible constant
        // edge of nothing.
        assert!(PredicateGraph::new()
            .compile()
            .evaluate(&Node::empty("photon"), &mut values));
        g.add_edge(NodeRef::Zero, NodeRef::Zero, Bound::le(d("-1")));
        assert!(g.compile().never);
        assert!(!g.compile().evaluate(&photon("130", "1.4"), &mut values));
    }
}
