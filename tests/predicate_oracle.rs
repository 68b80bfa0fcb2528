//! The dense `Closure` and everything that reads it, held to the reference
//! implementation it replaced: an all-pairs closure that clones every path
//! into a `BTreeMap`-backed graph, and `is_satisfiable`, `implies_atom`,
//! `minimize`, `hull` and `StreamStats::selectivity` written over that
//! closure graph. On random graphs (a small path alphabet, strict and
//! non-strict bounds, equalities and other zero-weight cycles, var–var
//! edges, unsatisfiable graphs) the two must agree exactly: the same edges
//! in the same order, the same graphs, the same selectivity bits.

use std::collections::BTreeMap;

use proptest::prelude::*;

use data_stream_sharing::core::stats::{
    StreamStats, DEFAULT_SELECTIVITY, MIN_SELECTIVITY, VAR_VAR_SELECTIVITY,
};
use data_stream_sharing::predicate::{Atom, Bound, CompOp, NodeRef, PredicateGraph};
use data_stream_sharing::xml::{Decimal, Path};

// ---------- the reference implementation --------------------------------

/// All-pairs tightest derived bounds by Floyd–Warshall over an index map
/// of cloned nodes, returned as a graph whose direct edges are the derived
/// bounds (feasible self-loops dropped).
fn oracle_closure(g: &PredicateGraph) -> PredicateGraph {
    let nodes: Vec<NodeRef> = g.nodes().into_iter().cloned().collect();
    let n = nodes.len();
    let idx: BTreeMap<&NodeRef, usize> = nodes.iter().zip(0..).collect();
    let mut dist: Vec<Vec<Option<Bound>>> = vec![vec![None; n]; n];
    for (u, v, b) in g.edges() {
        let (i, j) = (idx[u], idx[v]);
        dist[i][j] = Some(match dist[i][j] {
            Some(existing) => existing.min(b),
            None => b,
        });
    }
    for k in 0..n {
        for i in 0..n {
            let Some(ik) = dist[i][k] else { continue };
            let row_k = dist[k].clone();
            for (j, cell) in dist[i].iter_mut().enumerate() {
                let Some(kj) = row_k[j] else { continue };
                let via = ik.compose(kj).expect("small weights stay in range");
                *cell = Some(match *cell {
                    Some(existing) => existing.min(via),
                    None => via,
                });
            }
        }
    }
    let mut out = PredicateGraph::new();
    for i in 0..n {
        for j in 0..n {
            if let Some(b) = dist[i][j] {
                // `add_edge` drops feasible self-loops.
                out.add_edge(nodes[i].clone(), nodes[j].clone(), b);
            }
        }
    }
    out
}

fn closure_is_satisfiable(closure: &PredicateGraph) -> bool {
    closure
        .edges()
        .all(|(u, v, b)| u != v || !b.cycle_is_infeasible())
}

fn oracle_is_satisfiable(g: &PredicateGraph) -> bool {
    closure_is_satisfiable(&oracle_closure(g))
}

fn oracle_implies_atom(g: &PredicateGraph, atom: &Atom) -> bool {
    let closure = oracle_closure(g);
    !closure_is_satisfiable(&closure)
        || PredicateGraph::from_atoms([atom])
            .edges()
            .all(|(u, v, want)| {
                closure
                    .direct_bound(u, v)
                    .is_some_and(|have| have.implies(want))
            })
}

/// Removes each edge in turn and keeps it removed when the closure of the
/// rest still derives a bound at least as tight.
fn oracle_minimize(g: &PredicateGraph) -> PredicateGraph {
    if !oracle_is_satisfiable(g) {
        return g.clone();
    }
    let all: Vec<(NodeRef, NodeRef, Bound)> = g
        .edges()
        .map(|(u, v, b)| (u.clone(), v.clone(), b))
        .collect();
    let mut kept = all.clone();
    for (u, v, bound) in all {
        let rest: Vec<_> = kept
            .iter()
            .filter(|(a, b, _)| !(*a == u && *b == v))
            .cloned()
            .collect();
        let mut without = PredicateGraph::new();
        for (a, b, w) in &rest {
            without.add_edge(a.clone(), b.clone(), *w);
        }
        let redundant = oracle_closure(&without)
            .direct_bound(&u, &v)
            .is_some_and(|have| have.implies(bound));
        if redundant {
            kept = rest;
        }
    }
    let mut out = PredicateGraph::new();
    for (a, b, w) in kept {
        out.add_edge(a, b, w);
    }
    out
}

fn oracle_hull(a: &PredicateGraph, b: &PredicateGraph) -> PredicateGraph {
    if !oracle_is_satisfiable(a) {
        return oracle_minimize(b);
    }
    if !oracle_is_satisfiable(b) {
        return oracle_minimize(a);
    }
    let (ca, cb) = (oracle_closure(a), oracle_closure(b));
    let mut out = PredicateGraph::new();
    for (u, v, ba) in ca.edges() {
        let Some(bb) = cb.direct_bound(u, v) else {
            continue;
        };
        let both_vars = matches!(u, NodeRef::Var(_)) && matches!(v, NodeRef::Var(_));
        if both_vars && !(a.direct_bound(u, v).is_some() && b.direct_bound(u, v).is_some()) {
            continue;
        }
        out.add_edge(u.clone(), v.clone(), if ba.implies(bb) { bb } else { ba });
    }
    oracle_minimize(&out)
}

/// Per-variable ranges from the closure, then one factor per var–var
/// closure edge that the closure of the range edges alone does not imply.
fn oracle_selectivity(stats: &StreamStats, predicate: &PredicateGraph) -> f64 {
    if predicate.is_trivial() {
        return 1.0;
    }
    if !oracle_is_satisfiable(predicate) {
        return 0.0;
    }
    let closure = oracle_closure(predicate);
    let mut sel = 1.0;
    for var in predicate.variables() {
        let node = NodeRef::Var(var.clone());
        let hi = closure
            .direct_bound(&node, &NodeRef::Zero)
            .map(|b| b.weight);
        let lo = closure
            .direct_bound(&NodeRef::Zero, &node)
            .map(|b| -b.weight);
        let Some((obs_min, obs_max)) = stats.ranges.get(&var) else {
            sel *= DEFAULT_SELECTIVITY;
            continue;
        };
        let span = (*obs_max - *obs_min).to_f64();
        if span <= 0.0 {
            let v = *obs_min;
            let keeps = hi.is_none_or(|h| v <= h) && lo.is_none_or(|l| v >= l);
            sel *= if keeps { 1.0 } else { 0.0 };
            continue;
        }
        let eff_hi = hi.map_or(*obs_max, |h| h.min(*obs_max));
        let eff_lo = lo.map_or(*obs_min, |l| l.max(*obs_min));
        let frac = ((eff_hi - eff_lo).to_f64() / span).clamp(0.0, 1.0);
        sel *= frac.max(MIN_SELECTIVITY);
    }
    let mut ranges_only = PredicateGraph::new();
    for (u, v, b) in closure.edges() {
        if *u == NodeRef::Zero || *v == NodeRef::Zero {
            ranges_only.add_edge(u.clone(), v.clone(), b);
        }
    }
    let range_closure = oracle_closure(&ranges_only);
    let var_var_edges = closure
        .edges()
        .filter(|(u, v, b)| {
            matches!(u, NodeRef::Var(_))
                && matches!(v, NodeRef::Var(_))
                && u != v
                && !range_closure
                    .direct_bound(u, v)
                    .is_some_and(|have| have.implies(*b))
        })
        .count();
    sel *= VAR_VAR_SELECTIVITY.powi(var_var_edges as i32);
    sel.clamp(0.0, 1.0)
}

// ---------- random graphs ------------------------------------------------

/// Four paths, one of them two steps deep: few enough that cycles and
/// parallel bounds are common.
fn path(i: usize) -> Path {
    ["a", "b", "c/d", "e"][i].parse().unwrap()
}

/// Halves from −3 to 3, zero weighted up so that zero-weight cycles (and
/// with them ties between strict and non-strict bounds) are common.
fn arb_constant() -> impl Strategy<Value = Decimal> {
    prop_oneof![Just(0i64), -6i64..7].prop_map(|halves| Decimal::new(halves as i128 * 5, 1))
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    let op = prop_oneof![
        Just(CompOp::Le),
        Just(CompOp::Lt),
        Just(CompOp::Ge),
        Just(CompOp::Gt),
        Just(CompOp::Eq),
    ];
    prop_oneof![
        (0usize..4, op.clone(), arb_constant()).prop_map(|(v, op, c)| Atom::var_const(
            path(v),
            op,
            c
        )),
        (0usize..4, op, 0usize..4, arb_constant())
            .prop_filter_map("distinct paths", |(v, op, w, c)| {
                (v != w).then(|| Atom::var_var(path(v), op, path(w), c))
            }),
    ]
}

fn arb_graph() -> impl Strategy<Value = PredicateGraph> {
    prop::collection::vec(arb_atom(), 0..=12).prop_map(|atoms| PredicateGraph::from_atoms(&atoms))
}

/// Observed ranges for three of the four paths (one of them a single
/// value); `e` has none.
fn arb_stats() -> impl Strategy<Value = StreamStats> {
    (arb_constant(), 0i64..8, arb_constant()).prop_map(|(lo, width, pinned)| {
        let mut ranges = BTreeMap::new();
        ranges.insert(path(0), (lo, lo + Decimal::from_int(width)));
        ranges.insert(path(1), (Decimal::from_int(-2), Decimal::from_int(2)));
        ranges.insert(path(2), (pinned, pinned));
        StreamStats {
            item_size: 1.0,
            frequency: 1.0,
            item_name_len: 1,
            paths: BTreeMap::new(),
            ranges,
            increments: BTreeMap::new(),
        }
    })
}

type Edge = (NodeRef, NodeRef, Bound);

fn edges_of<'a>(edges: impl Iterator<Item = (&'a NodeRef, &'a NodeRef, Bound)>) -> Vec<Edge> {
    edges.map(|(u, v, b)| (u.clone(), v.clone(), b)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The closure's edges, satisfiability and implication equal the
    /// reference's, edge by edge in order.
    #[test]
    fn closure_matches_the_reference(g in arb_graph(), atom in arb_atom()) {
        let closure = g.closure();
        prop_assert_eq!(edges_of(closure.edges()), edges_of(oracle_closure(&g).edges()));
        prop_assert_eq!(closure.is_satisfiable(), oracle_is_satisfiable(&g));
        prop_assert_eq!(g.is_satisfiable(), oracle_is_satisfiable(&g));
        prop_assert_eq!(g.implies_atom(&atom), oracle_implies_atom(&g, &atom));
    }

    /// `minimize` keeps exactly the edges the reference keeps.
    #[test]
    fn minimize_matches_the_reference(g in arb_graph()) {
        prop_assert_eq!(g.minimize(), oracle_minimize(&g), "graph {}", g);
    }

    /// `hull` builds exactly the reference's graph.
    #[test]
    fn hull_matches_the_reference(a in arb_graph(), b in arb_graph()) {
        prop_assert_eq!(a.hull(&b), oracle_hull(&a, &b), "hull of {} and {}", a, b);
    }

    /// `StreamStats::selectivity` returns the reference's estimate, bit
    /// for bit.
    #[test]
    fn selectivity_matches_the_reference(g in arb_graph(), stats in arb_stats()) {
        prop_assert_eq!(
            stats.selectivity(&g).to_bits(),
            oracle_selectivity(&stats, &g).to_bits(),
            "graph {}", g
        );
    }
}
