//! `MatchPredicates` (Algorithm 3 of the paper).
//!
//! Given the predicate graph `G` of a data stream considered for sharing and
//! the graph `G'` of a newly registered subscription, the stream is reusable
//! (as far as predicates are concerned) iff the predicates of `G'` *imply*
//! those of `G`: every item the new subscription wants also survives the
//! stream's selection.
//!
//! Two variants are provided:
//!
//! * [`match_predicates`] — the sound **and complete** implication test: an
//!   edge `ζ(x)` of `G` is implied if the transitive closure of `G'` derives
//!   a bound at least as tight between the same endpoints. This is the
//!   default used by the system.
//! * [`match_predicates_edgewise`] — the *literal* Algorithm 3, which only
//!   compares edge against edge (`ζ(x) ⇐ ζ(y)` for some single edge `y`
//!   connected to the equivalent node). It is sound but may miss matches
//!   that need a derivation chain; the paper sidesteps the difference by
//!   minimizing predicates at registration time. Nothing in the system
//!   calls it: it is kept for the fidelity tests only.

use crate::graph::{Closure, PredicateGraph};

/// Sound and complete predicate matching: `true` iff `g_new ⇒ g_stream`,
/// i.e. every edge constraint of the stream's graph is implied by the
/// closure of the subscription's graph.
///
/// Mirrors Algorithm 3's contract: "returns true if the predicates of G'
/// imply those of G, i.e., reusability of the data stream is not prevented
/// by the predicates."
pub fn match_predicates(g_stream: &PredicateGraph, g_new: &PredicateGraph) -> bool {
    g_stream.is_trivial() || implied_by_closure(g_stream, &g_new.closure())
}

/// [`match_predicates`] against `closure`, the subscription graph's
/// [`PredicateGraph::closure`], computed by the caller: a plan search
/// matches one subscription against many candidate streams and computes
/// the closure once. An unsatisfiable subscription implies anything; such
/// subscriptions are rejected earlier, but stay correct here regardless.
/// A closure that [`overflowed`](Closure::overflowed) implies nothing:
/// refusing to reuse a stream is always sound.
pub fn implied_by_closure(g_stream: &PredicateGraph, closure: &Closure) -> bool {
    !closure.overflowed()
        && (!closure.is_satisfiable()
            || g_stream.edges().all(|(u, v, want)| {
                closure
                    .direct_bound(u, v)
                    .is_some_and(|have| have.implies(want))
            }))
}

/// The literal Algorithm 3: node-by-node, edge-by-edge matching.
///
/// For every node `v ∈ V(G)` there must be an equivalent node `v' ∈ V(G')`
/// (same element path), and for every edge `x` connected to `v` there must
/// be an edge `y` connected to `v'` with `ζ(x) ⇐ ζ(y)` — i.e. `y` runs
/// between the same endpoints and its bound is at least as tight.
pub fn match_predicates_edgewise(g_stream: &PredicateGraph, g_new: &PredicateGraph) -> bool {
    for v in g_stream.nodes() {
        // Line 4: find the equivalent node v' in G'.
        let vmatch = g_new.nodes().contains(&v);
        if !vmatch {
            return false;
        }
        // Lines 6–16: every edge connected to v must be edge-implied.
        for (u, w, want) in g_stream.edges() {
            if u != v && w != v {
                continue;
            }
            let ematch = g_new
                .edges()
                .any(|(u2, w2, have)| u2 == u && w2 == w && have.implies(want));
            if !ematch {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, CompOp};
    use dss_xml::{Decimal, Path};

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn q1() -> PredicateGraph {
        PredicateGraph::from_atoms(&[
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("120.0")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("138.0")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Ge, d("-49.0")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Le, d("-40.0")),
        ])
    }

    fn q2() -> PredicateGraph {
        PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("1.3")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("130.5")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("135.5")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Ge, d("-48.0")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Le, d("-45.0")),
        ])
    }

    /// The paper's Figure 4: Query 2's predicates imply Query 1's, so the
    /// stream produced for Query 1 can be reused for Query 2 — but not the
    /// other way around.
    #[test]
    fn figure4_q2_matches_q1_stream() {
        assert!(match_predicates(&q1(), &q2()));
        assert!(!match_predicates(&q2(), &q1()));
        assert!(match_predicates_edgewise(&q1(), &q2()));
        assert!(!match_predicates_edgewise(&q2(), &q1()));
    }

    #[test]
    fn identical_predicates_match_both_ways() {
        assert!(match_predicates(&q1(), &q1()));
        assert!(match_predicates_edgewise(&q1(), &q1()));
    }

    #[test]
    fn trivial_stream_predicate_matches_anything() {
        let unfiltered = PredicateGraph::new();
        assert!(match_predicates(&unfiltered, &q2()));
        assert!(match_predicates(&unfiltered, &PredicateGraph::new()));
        assert!(match_predicates_edgewise(&unfiltered, &q2()));
    }

    #[test]
    fn new_query_without_constraint_on_stream_var_fails() {
        // Stream was filtered on en; new query doesn't constrain en, so the
        // stream may be missing items the new query needs.
        let stream = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.3"))]);
        assert!(!match_predicates(&stream, &q1()));
        assert!(!match_predicates_edgewise(&stream, &q1()));
    }

    #[test]
    fn looser_new_predicate_fails() {
        let stream = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.3"))]);
        let looser = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.0"))]);
        assert!(!match_predicates(&stream, &looser));
        let tighter = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.5"))]);
        assert!(match_predicates(&stream, &tighter));
    }

    #[test]
    fn strictness_respected() {
        let stream = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Gt, d("1.3"))]);
        let ge = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.3"))]);
        // en ≥ 1.3 does not imply en > 1.3 (the item with en = 1.3).
        assert!(!match_predicates(&stream, &ge));
        let gt = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Gt, d("1.3"))]);
        assert!(match_predicates(&stream, &gt));
    }

    #[test]
    fn complete_variant_sees_derived_implications() {
        // Stream: a ≤ 3. New subscription: a ≤ b + 1, b ≤ 2 (so a ≤ 3 is
        // derivable but not a direct edge).
        let stream = PredicateGraph::from_atoms(&[Atom::var_const(p("a"), CompOp::Le, d("3"))]);
        let sub = PredicateGraph::from_atoms(&[
            Atom::var_var(p("a"), CompOp::Le, p("b"), d("1")),
            Atom::var_const(p("b"), CompOp::Le, d("2")),
        ]);
        assert!(match_predicates(&stream, &sub));
        // The literal edgewise algorithm misses this…
        assert!(!match_predicates_edgewise(&stream, &sub));
        // …unless the subscription graph is replaced by its closure, which
        // is what predicate construction at registration time effectively
        // provides via minimization in the paper's pipeline.
        let mut closed = PredicateGraph::new();
        for (u, v, b) in sub.closure().edges() {
            closed.add_edge(u.clone(), v.clone(), b);
        }
        assert!(match_predicates_edgewise(&stream, &closed));
    }

    #[test]
    fn variable_to_variable_constraints() {
        // Stream keeps items with dx ≤ dy + 5. A subscription demanding
        // dx ≤ dy + 2 is shareable; one demanding dx ≤ dy + 9 is not.
        let stream =
            PredicateGraph::from_atoms(&[Atom::var_var(p("dx"), CompOp::Le, p("dy"), d("5"))]);
        let tight =
            PredicateGraph::from_atoms(&[Atom::var_var(p("dx"), CompOp::Le, p("dy"), d("2"))]);
        let loose =
            PredicateGraph::from_atoms(&[Atom::var_var(p("dx"), CompOp::Le, p("dy"), d("9"))]);
        assert!(match_predicates(&stream, &tight));
        assert!(!match_predicates(&stream, &loose));
    }

    /// A chain of bounds near the top of the decimal range whose sum no
    /// decimal holds, ending below zero.
    fn overflowing_chain() -> PredicateGraph {
        let link = |i: usize| {
            let (v, w) = (p(&format!("v{i}")), p(&format!("v{}", i + 1)));
            Atom::var_var(v, CompOp::Le, w, d("9999999999999999999"))
        };
        let mut atoms: Vec<Atom> = (1..40).map(link).collect();
        atoms.push(Atom::var_const(
            p("v40"),
            CompOp::Le,
            d("0.000000000000000001"),
        ));
        PredicateGraph::from_atoms(&atoms)
    }

    #[test]
    fn a_closure_that_overflows_implies_nothing() {
        let sub = overflowing_chain();
        let closure = sub.closure();
        assert!(closure.overflowed());
        // The graph implies its own atoms; an incomplete closure is not
        // trusted with them.
        let own = PredicateGraph::from_atoms(&[Atom::var_const(p("v40"), CompOp::Le, d("1"))]);
        assert!(!implied_by_closure(&own, &closure));
        assert!(!match_predicates(&own, &sub));
        assert!(
            match_predicates(&PredicateGraph::new(), &sub),
            "true is implied"
        );
        assert!(!q1().closure().overflowed());
    }

    #[test]
    fn unsatisfiable_subscription_matches_vacuously() {
        let bad = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("2")),
            Atom::var_const(p("en"), CompOp::Le, d("1")),
        ]);
        assert!(match_predicates(&q1(), &bad));
    }
}
