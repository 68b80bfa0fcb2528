//! The weighted directed predicate graph and its algebra.

use std::collections::BTreeMap;
use std::fmt;

use dss_xml::{Decimal, Node, Path};

use crate::atom::{Atom, CompOp, Term};
use crate::bound::Bound;
use crate::matching::implied_by_closure;

/// A node of the predicate graph: a variable (absolute element path within
/// the stream item) or the distinguished constant-zero node.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeRef {
    /// The constant zero.
    Zero,
    /// A variable, identified by its absolute element path. Two nodes are
    /// equivalent (the paper's `v =̂ v'`) iff they refer to the same element,
    /// i.e. have equal paths.
    Var(Path),
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Zero => write!(f, "0"),
            NodeRef::Var(p) => write!(f, "${p}"),
        }
    }
}

/// A conjunctive predicate in graph form. Edges carry the tightest bound
/// asserted between their endpoints.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PredicateGraph {
    /// Tightest direct bound per ordered node pair.
    edges: BTreeMap<(NodeRef, NodeRef), Bound>,
}

impl PredicateGraph {
    /// The empty predicate (`true`).
    pub fn new() -> PredicateGraph {
        PredicateGraph::default()
    }

    /// Builds a graph from a conjunction of atoms.
    pub fn from_atoms<'a, I>(atoms: I) -> PredicateGraph
    where
        I: IntoIterator<Item = &'a Atom>,
    {
        let mut g = PredicateGraph::new();
        for a in atoms {
            g.add_atom(a);
        }
        g
    }

    /// `true` if the predicate has no atoms (it is the constant `true`).
    pub fn is_trivial(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of (merged) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All nodes mentioned by some edge, sorted.
    pub fn nodes(&self) -> Vec<&NodeRef> {
        let mut out: Vec<&NodeRef> = self.edges.keys().flat_map(|(u, v)| [u, v]).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All variable nodes (excluding zero).
    pub fn variables(&self) -> Vec<Path> {
        self.nodes()
            .into_iter()
            .filter_map(|n| match n {
                NodeRef::Var(p) => Some(p.clone()),
                NodeRef::Zero => None,
            })
            .collect()
    }

    /// Iterates over `(source, target, bound)` edges in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (&NodeRef, &NodeRef, Bound)> + '_ {
        self.edges.iter().map(|((u, v), b)| (u, v, *b))
    }

    /// The direct bound between two nodes, if one was asserted.
    pub fn direct_bound(&self, u: &NodeRef, v: &NodeRef) -> Option<Bound> {
        self.edges.get(&(u.clone(), v.clone())).copied()
    }

    /// Asserts `u − v (≤|<) bound`, keeping the tightest bound per pair.
    /// Self-loops with feasible bounds (`u − u ≤ c`, `c ≥ 0`) are vacuous
    /// and dropped; infeasible self-loops are kept to mark unsatisfiability.
    pub fn add_edge(&mut self, u: NodeRef, v: NodeRef, bound: Bound) {
        if u == v && !bound.cycle_is_infeasible() {
            return;
        }
        self.edges
            .entry((u, v))
            .and_modify(|b| *b = b.min(bound))
            .or_insert(bound);
    }

    /// Normalizes an atom into edges and adds them.
    ///
    /// * `$v ≤ c`  ⇒ edge `v → 0` weight `c`
    /// * `$v ≥ c`  ⇒ edge `0 → v` weight `−c`
    /// * `$v ≤ $w + c` ⇒ edge `v → w` weight `c`
    /// * `$v ≥ $w + c` ⇒ edge `w → v` weight `−c`
    /// * `=` asserts both directions; strict forms set the strict flag.
    fn add_atom(&mut self, atom: &Atom) {
        let v = NodeRef::Var(atom.var.clone());
        let (w, c) = match &atom.rhs {
            Term::Const(c) => (NodeRef::Zero, *c),
            Term::VarPlus(w, c) => (NodeRef::Var(w.clone()), *c),
        };
        match atom.op {
            CompOp::Le => self.add_edge(v, w, Bound::le(c)),
            CompOp::Lt => self.add_edge(v, w, Bound::lt(c)),
            CompOp::Ge => self.add_edge(w, v, Bound::le(-c)),
            CompOp::Gt => self.add_edge(w, v, Bound::lt(-c)),
            CompOp::Eq => {
                self.add_edge(v.clone(), w.clone(), Bound::le(c));
                self.add_edge(w, v, Bound::le(-c));
            }
        }
    }

    /// All-pairs tightest derived bounds (Floyd–Warshall over the bound
    /// semiring), as a dense matrix over this graph's nodes.
    pub fn closure(&self) -> Closure {
        let nodes: Vec<NodeRef> = self.nodes().into_iter().cloned().collect();
        let n = nodes.len();
        let mut closure = Closure {
            nodes,
            dist: vec![None; n * n],
            overflowed: false,
        };
        for ((u, v), b) in &self.edges {
            let (i, j) = (closure.index_of(u), closure.index_of(v));
            closure.dist[i * n + j] = Some(*b);
        }
        let (dist, overflowed) = (&mut closure.dist, &mut closure.overflowed);
        for k in 0..n {
            for i in 0..n {
                let Some(ik) = dist[i * n + k] else { continue };
                // Row k is read while row i is written; for i = k each cell
                // reads only itself, so updating in place changes nothing.
                for j in 0..n {
                    let Some(kj) = dist[k * n + j] else { continue };
                    let Some(via) = ik.compose(kj) else {
                        *overflowed = true;
                        continue;
                    };
                    let cell = &mut dist[i * n + j];
                    *cell = Some(match *cell {
                        Some(existing) => existing.min(via),
                        None => via,
                    });
                }
            }
        }
        closure
    }

    /// `true` if some assignment of decimals to variables satisfies all
    /// atoms — i.e. the graph has no infeasible cycle. The paper rejects
    /// subscriptions with unsatisfiable predicates at registration time.
    pub fn is_satisfiable(&self) -> bool {
        self.closure().is_satisfiable()
    }

    /// `true` if this predicate implies the atom (every satisfying
    /// assignment of `self` satisfies `atom`). An unsatisfiable predicate
    /// implies everything.
    pub fn implies_atom(&self, atom: &Atom) -> bool {
        implied_by_closure(&PredicateGraph::from_atoms([atom]), &self.closure())
    }

    /// Minimizes the predicate: removes every edge whose bound is implied by
    /// the remaining edges. The paper performs this once per subscription at
    /// registration. Unsatisfiable graphs are returned unchanged.
    pub fn minimize(&self) -> PredicateGraph {
        self.minimize_with(&self.closure())
    }

    /// [`minimize`](PredicateGraph::minimize) given `closure`, this graph's
    /// [`closure`](PredicateGraph::closure), for a caller that has already
    /// computed it (to test satisfiability, say).
    ///
    /// Edges are tried in order; one stays removed when the edges still in
    /// the graph derive a bound at least as tight between its endpoints.
    /// Each test is a Bellman–Ford from the edge's source over node
    /// indices, `O(n·m)` rather than a closure's `O(n³)`.
    pub fn minimize_with(&self, closure: &Closure) -> PredicateGraph {
        if !closure.is_satisfiable() {
            return self.clone();
        }
        let edges: Vec<(usize, usize, Bound)> = self
            .edges
            .iter()
            .map(|((u, v), b)| (closure.index_of(u), closure.index_of(v), *b))
            .collect();
        let mut live = vec![true; edges.len()];
        let mut dist: Vec<Option<Bound>> = vec![None; closure.nodes.len()];
        for (e, &(u, v, bound)) in edges.iter().enumerate() {
            live[e] = false;
            let derived = tightest_path(&edges, &live, u, v, &mut dist);
            live[e] = !derived.is_some_and(|have| have.implies(bound));
        }
        PredicateGraph {
            edges: self
                .edges
                .iter()
                .zip(live)
                .filter(|(_, keep)| *keep)
                .map(|((key, b), _)| (key.clone(), *b))
                .collect(),
        }
    }

    /// The *hull* of two predicates: the tightest conjunctive predicate
    /// implied by **both** (per node pair, the looser of the two derived
    /// bounds; pairs bounded in only one input are unbounded in the hull).
    ///
    /// This is the widening operation of the paper's ongoing work: a stream
    /// filtered with `hull(σ₁, σ₂)` contains every item either subscription
    /// needs, so both can share it after re-applying their own selections.
    /// For interval predicates the hull is the bounding box.
    pub fn hull(&self, other: &PredicateGraph) -> PredicateGraph {
        // An unsatisfiable side contributes no items; the hull is then the
        // other predicate.
        let a = self.closure();
        if !a.is_satisfiable() {
            return other.minimize();
        }
        let b = other.closure();
        if !b.is_satisfiable() {
            return self.minimize_with(&a);
        }
        let mut out = PredicateGraph::new();
        for (u, v, ba) in a.edges() {
            let Some(bb) = b.direct_bound(u, v) else {
                continue; // unbounded in `other` ⇒ unbounded in the hull
            };
            // Variable-to-variable bounds enter the hull only when both
            // inputs asserted one directly. Closures also derive var-var
            // bounds from independent per-variable ranges; carrying those
            // into the hull would add join-like constraints that are
            // marginally tighter than the hull's own ranges — semantically
            // near-redundant, but noise for downstream matching and
            // selectivity estimation. Dropping them only loosens the hull,
            // which stays implied by both inputs.
            let both_vars = matches!(u, NodeRef::Var(_)) && matches!(v, NodeRef::Var(_));
            if both_vars
                && !(self.direct_bound(u, v).is_some() && other.direct_bound(u, v).is_some())
            {
                continue;
            }
            // The looser bound is the one implied by both.
            let loose = if ba.implies(bb) { bb } else { ba };
            out.add_edge(u.clone(), v.clone(), loose);
        }
        out.minimize()
    }

    /// Evaluates the predicate against one stream item: every edge
    /// constraint must hold, with missing/non-numeric elements failing
    /// closed. Compiles per call — an operator that sees a stream keeps the
    /// [`compile`](PredicateGraph::compile)d form.
    pub fn evaluate(&self, item: &Node) -> bool {
        self.compile().evaluate(item, &mut Vec::new())
    }
}

/// The tightest bound the `live` edges among `edges` (source index, target
/// index, bound) derive on `from − to`, by Bellman–Ford from `from`; `dist`
/// is scratch space of one slot per node. The edges must be satisfiable:
/// no cycle then tightens a bound, so at most one round per node settles
/// every distance. A path whose bound leaves the decimal range is not
/// followed, which can only make the result looser.
fn tightest_path(
    edges: &[(usize, usize, Bound)],
    live: &[bool],
    from: usize,
    to: usize,
    dist: &mut [Option<Bound>],
) -> Option<Bound> {
    dist.fill(None);
    dist[from] = Some(Bound::le(Decimal::ZERO));
    for _ in 0..dist.len() {
        let mut changed = false;
        for (&(u, v, b), _) in edges.iter().zip(live).filter(|(_, live)| **live) {
            let Some(via) = dist[u].and_then(|du| du.compose(b)) else {
                continue;
            };
            if dist[v].is_none_or(|dv| !dv.implies(via)) {
                dist[v] = Some(via);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist[to]
}

/// The closure of a [`PredicateGraph`]: the tightest bound its edges derive
/// between every ordered pair of its nodes, as a dense matrix over the
/// graph's sorted node list. One closure answers satisfiability,
/// implication and matching, and lets [`PredicateGraph::minimize_with`]
/// skip a second one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Closure {
    /// The graph's nodes, sorted: a node's position is its index.
    nodes: Vec<NodeRef>,
    /// Row-major `n × n`: cell `i·n + j` bounds `nodes[i] − nodes[j]`;
    /// `None` where no path leads. The diagonal holds the tightest cycle
    /// through each node.
    dist: Vec<Option<Bound>>,
    /// Whether some path's bound left the decimal range and was dropped.
    overflowed: bool,
}

impl Closure {
    /// The nodes, sorted; [`bound`](Closure::bound) indexes into this list.
    pub fn nodes(&self) -> &[NodeRef] {
        &self.nodes
    }

    /// The index of `node`, if the graph mentions it.
    fn index(&self, node: &NodeRef) -> Option<usize> {
        self.nodes.binary_search(node).ok()
    }

    /// The index of a node of the closed graph.
    fn index_of(&self, node: &NodeRef) -> usize {
        self.index(node).expect("a node of the closed graph")
    }

    /// The tightest derived bound on `nodes()[i] − nodes()[j]`, if any path
    /// leads from `i` to `j`. For `i = j` this is the tightest cycle
    /// through the node, feasible or not.
    pub fn bound(&self, i: usize, j: usize) -> Option<Bound> {
        self.dist[i * self.nodes.len() + j]
    }

    /// The tightest derived bound on `u − v`. Feasible cycles are vacuous
    /// and read as no bound, as they do in a [`PredicateGraph`].
    pub fn direct_bound(&self, u: &NodeRef, v: &NodeRef) -> Option<Bound> {
        let b = self.bound(self.index(u)?, self.index(v)?)?;
        (u != v || b.cycle_is_infeasible()).then_some(b)
    }

    /// The derived bounds as `(source, target, bound)` edges, in the order
    /// of a [`PredicateGraph`]'s edges; feasible cycles are left out.
    pub fn edges(&self) -> impl Iterator<Item = (&NodeRef, &NodeRef, Bound)> + '_ {
        let n = self.nodes.len();
        self.dist.iter().enumerate().filter_map(move |(cell, b)| {
            let (i, j) = (cell / n, cell % n);
            let b = (*b)?;
            (i != j || b.cycle_is_infeasible()).then(|| (&self.nodes[i], &self.nodes[j], b))
        })
    }

    /// `true` if some path's bound left the decimal range
    /// ([`Bound::compose`]). Such a path is left out, so the closure may
    /// derive looser bounds than the graph implies — never tighter ones —
    /// and miss an infeasible cycle: its answers are then incomplete.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// `true` if no cycle is infeasible: the graph's atoms have a solution.
    pub fn is_satisfiable(&self) -> bool {
        (0..self.nodes.len()).all(|i| !self.bound(i, i).is_some_and(Bound::cycle_is_infeasible))
    }
}

impl fmt::Display for PredicateGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for ((u, v), b) in &self.edges {
            if !first {
                write!(f, " and ")?;
            }
            first = false;
            write!(f, "{u} - {v} {b}")?;
        }
        if first {
            write!(f, "true")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_xml::Decimal;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    /// Query 1's selection predicate (the Vela region, Figure 3/4).
    pub fn q1_atoms() -> Vec<Atom> {
        vec![
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("120.0")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("138.0")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Ge, d("-49.0")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Le, d("-40.0")),
        ]
    }

    /// Query 2's selection predicate (RX J0852.0-4622 plus the energy cut).
    pub fn q2_atoms() -> Vec<Atom> {
        vec![
            Atom::var_const(p("en"), CompOp::Ge, d("1.3")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("130.5")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("135.5")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Ge, d("-48.0")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Le, d("-45.0")),
        ]
    }

    #[test]
    fn q1_graph_structure_matches_figure3() {
        let g = PredicateGraph::from_atoms(&q1_atoms());
        // Nodes: zero, ra, dec.
        assert_eq!(g.nodes().len(), 3);
        // ra ≤ 138 ⇒ ra→0 weight 138; ra ≥ 120 ⇒ 0→ra weight −120; etc.
        let ra = NodeRef::Var(p("coord/cel/ra"));
        let dec = NodeRef::Var(p("coord/cel/dec"));
        assert_eq!(
            g.direct_bound(&ra, &NodeRef::Zero),
            Some(Bound::le(d("138.0")))
        );
        assert_eq!(
            g.direct_bound(&NodeRef::Zero, &ra),
            Some(Bound::le(d("-120.0")))
        );
        assert_eq!(
            g.direct_bound(&dec, &NodeRef::Zero),
            Some(Bound::le(d("-40.0")))
        );
        assert_eq!(
            g.direct_bound(&NodeRef::Zero, &dec),
            Some(Bound::le(d("49.0")))
        );
    }

    #[test]
    fn parallel_atoms_keep_tightest() {
        let mut g = PredicateGraph::new();
        g.add_atom(&Atom::var_const(p("en"), CompOp::Le, d("3")));
        g.add_atom(&Atom::var_const(p("en"), CompOp::Le, d("2")));
        g.add_atom(&Atom::var_const(p("en"), CompOp::Lt, d("2")));
        let en = NodeRef::Var(p("en"));
        assert_eq!(g.direct_bound(&en, &NodeRef::Zero), Some(Bound::lt(d("2"))));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn satisfiability() {
        let g = PredicateGraph::from_atoms(&q1_atoms());
        assert!(g.is_satisfiable());

        // en ≥ 2 and en ≤ 1 is unsatisfiable.
        let bad = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("2")),
            Atom::var_const(p("en"), CompOp::Le, d("1")),
        ]);
        assert!(!bad.is_satisfiable());

        // en ≥ 1 and en ≤ 1 is satisfiable (en = 1)…
        let tight = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("1")),
            Atom::var_const(p("en"), CompOp::Le, d("1")),
        ]);
        assert!(tight.is_satisfiable());

        // …but en ≥ 1 and en < 1 is not: strictness matters.
        let strict = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("1")),
            Atom::var_const(p("en"), CompOp::Lt, d("1")),
        ]);
        assert!(!strict.is_satisfiable());
    }

    #[test]
    fn transitive_unsatisfiability_through_variables() {
        // a ≤ b, b ≤ c, c ≤ a − 1 forms a negative cycle.
        let g = PredicateGraph::from_atoms(&[
            Atom::var_var(p("a"), CompOp::Le, p("b"), d("0")),
            Atom::var_var(p("b"), CompOp::Le, p("c"), d("0")),
            Atom::var_var(p("c"), CompOp::Le, p("a"), d("-1")),
        ]);
        assert!(!g.is_satisfiable());
    }

    #[test]
    fn implies_atom_direct_and_derived() {
        let g = PredicateGraph::from_atoms(&q2_atoms());
        // Direct: ra ≥ 130.5 implies ra ≥ 120.0 (the Q1 bound).
        assert!(g.implies_atom(&Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("120.0"))));
        // Not implied: ra ≥ 131.
        assert!(!g.implies_atom(&Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("131"))));
        // Derived through a variable chain: a ≤ b + 1, b ≤ 2 ⇒ a ≤ 3.
        let chain = PredicateGraph::from_atoms(&[
            Atom::var_var(p("a"), CompOp::Le, p("b"), d("1")),
            Atom::var_const(p("b"), CompOp::Le, d("2")),
        ]);
        assert!(chain.implies_atom(&Atom::var_const(p("a"), CompOp::Le, d("3"))));
        assert!(chain.implies_atom(&Atom::var_const(p("a"), CompOp::Le, d("3.5"))));
        assert!(!chain.implies_atom(&Atom::var_const(p("a"), CompOp::Le, d("2.9"))));
        assert!(!chain.implies_atom(&Atom::var_const(p("a"), CompOp::Lt, d("3"))));
    }

    #[test]
    fn strict_implication() {
        let g = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Gt, d("1.3"))]);
        assert!(g.implies_atom(&Atom::var_const(p("en"), CompOp::Ge, d("1.3"))));
        assert!(g.implies_atom(&Atom::var_const(p("en"), CompOp::Gt, d("1.3"))));
        assert!(!g.implies_atom(&Atom::var_const(p("en"), CompOp::Ge, d("1.4"))));
        let ge = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.3"))]);
        assert!(!ge.implies_atom(&Atom::var_const(p("en"), CompOp::Gt, d("1.3"))));
    }

    #[test]
    fn unsatisfiable_implies_everything() {
        let bad = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("2")),
            Atom::var_const(p("en"), CompOp::Le, d("1")),
        ]);
        assert!(bad.implies_atom(&Atom::var_const(p("other"), CompOp::Le, d("0"))));
    }

    #[test]
    fn equality_asserts_both_directions() {
        let g = PredicateGraph::from_atoms(&[Atom::var_const(p("phc"), CompOp::Eq, d("5"))]);
        assert!(g.implies_atom(&Atom::var_const(p("phc"), CompOp::Le, d("5"))));
        assert!(g.implies_atom(&Atom::var_const(p("phc"), CompOp::Ge, d("5"))));
        assert!(g.implies_atom(&Atom::var_const(p("phc"), CompOp::Le, d("6"))));
        assert!(!g.implies_atom(&Atom::var_const(p("phc"), CompOp::Ge, d("6"))));
    }

    #[test]
    fn minimize_drops_redundant_atoms() {
        let g = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("1.3")),
            Atom::var_const(p("en"), CompOp::Ge, d("1.0")), // redundant
            Atom::var_const(p("en"), CompOp::Le, d("5")),
        ]);
        // The two ≥ atoms merge into one edge already (tightest-bound
        // merge), so minimize keeps 2 edges.
        assert_eq!(g.minimize().edge_count(), 2);

        // Transitively redundant edge: a ≤ b, b ≤ 0 imply a ≤ 0.
        let g = PredicateGraph::from_atoms(&[
            Atom::var_var(p("a"), CompOp::Le, p("b"), d("0")),
            Atom::var_const(p("b"), CompOp::Le, d("0")),
            Atom::var_const(p("a"), CompOp::Le, d("0")),
        ]);
        assert_eq!(g.edge_count(), 3);
        let m = g.minimize();
        assert_eq!(m.edge_count(), 2);
        // Semantics preserved:
        assert!(m.implies_atom(&Atom::var_const(p("a"), CompOp::Le, d("0"))));
    }

    #[test]
    fn minimize_preserves_satisfiable_semantics() {
        // With x = y the whole graph's closure derives x ≤ 5 through y, but
        // only via the edge x ≤ 5 itself, which must stay.
        let equality = vec![
            Atom::var_var(p("x"), CompOp::Eq, p("y"), d("0")),
            Atom::var_const(p("x"), CompOp::Le, d("5")),
        ];
        for atoms in [q2_atoms(), equality] {
            let g = PredicateGraph::from_atoms(&atoms);
            let m = g.minimize();
            for atom in &atoms {
                assert!(
                    m.implies_atom(atom),
                    "minimized graph must still imply {atom}"
                );
            }
            assert!(m.edge_count() <= g.edge_count());
        }
    }

    #[test]
    fn evaluate_against_items() {
        let g = PredicateGraph::from_atoms(&q1_atoms());
        let inside = Node::elem(
            "photon",
            vec![Node::elem(
                "coord",
                vec![Node::elem(
                    "cel",
                    vec![Node::leaf("ra", "130.7"), Node::leaf("dec", "-46.2")],
                )],
            )],
        );
        assert!(g.evaluate(&inside));
        let outside = Node::elem(
            "photon",
            vec![Node::elem(
                "coord",
                vec![Node::elem(
                    "cel",
                    vec![Node::leaf("ra", "100.0"), Node::leaf("dec", "-46.2")],
                )],
            )],
        );
        assert!(!g.evaluate(&outside));
        // Missing elements fail closed.
        assert!(!g.evaluate(&Node::empty("photon")));
        // The trivial predicate accepts everything.
        assert!(PredicateGraph::new().evaluate(&Node::empty("photon")));
    }

    #[test]
    fn display_is_stable() {
        let g = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.3"))]);
        assert_eq!(g.to_string(), "0 - $en ≤ -1.3");
        assert_eq!(PredicateGraph::new().to_string(), "true");
    }

    #[test]
    fn closure_contains_derived_edges() {
        let g = PredicateGraph::from_atoms(&[
            Atom::var_var(p("a"), CompOp::Le, p("b"), d("1")),
            Atom::var_const(p("b"), CompOp::Lt, d("2")),
        ]);
        let c = g.closure();
        let a = NodeRef::Var(p("a"));
        assert_eq!(c.direct_bound(&a, &NodeRef::Zero), Some(Bound::lt(d("3"))));
    }

    #[test]
    fn hull_is_implied_by_both_inputs() {
        let g1 = PredicateGraph::from_atoms(&q1_atoms());
        let g2 = PredicateGraph::from_atoms(&q2_atoms());
        let h = g1.hull(&g2);
        // The hull is implied by each input.
        assert!(crate::matching::match_predicates(&h, &g1));
        assert!(crate::matching::match_predicates(&h, &g2));
        // Q2's region is inside Q1's and Q2's extra en-cut is unbounded in
        // Q1, so the hull is exactly Q1's predicate.
        assert_eq!(h, g1.minimize());
    }

    #[test]
    fn hull_of_disjoint_ranges_is_bounding_box() {
        let low = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("1")),
            Atom::var_const(p("en"), CompOp::Le, d("2")),
        ]);
        let high = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("5")),
            Atom::var_const(p("en"), CompOp::Le, d("6")),
        ]);
        let h = low.hull(&high);
        assert!(h.implies_atom(&Atom::var_const(p("en"), CompOp::Ge, d("1"))));
        assert!(h.implies_atom(&Atom::var_const(p("en"), CompOp::Le, d("6"))));
        assert!(!h.implies_atom(&Atom::var_const(p("en"), CompOp::Le, d("5.9"))));
        assert!(!h.implies_atom(&Atom::var_const(p("en"), CompOp::Ge, d("1.1"))));
    }

    #[test]
    fn hull_drops_one_sided_constraints() {
        let with_en = PredicateGraph::from_atoms(&[
            Atom::var_const(p("ra"), CompOp::Ge, d("120")),
            Atom::var_const(p("en"), CompOp::Ge, d("1.3")),
        ]);
        let without_en =
            PredicateGraph::from_atoms(&[Atom::var_const(p("ra"), CompOp::Ge, d("100"))]);
        let h = with_en.hull(&without_en);
        assert!(h.implies_atom(&Atom::var_const(p("ra"), CompOp::Ge, d("100"))));
        // en is unconstrained in one input, so the hull drops it entirely.
        assert!(!h.implies_atom(&Atom::var_const(p("en"), CompOp::Ge, d("0"))));
    }

    #[test]
    fn hull_with_trivial_is_trivial() {
        let g = PredicateGraph::from_atoms(&q1_atoms());
        assert!(g.hull(&PredicateGraph::new()).is_trivial());
        assert!(PredicateGraph::new().hull(&g).is_trivial());
    }

    #[test]
    fn hull_with_unsatisfiable_is_other_side() {
        let g = PredicateGraph::from_atoms(&q1_atoms());
        let bad = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("2")),
            Atom::var_const(p("en"), CompOp::Le, d("1")),
        ]);
        assert_eq!(g.hull(&bad), g.minimize());
        assert_eq!(bad.hull(&g), g.minimize());
    }

    #[test]
    fn hull_respects_strictness() {
        let strict = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Lt, d("2"))]);
        let loose = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Le, d("2"))]);
        let h = strict.hull(&loose);
        // ≤ 2 is the looser bound.
        assert!(h.implies_atom(&Atom::var_const(p("en"), CompOp::Le, d("2"))));
        assert!(!h.implies_atom(&Atom::var_const(p("en"), CompOp::Lt, d("2"))));
    }

    #[test]
    fn variables_listed() {
        let g = PredicateGraph::from_atoms(&q2_atoms());
        assert_eq!(
            g.variables(),
            vec![p("coord/cel/dec"), p("coord/cel/ra"), p("en")]
        );
    }
}
