//! Conjunctive predicate graphs (paper Section 3.3, "Matching Predicates").
//!
//! Predicates in WXQuery are conjunctions of atomic predicates of the form
//! `$v θ c` or `$v θ $w + c` with `θ ∈ {=, <, ≤, >, ≥}`. Following the
//! paper — which extends Rosenkrantz & Hunt's classic treatment of
//! conjunctive predicates — every predicate is normalized into a *weighted
//! directed graph*:
//!
//! * each variable (an absolute element path such as `coord/cel/ra`) becomes
//!   a node, plus a distinguished node for the constant zero,
//! * `$v ≤ $w + c` becomes an edge `v → w` with weight `c`,
//! * `$v ≤ c` becomes an edge `v → zero` with weight `c`,
//! * `$v ≥ c` (i.e. `0 ≤ $v − c`) becomes an edge `zero → v` with weight
//!   `−c`.
//!
//! On this graph we provide
//!
//! * **satisfiability** (no negative cycle — an unsatisfiable subscription
//!   can be rejected at registration),
//! * **minimization** (drop atoms implied by the rest — the paper minimizes
//!   predicates once at registration), and
//! * **implication** (`G' ⇒ ζ(x)` via tightest derived bounds), the engine
//!   behind Algorithm 3's `MatchPredicates`.
//!
//! Strict comparisons are tracked *exactly*: a bound is a pair (weight,
//! strict?) so `<` needs no epsilon hacks and implication is sound and
//! complete over decimal-valued variables.

pub mod atom;
pub mod bound;
pub mod compiled;
pub mod graph;
pub mod matching;

pub use atom::{Atom, CompOp, Term};
pub use bound::Bound;
pub use compiled::CompiledPredicate;
pub use graph::{Closure, NodeRef, PredicateGraph};
pub use matching::{implied_by_closure, match_predicates, match_predicates_edgewise};
