//! The statistics catalog feeding the cost model.
//!
//! Section 3.2: "Cost function inputs like average frequencies of data
//! stream items, average sizes and occurrences of elements, and
//! selectivities of operators are obtained from statistics and selectivity
//! estimations." We build these statistics by sampling each registered
//! stream's items: per element path we track average occurrence and
//! serialized subtree size; per numeric leaf we track the observed value
//! range (for uniform-range selectivity estimation) and the average
//! increment between consecutive items (for estimating the output frequency
//! of value-based data windows).

use std::collections::BTreeMap;

use dss_predicate::{NodeRef, PredicateGraph};
use dss_xml::writer::serialized_size;
use dss_xml::{Decimal, Node, Path};

/// Per-element-path statistics.
#[derive(Debug, Clone, Default)]
pub struct PathStat {
    /// Average occurrences of the element per stream item (`occ(ns)`).
    pub occurrence: f64,
    /// Average serialized size of one occurrence's subtree, including its
    /// tags (`size(ns)`).
    pub subtree_size: f64,
    /// Element name length in bytes (for tag-overhead computations).
    pub name_len: usize,
}

/// Statistics of one data stream.
#[derive(Debug, Clone)]
pub struct StreamStats {
    /// Average serialized size of one stream item in bytes (`size(s)`).
    pub item_size: f64,
    /// Average item frequency in items per second (`freq(s)`).
    pub frequency: f64,
    /// Item element name length (root tag overhead).
    pub item_name_len: usize,
    /// Per-path statistics (paths relative to the item root).
    pub paths: BTreeMap<Path, PathStat>,
    /// Observed value range per numeric leaf path.
    pub ranges: BTreeMap<Path, (Decimal, Decimal)>,
    /// Average increment of each numeric leaf between consecutive items
    /// (meaningful for ordered reference elements such as `det_time`).
    pub increments: BTreeMap<Path, f64>,
}

/// Default selectivity for predicates over elements without observed
/// statistics.
pub const DEFAULT_SELECTIVITY: f64 = 0.33;
/// Selectivity attributed to each variable-to-variable constraint.
pub const VAR_VAR_SELECTIVITY: f64 = 0.5;
/// Floor applied to estimated selectivities (equality predicates on
/// continuous domains would otherwise estimate to zero).
pub const MIN_SELECTIVITY: f64 = 0.001;

impl StreamStats {
    /// Builds statistics from a sample of stream items and the stream's
    /// item frequency (items per second). An empty sample is a stream that
    /// carries nothing: zero item size and no observed paths, so every
    /// traffic estimate derived from it is zero.
    ///
    /// # Panics
    /// Panics if the frequency is not positive.
    pub fn from_sample(sample: &[Node], frequency: f64) -> StreamStats {
        assert!(frequency > 0.0, "stream frequency must be positive");
        // Averages over no items are zero, not NaN.
        let n = sample.len().max(1) as f64;
        let mut counts: BTreeMap<Path, (u64, u64, usize)> = BTreeMap::new(); // occurrences, bytes, name len
        let mut values: BTreeMap<Path, Vec<Decimal>> = BTreeMap::new();
        let mut total_size = 0u64;
        for item in sample {
            total_size += serialized_size(item) as u64;
            collect(item, &Path::this(), &mut counts, &mut values);
        }
        let mut paths = BTreeMap::new();
        for (path, (occ, bytes, name_len)) in counts {
            paths.insert(
                path,
                PathStat {
                    occurrence: occ as f64 / n,
                    subtree_size: bytes as f64 / occ as f64,
                    name_len,
                },
            );
        }
        let mut ranges = BTreeMap::new();
        let mut increments = BTreeMap::new();
        for (path, vals) in values {
            let min = *vals.iter().min().expect("non-empty");
            let max = *vals.iter().max().expect("non-empty");
            ranges.insert(path.clone(), (min, max));
            if vals.len() > 1 {
                let mut inc_sum = 0.0;
                for w in vals.windows(2) {
                    inc_sum += (w[1] - w[0]).to_f64();
                }
                increments.insert(path, inc_sum / (vals.len() - 1) as f64);
            }
        }
        StreamStats {
            item_size: total_size as f64 / n,
            frequency,
            item_name_len: sample.first().map_or(0, |item| item.name().len()),
            paths,
            ranges,
            increments,
        }
    }

    /// Statistic for one path, if observed.
    pub fn path_stat(&self, path: &Path) -> Option<&PathStat> {
        self.paths.get(path)
    }

    /// Average increment of an ordered reference element between
    /// consecutive items. Falls back to 1.0 when unobserved (count-like
    /// references).
    pub fn avg_increment(&self, path: &Path) -> f64 {
        self.increments
            .get(path)
            .copied()
            .filter(|v| *v > 0.0)
            .unwrap_or(1.0)
    }

    /// Estimates the selectivity `sel(σ)` of a conjunctive predicate using
    /// per-variable uniform-range estimation with attribute independence.
    ///
    /// The predicate is canonicalized (minimized) first so the estimate
    /// does not depend on the caller's syntactic form: vacuous asserted
    /// var-to-var atoms and bounds derived purely from per-variable ranges
    /// (e.g. by `hull`) are dropped before counting join-like factors.
    /// Equalities pinned by surrounding range atoms can still lose one of
    /// their two edges to minimization — an accepted wobble of a heuristic
    /// that only steers plan choice, never result correctness.
    pub fn selectivity(&self, predicate: &PredicateGraph) -> f64 {
        if predicate.is_trivial() {
            return 1.0;
        }
        if !predicate.is_satisfiable() {
            return 0.0;
        }
        let closure = predicate.closure();
        let mut sel = 1.0;
        for var in predicate.variables() {
            let node = NodeRef::Var(var.clone());
            // Derived bounds: v ≤ hi (edge v→0), v ≥ lo (edge 0→v with
            // weight −lo).
            let hi = closure
                .direct_bound(&node, &NodeRef::Zero)
                .map(|b| b.weight);
            let lo = closure
                .direct_bound(&NodeRef::Zero, &node)
                .map(|b| -b.weight);
            let Some((obs_min, obs_max)) = self.ranges.get(&var) else {
                sel *= DEFAULT_SELECTIVITY;
                continue;
            };
            let span = (*obs_max - *obs_min).to_f64();
            if span <= 0.0 {
                // Degenerate observed range: the predicate either keeps the
                // single value or drops it.
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
        // Variable-to-variable constraints get a fixed factor each — but
        // only *genuine* join constraints: a var-to-var edge that is
        // already implied by the per-variable ranges alone (derived through
        // the zero node, e.g. in hull outputs, or asserted vacuously) adds
        // no selectivity beyond those ranges and must not masquerade as a
        // join predicate.
        // Work on the closure: it contains the complete per-variable range
        // information regardless of which syntactic form (raw, minimized,
        // hull output) the caller passed.
        let mut ranges_only = PredicateGraph::new();
        for (u, v, b) in closure.edges() {
            if *u == NodeRef::Zero || *v == NodeRef::Zero {
                ranges_only.add_edge(u.clone(), v.clone(), b);
            }
        }
        let range_closure = ranges_only.closure();
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

    /// Estimated average serialized item size after projecting to the
    /// output set `output` (the cost model's
    /// `size(s) − Σ_{ns ∉ Π} occ(ns)·size(ns)`, computed constructively
    /// from the kept subtrees plus structural ancestor tags).
    pub fn projected_size(&self, output: &std::collections::BTreeSet<Path>) -> f64 {
        // Root item tags.
        let mut size = (2 * self.item_name_len + 5) as f64;
        // Kept subtrees (dropping entries covered by a kept ancestor).
        let kept: Vec<&Path> = output
            .iter()
            .filter(|o| {
                !output
                    .iter()
                    .any(|other| *other != **o && other.is_prefix_of(o))
            })
            .collect();
        for o in &kept {
            if let Some(st) = self.paths.get(*o) {
                size += st.occurrence * st.subtree_size;
            }
        }
        // Structural ancestors of kept paths (tags only).
        let mut ancestors: std::collections::BTreeSet<Path> = std::collections::BTreeSet::new();
        for o in &kept {
            let mut prefix = Path::this();
            for step in &o.steps()[..o.len().saturating_sub(1)] {
                prefix = prefix.child(step.as_str()).expect("validated step");
                ancestors.insert(prefix.clone());
            }
        }
        for a in ancestors {
            if let Some(st) = self.paths.get(&a) {
                size += st.occurrence * (2 * st.name_len + 5) as f64;
            }
        }
        size.min(self.item_size)
    }
}

fn collect(
    node: &Node,
    path: &Path,
    counts: &mut BTreeMap<Path, (u64, u64, usize)>,
    values: &mut BTreeMap<Path, Vec<Decimal>>,
) {
    for child in node.children() {
        let child_path = path.child(child.name()).expect("parsed names are valid");
        let entry = counts
            .entry(child_path.clone())
            .or_insert((0, 0, child.name().len()));
        entry.0 += 1;
        entry.1 += serialized_size(child) as u64;
        if let Some(v) = child.decimal() {
            values.entry(child_path.clone()).or_default().push(v);
        }
        collect(child, &child_path, counts, values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_predicate::{Atom, CompOp};
    use std::collections::BTreeSet;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn sample() -> Vec<Node> {
        (0..100)
            .map(|i| {
                Node::elem(
                    "photon",
                    vec![
                        Node::elem(
                            "coord",
                            vec![Node::elem(
                                "cel",
                                vec![
                                    Node::leaf("ra", format!("{}", 100.0 + i as f64)),
                                    Node::leaf("dec", format!("{}", -50.0 + (i % 10) as f64)),
                                ],
                            )],
                        ),
                        Node::leaf("en", format!("{}", 1.0 + (i % 5) as f64 / 10.0)),
                        Node::leaf("det_time", format!("{}", i * 2)),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn basic_stats() {
        let s = StreamStats::from_sample(&sample(), 50.0);
        assert_eq!(s.frequency, 50.0);
        assert!(s.item_size > 50.0);
        let en = s.path_stat(&p("en")).unwrap();
        assert_eq!(en.occurrence, 1.0);
        assert!(en.subtree_size > 10.0);
        let (lo, hi) = s.ranges[&p("en")];
        assert_eq!(lo, d("1"));
        assert_eq!(hi, d("1.4"));
    }

    #[test]
    fn increments_track_reference_elements() {
        let s = StreamStats::from_sample(&sample(), 50.0);
        assert!((s.avg_increment(&p("det_time")) - 2.0).abs() < 1e-9);
        // Unobserved path falls back to 1.0.
        assert_eq!(s.avg_increment(&p("nope")), 1.0);
    }

    #[test]
    fn selectivity_uniform_range() {
        let s = StreamStats::from_sample(&sample(), 50.0);
        // ra uniform over [100, 199]; ra >= 149.5 keeps ~half.
        let g = PredicateGraph::from_atoms(&[Atom::var_const(
            p("coord/cel/ra"),
            CompOp::Ge,
            d("149.5"),
        )]);
        let sel = s.selectivity(&g);
        assert!((sel - 0.5).abs() < 0.02, "got {sel}");
        // A range predicate.
        let g = PredicateGraph::from_atoms(&[
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("120")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("138")),
        ]);
        let sel = s.selectivity(&g);
        assert!((sel - 18.0 / 99.0).abs() < 0.02, "got {sel}");
    }

    #[test]
    fn selectivity_composes_independent_vars() {
        let s = StreamStats::from_sample(&sample(), 50.0);
        let g = PredicateGraph::from_atoms(&[
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("149.5")),
            Atom::var_const(p("en"), CompOp::Ge, d("1.2")),
        ]);
        let sel = s.selectivity(&g);
        // ~0.5 × 0.5.
        assert!(sel > 0.15 && sel < 0.35, "got {sel}");
    }

    #[test]
    fn selectivity_edge_cases() {
        let s = StreamStats::from_sample(&sample(), 50.0);
        assert_eq!(s.selectivity(&PredicateGraph::new()), 1.0);
        // Predicate entirely outside the observed range.
        let g = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("10"))]);
        assert!(s.selectivity(&g) <= MIN_SELECTIVITY + 1e-12);
        // Unsatisfiable.
        let g = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("2")),
            Atom::var_const(p("en"), CompOp::Le, d("1")),
        ]);
        assert_eq!(s.selectivity(&g), 0.0);
        // Unknown element → default.
        let g = PredicateGraph::from_atoms(&[Atom::var_const(p("mystery"), CompOp::Ge, d("0"))]);
        assert!((s.selectivity(&g) - DEFAULT_SELECTIVITY).abs() < 1e-9);
    }

    #[test]
    fn selectivity_invariant_under_syntactic_form() {
        // Minimized and raw forms of the same predicate estimate alike;
        // vacuous asserted var-var atoms and hull-derived edges don't add
        // spurious join factors.
        let s = StreamStats::from_sample(&sample(), 50.0);
        let raw = PredicateGraph::from_atoms(&[
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("120")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("138")),
            // Vacuous: implied by ra ≤ 138 and en ≥ … nothing — actually
            // asserted-but-derivable once bounds exist on both sides.
            Atom::var_const(p("en"), CompOp::Ge, d("1")),
        ]);
        assert!((s.selectivity(&raw) - s.selectivity(&raw.minimize())).abs() < 1e-12);
        // A hull output (built from closures) estimates like the plain
        // bounding-box predicate.
        let a = PredicateGraph::from_atoms(&[
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("100")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("150")),
            Atom::var_const(p("en"), CompOp::Ge, d("1.2")),
        ]);
        let b = PredicateGraph::from_atoms(&[
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("120")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("138")),
            Atom::var_const(p("en"), CompOp::Ge, d("1.1")),
        ]);
        let hull = a.hull(&b);
        let box_pred = PredicateGraph::from_atoms(&[
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("100")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("150")),
            Atom::var_const(p("en"), CompOp::Ge, d("1.1")),
        ]);
        let (sh, sb) = (s.selectivity(&hull), s.selectivity(&box_pred));
        assert!(
            (sh - sb).abs() < 1e-9,
            "hull {sh} vs plain bounding box {sb} should estimate identically"
        );
    }

    #[test]
    fn var_var_predicates_use_fixed_factor() {
        let s = StreamStats::from_sample(&sample(), 50.0);
        let g = PredicateGraph::from_atoms(&[Atom::var_var(
            p("en"),
            CompOp::Le,
            p("coord/cel/dec"),
            d("100"),
        )]);
        let sel = s.selectivity(&g);
        assert!((sel - VAR_VAR_SELECTIVITY).abs() < 1e-9, "got {sel}");
    }

    #[test]
    fn projected_size_shrinks_with_fewer_paths() {
        let s = StreamStats::from_sample(&sample(), 50.0);
        let all: BTreeSet<Path> = [p("coord"), p("en"), p("det_time")].into_iter().collect();
        let some: BTreeSet<Path> = [p("en")].into_iter().collect();
        let full = s.projected_size(&all);
        let partial = s.projected_size(&some);
        assert!(partial < full);
        assert!(full <= s.item_size + 1.0);
        // Projecting a nested leaf keeps ancestor structure.
        let nested: BTreeSet<Path> = [p("coord/cel/ra")].into_iter().collect();
        let nested_size = s.projected_size(&nested);
        let ra = s.path_stat(&p("coord/cel/ra")).unwrap();
        assert!(nested_size > ra.subtree_size);
    }

    #[test]
    fn projected_size_dedupes_covered_paths() {
        let s = StreamStats::from_sample(&sample(), 50.0);
        let covered: BTreeSet<Path> = [p("coord"), p("coord/cel/ra")].into_iter().collect();
        let just_coord: BTreeSet<Path> = [p("coord")].into_iter().collect();
        assert!((s.projected_size(&covered) - s.projected_size(&just_coord)).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_is_a_stream_that_carries_nothing() {
        let s = StreamStats::from_sample(&[], 1.0);
        assert_eq!((s.item_size, s.item_name_len), (0.0, 0));
        assert!(s.paths.is_empty() && s.ranges.is_empty() && s.increments.is_empty());
        // Estimates over it fall back instead of dividing by zero.
        let g = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.3"))]);
        assert_eq!(s.selectivity(&g), DEFAULT_SELECTIVITY);
        assert_eq!(s.avg_increment(&p("det_time")), 1.0);
    }

    /// A stream whose leaves carry no numeric values builds an empty
    /// `ranges` table without tripping the `expect("non-empty")` min/max:
    /// value lists are only created for paths that contributed at least
    /// one decimal, so value-less paths simply have no entry — and every
    /// stat query against them falls back instead of panicking.
    #[test]
    fn valueless_streams_build_stats_and_answer_queries() {
        let sample: Vec<Node> = (0..10)
            .map(|i| {
                Node::elem(
                    "msg",
                    vec![
                        Node::leaf("text", format!("hello-{i}")),
                        Node::elem("empty", Vec::new()),
                    ],
                )
            })
            .collect();
        let s = StreamStats::from_sample(&sample, 5.0);
        assert!(
            s.ranges.is_empty(),
            "no numeric leaf, no range: {:?}",
            s.ranges
        );
        assert!(s.path_stat(&p("text")).is_some());
        assert_eq!(s.avg_increment(&p("text")), 1.0);
        // Selectivity over a range-less variable uses the default factor.
        let g = PredicateGraph::from_atoms(&[Atom::var_const(p("text"), CompOp::Ge, d("1"))]);
        assert_eq!(s.selectivity(&g), DEFAULT_SELECTIVITY);
    }

    /// Mixed streams range only the numeric paths; queries against the
    /// non-numeric ones still answer.
    #[test]
    fn mixed_value_streams_range_only_numeric_paths() {
        let sample: Vec<Node> = (0..10)
            .map(|i| {
                Node::elem(
                    "msg",
                    vec![
                        Node::leaf("en", format!("{}", 1.0 + i as f64)),
                        Node::leaf("label", format!("tag-{i}")),
                    ],
                )
            })
            .collect();
        let s = StreamStats::from_sample(&sample, 5.0);
        assert!(s.ranges.contains_key(&p("en")));
        assert!(!s.ranges.contains_key(&p("label")));
        let g = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("1.0")),
            Atom::var_const(p("label"), CompOp::Ge, d("1.0")),
        ]);
        let sel = s.selectivity(&g);
        assert!(sel > 0.0 && sel <= 1.0, "{sel}");
    }
}
