//! Differential tests: the engine against the naive reference oracle.
//!
//! `dss_oracle::interpreter` re-derives WXQuery semantics from the paper
//! with zero shared execution code; `dss_oracle::harness` generates random
//! streams and subscriptions and asserts byte-exact agreement across the
//! engine pipeline, all three planning strategies with operator fusion on
//! and off, and the live runtime under an injected peer crash.
//!
//! The metamorphic groups below target the *matching* layer, where no
//! second implementation exists to diff against: predicate matching must
//! be an implication (checked by random-valuation sampling), and window
//! compatibility must mean coarse windows are exact merges of fine ones
//! (checked by re-aggregating oracle windows).
//!
//! Budget: `DSS_DIFF_CASES` (default 64) cases per property; CI runs 256.
//! `DSS_PROPTEST_SEED` picks the deterministic case stream; failing seeds
//! are persisted in `proptest-regressions/` and replayed first.

use proptest::prelude::*;

use data_stream_sharing::engine::AggItem;
use data_stream_sharing::predicate::{match_predicates, Atom, CompOp, PredicateGraph};
use data_stream_sharing::properties::AggOp;
use data_stream_sharing::xml::{Decimal, Node, Path};
use dss_oracle::harness::{
    arb_case, check_live, check_live_migration, check_live_resumed, check_live_widening,
    check_network, check_pipeline, check_shrinking, Case,
};
use dss_oracle::interpreter::{diff_windows, Accumulator};

fn diff_cases() -> u32 {
    std::env::var("DSS_DIFF_CASES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(64)
}

// ---------------------------------------------------------------------
// The four end-to-end equivalences
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(diff_cases()))]

    /// Equivalence 1: the engine's operator pipeline produces exactly the
    /// oracle's results, streamed and flushed alike.
    #[test]
    fn engine_pipeline_matches_oracle(case in arb_case()) {
        if let Err(e) = check_shrinking(&case, &check_pipeline) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Equivalences 2 + 3: every planning strategy delivers the oracle's
    /// results, with fused operator DAGs on and off.
    #[test]
    fn network_deployments_match_oracle(case in arb_case()) {
        if let Err(e) = check_shrinking(&case, &check_network) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Equivalence 4: the live runtime with an injected peer crash
    /// re-delivers exactly the oracle's post-recovery results.
    #[test]
    fn live_runtime_with_faults_matches_oracle(case in arb_case()) {
        if let Err(e) = check_shrinking(&case, &check_live) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Equivalence 4, widening split: with stream widening enabled, the
    /// failover re-plans may patch *untouched* queries' flows in place
    /// (restore ops splice in front of their chains). Those queries must
    /// still deliver the whole-stream oracle results — the planned
    /// loss-free handoff has to migrate their open window state across
    /// the in-place rebuild.
    #[test]
    fn live_runtime_widening_matches_oracle(case in arb_case()) {
        if let Err(e) = check_shrinking(&case, &check_live_widening) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Equivalence 5, durability split: with a per-peer write-ahead log
    /// the crashed peer is resumed in place (no re-plan, no failover
    /// report) and every query — including those whose state lived on
    /// the dead peer — delivers exactly the whole-stream oracle results,
    /// byte-equal to a run that never crashed.
    #[test]
    fn live_runtime_resumed_recovery_matches_oracle(case in arb_case()) {
        if let Err(e) = check_shrinking(&case, &check_live_resumed) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Equivalence 6, planned migration: the periodic re-balancer, forced
    /// by a synthetic overload measurement, moves queries off a hot peer
    /// mid-stream. No item may be lost or duplicated; loss-free handoffs
    /// (open windows moved with the query) must stay whole-stream
    /// byte-exact against the oracle, and split handoffs are held to the
    /// crash-style prefix/suffix standard at each migration instant.
    #[test]
    fn live_runtime_planned_migration_matches_oracle(case in arb_case()) {
        if let Err(e) = check_shrinking(&case, &check_live_migration) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// The harness must catch a seeded bug: this is exercised out-of-band by
/// `scripts/mutation_smoke.sh`, which has `dss_network::FlowDag` merge
/// aggregations whose windows differ and expects the differential check
/// to fail with a shrunk counterexample.
#[test]
fn fixed_corpus_passes_all_equivalences() {
    use dss_rass::{GeneratorConfig, PhotonGenerator};
    use dss_wxquery::testing::arb_query;
    let items = PhotonGenerator::new(GeneratorConfig {
        seed: 20060329,
        mean_time_increment: 0.25,
        ..GeneratorConfig::default()
    })
    .generate_items(48);
    let mut rng = proptest::test_runner::TestRng::from_seed(20060329);
    let queries: Vec<_> = (0..4).map(|_| arb_query().sample(&mut rng)).collect();
    for chunk in queries.chunks(2) {
        let case = Case {
            items: items.clone(),
            queries: chunk.to_vec(),
        };
        check_pipeline(&case).unwrap();
        check_network(&case).unwrap();
        check_live(&case).unwrap();
        check_live_widening(&case).unwrap();
        check_live_migration(&case).unwrap();
        check_live_resumed(&case).unwrap();
    }
}

/// Deterministic target for `scripts/mutation_smoke.sh`: two
/// subscriptions identical except for window size. Under operator fusion
/// their chains land in one sharing group, but the aggregation instances
/// must stay separate — operators merge only when equal, window included.
/// Breaking that rule merges them onto one window sequence and this diff
/// fails with a shrunk counterexample.
#[test]
fn fused_aggregates_with_different_windows_stay_separate() {
    use dss_rass::{GeneratorConfig, PhotonGenerator};
    use dss_wxquery::testing::{BodySpec, QuerySpec, WindowChoice};
    let agg = |size: i64| QuerySpec {
        stream: "photons".to_string(),
        stream_root: "photons".to_string(),
        item: "photon".to_string(),
        result_root: None,
        selection: Vec::new(),
        window: Some(WindowChoice::Diff {
            size: Decimal::from_int(size),
            step: None,
        }),
        body: BodySpec::Aggregate {
            tag: "out".to_string(),
            op: AggOp::Sum,
            element: "en".to_string(),
            filter: Vec::new(),
        },
    };
    let items = PhotonGenerator::new(GeneratorConfig {
        seed: 20060330,
        mean_time_increment: 0.25,
        ..GeneratorConfig::default()
    })
    .generate_items(32);
    let case = Case {
        items,
        queries: vec![agg(2), agg(4)],
    };
    if let Err(e) = check_shrinking(&case, &check_network) {
        panic!("{e}");
    }
}

// ---------------------------------------------------------------------
// Metamorphic: predicate matching is an implication
// ---------------------------------------------------------------------

const PRED_PATHS: [&str; 4] = ["en", "phc", "det_time", "coord/cel/ra"];

fn p(path: &str) -> Path {
    path.parse().expect("static test path")
}

fn arb_comp_op() -> BoxedStrategy<CompOp> {
    prop_oneof![
        Just(CompOp::Eq),
        Just(CompOp::Lt),
        Just(CompOp::Le),
        Just(CompOp::Gt),
        Just(CompOp::Ge),
    ]
    .boxed()
}

fn arb_pred_atom() -> BoxedStrategy<Atom> {
    (
        0usize..PRED_PATHS.len(),
        arb_comp_op(),
        -400i64..400,
        0u32..2,
        0usize..6,
    )
        .prop_map(|(var, op, units, scale, var2)| {
            let c = Decimal::new(units as i128, scale);
            if var2 < PRED_PATHS.len() && var2 != var {
                Atom::var_var(p(PRED_PATHS[var]), op, p(PRED_PATHS[var2]), c)
            } else {
                Atom::var_const(p(PRED_PATHS[var]), op, c)
            }
        })
        .boxed()
}

/// Builds a stream item carrying the given path valuations (`None` leaves
/// the element out — fail-closed territory).
fn valuation_item(vals: &[Option<Decimal>]) -> Node {
    let mut item = Node::empty("photon");
    for (path, v) in PRED_PATHS.iter().zip(vals) {
        let Some(v) = v else { continue };
        let mut segs = path.split('/').rev();
        let mut node = Node::leaf(segs.next().expect("non-empty path"), v.to_string());
        for seg in segs {
            let mut parent = Node::empty(seg);
            parent.push_child(node);
            node = parent;
        }
        item.push_child(node);
    }
    item
}

/// Boundary-biased candidate values: every constant in the atoms, its
/// immediate decimal neighbours, zero, and "element missing".
fn valuation_candidates(atoms: &[Atom]) -> Vec<Option<Decimal>> {
    let mut out = vec![None, Some(Decimal::ZERO)];
    for atom in atoms {
        let c = match &atom.rhs {
            data_stream_sharing::predicate::Term::Const(c) => *c,
            data_stream_sharing::predicate::Term::VarPlus(_, c) => *c,
        };
        let ulp = Decimal::new(1, c.scale());
        for v in [c, c + ulp, c - ulp] {
            if !out.contains(&Some(v)) {
                out.push(Some(v));
            }
        }
    }
    out
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(diff_cases()))]

    /// If `match_predicates(g_stream, g_new)` accepts a reuse, then the
    /// new query's predicate must imply the stream's: no sampled valuation
    /// may pass the new predicate while failing the stream's filter —
    /// that would silently drop result items from the shared stream.
    #[test]
    fn predicate_match_implies_containment(
        stream_atoms in prop::collection::vec(arb_pred_atom(), 0..3),
        new_atoms in prop::collection::vec(arb_pred_atom(), 0..3),
        extra_shared in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        // Bias toward accepted matches: often seed the new query with the
        // stream's own atoms (a superset predicate always matches).
        let mut new_atoms = new_atoms;
        if extra_shared == 0 {
            new_atoms.extend(stream_atoms.iter().cloned());
        }
        let g_stream = PredicateGraph::from_atoms(stream_atoms.iter());
        let g_new = PredicateGraph::from_atoms(new_atoms.iter());
        if match_predicates(&g_stream, &g_new) {
            let all: Vec<Atom> = stream_atoms.iter().chain(new_atoms.iter()).cloned().collect();
            let candidates = valuation_candidates(&all);
            let mut state = seed;
            for _ in 0..400 {
                let vals: Vec<Option<Decimal>> = (0..PRED_PATHS.len())
                    .map(|_| candidates[(splitmix(&mut state) as usize) % candidates.len()])
                    .collect();
                let item = valuation_item(&vals);
                if g_new.evaluate(&item) {
                    prop_assert!(
                        g_stream.evaluate(&item),
                        "match_predicates accepted a non-containment: item {vals:?} \
                         passes the new predicate but fails the stream's\n \
                         stream atoms: {stream_atoms:?}\n new atoms: {new_atoms:?}"
                    );
                }
            }
        }
    }
}

/// Pins the matching direction the sampling test relies on: the *new*
/// query must be at least as selective as the shared stream, never the
/// other way around.
#[test]
fn predicate_match_direction_is_new_implies_stream() {
    let wide = PredicateGraph::from_atoms(
        [Atom::var_const(p("en"), CompOp::Ge, Decimal::from_int(100))].iter(),
    );
    let narrow = PredicateGraph::from_atoms(
        [Atom::var_const(p("en"), CompOp::Ge, Decimal::from_int(200))].iter(),
    );
    assert!(
        match_predicates(&wide, &narrow),
        "narrower query reuses wider stream"
    );
    assert!(
        !match_predicates(&narrow, &wide),
        "wider query must not reuse narrower stream"
    );
}

// ---------------------------------------------------------------------
// Metamorphic: window compatibility means exact re-aggregation
// ---------------------------------------------------------------------

/// Monotone `(det_time, en)` streams plus a window-compatible pair: fine
/// tumbling windows of size `w`, coarse windows of size `a·w` sliding by
/// `b·w` with `1 ≤ b ≤ a` — exactly the `Δ' mod Δ = 0` / `Δ mod µ = 0`
/// shape the MatchAggregations rule accepts.
fn arb_window_law() -> BoxedStrategy<(Vec<Node>, Decimal, i128, i128)> {
    (
        prop::collection::vec((1i64..40, prop::option::of(0i64..500)), 0..60),
        5i64..80,
        1i64..5,
    )
        .prop_flat_map(|(sketch, w_tenths, a)| {
            (Just(sketch), Just(w_tenths), Just(a), 1i64..(a + 1))
        })
        .prop_map(|(sketch, w_tenths, a, b)| {
            let mut t = 0i64;
            let mut items = Vec::with_capacity(sketch.len());
            for (dt, en) in sketch {
                t += dt;
                let mut item = Node::empty("photon");
                item.push_child(Node::leaf(
                    "det_time",
                    Decimal::new(t as i128, 1).to_string(),
                ));
                if let Some(en) = en {
                    item.push_child(Node::leaf("en", Decimal::new(en as i128, 1).to_string()));
                }
                items.push(item);
            }
            (
                items,
                Decimal::new(w_tenths as i128, 1),
                a as i128,
                b as i128,
            )
        })
        .boxed()
}

fn accumulate(vals: &[Decimal]) -> Accumulator {
    let mut acc = Accumulator::default();
    for &v in vals {
        acc.add(v);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(diff_cases()))]

    /// Every coarse window is exactly the concatenation of the fine
    /// tumbling windows it spans (the value-level law behind window
    /// re-use), and merging the fine windows' accumulators equals
    /// accumulating the coarse window directly (the partial-aggregate
    /// law behind `ReAggregateOp`) — including the derived average.
    #[test]
    fn coarse_windows_are_merges_of_fine(law in arb_window_law()) {
        let (items, w, a, b) = law;
        let reference = p("det_time");
        let element = p("en");
        let aw = Decimal::new(w.units() * a, w.scale());
        let bw = Decimal::new(w.units() * b, w.scale());
        let fine = diff_windows(&items, &reference, &element, w, w);
        let coarse = diff_windows(&items, &reference, &element, aw, bw);

        // Expected coarse windows, assembled from the fine ones: grid
        // starts are multiples of b·w, and (grids aligned) a fine window
        // lies inside iff its start does.
        let mut expected: std::collections::BTreeMap<String, Vec<Decimal>> =
            std::collections::BTreeMap::new();
        if let Some(max_fs) = fine.last().map(|(fs, _)| *fs) {
            let mut s = Decimal::ZERO;
            while s <= max_fs {
                // A window materializes as soon as an *item* lands in it,
                // even if the aggregated element is missing — so the
                // coarse window must exist iff any fine window (possibly
                // empty) lies in its span.
                let spanned: Vec<&(Decimal, Vec<Decimal>)> = fine
                    .iter()
                    .filter(|(fs, _)| s <= *fs && *fs < s + aw)
                    .collect();
                if !spanned.is_empty() {
                    let vals = spanned
                        .iter()
                        .flat_map(|(_, vs)| vs.iter().copied())
                        .collect();
                    expected.insert(s.to_string(), vals);
                }
                s = s + bw;
            }
        }
        let got: std::collections::BTreeMap<String, Vec<Decimal>> = coarse
            .iter()
            .map(|(s, vs)| (s.to_string(), vs.clone()))
            .collect();
        prop_assert_eq!(
            &got, &expected,
            "coarse windows (size {}·{}, step {}·{}) disagree with fine tiling", a, w, b, w
        );

        // Partial-aggregate law: merge(fine accumulators) == direct.
        for (s, vals) in &coarse {
            let direct = accumulate(vals);
            let mut merged = Accumulator::default();
            for (fs, fvals) in &fine {
                if *s <= *fs && *fs < *s + aw {
                    merged.merge(&accumulate(fvals));
                }
            }
            prop_assert_eq!(&merged, &direct, "merged partials diverge at window start {}", s);
            prop_assert_eq!(merged.avg(6), direct.avg(6));
        }
    }
}

// ---------------------------------------------------------------------
// Metamorphic: the engine's AggItem against the oracle's Accumulator
// ---------------------------------------------------------------------

fn arb_values() -> BoxedStrategy<Vec<Decimal>> {
    prop::collection::vec(
        (-2_000_000i64..2_000_000, 0u32..4).prop_map(|(u, s)| Decimal::new(u as i128, s)),
        0..40,
    )
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(diff_cases()))]

    /// The engine's wire-format partial (`AggItem`) and the oracle's
    /// independently derived `Accumulator` agree on every aggregate,
    /// every average, and every filter decision, for arbitrary value
    /// sequences.
    #[test]
    fn agg_item_matches_oracle_accumulator(
        vals in arb_values(),
        filter_units in -2_000_000i64..2_000_000,
        filter_scale in 0u32..4,
    ) {
        let mut engine = AggItem::default();
        let mut oracle = Accumulator::default();
        for &v in &vals {
            engine.add_value(v);
            oracle.add(v);
        }
        prop_assert_eq!(engine.count, oracle.count);
        prop_assert_eq!(engine.sum, oracle.sum);
        prop_assert_eq!(engine.min, oracle.min);
        prop_assert_eq!(engine.max, oracle.max);
        for op in [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Avg] {
            prop_assert_eq!(engine.final_value(op), oracle.value_of(op), "op {:?}", op);
        }
        for scale in [0u32, 1, 6, 12] {
            prop_assert_eq!(engine.avg_value(scale), oracle.avg(scale), "avg scale {}", scale);
        }
        let c = Decimal::new(filter_units as i128, filter_scale);
        for op in [CompOp::Eq, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge] {
            prop_assert_eq!(
                engine.avg_compare(op, c),
                oracle.passes_filter(AggOp::Avg, &[(op, c)]),
                "avg filter {:?} {}", op, c
            );
            let engine_plain = engine.final_value(AggOp::Sum)
                .map(|v| op.evaluate(v, c))
                .unwrap_or(false);
            prop_assert_eq!(
                engine_plain,
                oracle.passes_filter(AggOp::Sum, &[(op, c)]),
                "sum filter {:?} {}", op, c
            );
        }
    }
}
