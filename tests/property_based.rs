//! Property-based tests (proptest) over the core data structures and
//! invariants.

use proptest::prelude::*;

use data_stream_sharing::engine::{AggItem, AggregateOp, ReAggregateOp, StreamOperatorExt};
use data_stream_sharing::predicate::{match_predicates, Atom, Bound, CompOp, PredicateGraph};
use data_stream_sharing::properties::{AggOp, AggregationSpec, ResultFilter, WindowSpec};
use data_stream_sharing::xml::writer::{node_to_string, pretty, serialized_size};
use data_stream_sharing::xml::{Decimal, Node, Path};

// ---------- decimals ---------------------------------------------------

fn arb_decimal() -> impl Strategy<Value = Decimal> {
    (-1_000_000i64..1_000_000i64, 0u32..4)
        .prop_map(|(units, scale)| Decimal::new(units as i128, scale))
}

proptest! {
    #[test]
    fn decimal_display_parse_round_trip(v in arb_decimal()) {
        let back: Decimal = v.to_string().parse().unwrap();
        prop_assert_eq!(v, back);
    }

    #[test]
    fn decimal_addition_commutes(a in arb_decimal(), b in arb_decimal()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) - b, a);
    }

    #[test]
    fn decimal_ordering_consistent_with_f64(a in arb_decimal(), b in arb_decimal()) {
        if (a.to_f64() - b.to_f64()).abs() > 1e-6 {
            prop_assert_eq!(a < b, a.to_f64() < b.to_f64());
        }
    }
}

// ---------- bounds and predicate graphs --------------------------------

fn arb_bound() -> impl Strategy<Value = Bound> {
    (arb_decimal(), any::<bool>()).prop_map(|(w, strict)| Bound { weight: w, strict })
}

proptest! {
    /// Bound implication is sound: if b1 ⇒ b2 then every value satisfying
    /// b1 satisfies b2 (checked over sampled differences).
    #[test]
    fn bound_implication_sound(b1 in arb_bound(), b2 in arb_bound(), diff in arb_decimal()) {
        if b1.implies(b2) && b1.satisfied_by(diff, Decimal::ZERO) {
            prop_assert!(b2.satisfied_by(diff, Decimal::ZERO));
        }
    }

    /// Bound composition is sound: x−y ≤ b1 and y−z ≤ b2 implies
    /// x−z ≤ b1∘b2.
    #[test]
    fn bound_compose_sound(
        b1 in arb_bound(), b2 in arb_bound(),
        x in arb_decimal(), y in arb_decimal(), z in arb_decimal(),
    ) {
        if b1.satisfied_by(x, y) && b2.satisfied_by(y, z) {
            prop_assert!(b1.compose(b2).satisfied_by(x, z));
        }
    }
}

/// Small universe of variables for predicate-graph properties.
fn var(i: usize) -> Path {
    format!("v{i}").parse().unwrap()
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    let op = prop_oneof![
        Just(CompOp::Le),
        Just(CompOp::Lt),
        Just(CompOp::Ge),
        Just(CompOp::Gt),
        Just(CompOp::Eq),
    ];
    let small = -20i64..20i64;
    prop_oneof![
        (0usize..3, op.clone(), small.clone()).prop_map(|(v, op, c)| Atom::var_const(
            var(v),
            op,
            Decimal::from_int(c)
        )),
        (0usize..3, op, 0usize..3, small)
            .prop_filter_map("distinct vars", |(v, op, w, c)| (v != w)
                .then(|| Atom::var_var(var(v), op, var(w), Decimal::from_int(c)))),
    ]
}

fn arb_conjunction(max: usize) -> impl Strategy<Value = Vec<Atom>> {
    prop::collection::vec(arb_atom(), 1..=max)
}

/// Brute-force model check over a small integer grid: does `assignment ⊨
/// atoms`?
fn satisfies(atoms: &[Atom], vals: &[i64; 3]) -> bool {
    let item = Node::elem(
        "item",
        (0..3)
            .map(|i| Node::leaf(format!("v{i}"), vals[i].to_string()))
            .collect(),
    );
    atoms.iter().all(|a| a.evaluate(&item))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Graph satisfiability is complete over the integer grid: if some
    /// grid assignment satisfies all atoms, the graph must be satisfiable.
    #[test]
    fn satisfiability_complete(atoms in arb_conjunction(4), a in -25i64..25, b in -25i64..25, c in -25i64..25) {
        let g = PredicateGraph::from_atoms(&atoms);
        if satisfies(&atoms, &[a, b, c]) {
            prop_assert!(g.is_satisfiable(), "witness {:?} exists but graph unsat: {atoms:?}", (a, b, c));
        }
    }

    /// Predicate evaluation agrees between the atom list and its graph.
    #[test]
    fn graph_evaluation_matches_atoms(atoms in arb_conjunction(4), a in -25i64..25, b in -25i64..25, c in -25i64..25) {
        let g = PredicateGraph::from_atoms(&atoms);
        let item = Node::elem(
            "item",
            (0..3).map(|i| Node::leaf(format!("v{i}"), [a, b, c][i].to_string())).collect(),
        );
        prop_assert_eq!(g.evaluate(&item), satisfies(&atoms, &[a, b, c]));
    }

    /// Minimization preserves semantics on the grid.
    #[test]
    fn minimize_preserves_semantics(atoms in arb_conjunction(4), a in -25i64..25, b in -25i64..25, c in -25i64..25) {
        let g = PredicateGraph::from_atoms(&atoms);
        let m = g.minimize();
        let item = Node::elem(
            "item",
            (0..3).map(|i| Node::leaf(format!("v{i}"), [a, b, c][i].to_string())).collect(),
        );
        prop_assert_eq!(g.evaluate(&item), m.evaluate(&item));
    }

    /// MatchPredicates soundness: if the subscription's predicates imply
    /// the stream's (match succeeds), then every item the subscription
    /// accepts is also in the stream.
    #[test]
    fn match_predicates_sound(
        stream_atoms in arb_conjunction(3),
        query_atoms in arb_conjunction(3),
        a in -25i64..25, b in -25i64..25, c in -25i64..25,
    ) {
        let g_stream = PredicateGraph::from_atoms(&stream_atoms);
        let g_query = PredicateGraph::from_atoms(&query_atoms);
        if match_predicates(&g_stream, &g_query) && satisfies(&query_atoms, &[a, b, c]) {
            prop_assert!(
                satisfies(&stream_atoms, &[a, b, c]),
                "item {:?} accepted by query but missing from stream", (a, b, c)
            );
        }
    }

    /// A predicate always matches itself (reflexivity of sharing).
    #[test]
    fn match_predicates_reflexive(atoms in arb_conjunction(4)) {
        let g = PredicateGraph::from_atoms(&atoms);
        if g.is_satisfiable() {
            prop_assert!(match_predicates(&g, &g));
        }
    }

    /// Hull soundness (the widening operation): every grid point satisfying
    /// either input predicate satisfies the hull.
    #[test]
    fn hull_contains_both_inputs(
        a_atoms in arb_conjunction(3),
        b_atoms in arb_conjunction(3),
        x in -25i64..25, y in -25i64..25, z in -25i64..25,
    ) {
        let ga = PredicateGraph::from_atoms(&a_atoms);
        let gb = PredicateGraph::from_atoms(&b_atoms);
        let hull = ga.hull(&gb);
        let item = Node::elem(
            "item",
            (0..3).map(|i| Node::leaf(format!("v{i}"), [x, y, z][i].to_string())).collect(),
        );
        if satisfies(&a_atoms, &[x, y, z]) || satisfies(&b_atoms, &[x, y, z]) {
            prop_assert!(
                hull.evaluate(&item),
                "point {:?} in an input region but outside the hull", (x, y, z)
            );
        }
    }
}

// ---------- XML round trips ---------------------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_map(|s| s)
}

fn arb_node() -> impl Strategy<Value = Node> {
    let leaf = (arb_name(), "[ -~]{0,12}").prop_map(|(n, t)| {
        // Avoid trailing/leading whitespace (normalized away by parsing)
        // and bare carriage returns.
        let t = t.trim().to_string();
        if t.is_empty() {
            Node::empty(n)
        } else {
            Node::leaf(n, t)
        }
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (arb_name(), prop::collection::vec(inner, 0..4)).prop_map(|(n, children)| {
            if children.is_empty() {
                Node::empty(n)
            } else {
                Node::elem(n, children)
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Serialize → parse is the identity.
    #[test]
    fn xml_round_trip(node in arb_node()) {
        let doc = node_to_string(&node);
        prop_assert_eq!(serialized_size(&node), doc.len());
        let back = Node::parse(&doc).unwrap();
        prop_assert_eq!(back, node);
    }

    /// Pretty-printing parses back to the same tree.
    #[test]
    fn xml_pretty_round_trip(node in arb_node()) {
        let back = Node::parse(&pretty(&node)).unwrap();
        prop_assert_eq!(back, node);
    }

    /// Chunked feeding produces identical items to whole-document feeding.
    #[test]
    fn xml_chunked_parse_equivalent(node in arb_node(), chunk in 1usize..16) {
        let doc = format!("<s>{}</s>", node_to_string(&node));
        let mut r = data_stream_sharing::xml::reader::StreamReader::new();
        let mut items = Vec::new();
        for piece in doc.as_bytes().chunks(chunk) {
            r.feed(piece);
            while let Some(item) = r.next_item().unwrap() {
                items.push(item);
            }
        }
        prop_assert_eq!(items.len(), 1);
        prop_assert_eq!(&items[0], &node);
    }
}

// ---------- WXQuery print/parse round trips -------------------------------

mod wxquery_roundtrip {
    use super::*;
    use data_stream_sharing::properties::AggOp;
    use data_stream_sharing::wxquery::ast::{
        Clause, Condition, Content, ElementCtor, Expr, Flwr, ForSource, PredAtom, PredTerm,
        VarPath, WindowAst,
    };
    use data_stream_sharing::wxquery::parse_query;

    fn arb_ident() -> impl Strategy<Value = String> {
        // Avoid WXQuery keywords by construction (always 'n'-prefixed).
        "n[a-z0-9_]{0,5}".prop_map(|s| s)
    }

    fn arb_path() -> impl Strategy<Value = Path> {
        prop::collection::vec(arb_ident(), 1..3).prop_map(|steps| Path::from_steps(steps).unwrap())
    }

    fn arb_small_decimal() -> impl Strategy<Value = Decimal> {
        (-999i64..999, 0u32..2).prop_map(|(u, s)| Decimal::new(u as i128, s))
    }

    fn arb_comp() -> impl Strategy<Value = CompOp> {
        prop_oneof![
            Just(CompOp::Eq),
            Just(CompOp::Lt),
            Just(CompOp::Le),
            Just(CompOp::Gt),
            Just(CompOp::Ge),
        ]
    }

    fn arb_atom(var: String) -> impl Strategy<Value = PredAtom> {
        let v1 = var.clone();
        let v2 = var.clone();
        let v3 = var;
        prop_oneof![
            (arb_path(), arb_comp(), arb_small_decimal()).prop_map(move |(p, op, c)| PredAtom {
                lhs: VarPath::new(v1.clone(), p),
                op,
                rhs: PredTerm::Const(c),
            }),
            (arb_path(), arb_comp(), arb_path(), arb_small_decimal()).prop_map(
                move |(p, op, q, c)| PredAtom {
                    lhs: VarPath::new(v2.clone(), p),
                    op,
                    rhs: PredTerm::VarPlus(VarPath::new(v3.clone(), q), c),
                }
            ),
        ]
    }

    fn arb_condition(var: String) -> impl Strategy<Value = Condition> {
        prop::collection::vec(arb_atom(var), 1..4)
    }

    fn arb_window() -> impl Strategy<Value = WindowAst> {
        let step = prop_oneof![
            Just(None),
            (1i64..100).prop_map(|s| Some(Decimal::from_int(s)))
        ];
        prop_oneof![
            ((1i64..100).prop_map(Decimal::from_int), step.clone())
                .prop_map(|(size, step)| WindowAst::Count { size, step }),
            (arb_path(), (1i64..100).prop_map(Decimal::from_int), step).prop_map(
                |(reference, size, step)| WindowAst::Diff {
                    reference,
                    size,
                    step
                }
            ),
        ]
    }

    fn arb_return(var: String, agg: Option<String>) -> impl Strategy<Value = Expr> {
        let mk_subtree = move || {
            let var = var.clone();
            arb_path()
                .prop_map(move |p| {
                    Content::Enclosed(Expr::PathOutput(VarPath::new(var.clone(), p)))
                })
                .boxed()
        };
        let agg_out = match agg {
            Some(a) => Just(Content::Enclosed(Expr::PathOutput(VarPath::new(
                a,
                Path::this(),
            ))))
            .boxed(),
            None => mk_subtree(),
        };
        (
            arb_ident(),
            prop::collection::vec(prop_oneof![mk_subtree(), agg_out], 0..4),
        )
            .prop_map(|(tag, content)| Expr::Element(ElementCtor { tag, content }))
    }

    /// A flat, compilable-shaped WXQuery AST (not necessarily semantically
    /// valid; round-tripping only needs syntax).
    fn arb_query() -> impl Strategy<Value = Expr> {
        (
            arb_ident(),                // result root
            arb_ident(),                // for var
            arb_ident(),                // stream name
            arb_path(),                 // stream path (>=1 step)
            prop::option::of(Just(())), // has window?
            prop::option::of(Just(())), // has let?
            any::<bool>(),              // has where?
            0usize..5,                  // agg op index
        )
            .prop_flat_map(
                |(root, var, stream, path, has_window, has_let, has_where, op_idx)| {
                    let ops = [AggOp::Min, AggOp::Max, AggOp::Sum, AggOp::Count, AggOp::Avg];
                    let agg_op = ops[op_idx % ops.len()];
                    let agg_var = has_let.map(|_| format!("{var}a"));
                    let window = has_window.map(|_| arb_window().boxed());
                    let cond = if has_where {
                        Some(arb_condition(var.clone()).boxed())
                    } else {
                        None
                    };
                    let bracket = prop::option::of(arb_condition(var.clone()));
                    let ret = arb_return(var.clone(), agg_var.clone());
                    (
                        Just(root),
                        Just(var),
                        Just(stream),
                        Just(path),
                        bracket,
                        window.map_or_else(|| Just(None).boxed(), |w| w.prop_map(Some).boxed()),
                        Just(agg_var),
                        Just(agg_op),
                        cond.map_or_else(|| Just(None).boxed(), |c| c.prop_map(Some).boxed()),
                        ret,
                    )
                },
            )
            .prop_map(
                |(root, var, stream, path, bracket, window, agg_var, agg_op, cond, ret)| {
                    let mut clauses = vec![Clause::For {
                        var: var.clone(),
                        source: ForSource::Stream(stream),
                        path,
                        conditions: bracket.unwrap_or_default(),
                        window,
                    }];
                    if let Some(a) = agg_var {
                        clauses.push(Clause::Let {
                            var: a,
                            op: agg_op,
                            source: VarPath::new(var, "nv".parse().unwrap()),
                        });
                    }
                    let flwr = Flwr {
                        clauses,
                        where_: cond.unwrap_or_default(),
                        ret: Box::new(ret),
                    };
                    Expr::Element(ElementCtor {
                        tag: root,
                        content: vec![Content::Enclosed(Expr::Flwr(flwr))],
                    })
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Printing any generated query and reparsing yields the same AST.
        #[test]
        fn print_parse_round_trip(ast in arb_query()) {
            let printed = ast.to_string();
            let reparsed = parse_query(&printed)
                .unwrap_or_else(|e| panic!("printed query does not parse: {e}\n{printed}"));
            prop_assert_eq!(ast, reparsed, "round trip changed the AST:\n{}", printed);
        }
    }
}

// ---------- window sharing ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any windows satisfying the paper's shareability conditions,
    /// re-aggregating the fine partials equals direct aggregation.
    #[test]
    fn window_sharing_equivalence(
        mu in 1u32..6,
        size_factor in 1u32..4,
        new_size_factor in 1u32..4,
        new_step_factor in 1u32..6,
        op_idx in 0usize..4,
        values in prop::collection::vec((0u32..400, 1u32..60), 20..120),
    ) {
        let mu = Decimal::from_int(mu as i64);
        let size = mu * size_factor as i64; // Δ = k·µ ⇒ Δ mod µ = 0
        let new_size = size * new_size_factor as i64; // Δ' mod Δ = 0
        let new_step = mu * new_step_factor as i64; // µ' mod µ = 0
        let op = [AggOp::Sum, AggOp::Count, AggOp::Min, AggOp::Max][op_idx];
        let fine = AggregationSpec {
            op,
            element: "v".parse::<Path>().unwrap(),
            window: WindowSpec::diff("t".parse().unwrap(), size, Some(mu)).unwrap(),
            pre_selection: PredicateGraph::new(),
            result_filter: ResultFilter::none(),
        };
        let coarse = AggregationSpec {
            window: WindowSpec::diff("t".parse().unwrap(), new_size, Some(new_step)).unwrap(),
            ..fine.clone()
        };
        prop_assume!(coarse.window.shareable_from(&fine.window));

        // Sorted reference values (the stream must be ordered by t).
        let mut ts: Vec<u32> = values.iter().map(|(t, _)| *t).collect();
        ts.sort_unstable();
        let items: Vec<Node> = ts
            .iter()
            .zip(values.iter().map(|(_, v)| *v))
            .map(|(t, v)| Node::elem("i", vec![
                Node::leaf("t", t.to_string()),
                Node::leaf("v", v.to_string()),
            ]))
            .collect();

        let mut direct_op = AggregateOp::new(coarse.clone());
        let mut fine_op = AggregateOp::new(fine.clone());
        let mut re_op = ReAggregateOp::new(fine, coarse);
        let mut direct = Vec::new();
        let mut shared = Vec::new();
        for item in &items {
            direct.extend(direct_op.process_collect(item));
            for partial in fine_op.process_collect(item) {
                shared.extend(re_op.process_collect(&partial));
            }
        }
        direct.extend(direct_op.flush_collect());
        for partial in fine_op.flush_collect() {
            shared.extend(re_op.process_collect(&partial));
        }
        shared.extend(re_op.flush_collect());
        prop_assert_eq!(direct, shared);
    }

    /// Re-windowing (window-contents sharing) equals direct windowing for
    /// any shareable window pair.
    #[test]
    fn rewindow_equivalence(
        mu in 1u32..5,
        size_factor in 1u32..4,
        new_size_factor in 1u32..4,
        new_step_factor in 1u32..5,
        ts in prop::collection::vec(0u32..300, 10..80),
    ) {
        use data_stream_sharing::engine::{ReWindowOp, WindowContentsOp};
        use data_stream_sharing::properties::WindowOutputSpec;
        let mu = Decimal::from_int(mu as i64);
        let size = mu * size_factor as i64;
        let new_size = size * new_size_factor as i64;
        let new_step = mu * new_step_factor as i64;
        let fine = WindowOutputSpec {
            window: WindowSpec::diff("t".parse::<Path>().unwrap(), size, Some(mu)).unwrap(),
            pre_selection: PredicateGraph::new(),
        };
        let coarse = WindowOutputSpec {
            window: WindowSpec::diff("t".parse::<Path>().unwrap(), new_size, Some(new_step))
                .unwrap(),
            pre_selection: PredicateGraph::new(),
        };
        prop_assume!(coarse.window.shareable_from(&fine.window));
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        let items: Vec<Node> = sorted
            .iter()
            .map(|t| Node::elem("i", vec![Node::leaf("t", t.to_string())]))
            .collect();
        let mut direct_op = WindowContentsOp::new(coarse.clone());
        let mut fine_op = WindowContentsOp::new(fine.clone());
        let mut re_op = ReWindowOp::new(fine, coarse);
        let mut direct = Vec::new();
        let mut shared = Vec::new();
        for item in &items {
            direct.extend(direct_op.process_collect(item));
            for tile in fine_op.process_collect(item) {
                shared.extend(re_op.process_collect(&tile));
            }
        }
        direct.extend(direct_op.flush_collect());
        for tile in fine_op.flush_collect() {
            shared.extend(re_op.process_collect(&tile));
        }
        shared.extend(re_op.flush_collect());
        prop_assert_eq!(direct, shared);
    }

    /// A snapshot is the whole state: for all four windowed operators and
    /// any shareable window pair, replacing each operator at any cut by a
    /// fresh one that imported its snapshot changes neither the outputs
    /// nor the state the run ends in.
    #[test]
    fn snapshot_handoff_equivalence(
        mu in 1u32..5,
        size_factor in 1u32..4,
        new_size_factor in 1u32..4,
        new_step_factor in 1u32..5,
        values in prop::collection::vec((0u32..300, 1u32..60), 10..80),
        gap in 0u32..20_000,
        cut in 0usize..80,
    ) {
        use data_stream_sharing::engine::{
            OpState, ReWindowOp, StreamOperator, WindowContentsOp,
        };
        use data_stream_sharing::properties::WindowOutputSpec;
        let mu = Decimal::from_int(mu as i64);
        let size = mu * size_factor as i64;
        let window = |size, step| WindowSpec::diff("t".parse().unwrap(), size, Some(step)).unwrap();
        let (fine, coarse) = (
            window(size, mu),
            window(size * new_size_factor as i64, mu * new_step_factor as i64),
        );
        prop_assume!(coarse.shareable_from(&fine));
        let agg = |window: &WindowSpec| AggregationSpec {
            op: AggOp::Sum,
            element: "v".parse::<Path>().unwrap(),
            window: window.clone(),
            pre_selection: PredicateGraph::new(),
            result_filter: ResultFilter::none(),
        };
        let contents = |window: &WindowSpec| WindowOutputSpec {
            window: window.clone(),
            pre_selection: PredicateGraph::new(),
        };
        // Sorted reference values, the later half moved behind a gap.
        let mut ts: Vec<u32> = values.iter().map(|(t, _)| *t).collect();
        ts.sort_unstable();
        let half = ts.len() / 2;
        let items: Vec<Node> = ts
            .iter()
            .zip(&values)
            .enumerate()
            .map(|(i, (t, (_, v)))| Node::elem("i", vec![
                Node::leaf("t", (t + if i < half { 0 } else { gap }).to_string()),
                Node::leaf("v", v.to_string()),
            ]))
            .collect();
        let cut = cut % items.len();

        fn hand_over<O: StreamOperator>(old: O, mut fresh: O) -> O {
            if let Some(state) = old.snapshot_state() {
                assert!(fresh.import_state(&state).is_some());
            }
            fresh
        }
        // Runs `fine → coarse`, handing both over before each item index
        // in `cuts` (the input's length: before the flush). Returns both
        // output streams and both states before the flush.
        fn run<F: StreamOperator, C: StreamOperator>(
            make: &dyn Fn() -> (F, C),
            items: &[Node],
            cuts: &[usize],
        ) -> ([Vec<Node>; 2], [Option<OpState>; 2]) {
            let (mut fine, mut coarse) = make();
            let mut out = [Vec::new(), Vec::new()];
            for i in 0..=items.len() {
                if cuts.contains(&i) {
                    let fresh = make();
                    (fine, coarse) = (hand_over(fine, fresh.0), hand_over(coarse, fresh.1));
                }
                for tile in items.get(i).map_or(vec![], |item| fine.process_collect(item)) {
                    out[1].extend(coarse.process_collect(&tile));
                    out[0].push(tile);
                }
            }
            let states = [fine.snapshot_state(), coarse.snapshot_state()];
            for tile in fine.flush_collect() {
                out[1].extend(coarse.process_collect(&tile));
                out[0].push(tile);
            }
            out[1].extend(coarse.flush_collect());
            (out, states)
        }
        let cuts = [cut, items.len()];
        let aggregates = || (
            AggregateOp::new(agg(&fine)),
            ReAggregateOp::new(agg(&fine), agg(&coarse)),
        );
        prop_assert_eq!(run(&aggregates, &items, &cuts), run(&aggregates, &items, &[]));
        let windows = || (
            WindowContentsOp::new(contents(&fine)),
            ReWindowOp::new(contents(&fine), contents(&coarse)),
        );
        prop_assert_eq!(run(&windows, &items, &cuts), run(&windows, &items, &[]));
    }

    /// Merging any split of a value sequence equals aggregating it whole.
    #[test]
    fn agg_item_merge_associative(values in prop::collection::vec(-500i64..500, 1..40), split in 0usize..40) {
        let split = split.min(values.len());
        let d = |v: i64| Decimal::from_int(v);
        let mut whole = AggItem::empty(Decimal::ZERO, d(10));
        for &v in &values {
            whole.add_value(d(v));
        }
        let mut left = AggItem::empty(Decimal::ZERO, d(5));
        let mut right = AggItem::empty(d(5), d(5));
        for &v in &values[..split] {
            left.add_value(d(v));
        }
        for &v in &values[split..] {
            right.add_value(d(v));
        }
        let mut merged = AggItem::empty(Decimal::ZERO, d(10));
        merged.merge(&left);
        merged.merge(&right);
        prop_assert_eq!(merged.count, whole.count);
        prop_assert_eq!(merged.sum, whole.sum);
        prop_assert_eq!(merged.min, whole.min);
        prop_assert_eq!(merged.max, whole.max);
    }
}
