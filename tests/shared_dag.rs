//! Intra-peer operator sharing must be an invisible optimization: fusing
//! the flows that consume one stream at a peer into a prefix-sharing
//! operator DAG may only change the *work accounting* (shared prefixes
//! execute once), never any flow's output bytes — with sharing on or off,
//! with flows retiring mid-stream, and across widening re-subscriptions.

use std::collections::BTreeMap;

use proptest::prelude::*;

use data_stream_sharing::engine::{DagNodeStats, Template};
use data_stream_sharing::network::{
    grid_topology, run, Deployment, FlowDag, FlowId, FlowInput, FlowOp, FlowOutputs, LiveConfig,
    LiveRuntime, RuntimeMetrics, SimConfig, SourceModel, StreamFlow,
};
use data_stream_sharing::predicate::{Atom, CompOp, PredicateGraph};
use data_stream_sharing::properties::{
    AggOp, AggregationSpec, InputProperties, Operator, ProjectionSpec, Properties, ResultFilter,
    WindowOutputSpec, WindowSpec,
};
use data_stream_sharing::xml::{Decimal, Node, Path};

fn items(n: usize) -> Vec<Node> {
    (0..n)
        .map(|i| {
            Node::elem(
                "photon",
                vec![
                    Node::leaf("en", format!("{}", 1.0 + (i % 10) as f64 / 10.0)),
                    Node::leaf("det_time", i.to_string()),
                ],
            )
        })
        .collect()
}

fn selection_ge(en: &str) -> FlowOp {
    FlowOp::Standard(Operator::Selection(PredicateGraph::from_atoms(&[
        Atom::var_const(
            "en".parse::<Path>().unwrap(),
            CompOp::Ge,
            en.parse::<Decimal>().unwrap(),
        ),
    ])))
}

fn udf(name: &str) -> FlowOp {
    FlowOp::Standard(Operator::Udf {
        name: name.into(),
        params: Vec::new(),
    })
}

/// Sum of `en` over a tumbling count window of `size` items.
fn count_agg(size: i64) -> FlowOp {
    FlowOp::Standard(Operator::Aggregation(AggregationSpec {
        op: AggOp::Sum,
        element: "en".parse().unwrap(),
        window: WindowSpec::count(Decimal::from_int(size), None).unwrap(),
        pre_selection: PredicateGraph::new(),
        result_filter: ResultFilter::none(),
    }))
}

/// A deployment with one source flow SP0→SP1 plus one tap per op chain,
/// all processed (and delivered) at SP1. Returns the tap flow ids.
fn tapped_deployment(chains: &[Vec<FlowOp>]) -> (Deployment, FlowId, Vec<FlowId>) {
    let t = grid_topology(2, 2);
    let (sp0, sp1) = (t.expect_node("SP0"), t.expect_node("SP1"));
    let mut d = Deployment::new();
    let src = d.add_flow(StreamFlow {
        label: "photons".into(),
        input: FlowInput::Source {
            stream: "photons".into(),
        },
        processing_node: sp0,
        ops: Vec::new(),
        route: vec![sp0, sp1],
        properties: Some(Properties::single(InputProperties::original("photons"))),
        retired: false,
    });
    let taps = chains
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            d.add_flow(StreamFlow {
                label: format!("tap{i}"),
                input: FlowInput::Tap { parent: src },
                processing_node: sp1,
                ops: ops.clone(),
                route: vec![sp1],
                properties: None,
                retired: false,
            })
        })
        .collect();
    (d, src, taps)
}

fn batch(
    d: &Deployment,
    n_items: usize,
    shared_ops: bool,
) -> data_stream_sharing::network::SimOutcome {
    let t = grid_topology(2, 2);
    let mut sources = BTreeMap::new();
    sources.insert("photons".to_string(), items(n_items));
    run(
        &t,
        d,
        &sources,
        SimConfig {
            forward_work_per_kb: 0.0,
            shared_ops,
            ..SimConfig::default()
        },
    )
}

// ---------- batch simulator ---------------------------------------------

/// The ISSUE's headline number: sixteen flows running the identical chain
/// fuse into one path, so the peer's operator work drops by ≥3x (here, by
/// construction, exactly 16x — forwarding work is zeroed out).
#[test]
fn sixteen_identical_chains_share_at_least_3x_work() {
    let chain = vec![selection_ge("1.5"), udf("calib")];
    let chains: Vec<Vec<FlowOp>> = (0..16).map(|_| chain.clone()).collect();
    let (d, _, taps) = tapped_deployment(&chains);
    let fused = batch(&d, 100, true);
    let unfused = batch(&d, 100, false);
    assert_eq!(fused.flow_outputs, unfused.flow_outputs);
    for &f in &taps {
        assert_eq!(fused.flow_outputs[f].len(), 50, "σ≥1.5 passes half");
    }
    let sp1 = grid_topology(2, 2).expect_node("SP1");
    assert!(
        unfused.metrics.node_work[sp1] >= 3.0 * fused.metrics.node_work[sp1],
        "16 identical chains must share ≥3x: fused {} vs unfused {}",
        fused.metrics.node_work[sp1],
        unfused.metrics.node_work[sp1]
    );
}

/// Generator for the equivalence property: arbitrary operator chains drawn
/// from a small universe mixing stateless (selection, udf) and stateful
/// (windowed aggregation) operators, so generated flow sets hit every
/// prefix-merge rule (full merge, partial prefix, no merge, empty chain).
fn arb_chain() -> impl Strategy<Value = Vec<FlowOp>> {
    let op = (0usize..5).prop_map(|i| match i {
        0 => selection_ge("1.3"),
        1 => selection_ge("1.6"),
        2 => udf("calib"),
        3 => count_agg(3),
        _ => count_agg(5),
    });
    prop::collection::vec(op, 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any set of flows over one stream produces byte-identical per-flow
    /// outputs whether the peer fuses them into a shared DAG or runs each
    /// as its own pipeline.
    #[test]
    fn sharing_never_changes_outputs(chains in prop::collection::vec(arb_chain(), 1..6)) {
        let (d, _, _) = tapped_deployment(&chains);
        let fused = batch(&d, 60, true);
        let unfused = batch(&d, 60, false);
        prop_assert_eq!(&fused.flow_outputs, &unfused.flow_outputs);
        prop_assert_eq!(&fused.metrics.edge_bytes, &unfused.metrics.edge_bytes);
        // Fusing can only remove duplicated work, never add any.
        let eps = 1e-9;
        for (f, u) in fused.metrics.node_work.iter().zip(&unfused.metrics.node_work) {
            prop_assert!(f <= &(u + eps), "fused {f} > unfused {u}");
        }
    }
}

// ---------- whole slices -------------------------------------------------

fn diff_window(size: i64, step: i64) -> WindowSpec {
    WindowSpec::diff(
        "det_time".parse().unwrap(),
        Decimal::from_int(size),
        Some(Decimal::from_int(step)),
    )
    .unwrap()
}

fn sum_spec(window: WindowSpec) -> AggregationSpec {
    AggregationSpec {
        op: AggOp::Sum,
        element: "en".parse().unwrap(),
        window,
        pre_selection: PredicateGraph::new(),
        result_filter: ResultFilter::none(),
    }
}

fn contents_spec(window: WindowSpec) -> WindowOutputSpec {
    WindowOutputSpec {
        window,
        pre_selection: PredicateGraph::new(),
    }
}

fn restructure(agg: Option<AggOp>, window: bool) -> FlowOp {
    let inner = match (agg, window) {
        (Some(_), _) => Template::AggValue,
        (None, true) => Template::WindowContents,
        (None, false) => Template::Subtree("en".parse().unwrap()),
    };
    FlowOp::Restructure {
        template: Template::element("r", vec![inner]),
        agg,
        window,
    }
}

/// Well-typed chains over every operator kind: a stateless prefix drawn
/// from σ, Π and a UDF (so chains share it), then nothing, ρ, or a
/// windowed tail — Φ or ω over small windows that close every few items,
/// each optionally re-tiled into coarser windows (Φ↺, ω↺) and
/// restructured (ρ).
fn arb_typed_chain() -> impl Strategy<Value = Vec<FlowOp>> {
    let prefix_op = (0usize..4).prop_map(|i| match i {
        0 => selection_ge("1.3"),
        1 => selection_ge("1.6"),
        2 => udf("calib"),
        _ => FlowOp::Standard(Operator::Projection(ProjectionSpec::returning([
            "en".parse().unwrap(),
            "det_time".parse().unwrap(),
        ]))),
    });
    let tail = (0usize..4, any::<bool>(), any::<bool>()).prop_map(|(kind, retile, post)| {
        let (fine, coarse) = (diff_window(4, 2), diff_window(12, 8));
        let mut ops = Vec::new();
        match kind {
            0 => {}
            1 => ops.push(restructure(None, false)),
            2 => {
                ops.push(FlowOp::Standard(Operator::Aggregation(sum_spec(
                    fine.clone(),
                ))));
                if retile {
                    ops.push(FlowOp::ReAggregate {
                        reused: sum_spec(fine),
                        new: sum_spec(coarse),
                    });
                }
                if post {
                    ops.push(restructure(Some(AggOp::Sum), false));
                }
            }
            _ => {
                ops.push(FlowOp::Standard(Operator::WindowOutput(contents_spec(
                    fine.clone(),
                ))));
                if retile {
                    ops.push(FlowOp::ReWindow {
                        reused: contents_spec(fine),
                        new: contents_spec(coarse),
                    });
                }
                if post {
                    ops.push(restructure(None, true));
                }
            }
        }
        ops
    });
    (prop::collection::vec(prefix_op, 0..3), tail).prop_map(|(mut prefix, tail)| {
        prefix.extend(tail);
        prefix
    })
}

/// Per flow, what a DAG of `chains` emits, and its node counters with the
/// work as bits.
type SliceRun = (BTreeMap<FlowId, Vec<Node>>, Vec<(u64, u64, u64)>);

fn counters(dag: &FlowDag) -> Vec<(u64, u64, u64)> {
    let stats = dag.node_stats();
    let bits = |s: &DagNodeStats| (s.stats.items_in, s.stats.items_out, s.stats.work.to_bits());
    stats.iter().map(bits).collect()
}

fn flow_dag(chains: &[Vec<FlowOp>]) -> FlowDag {
    let mut dag = FlowDag::new();
    for (flow, ops) in chains.iter().enumerate() {
        dag.register(flow, ops);
    }
    dag
}

/// Runs `chains` as one DAG over `stream` cut into slices of the lengths
/// `cuts` repeats, collected as the batch simulator does — taking the
/// buffers it may move — then flushes it.
fn run_in_slices(chains: &[Vec<FlowOp>], stream: &[Node], cuts: &[usize]) -> SliceRun {
    let mut dag = flow_dag(chains);
    let mut outputs = FlowOutputs::default();
    let mut rest = stream;
    for &cut in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (slice, tail) = rest.split_at(cut.min(rest.len()));
        outputs.feed_slice(&mut dag, slice);
        rest = tail;
    }
    outputs.flush(&mut dag);
    (outputs.drain().collect(), counters(&dag))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Running each DAG node over a whole slice is invisible: per flow the
    /// same items in the same order, and the same node counters to the
    /// bit, as feeding the stream one item at a time — whether the slice
    /// is the whole stream or the stream is cut at random.
    #[test]
    fn a_slice_equals_its_items_one_at_a_time(
        chains in prop::collection::vec(arb_typed_chain(), 1..7),
        n in 0usize..80,
        cuts in prop::collection::vec(1usize..12, 1..6),
    ) {
        let stream = items(n);
        let mut one_by_one = flow_dag(&chains);
        let mut want: BTreeMap<FlowId, Vec<Node>> = BTreeMap::new();
        let mut keep = |f, n: &Node| want.entry(f).or_default().push(n.clone());
        for item in &stream {
            one_by_one.process_into(item, &mut keep);
        }
        one_by_one.flush_into(&mut keep);
        let want_stats = counters(&one_by_one);

        let whole = run_in_slices(&chains, &stream, &[n.max(1)]);
        prop_assert_eq!(&whole.0, &want, "whole slice, chains {:?}", chains);
        prop_assert_eq!(&whole.1, &want_stats);
        let cut = run_in_slices(&chains, &stream, &cuts);
        prop_assert_eq!(&cut.0, &want, "cuts {:?}, chains {:?}", cuts, chains);
        prop_assert_eq!(&cut.1, &want_stats);
    }
}

// ---------- live runtime -------------------------------------------------

/// A live runtime over the tapped deployment: 100 items at 100 Hz (1 s of
/// emissions) with a generous horizon so every window drains.
fn live(d: &Deployment, deliveries: BTreeMap<FlowId, String>) -> LiveRuntime {
    let t = grid_topology(2, 2);
    let mut sources = BTreeMap::new();
    sources.insert(
        "photons".to_string(),
        SourceModel::from_frequency(items(100), 100.0),
    );
    let cfg = LiveConfig {
        duration_s: 3.0,
        ..Default::default()
    };
    LiveRuntime::new(t, d, sources, deliveries, cfg).expect("valid runtime")
}

/// Retiring one sharer of a windowed node mid-stream must leave the other
/// sharer's window state (and thus its delivered results) untouched.
#[test]
fn retire_mid_stream_keeps_surviving_sharers_state() {
    let chains = vec![vec![count_agg(4)], vec![count_agg(4)]];
    let (mut d, _, taps) = tapped_deployment(&chains);
    let (a, b) = (taps[0], taps[1]);
    let deliveries: BTreeMap<FlowId, String> =
        [(a, "qa".to_string()), (b, "qb".to_string())].into();

    let mut rt = live(&d, deliveries.clone());
    rt.run_until(250_000); // ~25 of 100 items emitted: mid-window for both
    d.retire(b);
    rt.sync_deployment(&d, deliveries.clone());
    rt.run_until(rt.horizon_us());
    let (metrics, _) = rt.finish();

    // Baseline: the same deployment where b never ran at all.
    let (mut d2, _, _) = tapped_deployment(&chains);
    d2.retire(b);
    let (base, _) = live(&d2, deliveries).finish();

    let qa = &metrics.queries["qa"];
    let qa_base = &base.queries["qa"];
    assert!(qa.delivered > 0, "qa delivered nothing");
    assert_eq!(
        qa.delivered, qa_base.delivered,
        "retiring the co-sharer changed qa's results"
    );
    let qb = &metrics.queries["qb"];
    assert!(
        qb.delivered > 0 && qb.delivered < qa.delivered,
        "qb should deliver until retired and then stop (got {} vs qa {})",
        qb.delivered,
        qa.delivered
    );
}

/// A widening re-subscription appends operators below an unchanged
/// windowed prefix; only the suffix is rebuilt, so the partially filled
/// window at the switch survives and no aggregate result is lost.
#[test]
fn widening_rebuild_keeps_upstream_window_state() {
    let chains = vec![vec![count_agg(4)]];
    let (mut d, _, taps) = tapped_deployment(&chains);
    let a = taps[0];
    let deliveries: BTreeMap<FlowId, String> = [(a, "qa".to_string())].into();

    let mut rt = live(&d, deliveries.clone());
    rt.run_until(250_000); // mid-window: the count-4 window holds a partial
    d.flow_mut(a).ops.push(udf("post")); // widen: suffix grows, prefix unchanged
    rt.sync_deployment(&d, deliveries.clone());
    rt.run_until(rt.horizon_us());
    let (metrics, _) = rt.finish();

    // Baseline: never widened. The UDF is an identity pass-through, so a
    // suffix-only rebuild delivers exactly as many aggregate results.
    // (A count-4 window emits when the *next* item arrives and the live
    // runtime never flushes, so 100 items yield 24 deliveries, not 25.)
    let (d2, _, _) = tapped_deployment(&chains);
    let (base, _) = live(&d2, deliveries).finish();

    assert_eq!(
        base.queries["qa"].delivered, 24,
        "100 items / count-4 windows, close-on-next emission"
    );
    assert_eq!(
        metrics.queries["qa"].delivered, base.queries["qa"].delivered,
        "widening mid-stream lost window state"
    );
}

/// Byte-exact version of the widening guarantee, at the DAG level: a
/// window half-filled before the re-registration must contribute its items
/// to the aggregate emitted after it — the suffix-only rebuild keeps the
/// stateful prefix instance alive.
#[test]
fn flow_dag_widening_is_byte_exact() {
    use data_stream_sharing::network::FlowDag;

    let mut dag = FlowDag::new();
    dag.register(0, &[count_agg(4)]);
    let stream = items(9);
    let mut got: Vec<Node> = Vec::new();
    for item in &stream[..2] {
        dag.process_into(item, &mut |_, n| got.push(n.clone()));
    }
    assert!(got.is_empty(), "the count-4 window holds a partial");
    // Widen: the windowed prefix is unchanged, only the suffix grows.
    dag.reregister(0, &[count_agg(4), udf("post")]);
    for item in &stream[2..] {
        dag.process_into(item, &mut |_, n| got.push(n.clone()));
    }

    // Reference: the widened chain over the whole stream in one piece.
    let mut reference = FlowDag::new();
    reference.register(0, &[count_agg(4), udf("post")]);
    let mut expected: Vec<Node> = Vec::new();
    for item in &stream {
        reference.process_into(item, &mut |_, n| expected.push(n.clone()));
    }
    assert!(!expected.is_empty());
    assert_eq!(
        got, expected,
        "aggregates after the widening must cover the pre-widening items"
    );
}

// ---------- loss-free handoffs (incremental window maintenance) ----------

/// Sum of `en` over an arbitrary window.
fn agg_over(window: WindowSpec) -> FlowOp {
    FlowOp::Standard(Operator::Aggregation(AggregationSpec {
        op: AggOp::Sum,
        element: "en".parse().unwrap(),
        window,
        pre_selection: PredicateGraph::new(),
        result_filter: ResultFilter::none(),
    }))
}

/// Raw window contents over an arbitrary window.
fn window_out(window: WindowSpec) -> FlowOp {
    FlowOp::Standard(Operator::WindowOutput(WindowOutputSpec {
        window,
        pre_selection: PredicateGraph::new(),
    }))
}

/// A compatible window pair one lattice step apart: same extent `Δ`, same
/// kind/reference, and the new step coarsens the old one by an integer
/// factor (`µ → k·µ`, with `k = 1` the identical-spec case) — exactly the
/// pairs a migrating re-registration may adopt instead of dropping.
fn arb_window_pair() -> impl Strategy<Value = (WindowSpec, WindowSpec)> {
    (any::<bool>(), 1i64..4, 1i64..4, 1i64..4).prop_map(|(diff, mu, k, m)| {
        let size = Decimal::from_int(m * k * mu);
        let make = |step: i64| {
            if diff {
                WindowSpec::diff(
                    "det_time".parse().unwrap(),
                    size,
                    Some(Decimal::from_int(step)),
                )
                .unwrap()
            } else {
                WindowSpec::count(size, Some(Decimal::from_int(step))).unwrap()
            }
        };
        (make(mu), make(k * mu))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Delta migration ≡ full rebuild with replay: re-registering a
    /// stateful chain mid-stream with migration, onto a compatible window
    /// spec behind a spliced-in restore selection (keep-prefix empty, so
    /// the *whole* chain rebuilds), emits byte-identical results — suffix
    /// outputs and final flush alike — to a chain that ran the new
    /// operator list over the entire stream from the start. And no
    /// exported snapshot may be dropped: the pair is compatible by
    /// construction.
    #[test]
    fn migrating_rebuild_equals_continuous_run(
        pair in arb_window_pair(),
        aggregate in any::<bool>(),
        n in 6usize..40,
        split_seed in 0usize..1000,
    ) {
        let (fine, coarse) = pair;
        let stream = items(n);
        let split = split_seed % n;
        let old_chain = vec![if aggregate { agg_over(fine) } else { window_out(fine) }];
        // The widened chain splices a pass-everything restore selection in
        // front (every `en` is ≥ 1.0), so nothing merges and the stateful
        // operator is rebuilt from scratch — state survives only by
        // migration.
        let new_chain = vec![
            selection_ge("0.5"),
            if aggregate { agg_over(coarse) } else { window_out(coarse) },
        ];

        let mut dag = data_stream_sharing::network::FlowDag::new();
        dag.register(0, &old_chain);
        for item in &stream[..split] {
            dag.process_into(item, &mut |_, _| {}); // fine-step outputs: not comparable
        }
        let report = dag.reregister_migrating(0, &new_chain);
        prop_assert_eq!(
            report.ops_dropped, 0,
            "compatible window pair must be adopted: {:?}", report
        );
        let mut got = Vec::new();
        for item in &stream[split..] {
            dag.process_into(item, &mut |_, node| got.push(node.clone()));
        }
        let mut got_flush = Vec::new();
        dag.flush_into(&mut |_, node| got_flush.push(node.clone()));

        // Reference: the new chain over the whole stream in one piece.
        let mut reference = data_stream_sharing::network::FlowDag::new();
        reference.register(0, &new_chain);
        let mut expect = Vec::new();
        for (i, item) in stream.iter().enumerate() {
            reference.process_into(item, &mut |_, node| {
                if i >= split {
                    expect.push(node.clone());
                }
            });
        }
        let mut expect_flush = Vec::new();
        reference.flush_into(&mut |_, node| expect_flush.push(node.clone()));

        prop_assert_eq!(&got, &expect, "suffix outputs diverge after migration");
        prop_assert_eq!(&got_flush, &expect_flush, "final window state diverges");
    }
}

/// Like [`live`] but recording every delivered item for byte comparison.
fn live_recording(d: &Deployment, deliveries: BTreeMap<FlowId, String>) -> LiveRuntime {
    let t = grid_topology(2, 2);
    let mut sources = BTreeMap::new();
    sources.insert(
        "photons".to_string(),
        SourceModel::from_frequency(items(100), 100.0),
    );
    let cfg = LiveConfig {
        duration_s: 3.0,
        record_deliveries: true,
        ..Default::default()
    };
    LiveRuntime::new(t, d, sources, deliveries, cfg).expect("valid runtime")
}

/// Patches the single tap's chain mid-stream the way a widening does —
/// a restore selection spliced in at position 0, forcing a full rebuild —
/// optionally marked as a planned handoff, and returns the runtime's
/// metrics plus qa's recorded deliveries.
fn run_widening_patch(handoff: bool) -> (RuntimeMetrics, Vec<(u64, Node)>) {
    let chains = vec![vec![count_agg(4)]];
    let (mut d, _, taps) = tapped_deployment(&chains);
    let a = taps[0];
    let deliveries: BTreeMap<FlowId, String> = [(a, "qa".to_string())].into();
    let mut rt = live_recording(&d, deliveries.clone());
    rt.run_until(230_000); // 23 of 100 items: the open count-4 window holds 3
    d.flow_mut(a).ops.insert(0, selection_ge("0.5")); // passes everything
    d.set_handoff(a, handoff);
    rt.sync_deployment(&d, deliveries);
    rt.run_until(rt.horizon_us());
    let delivered = rt.take_delivered_items().remove("qa").unwrap_or_default();
    let (metrics, _) = rt.finish();
    (metrics, delivered)
}

/// The live-runtime widening regression: a mid-stream in-place rewrite
/// that rebuilds the whole chain delivers byte-exactly what a deployment
/// that always ran the widened chain would — *only* because the planner
/// marked it as a loss-free handoff and the open window migrated. The
/// unmarked control run drops the partial window and diverges, proving
/// the handoff (not luck) carries the state.
#[test]
fn planned_handoff_delivers_byte_exact_results() {
    // Baseline: the widened chain from the very start, never rewritten.
    let chains = vec![vec![selection_ge("0.5"), count_agg(4)]];
    let (d, _, taps) = tapped_deployment(&chains);
    let deliveries: BTreeMap<FlowId, String> = [(taps[0], "qa".to_string())].into();
    let mut rt = live_recording(&d, deliveries);
    rt.run_until(rt.horizon_us());
    let baseline = rt.take_delivered_items().remove("qa").unwrap_or_default();
    assert!(!baseline.is_empty(), "baseline delivered nothing");

    let (metrics, delivered) = run_widening_patch(true);
    assert_eq!(metrics.windows_migrated, 1, "the count-window must migrate");
    assert_eq!(metrics.windows_dropped, 0);
    assert!(
        metrics.widen_delta_items > 0,
        "the partial window held items to move"
    );
    assert_eq!(
        delivered, baseline,
        "handoff re-subscription changed qa's delivered bytes"
    );

    let (metrics, delivered) = run_widening_patch(false);
    assert_eq!(metrics.windows_migrated, 0, "no handoff was planned");
    assert_ne!(
        delivered, baseline,
        "control run without the handoff mark should drop the partial \
         window and diverge — if it matches, this test lost its teeth"
    );
}

/// The live runtime's per-operator counters expose the sharing win.
#[test]
fn live_metrics_report_shared_work() {
    let chains = vec![vec![selection_ge("1.5")], vec![selection_ge("1.5")]];
    let (d, _, taps) = tapped_deployment(&chains);
    let deliveries: BTreeMap<FlowId, String> =
        [(taps[0], "qa".to_string()), (taps[1], "qb".to_string())].into();
    let (metrics, _) = live(&d, deliveries).finish();
    assert_eq!(metrics.queries["qa"].delivered, 50);
    assert_eq!(metrics.queries["qb"].delivered, 50);
    let sp1 = grid_topology(2, 2).expect_node("SP1");
    let shared = metrics.node_ops[sp1]
        .iter()
        .find(|o| o.name == "σ")
        .expect("SP1 runs the shared selection");
    assert_eq!(shared.sharers, 2, "both flows share one selection node");
    assert_eq!(shared.items_in, 100);
    assert!(
        metrics.shared_work_saved() > 0.0,
        "sharing saved no work: {:?}",
        metrics.node_ops[sp1]
    );
}
