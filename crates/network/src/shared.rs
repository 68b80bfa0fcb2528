//! Intra-peer operator sharing: fusing the flows that consume one input
//! stream at one peer into a single prefix-sharing [`OpDag`].
//!
//! The paper's stream sharing removes redundant work *between* peers; this
//! module removes it *within* a peer. All flows reading the same input
//! stream (the same raw source, or taps on the same parent flow) at a peer
//! form a *sharing group*, keyed by [`GroupKey`]. Their operator lists are
//! factored into a trie whose nodes each execute once per input item,
//! however many flows ride them — see [`dss_engine::OpDag`].
//!
//! Two operators share one executing instance iff their [`FlowOp`]s are
//! equal. For windowed/stateful operators (aggregation, window output,
//! re-aggregation, re-windowing) equality includes the window
//! specification, which is the paper's `MatchAggregations` discipline: a
//! shared instance has exactly one window sequence, so two aggregates
//! over different windows never share one even if everything else matches.

use dss_engine::{
    build_operator, DagNodeStats, OpDag, ReAggregateOp, ReWindowOp, RestructureOp, SinkBatch,
    StreamOperator,
};
use dss_properties::Operator;
use dss_xml::Node;

use crate::flow::{FlowId, FlowInput, FlowOp};

/// Identity of the input stream a flow consumes at its processing node.
/// Flows at the same peer with equal keys read the very same item sequence
/// and are fused into one [`FlowDag`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum GroupKey {
    /// A raw registered source stream, by name.
    Source(String),
    /// A tap on another flow's output stream.
    Tap(FlowId),
}

impl GroupKey {
    /// The sharing-group key for a flow input.
    pub fn of(input: &FlowInput) -> GroupKey {
        match input {
            FlowInput::Source { stream } => GroupKey::Source(stream.clone()),
            FlowInput::Tap { parent } => GroupKey::Tap(*parent),
        }
    }
}

/// Instantiates the executable operator for one flow operator.
pub fn build_flow_op(op: &FlowOp) -> Box<dyn StreamOperator + Send> {
    match op {
        FlowOp::Standard(o) => build_operator(o),
        FlowOp::ReAggregate { reused, new } => {
            Box::new(ReAggregateOp::new(reused.clone(), new.clone()))
        }
        FlowOp::ReWindow { reused, new } => Box::new(ReWindowOp::new(reused.clone(), new.clone())),
        FlowOp::Restructure {
            template,
            agg,
            window,
        } => match (agg, window) {
            (Some(a), _) => Box::new(RestructureOp::for_aggregate(template.clone(), *a)),
            (None, true) => Box::new(RestructureOp::for_window(template.clone())),
            (None, false) => Box::new(RestructureOp::new(template.clone())),
        },
    }
}

/// `true` when `op` buffers window state across items.
pub fn op_is_stateful(op: &FlowOp) -> bool {
    matches!(
        op,
        FlowOp::Standard(Operator::Aggregation(_))
            | FlowOp::Standard(Operator::WindowOutput(_))
            | FlowOp::ReAggregate { .. }
            | FlowOp::ReWindow { .. }
    )
}

/// One peer's fused operator DAG for one input stream: the flows of a
/// sharing group, keyed by [`FlowId`] sinks.
#[derive(Debug, Default)]
pub struct FlowDag {
    dag: OpDag<FlowOp>,
}

impl FlowDag {
    /// An empty DAG.
    pub fn new() -> FlowDag {
        FlowDag::default()
    }

    /// Registers `flow`'s operator chain, merging shared prefixes.
    pub fn register(&mut self, flow: FlowId, ops: &[FlowOp]) {
        self.dag.register(flow, Self::instantiate(ops), FlowOp::eq);
    }

    /// Replaces `flow`'s chain, rebuilding only the suffix below the first
    /// changed operator: kept prefix nodes retain their window state.
    pub fn reregister(&mut self, flow: FlowId, ops: &[FlowOp]) {
        self.dag
            .reregister(flow, Self::instantiate(ops), FlowOp::eq);
    }

    /// [`Self::reregister`] over several flows as one atomic handoff, but
    /// migrating open window state across the rebuild where the old and
    /// new specs make it exact (identical specs, or widening the step along
    /// the lattice): the planned loss-free handoff behind widening, moving
    /// O(open state) items instead of replaying O(window extent). Flows
    /// that share stateful nodes (sibling consumers patched by the same
    /// widening) must be rebuilt in one batch: a shared node's state only
    /// exports once its last sharer releases it.
    pub fn reregister_migrating_batch(
        &mut self,
        batch: &[(FlowId, &[FlowOp])],
    ) -> dss_engine::MigrationReport {
        self.dag.reregister_migrating_batch(
            batch
                .iter()
                .map(|(flow, ops)| (*flow, Self::instantiate(ops)))
                .collect(),
            FlowOp::eq,
        )
    }

    /// Drops `flow` from the DAG, pruning operators nothing else shares.
    pub fn retire(&mut self, flow: FlowId) {
        self.dag.retire(flow);
    }

    /// Captures a durability checkpoint of the DAG's open window state,
    /// flow-tagged and non-destructive ([`OpDag::snapshot_states`]).
    pub fn snapshot_states(&self) -> Vec<(FlowId, dss_engine::OpState)> {
        self.dag.snapshot_states()
    }

    /// Restores snapshots into the freshly registered `targets` of a
    /// possibly warm DAG ([`OpDag::adopt_states_for`]): the migration path
    /// for successors that joined a shared group already processing other
    /// flows' items and, with every flow a target, the restore of a
    /// [`Self::snapshot_states`] checkpoint into a freshly rebuilt DAG.
    /// Snapshots nothing adopts are dropped.
    pub fn adopt_states_for(
        &mut self,
        targets: &[FlowId],
        pool: Vec<(FlowId, dss_engine::OpState)>,
    ) -> dss_engine::MigrationReport {
        self.dag.adopt_states_for(targets, pool)
    }

    fn instantiate(ops: &[FlowOp]) -> Vec<(FlowOp, Box<dyn StreamOperator + Send>)> {
        ops.iter()
            .map(|op| (op.clone(), build_flow_op(op)))
            .collect()
    }

    /// `true` when `flow` is registered.
    pub fn contains(&self, flow: FlowId) -> bool {
        self.dag.contains(flow)
    }

    /// Number of registered flows.
    pub fn sink_count(&self) -> usize {
        self.dag.sink_count()
    }

    /// `true` when no flow is registered.
    pub fn is_empty(&self) -> bool {
        self.dag.is_empty()
    }

    /// Runs one input item through the DAG; `out` receives every
    /// (flow, output item) pair in deterministic DFS order.
    pub fn process_into(&mut self, item: &Node, out: &mut dyn FnMut(FlowId, &Node)) {
        self.dag.process_into(item, out);
    }

    /// Runs `items` through the DAG, each node over the whole slice; `out`
    /// receives each node's output once per flow ending there
    /// ([`OpDag::process_slice`]).
    pub fn process_slice(&mut self, items: &[Node], out: &mut dyn FnMut(FlowId, SinkBatch<'_>)) {
        self.dag.process_slice(items, out);
    }

    /// End-of-stream flush of all buffered window state.
    pub fn flush_into(&mut self, out: &mut dyn FnMut(FlowId, &Node)) {
        self.dag.flush_into(out);
    }

    /// Total work across DAG nodes — each shared node counted once.
    pub fn total_work(&self) -> f64 {
        self.dag.total_work()
    }

    /// Per-node execution counters (depth, sharers, stats).
    pub fn node_stats(&self) -> Vec<DagNodeStats> {
        self.dag.node_stats()
    }

    /// Aggregated counters of pruned nodes (retired flows' exclusive
    /// operators) — live `node_stats` no longer covers them.
    pub fn retired_stats(&self) -> &dss_engine::OpStats {
        self.dag.retired_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_predicate::{Atom, CompOp, PredicateGraph};
    use dss_properties::{AggOp, AggregationSpec, ResultFilter, WindowSpec};
    use dss_xml::{Decimal, Path};

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn agg(width: &str) -> FlowOp {
        FlowOp::Standard(Operator::Aggregation(AggregationSpec {
            op: AggOp::Sum,
            element: p("en"),
            window: WindowSpec::diff(p("det_time"), d(width), None).unwrap(),
            pre_selection: PredicateGraph::new(),
            result_filter: ResultFilter::none(),
        }))
    }

    fn select(min_en: &str) -> FlowOp {
        FlowOp::Standard(Operator::Selection(PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d(min_en)),
        ])))
    }

    #[test]
    fn windowed_merge_requires_identical_window() {
        let mut dag = FlowDag::new();
        dag.register(0, &[agg("10")]);
        dag.register(1, &[agg("10")]);
        dag.register(2, &[agg("20")]);
        let sharers: Vec<usize> = dag.node_stats().iter().map(|s| s.sharers).collect();
        assert_eq!(sharers, vec![2, 1], "one Φ per distinct window");
        assert!(op_is_stateful(&agg("10")));
        assert!(!op_is_stateful(&select("1.0")));
    }

    #[test]
    fn group_key_distinguishes_inputs() {
        let src = FlowInput::Source {
            stream: "photons".into(),
        };
        let tap = FlowInput::Tap { parent: 3 };
        assert_eq!(GroupKey::of(&src), GroupKey::Source("photons".into()));
        assert_eq!(GroupKey::of(&tap), GroupKey::Tap(3));
        assert_ne!(GroupKey::of(&src), GroupKey::of(&tap));
    }

    #[test]
    fn flow_dag_shares_prefix_and_fans_out() {
        let mut dag = FlowDag::new();
        dag.register(0, &[select("1.0")]);
        dag.register(1, &[select("1.0")]);
        dag.register(2, &[select("2.0")]);
        let hot = dss_xml::Node::elem("photon", vec![dss_xml::Node::leaf("en", "1.5")]);
        let mut outs = Vec::new();
        dag.process_into(&hot, &mut |f, _| outs.push(f));
        outs.sort_unstable();
        assert_eq!(outs, vec![0, 1], "en 1.5 passes σ≥1.0 but not σ≥2.0");
        // One shared σ≥1.0 node: a single item_in despite two sinks.
        let stats = dag.node_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().map(|s| s.stats.items_in).sum::<u64>(), 2);
    }
}
