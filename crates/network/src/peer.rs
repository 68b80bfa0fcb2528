//! The sans-IO peer core: what a sharing group is, and what happens to a
//! flow's output at `route[hop]`.
//!
//! The paper has one notion of what a super-peer does with a stream: the
//! flows reading one input at one peer are evaluated together, and their
//! results travel hop by hop along the planned route, feeding every tap
//! they pass. This module is that notion, once, with no threads, sockets,
//! clock or log in it. Three drivers run it: the batch simulator
//! ([`crate::sim`], each group over its whole input), the discrete-event runtime
//! ([`crate::runtime`], event heap + virtual clock + faults + WAL) and the
//! TCP data plane of `dss serve` (threads + sockets + retention).
//!
//! * [`GroupTable`] — the `(processing node, GroupKey::of(input))` table,
//!   members in ascending [`FlowId`], kept in step with a [`Deployment`]
//!   by [`GroupTable::sync`], which reports what changed; a group's
//!   [`FlowDag`] is built from it ([`GroupTable::cold_dag`]) by whoever
//!   runs it. [`SharingGroups`] is the table plus every group's DAG,
//!   following those changes, for a driver that re-plans mid-run.
//! * [`FlowOutputs`] — the per-flow output collector of a DAG pass, fed
//!   an item or a whole slice at a time.
//! * [`GroupTable::step`] — the route step: the tap group at `route[hop]`
//!   and where the batch goes next.
//! * [`TapFilter`] — a tap group's leading selections, for a driver that
//!   feeds the group only the items one of them passes (serve).
//! * [`GroupTable::copy_class`] — which item sequence a stream is a copy
//!   of, for a driver that reads identical copies once (serve).
//! * [`Contiguity`] — the exactly-once mark of an in-order link (serve).
//!   The discrete-event runtime's links are in order too, but its mark
//!   accepts an index past a gap: there a gap is an item lost for good,
//!   where under serve it is covered by a resend, so this filter drops it.

use std::collections::BTreeMap;

use dss_engine::{MigrationReport, SinkBatch};
use dss_predicate::CompiledPredicate;
use dss_properties::Operator;
use dss_xml::{Decimal, Node};

use crate::flow::{Deployment, FlowId, FlowOp};
use crate::shared::{FlowDag, GroupKey};
use crate::topology::NodeId;

/// The core's view of one deployed flow.
#[derive(Debug, Clone)]
pub struct FlowView {
    /// `false` once retired (or when the flow joined retired).
    pub active: bool,
    pub label: String,
    /// The processing node.
    pub node: NodeId,
    pub route: Vec<NodeId>,
    /// What the flow reads.
    pub input: GroupKey,
    pub ops: Vec<FlowOp>,
    /// The sharing group the flow joined, kept after it retires; `None`
    /// for flows that joined retired or are processed on a node this table
    /// does not host.
    pub group: Option<usize>,
}

/// One sharing group: the active flows consuming `key` at `node`.
#[derive(Debug)]
pub struct Group {
    pub node: NodeId,
    pub key: GroupKey,
    /// Active members, ascending — the DAG's registration order.
    pub members: Vec<FlowId>,
}

/// The selections that lead every member of a tap group. They are the
/// roots of the group's DAG, so an item none of them passes produces
/// nothing there: a driver may leave it out of what it feeds the group.
/// The DAG still runs its own σ on every item it is fed, so the filter can
/// only drop items that σ would drop.
#[derive(Debug, Clone)]
pub struct TapFilter(Vec<CompiledPredicate>);

impl TapFilter {
    /// Whether any of the group's distinct leading σs passes `item`.
    /// `scratch` is the selections' working space.
    pub fn passes(&self, item: &Node, scratch: &mut Vec<Decimal>) -> bool {
        self.0.iter().any(|sigma| sigma.evaluate(item, scratch))
    }
}

/// Where a flow's output goes after `route[hop]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next<'a> {
    /// On to `route[hop]` (the hop already incremented).
    Forward { to: NodeId, hop: usize },
    /// End of the route of `query`'s delivery flow.
    Deliver { query: &'a str },
    /// End of a route nobody subscribes to: the taps were the consumers.
    End,
}

/// What happens to a flow's output at one hop of its route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step<'a> {
    /// `route[hop]`.
    pub node: NodeId,
    /// The hosted group tapping the flow here, if it has active members.
    pub tap: Option<usize>,
    pub next: Next<'a>,
}

/// The flows, their sharing groups and the delivery map — everything a
/// driver may read while the groups' DAGs run elsewhere.
#[derive(Debug, Default)]
pub struct GroupTable {
    flows: Vec<FlowView>,
    /// In creation order (first member's flow id): indices are stable
    /// across [`GroupTable::sync`].
    groups: Vec<Group>,
    index: BTreeMap<(NodeId, GroupKey), usize>,
    deliveries: BTreeMap<FlowId, String>,
}

/// One change [`GroupTable::sync`] made to a group's membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// A new flow joined the group.
    Join,
    /// A member retired.
    Retire,
    /// A member's operator list changed in place; `handoff` when the
    /// planner marked the rewrite as a loss-free window handoff.
    Rewrite { handoff: bool },
}

impl GroupTable {
    /// The groups of `deployment` on the nodes `hosted` accepts.
    pub fn build(deployment: &Deployment, hosted: impl Fn(NodeId) -> bool) -> GroupTable {
        let mut table = GroupTable::default();
        table.sync(deployment, hosted);
        table
    }

    /// Reconciles the table with a (re)written deployment and reports, in
    /// flow order, every `(group, flow, change)` a group's DAG must follow:
    /// new flows join the group of their `(processing node, input)` if
    /// `hosted` accepts the node, retired flows leave theirs, and an
    /// operator list that changed in place is a rewrite. A new group's
    /// index is the old `groups().len()`.
    pub fn sync(
        &mut self,
        deployment: &Deployment,
        hosted: impl Fn(NodeId) -> bool,
    ) -> Vec<(usize, FlowId, Change)> {
        let mut changes = Vec::new();
        for (id, flow) in deployment.flows().iter().enumerate() {
            if let Some(state) = self.flows.get_mut(id) {
                if flow.retired {
                    if state.active {
                        state.active = false;
                        if let Some(g) = state.group {
                            self.groups[g].members.retain(|&m| m != id);
                            changes.push((g, id, Change::Retire));
                        }
                    }
                } else if state.ops != flow.ops {
                    state.ops = flow.ops.clone();
                    state.label = flow.label.clone();
                    if let Some(g) = state.group {
                        let handoff = deployment.is_handoff(id);
                        changes.push((g, id, Change::Rewrite { handoff }));
                    }
                }
                continue;
            }
            let active = !flow.retired;
            let group = (active && hosted(flow.processing_node)).then(|| {
                let key = GroupKey::of(&flow.input);
                let g = *self
                    .index
                    .entry((flow.processing_node, key.clone()))
                    .or_insert_with(|| {
                        self.groups.push(Group {
                            node: flow.processing_node,
                            key,
                            members: Vec::new(),
                        });
                        self.groups.len() - 1
                    });
                self.groups[g].members.push(id);
                changes.push((g, id, Change::Join));
                g
            });
            self.flows.push(FlowView {
                active,
                label: flow.label.clone(),
                node: flow.processing_node,
                route: flow.route.clone(),
                input: GroupKey::of(&flow.input),
                ops: flow.ops.clone(),
                group,
            });
        }
        changes
    }

    /// Replaces the delivery map: which flows end at a subscriber.
    pub fn set_deliveries(&mut self, deliveries: BTreeMap<FlowId, String>) {
        self.deliveries = deliveries;
    }

    pub fn flows(&self) -> &[FlowView] {
        &self.flows
    }

    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Group indices in `(node, key)` order.
    pub fn ordered(&self) -> impl Iterator<Item = usize> + '_ {
        self.index.values().copied()
    }

    /// A cold DAG for `group`: its members registered in ascending order.
    /// Build it on the thread that will run it — the DAG's state is
    /// allocated and freed there.
    pub fn cold_dag(&self, group: usize) -> FlowDag {
        let mut dag = FlowDag::new();
        for &f in &self.groups[group].members {
            dag.register(f, &self.flows[f].ops);
        }
        dag
    }

    /// The leading selections of tap group `group` ([`TapFilter`]):
    /// `None` unless every member starts with a σ.
    pub fn tap_filter(&self, group: usize) -> Option<TapFilter> {
        let group = &self.groups[group];
        if !matches!(group.key, GroupKey::Tap(_)) {
            return None;
        }
        let mut graphs = Vec::new();
        for &f in &group.members {
            let Some(FlowOp::Standard(Operator::Selection(g))) = self.flows[f].ops.first() else {
                return None;
            };
            if !graphs.contains(&g) {
                graphs.push(g);
            }
        }
        (!graphs.is_empty()).then(|| TapFilter(graphs.iter().map(|g| g.compile()).collect()))
    }

    /// The *copy class* of the stream `key` names: the nearest stream up
    /// its tap chain that some operators produce — `Tap(f)` for the output
    /// of flow `f`, which has operators — or the source stream it starts
    /// from. A flow without operators carries its input unchanged, so two
    /// streams of one class carry the same items in the same order.
    pub fn copy_class(&self, key: &GroupKey) -> GroupKey {
        let mut key = key.clone();
        while let GroupKey::Tap(f) = key {
            let flow = &self.flows[f];
            if !flow.ops.is_empty() {
                break;
            }
            key = flow.input.clone();
        }
        key
    }

    /// The route step for `flow`'s output standing at `route[hop]`.
    pub fn step(&self, flow: FlowId, hop: usize) -> Step<'_> {
        let route = &self.flows[flow].route;
        let node = route[hop];
        let tap = self
            .index
            .get(&(node, GroupKey::Tap(flow)))
            .copied()
            .filter(|&g| !self.groups[g].members.is_empty());
        let next = match (route.get(hop + 1), self.deliveries.get(&flow)) {
            (Some(&to), _) => Next::Forward { to, hop: hop + 1 },
            (None, Some(query)) => Next::Deliver { query },
            (None, None) => Next::End,
        };
        Step { node, tap, next }
    }
}

/// What one batched window handoff of [`SharingGroups::sync`] moved.
#[derive(Debug)]
pub struct Handoff {
    pub group: usize,
    /// How many flows were rebuilt in the batch.
    pub flows: usize,
    pub report: MigrationReport,
}

/// A [`GroupTable`] with each group's fused operator DAG, for a driver
/// whose deployment changes while it runs.
#[derive(Debug, Default)]
pub struct SharingGroups {
    table: GroupTable,
    /// Indexed like `table.groups`.
    dags: Vec<FlowDag>,
}

impl SharingGroups {
    /// Reconciles the groups with a (re)written deployment
    /// ([`GroupTable::sync`]) and has each DAG follow: a joining flow is
    /// registered, a retired one leaves (operators nothing else shares are
    /// pruned), and a rewrite rebuilds only the suffix below the first
    /// changed operator — the windowed state of the unchanged leading
    /// prefix survives.
    ///
    /// Rewrites the planner marked as loss-free handoffs
    /// ([`Deployment::is_handoff`]) additionally migrate their open window
    /// state across the rebuild. Handoffs are applied *per sharing group
    /// as one batch*: sibling consumers patched by the same widening share
    /// stateful DAG nodes, whose state only exports once the last sharer
    /// releases it.
    pub fn sync(
        &mut self,
        deployment: &Deployment,
        hosted: impl Fn(NodeId) -> bool,
    ) -> Vec<Handoff> {
        let changes = self.table.sync(deployment, hosted);
        self.dags.resize_with(self.table.groups.len(), FlowDag::new);
        // Handoffs, collected per group (BTreeMap + id order:
        // deterministic).
        let mut handoffs: BTreeMap<usize, Vec<FlowId>> = BTreeMap::new();
        for (g, id, change) in changes {
            let ops = &self.table.flows[id].ops;
            match change {
                Change::Join => self.dags[g].register(id, ops),
                Change::Retire => self.dags[g].retire(id),
                Change::Rewrite { handoff: false } => self.dags[g].reregister(id, ops),
                Change::Rewrite { handoff: true } => handoffs.entry(g).or_default().push(id),
            }
        }
        handoffs
            .into_iter()
            .map(|(group, ids)| {
                let batch: Vec<(FlowId, &[FlowOp])> = ids
                    .iter()
                    .map(|&id| (id, self.table.flows[id].ops.as_slice()))
                    .collect();
                Handoff {
                    group,
                    flows: ids.len(),
                    report: self.dags[group].reregister_migrating_batch(&batch),
                }
            })
            .collect()
    }

    /// Replaces the delivery map: which flows end at a subscriber.
    pub fn set_deliveries(&mut self, deliveries: BTreeMap<FlowId, String>) {
        self.table.set_deliveries(deliveries);
    }

    /// Discards the operator state of `node`'s groups, as a crash does:
    /// their DAGs restart cold.
    pub fn rebuild_node(&mut self, node: NodeId) {
        for (g, group) in self.table.groups.iter().enumerate() {
            if group.node == node && !group.members.is_empty() {
                self.dags[g] = self.table.cold_dag(g);
            }
        }
    }

    pub fn table(&self) -> &GroupTable {
        &self.table
    }

    pub fn dag(&self, group: usize) -> &FlowDag {
        &self.dags[group]
    }

    /// The group's DAG, for feeding it in place.
    pub fn dag_mut(&mut self, group: usize) -> &mut FlowDag {
        &mut self.dags[group]
    }
}

/// Per-flow outputs of one or more DAG passes: ascending flow order,
/// emission order within a flow. Reusable — a drained flow keeps its
/// (empty) slot.
#[derive(Debug, Default)]
pub struct FlowOutputs {
    slots: Vec<(FlowId, Vec<Node>)>,
}

impl FlowOutputs {
    /// Appends a batch to `flow`'s slot, moving the items when the batch
    /// lets it.
    fn push(&mut self, flow: FlowId, batch: SinkBatch<'_>) {
        let i = match self.slots.binary_search_by_key(&flow, |&(id, _)| id) {
            Ok(i) => i,
            Err(i) => {
                self.slots.insert(i, (flow, Vec::new()));
                i
            }
        };
        let slot = &mut self.slots[i].1;
        match batch {
            SinkBatch::Shared(items) => slot.extend_from_slice(items),
            SinkBatch::Movable(buf) if slot.is_empty() => *slot = buf.take(),
            SinkBatch::Movable(buf) => slot.extend(buf.drain()),
        }
    }

    /// Runs `item` through `dag`, appending what each flow emits.
    pub fn feed(&mut self, dag: &mut FlowDag, item: &Node) {
        self.feed_slice(dag, std::slice::from_ref(item));
    }

    /// Runs `items` through `dag`, each node over the whole slice,
    /// appending what each flow emits.
    pub fn feed_slice(&mut self, dag: &mut FlowDag, items: &[Node]) {
        dag.process_slice(items, &mut |f, batch| self.push(f, batch));
    }

    /// End-of-stream: appends what `dag`'s open windows still hold.
    pub fn flush(&mut self, dag: &mut FlowDag) {
        dag.flush_into(&mut |f, n| self.push(f, SinkBatch::Shared(std::slice::from_ref(n))));
    }

    /// Hands out every flow's collected items, ascending by flow id,
    /// skipping flows that emitted nothing.
    pub fn drain(&mut self) -> impl Iterator<Item = (FlowId, Vec<Node>)> + '_ {
        self.slots
            .iter_mut()
            .filter(|(_, items)| !items.is_empty())
            .map(|(flow, items)| (*flow, std::mem::take(items)))
    }
}

/// Receiver-side exactly-once mark for one in-order input: a link that
/// never reorders, but whose sender may replay from an earlier offset
/// after a restart.
#[derive(Debug, Default, Clone, Copy)]
pub struct Contiguity {
    /// Next offset this receiver will accept.
    next: u64,
    /// End-of-stream already admitted (duplicate markers are dropped).
    eos: bool,
}

/// What [`Contiguity::admit`] lets through from one incoming batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accepted {
    /// How many leading items of the batch were seen before: the admitted
    /// tail starts that many items in, at offset `offset + skip`.
    pub skip: usize,
    /// `true` if this batch carries the first end-of-stream marker.
    pub eos: bool,
}

impl Contiguity {
    /// Admits exactly the tail of a batch of `len` items at `offset` that
    /// lies past the contiguous high-water mark, by saying how many items
    /// to skip — the filter never touches the items, so it works the same
    /// on trees and on encoded bytes. A batch starting *beyond* the mark
    /// is a gap — dropped whole, because the only way gaps arise is a
    /// sender that kept emitting while this receiver was down, and the
    /// recovery resend covers that range. Returns `None` when nothing in
    /// the batch is new.
    pub fn admit(&mut self, offset: u64, len: usize, eos: bool) -> Option<Accepted> {
        if offset > self.next {
            return None;
        }
        let end = offset.saturating_add(len as u64);
        let fresh_eos = eos && !self.eos;
        if end <= self.next && !fresh_eos {
            return None;
        }
        // Entirely re-seen items leave only the first marker to admit.
        let accepted = Accepted {
            skip: len.min((self.next - offset) as usize),
            eos: fresh_eos,
        };
        self.next = self.next.max(end);
        self.eos |= eos;
        Some(accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowInput, StreamFlow};
    use dss_predicate::{Atom, CompOp, PredicateGraph};
    use dss_properties::{AggOp, AggregationSpec, Operator, ResultFilter, WindowSpec};
    use dss_xml::Decimal;

    fn item(i: usize) -> Node {
        Node::elem(
            "photon",
            vec![
                Node::leaf("en", format!("{}", 1.0 + (i % 10) as f64 / 10.0)),
                Node::leaf("det_time", i.to_string()),
            ],
        )
    }

    fn items(range: std::ops::Range<usize>) -> Vec<Node> {
        range.map(item).collect()
    }

    fn selection_ge(en: &str) -> FlowOp {
        FlowOp::Standard(Operator::Selection(PredicateGraph::from_atoms(&[
            Atom::var_const(
                "en".parse().unwrap(),
                CompOp::Ge,
                en.parse::<Decimal>().unwrap(),
            ),
        ])))
    }

    /// An identity pass-through.
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

    fn flow(input: FlowInput, node: NodeId, ops: Vec<FlowOp>, route: Vec<NodeId>) -> StreamFlow {
        StreamFlow {
            label: format!("f@{node}"),
            input,
            processing_node: node,
            ops,
            route,
            properties: None,
            retired: false,
        }
    }

    fn source(stream: &str) -> FlowInput {
        FlowInput::Source {
            stream: stream.into(),
        }
    }

    fn tap(parent: FlowId) -> FlowInput {
        FlowInput::Tap { parent }
    }

    /// Two sources, taps on three nodes (joining out of `(node, key)`
    /// order), one retired flow: 0 and 1 are the sources at node 2 and 0.
    fn mixed_flows() -> Vec<StreamFlow> {
        let mut retired = flow(tap(0), 1, vec![selection_ge("1.1")], vec![1]);
        retired.retired = true;
        vec![
            flow(source("b"), 2, Vec::new(), vec![2, 1, 0]),
            flow(source("a"), 0, Vec::new(), vec![0, 1]),
            flow(tap(1), 1, vec![selection_ge("1.5")], vec![1]),
            flow(tap(0), 1, vec![selection_ge("1.2")], vec![1, 0]),
            retired,
            flow(tap(0), 0, vec![count_agg(4)], vec![0]),
            flow(tap(1), 1, vec![selection_ge("1.7")], vec![1]),
            flow(tap(0), 1, vec![selection_ge("1.2")], vec![1]),
            flow(source("a"), 0, vec![selection_ge("1.3")], vec![0]),
        ]
    }

    type Shape = Vec<(NodeId, GroupKey, Vec<FlowId>)>;

    fn shape(table: &GroupTable) -> Shape {
        table
            .ordered()
            .map(|g| {
                let group = &table.groups()[g];
                (group.node, group.key.clone(), group.members.clone())
            })
            .collect()
    }

    /// The discrete-event runtime grows its groups through `sync`, the
    /// batch simulator and `dss serve` build them whole: both ways yield
    /// the same groups, in `(node, key)` order, members ascending.
    #[test]
    fn whole_build_and_flow_by_flow_sync_agree() {
        let mut whole = Deployment::new();
        let mut step_by_step = Deployment::new();
        let mut grown = SharingGroups::default();
        for f in mixed_flows() {
            whole.add_flow(f.clone());
            step_by_step.add_flow(f);
            assert!(grown.sync(&step_by_step, |_| true).is_empty());
        }
        let built = GroupTable::build(&whole, |_| true);
        let want: Shape = vec![
            (0, GroupKey::Source("a".into()), vec![1, 8]),
            (0, GroupKey::Tap(0), vec![5]),
            (1, GroupKey::Tap(0), vec![3, 7]),
            (1, GroupKey::Tap(1), vec![2, 6]),
            (2, GroupKey::Source("b".into()), vec![0]),
        ];
        assert_eq!(shape(&built), want);
        assert_eq!(shape(grown.table()), want);
        // Group indices are creation order either way, so a mailbox entry
        // addressed to a group stays valid across syncs — and the DAG the
        // grown groups kept in step is the one a whole build starts cold.
        let ids: Vec<usize> = built.ordered().collect();
        assert_eq!(ids, grown.table().ordered().collect::<Vec<_>>());
        for g in ids {
            let (cold, kept) = (built.cold_dag(g), grown.dag(g));
            assert_eq!(cold.sink_count(), built.groups()[g].members.len());
            assert_eq!(cold.node_stats(), kept.node_stats());
        }
        let flows = built.flows();
        assert_eq!((flows[4].active, flows[4].group), (false, None));
        assert_eq!(flows[7].group, flows[3].group);

        // A driver hosting only node 1 forms exactly node 1's groups but
        // still knows every flow's route.
        let hosted = GroupTable::build(&whole, |n| n == 1);
        assert_eq!(shape(&hosted), want[2..4]);
        assert_eq!(hosted.flows().len(), flows.len());
        assert_eq!(hosted.flows()[0].group, None);
    }

    fn run(dag: &mut FlowDag, input: &[Node]) -> Vec<(FlowId, Vec<Node>)> {
        let mut out = FlowOutputs::default();
        for n in input {
            out.feed(dag, n);
        }
        out.drain().collect()
    }

    /// `sync` is the primitive DAG calls the discrete-event runtime used
    /// to make itself: retiring a sharer keeps the survivor's window,
    /// an in-place rewrite keeps the unchanged prefix's state, and a
    /// marked handoff moves the open window of every flow in the batch.
    #[test]
    fn sync_retires_rewrites_and_hands_off_like_the_dag_primitives() {
        let mut d = Deployment::new();
        let src = d.add_flow(flow(source("a"), 0, Vec::new(), vec![0, 1]));
        let a = d.add_flow(flow(tap(src), 1, vec![count_agg(4)], vec![1]));
        let b = d.add_flow(flow(tap(src), 1, vec![count_agg(4)], vec![1]));
        let mut groups = SharingGroups::default();
        groups.sync(&d, |_| true);
        let g = groups.table().flows()[a].group.unwrap();
        let mut reference = FlowDag::new();
        reference.register(a, &[count_agg(4)]);
        reference.register(b, &[count_agg(4)]);
        let both = |groups: &mut SharingGroups, reference: &mut FlowDag, input: Vec<Node>| {
            let got = run(groups.dag_mut(g), &input);
            assert_eq!(got, run(reference, &input));
            assert_eq!(groups.dag(g).node_stats(), reference.node_stats());
            got
        };
        // 6 items: one window closed, two items open in the shared node.
        let out = both(&mut groups, &mut reference, items(0..6));
        assert_eq!(out.len(), 2, "both sharers emit the first window");

        // Retire: the survivor keeps the half-open window.
        d.retire(b);
        assert!(groups.sync(&d, |_| true).is_empty());
        reference.retire(b);
        assert_eq!(groups.table().groups()[g].members, [a]);
        assert_eq!(groups.table().flows()[b].group, Some(g), "kept for lookups");
        let out = both(&mut groups, &mut reference, items(6..9));
        assert_eq!(out.len(), 1, "only the survivor emits");
        assert_eq!(out[0].1.len(), 1, "window 4..8 closed on item 8");
        let stats = groups.dag(g).node_stats();
        assert_eq!((stats[0].sharers, stats[0].stats.items_in), (1, 9));

        // In-place rewrite (suffix grows): the prefix keeps its state.
        let widened = [count_agg(4), udf("post")];
        d.flow_mut(a).ops.push(widened[1].clone());
        assert!(groups.sync(&d, |_| true).is_empty());
        reference.reregister(a, &widened);
        assert_eq!(groups.table().flows()[a].ops, widened);
        both(&mut groups, &mut reference, items(9..11));
        assert_eq!(groups.dag(g).node_stats()[0].stats.items_in, 11);

        // Batched handoff: a rewrite at position 0 rebuilds the chain, and
        // the mark makes the open window (items 8..11) move across.
        let patched = [selection_ge("0.5"), count_agg(4), udf("post")];
        d.flow_mut(a).ops.insert(0, patched[0].clone());
        d.set_handoff(a, true);
        let handoffs = groups.sync(&d, |_| true);
        let want = reference.reregister_migrating_batch(&[(a, &patched)]);
        assert_eq!(handoffs.len(), 1);
        assert_eq!((handoffs[0].group, handoffs[0].flows), (g, 1));
        assert_eq!(handoffs[0].report, want);
        assert_eq!((want.ops_migrated, want.ops_dropped), (1, 0));
        assert!(want.items_moved > 0, "the partial window held items");
        let out = both(&mut groups, &mut reference, items(11..13));
        assert_eq!(out[0].1.len(), 1, "window 8..12 closed across the handoff");

        // A crash forgets the operator state, not the membership.
        groups.rebuild_node(1);
        let stats = groups.dag(g).node_stats();
        assert!(stats.iter().all(|n| n.stats.items_in == 0));
        assert!(groups.dag(g).contains(a) && !groups.dag(g).contains(b));
    }

    /// A flow with operators is a copy class of its own; one without is a
    /// copy of its input, up the tap chain to the source.
    #[test]
    fn copy_class_follows_flows_without_operators_up_to_their_source() {
        let mut d = Deployment::new();
        let src = d.add_flow(flow(source("a"), 0, Vec::new(), vec![0, 1]));
        let copy = d.add_flow(flow(tap(src), 1, Vec::new(), vec![1, 2]));
        let copy_of_copy = d.add_flow(flow(tap(copy), 2, Vec::new(), vec![2]));
        let sel = d.add_flow(flow(tap(copy), 2, vec![selection_ge("1.5")], vec![2]));
        let copy_of_sel = d.add_flow(flow(tap(sel), 2, Vec::new(), vec![2]));
        let table = GroupTable::build(&d, |_| true);
        let class = |f| table.copy_class(&GroupKey::Tap(f));
        for f in [src, copy, copy_of_copy] {
            assert_eq!(class(f), GroupKey::Source("a".into()), "flow {f}");
        }
        assert_eq!(class(sel), GroupKey::Tap(sel));
        assert_eq!(class(copy_of_sel), GroupKey::Tap(sel));
        let source_key = GroupKey::Source("a".into());
        assert_eq!(table.copy_class(&source_key), source_key);
    }

    /// A three-hop flow with a tap at the middle hop and a delivery at the
    /// end: feed the tap, forward twice, deliver.
    #[test]
    fn route_step_feeds_the_tap_then_forwards_then_delivers() {
        let mut d = Deployment::new();
        let f = d.add_flow(flow(source("a"), 0, Vec::new(), vec![0, 1, 2]));
        let t = d.add_flow(flow(tap(f), 1, vec![selection_ge("1.5")], vec![1]));
        let mut table = GroupTable::build(&d, |_| true);
        table.set_deliveries(BTreeMap::from([(f, "q".to_string())]));
        let tap_group = table.flows()[t].group;
        assert!(tap_group.is_some());
        let step = |flow, hop| {
            let s = table.step(flow, hop);
            (s.node, s.tap, s.next)
        };
        assert_eq!(step(f, 0), (0, None, Next::Forward { to: 1, hop: 1 }));
        assert_eq!(step(f, 1), (1, tap_group, Next::Forward { to: 2, hop: 2 }));
        assert_eq!(step(f, 2), (2, None, Next::Deliver { query: "q" }));
        // The tap's own output ends where it is processed, unsubscribed.
        assert_eq!(step(t, 0), (1, None, Next::End));

        // A process that does not host node 1 relays past it; a group
        // whose last member retired is no longer fed.
        let relay = GroupTable::build(&d, |n| n != 1);
        assert_eq!(relay.step(f, 1).tap, None);
        d.retire(t);
        let retired = table.sync(&d, |_| true);
        assert_eq!(retired, [(tap_group.unwrap(), t, Change::Retire)]);
        assert_eq!(table.step(f, 1).tap, None);
    }

    #[test]
    fn contiguity_admits_contiguous_batches_and_drops_gaps() {
        let mut mark = Contiguity::default();
        let admitted = |skip, eos| Some(Accepted { skip, eos });
        assert_eq!(mark.admit(0, 4, false), admitted(0, false));
        // A batch starting beyond the mark is a gap: dropped whole, and the
        // mark does not move — the batch that closes the gap is admitted.
        assert_eq!(mark.admit(6, 3, false), None);
        assert_eq!(mark.admit(4, 2, false), admitted(0, false));
        // Marks are per input: a fresh one starts at zero.
        assert_eq!(Contiguity::default().admit(4, 2, false), None);
        assert!(Contiguity::default().admit(0, 1, false).is_some());
    }

    #[test]
    fn contiguity_admits_exactly_the_unseen_tail_of_an_overlap() {
        let mut mark = Contiguity::default();
        mark.admit(0, 5, false).unwrap();
        // Items 2..9 against a mark of 5: skip three, admit 5..9.
        let a = mark.admit(2, 7, false).unwrap();
        assert_eq!((a.skip, a.eos), (3, false));
        // Entirely re-seen: nothing new, nothing admitted.
        assert_eq!(mark.admit(0, 9, false), None);
        assert_eq!(mark.admit(8, 1, false), None);
        assert_eq!(mark.admit(9, 0, false), None);
    }

    #[test]
    fn contiguity_takes_end_of_stream_once() {
        let admitted = |skip, eos| Some(Accepted { skip, eos });
        // An EOS-only batch on an input that never carried an item.
        let mut mark = Contiguity::default();
        assert_eq!(mark.admit(0, 0, true), admitted(0, true));
        assert_eq!(mark.admit(0, 0, true), None);

        // Items and marker in one batch; a resend of it is dropped, and a
        // resend whose items are all seen still delivers a first marker.
        let mut mark = Contiguity::default();
        assert_eq!(mark.admit(0, 3, false), admitted(0, false));
        assert_eq!(mark.admit(0, 3, true), admitted(3, true));
        assert_eq!(mark.admit(0, 3, true), None);
        assert_eq!(mark.admit(3, 0, true), None);
        // A marker beyond the mark is a gap like any other batch.
        assert_eq!(Contiguity::default().admit(2, 0, true), None);

        // A restarted sender replays everything with the marker on the
        // last batch: the unseen tail and the marker arrive together, once.
        let mut mark = Contiguity::default();
        mark.admit(0, 2, false).unwrap();
        assert_eq!(mark.admit(0, 5, true), admitted(2, true));
        assert_eq!(mark.admit(0, 5, true), None);
    }
}
