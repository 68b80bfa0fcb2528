//! Stream flows: the deployed dataflow graph of the network.
//!
//! Every data stream flowing in the network — an original source stream, a
//! transformed stream produced for some subscription, or a final
//! post-processing delivery — is a [`StreamFlow`]: a pipeline of operators
//! installed at one peer, consuming either a raw source or a *tap* on
//! another flow, and routed along a path to its target peer.
//!
//! Tapping models the paper's stream duplication: "The result data stream of
//! Query 1 is duplicated at SP5, yielding two identical streams" — the new
//! flow's processing node must lie on the parent flow's route, and reading
//! the passing stream there costs no extra transmission.

use std::ops::{Deref, DerefMut};

use dss_engine::{Pipeline, Template};
use dss_properties::{
    AggOp, AggregationSpec, InputProperties, Operator, Properties, QueryLens, WindowOutputSpec,
};

use crate::catalog::{Catalog, LensVerdicts, VerdictLoan};
use crate::shared::build_flow_op;
use crate::topology::{NodeId, Topology};

/// Flow identifier (dense index into the deployment).
pub type FlowId = usize;

/// Where a flow's input items come from.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowInput {
    /// A raw registered data stream (produced by a thin-peer source).
    Source { stream: String },
    /// A tap on another flow at this flow's processing node.
    Tap { parent: FlowId },
}

/// One operator of a flow, superset of the property-level operators with
/// the two execution-only operators (re-aggregation and restructuring).
#[derive(Debug, Clone, PartialEq)]
pub enum FlowOp {
    /// Selection / projection / aggregation / UDF, as in properties.
    Standard(Operator),
    /// Re-aggregation of shared partials into coarser windows (Figure 5).
    ReAggregate {
        reused: AggregationSpec,
        new: AggregationSpec,
    },
    /// Re-windowing of shared window-contents items into coarser windows.
    ReWindow {
        reused: WindowOutputSpec,
        new: WindowOutputSpec,
    },
    /// Post-processing: materialize the query's `return` clause. `agg`
    /// names the aggregate op whose value `{ $a }` renders; `window` marks
    /// window-contents input.
    Restructure {
        template: Template,
        agg: Option<AggOp>,
        window: bool,
    },
}

/// Builds the executable pipeline for a flow's operator list.
pub fn build_flow_pipeline(ops: &[FlowOp]) -> Pipeline {
    let mut p = Pipeline::new();
    for op in ops {
        p.push(build_flow_op(op));
    }
    p
}

/// One deployed stream in the network.
#[derive(Debug, Clone)]
pub struct StreamFlow {
    /// Human-readable label, e.g. `photons@SP4` or `q7/photons`.
    pub label: String,
    /// Input source.
    pub input: FlowInput,
    /// Peer where the pipeline executes.
    pub processing_node: NodeId,
    /// Operators installed at the processing node.
    pub ops: Vec<FlowOp>,
    /// Route from the processing node to the target peer (inclusive). The
    /// first element must equal `processing_node`.
    pub route: Vec<NodeId>,
    /// Properties of the produced stream, if it is *shareable*. Delivery
    /// flows (restructured results) carry `None`: the paper excludes
    /// post-processing output from reuse.
    pub properties: Option<Properties>,
    /// Retired flows stay in the deployment (ids are stable) but carry no
    /// traffic, are not shareable, and are skipped by the simulator.
    pub retired: bool,
}

impl StreamFlow {
    /// The peer the stream is delivered to (`getTNode`).
    pub fn target_node(&self) -> NodeId {
        *self.route.last().expect("routes are non-empty")
    }

    /// `true` if the flow's stream passes through (or ends at) `node` and
    /// can be tapped there.
    pub fn available_at(&self, node: NodeId) -> bool {
        self.route.contains(&node)
    }
}

/// The deployed dataflow graph, with a per-peer [`Catalog`] over its
/// shareable flows maintained incrementally on install/retire/widen.
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    flows: Vec<StreamFlow>,
    catalog: Catalog,
    /// Flows whose next in-place chain rewrite is a *planned loss-free
    /// handoff*: the live runtime migrates their open window state across
    /// the rebuild instead of dropping it. Set by the planner (widening
    /// chooses delta migration over a full rebuild per patched consumer).
    handoffs: std::collections::BTreeSet<FlowId>,
}

impl Deployment {
    /// An empty deployment.
    pub fn new() -> Deployment {
        Deployment::default()
    }

    /// Adds a flow, validating its route and tap point.
    ///
    /// # Panics
    /// Panics if the route is empty or does not start at the processing
    /// node, if a tap parent does not exist or is later in the graph, or if
    /// the tap point is not on the parent's route.
    pub fn add_flow(&mut self, flow: StreamFlow) -> FlowId {
        assert!(
            !flow.route.is_empty(),
            "flow {} has an empty route",
            flow.label
        );
        assert_eq!(
            flow.route[0], flow.processing_node,
            "flow {} route must start at its processing node",
            flow.label
        );
        if let FlowInput::Tap { parent } = flow.input {
            assert!(
                parent < self.flows.len(),
                "flow {} taps unknown parent",
                flow.label
            );
            assert!(
                self.flows[parent].available_at(flow.processing_node),
                "flow {} taps parent {} at node {}, which is not on the parent's route",
                flow.label,
                self.flows[parent].label,
                flow.processing_node
            );
        }
        self.flows.push(flow);
        let id = self.flows.len() - 1;
        self.catalog.insert(id, &self.flows[id]);
        id
    }

    /// All flows in id order.
    pub fn flows(&self) -> &[StreamFlow] {
        &self.flows
    }

    /// One flow.
    pub fn flow(&self, id: FlowId) -> &StreamFlow {
        &self.flows[id]
    }

    /// Mutable access to a flow (used by stream widening, which replaces a
    /// deployed flow's operators and properties in place). The returned
    /// guard re-indexes the flow in the catalog when dropped, so widening
    /// and narrowing keep the index consistent without explicit calls.
    pub fn flow_mut(&mut self, id: FlowId) -> FlowMut<'_> {
        FlowMut {
            deployment: self,
            id,
        }
    }

    /// Ids of the flows that tap `id` directly.
    pub fn children_of(&self, id: FlowId) -> Vec<FlowId> {
        (0..self.flows.len())
            .filter(|&c| {
                !self.flows[c].retired
                    && matches!(self.flows[c].input, FlowInput::Tap { parent } if parent == id)
            })
            .collect()
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` if no flows are deployed.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Ids of *shareable* flows whose stream is available at `node` —
    /// the candidate streams Algorithm 1 inspects at each BFS step.
    /// Served from the maintained per-peer index: no scan, no allocation.
    pub fn shareable_at(&self, node: NodeId) -> &[FlowId] {
        self.catalog.shareable_at(node)
    }

    /// Number of currently shareable (indexed) flows across all peers.
    pub fn shareable_len(&self) -> usize {
        self.catalog.indexed_len()
    }

    /// Number of distinct operator chains the catalog has ever seen —
    /// the quantity candidate lookup scales with instead of flow count.
    pub fn distinct_chains(&self) -> usize {
        self.catalog.distinct_chains()
    }

    /// The interned chain id of `id`'s input for `stream` (see
    /// [`Catalog::chain_of`]): equal ids mean byte-identical input
    /// properties.
    pub fn chain_of(&self, id: FlowId, stream: &str) -> Option<crate::catalog::ChainId> {
        self.catalog.chain_of(id, stream)
    }

    /// Shareable variants of origin stream `stream` available at `node`,
    /// ascending — every flow in [`Self::shareable_at`] whose properties
    /// have an input for `stream`. This is the unpruned candidate set; the
    /// widening search enumerates it because widening must see
    /// *non-matching* streams too.
    pub fn variants_at(&self, node: NodeId, stream: &str) -> &[FlowId] {
        self.catalog.variants_at(node, stream)
    }

    /// Collects into `out` the variants of `stream` at `node` whose chain
    /// summaries pass `lens`'s pre-filters, ascending, each paired with
    /// its interned chain id (see [`Self::chain_of`]). Guaranteed to
    /// contain every flow whose properties `match_input_properties` would
    /// accept for the lens's subscription input; non-matches may be pruned.
    /// `verdicts` memoizes per-chain judgements across the peers of one
    /// search — pass a fresh one per lens.
    pub fn candidates_into(
        &self,
        node: NodeId,
        stream: &str,
        lens: &QueryLens,
        verdicts: &mut LensVerdicts,
        out: &mut Vec<(FlowId, crate::catalog::ChainId)>,
    ) {
        self.catalog
            .candidates_into(node, stream, lens, verdicts, out);
    }

    /// What earlier plan searches remembered about the subscription chain
    /// `wanted`, on loan until dropped (see [`Catalog::verdicts_for`]).
    pub fn verdicts_for(&self, wanted: &InputProperties) -> VerdictLoan<'_> {
        self.catalog.verdicts_for(wanted)
    }

    /// Shareable flows at `node` carrying `stream` through a *widenable*
    /// (selection/projection-only) chain, ascending — the extra candidates
    /// the widening search inspects beyond the lens-matched set, served
    /// from the maintained index instead of a variant scan.
    pub fn widenable_at(&self, node: NodeId, stream: &str) -> &[FlowId] {
        self.catalog.widenable_at(node, stream)
    }

    /// Marks (`migrate = true`) or clears a planned loss-free handoff for
    /// `id`: the live runtime rebuilds a marked flow's chain with open
    /// window state migration instead of dropping it. Re-planning the same
    /// flow overwrites the previous choice.
    pub fn set_handoff(&mut self, id: FlowId, migrate: bool) {
        if migrate {
            self.handoffs.insert(id);
        } else {
            self.handoffs.remove(&id);
        }
    }

    /// `true` when `id`'s next in-place chain rewrite is a planned
    /// loss-free handoff (see [`Self::set_handoff`]).
    pub fn is_handoff(&self, id: FlowId) -> bool {
        self.handoffs.contains(&id)
    }

    /// Retires a flow: it keeps its id but carries no traffic and is no
    /// longer shareable or simulated.
    ///
    /// # Panics
    /// Panics if the flow still has active children.
    pub fn retire(&mut self, id: FlowId) {
        assert!(
            self.children_of(id).is_empty(),
            "cannot retire flow {} while {} child flow(s) still tap it",
            self.flows[id].label,
            self.children_of(id).len()
        );
        self.flows[id].retired = true;
        self.catalog.remove(id);
        self.handoffs.remove(&id);
    }

    /// Validates the deployment against a topology: all route hops must be
    /// existing connections.
    pub fn validate(&self, topo: &Topology) {
        for f in &self.flows {
            for w in f.route.windows(2) {
                assert!(
                    topo.edge_between(w[0], w[1]).is_some(),
                    "flow {} routes over non-existent connection {}–{}",
                    f.label,
                    topo.peer(w[0]).name,
                    topo.peer(w[1]).name
                );
            }
        }
    }
}

/// Mutable-access guard for one flow. Dereferences to [`StreamFlow`]; on
/// drop, the flow is re-indexed in the deployment's catalog so in-place
/// mutations (widening's operator/properties rewrite, narrowing's rollback)
/// are reflected in candidate lookups.
pub struct FlowMut<'a> {
    deployment: &'a mut Deployment,
    id: FlowId,
}

impl Deref for FlowMut<'_> {
    type Target = StreamFlow;

    fn deref(&self) -> &StreamFlow {
        &self.deployment.flows[self.id]
    }
}

impl DerefMut for FlowMut<'_> {
    fn deref_mut(&mut self) -> &mut StreamFlow {
        &mut self.deployment.flows[self.id]
    }
}

impl Drop for FlowMut<'_> {
    fn drop(&mut self) {
        let Deployment { flows, catalog, .. } = &mut *self.deployment;
        catalog.reindex(self.id, &flows[self.id]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::grid_topology;
    use dss_properties::InputProperties;

    fn source_flow(route: Vec<NodeId>) -> StreamFlow {
        StreamFlow {
            label: "photons".into(),
            input: FlowInput::Source {
                stream: "photons".into(),
            },
            processing_node: route[0],
            ops: Vec::new(),
            route,
            properties: Some(Properties::single(InputProperties::original("photons"))),
            retired: false,
        }
    }

    #[test]
    fn add_and_query_flows() {
        let t = grid_topology(2, 2);
        let mut d = Deployment::new();
        let f0 = d.add_flow(source_flow(vec![
            t.expect_node("SP0"),
            t.expect_node("SP1"),
            t.expect_node("SP3"),
        ]));
        assert_eq!(d.len(), 1);
        assert_eq!(d.flow(f0).target_node(), t.expect_node("SP3"));
        assert!(d.flow(f0).available_at(t.expect_node("SP1")));
        assert!(!d.flow(f0).available_at(t.expect_node("SP2")));
        assert_eq!(d.shareable_at(t.expect_node("SP1")), vec![f0]);
        d.validate(&t);
    }

    #[test]
    fn tap_must_be_on_parent_route() {
        let t = grid_topology(2, 2);
        let mut d = Deployment::new();
        let f0 = d.add_flow(source_flow(vec![
            t.expect_node("SP0"),
            t.expect_node("SP1"),
        ]));
        let ok = StreamFlow {
            label: "child".into(),
            input: FlowInput::Tap { parent: f0 },
            processing_node: t.expect_node("SP1"),
            ops: Vec::new(),
            route: vec![t.expect_node("SP1"), t.expect_node("SP3")],
            properties: None,
            retired: false,
        };
        d.add_flow(ok);
        d.validate(&t);
    }

    #[test]
    #[should_panic(expected = "not on the parent's route")]
    fn bad_tap_rejected() {
        let t = grid_topology(2, 2);
        let mut d = Deployment::new();
        let f0 = d.add_flow(source_flow(vec![
            t.expect_node("SP0"),
            t.expect_node("SP1"),
        ]));
        d.add_flow(StreamFlow {
            label: "child".into(),
            input: FlowInput::Tap { parent: f0 },
            processing_node: t.expect_node("SP2"),
            ops: Vec::new(),
            route: vec![t.expect_node("SP2")],
            properties: None,
            retired: false,
        });
    }

    #[test]
    #[should_panic(expected = "route must start")]
    fn route_must_start_at_processing_node() {
        let t = grid_topology(2, 2);
        let mut d = Deployment::new();
        d.add_flow(StreamFlow {
            label: "broken".into(),
            input: FlowInput::Source { stream: "s".into() },
            processing_node: t.expect_node("SP0"),
            ops: Vec::new(),
            route: vec![t.expect_node("SP1")],
            properties: None,
            retired: false,
        });
    }

    #[test]
    fn children_and_mutation() {
        let t = grid_topology(2, 2);
        let mut d = Deployment::new();
        let f0 = d.add_flow(source_flow(vec![
            t.expect_node("SP0"),
            t.expect_node("SP1"),
        ]));
        let c1 = d.add_flow(StreamFlow {
            label: "c1".into(),
            input: FlowInput::Tap { parent: f0 },
            processing_node: t.expect_node("SP1"),
            ops: Vec::new(),
            route: vec![t.expect_node("SP1")],
            properties: None,
            retired: false,
        });
        let c2 = d.add_flow(StreamFlow {
            label: "c2".into(),
            input: FlowInput::Tap { parent: f0 },
            processing_node: t.expect_node("SP0"),
            ops: Vec::new(),
            route: vec![t.expect_node("SP0")],
            properties: None,
            retired: false,
        });
        let gc = d.add_flow(StreamFlow {
            label: "grandchild".into(),
            input: FlowInput::Tap { parent: c1 },
            processing_node: t.expect_node("SP1"),
            ops: Vec::new(),
            route: vec![t.expect_node("SP1")],
            properties: None,
            retired: false,
        });
        assert_eq!(d.children_of(f0), vec![c1, c2]);
        assert_eq!(d.children_of(c1), vec![gc]);
        assert!(d.children_of(gc).is_empty());
        // In-place mutation (the widening path).
        d.flow_mut(f0).label = "widened".into();
        assert_eq!(d.flow(f0).label, "widened");
    }

    #[test]
    fn catalog_follows_retire_and_inplace_mutation() {
        let t = grid_topology(2, 2);
        let mut d = Deployment::new();
        let (sp0, sp1) = (t.expect_node("SP0"), t.expect_node("SP1"));
        let f0 = d.add_flow(source_flow(vec![sp0, sp1]));
        assert_eq!(d.shareable_at(sp0), vec![f0]);
        assert_eq!(d.shareable_at(sp1), vec![f0]);
        assert_eq!(d.variants_at(sp1, "photons"), vec![f0]);
        assert!(d.variants_at(sp1, "spectra").is_empty());

        // Mutating properties through the guard re-indexes under the new
        // origin stream.
        d.flow_mut(f0).properties = Some(Properties::single(InputProperties::original("spectra")));
        assert!(d.variants_at(sp1, "photons").is_empty());
        assert_eq!(d.variants_at(sp1, "spectra"), vec![f0]);
        assert_eq!(d.shareable_at(sp1), vec![f0]);

        // Dropping properties makes the flow unshareable…
        d.flow_mut(f0).properties = None;
        assert!(d.shareable_at(sp0).is_empty());
        // …and restoring them brings it back.
        d.flow_mut(f0).properties = Some(Properties::single(InputProperties::original("photons")));
        assert_eq!(d.shareable_at(sp0), vec![f0]);

        d.retire(f0);
        assert!(d.shareable_at(sp0).is_empty());
        assert!(d.shareable_at(sp1).is_empty());
        assert!(d.variants_at(sp1, "photons").is_empty());
    }

    #[test]
    fn indexed_candidates_equal_filtered_scan() {
        use dss_properties::QueryLens;
        let t = grid_topology(2, 2);
        let mut d = Deployment::new();
        let (sp0, sp1, sp3) = (
            t.expect_node("SP0"),
            t.expect_node("SP1"),
            t.expect_node("SP3"),
        );
        d.add_flow(source_flow(vec![sp0, sp1, sp3]));
        d.add_flow(source_flow(vec![sp0, sp1]));
        // A delivery flow (no properties) must never appear.
        d.add_flow(StreamFlow {
            label: "delivery".into(),
            input: FlowInput::Source {
                stream: "photons".into(),
            },
            processing_node: sp1,
            ops: Vec::new(),
            route: vec![sp1],
            properties: None,
            retired: false,
        });
        let wanted = InputProperties::original("photons");
        let lens = QueryLens::of(&wanted);
        let mut verdicts = crate::catalog::LensVerdicts::default();
        let mut got = Vec::new();
        for node in [sp0, sp1, sp3] {
            d.candidates_into(node, "photons", &lens, &mut verdicts, &mut got);
            let scan: Vec<FlowId> = (0..d.len())
                .filter(|&i| {
                    let f = d.flow(i);
                    !f.retired && f.properties.is_some() && f.available_at(node)
                })
                .collect();
            let ids: Vec<FlowId> = got.iter().map(|&(id, _)| id).collect();
            assert_eq!(ids, scan, "node {node}");
            for &(id, chain) in &got {
                assert_eq!(d.chain_of(id, "photons"), Some(chain), "node {node}");
            }
            assert_eq!(d.variants_at(node, "photons"), scan.as_slice());
        }
    }

    #[test]
    fn delivery_flows_not_shareable() {
        let t = grid_topology(2, 2);
        let mut d = Deployment::new();
        let sp0 = t.expect_node("SP0");
        d.add_flow(StreamFlow {
            label: "delivery".into(),
            input: FlowInput::Source { stream: "s".into() },
            processing_node: sp0,
            ops: Vec::new(),
            route: vec![sp0],
            properties: None,
            retired: false,
        });
        assert!(d.shareable_at(sp0).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-existent connection")]
    fn validate_catches_bad_routes() {
        let t = grid_topology(2, 2);
        let mut d = Deployment::new();
        // SP0–SP3 is a diagonal: not a connection in the 2×2 grid.
        d.add_flow(source_flow(vec![
            t.expect_node("SP0"),
            t.expect_node("SP3"),
        ]));
        d.validate(&t);
    }
}
