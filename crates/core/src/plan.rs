//! Query evaluation plans and the `generatePlan` function of Algorithm 1.
//!
//! A plan describes "how the network has to be changed in terms of
//! installed operators and routed data streams in order to satisfy q": per
//! input stream, which deployed stream to reuse, where to tap it, which
//! residual operators to install there, and how to route the produced
//! stream to the subscriber's super-peer — plus the post-processing
//! (restructuring) step executed there.

use dss_network::{FlowId, FlowOp, NodeId};
use dss_properties::{AggregationSpec, InputProperties, Operator, WindowKind, WindowSpec};
use dss_wxquery::CompiledQuery;

use crate::cost::{
    base_load, load_term, plan_cost, plan_cost_split, traffic_term, EdgeUse, NodeUse,
    StreamEstimate,
};
use crate::state::NetworkState;
use crate::stats::StreamStats;

/// `u_b(e)` / `a_b(e)` of shipping `rate_kbps` over the connection `a`–`b`.
fn edge_use(state: &NetworkState, a: NodeId, b: NodeId, rate_kbps: f64) -> EdgeUse {
    let e = state
        .topo
        .edge_between(a, b)
        .expect("plans route over existing connections");
    EdgeUse {
        used: rate_kbps / state.topo.edge(e).bandwidth_kbps,
        available: state.available_bandwidth_frac(e),
    }
}

/// `u_l(v)` / `a_l(v)` of operators with summed base load `bload_sum` fed
/// at `input_freq` on peer `v`; `None` when there is nothing to run (a
/// verbatim forward adds no peer to `V_P`).
fn node_use(state: &NetworkState, v: NodeId, bload_sum: f64, input_freq: f64) -> Option<NodeUse> {
    if bload_sum == 0.0 {
        return None;
    }
    Some(NodeUse {
        used: bload_sum * state.topo.peer(v).pindex * input_freq / state.topo.peer(v).capacity,
        available: state.available_load_frac(v),
    })
}

/// Accumulates a widening plan's resource uses (`u_b` per affected
/// connection, `u_l` per affected peer — several routes and several peers)
/// against the current availability, tracking feasibility. Plain reuse
/// parts touch one route and one peer and are costed by [`cost_part`]
/// without collecting anything.
#[derive(Debug, Default)]
struct UseAccumulator {
    edges: Vec<EdgeUse>,
    nodes: Vec<NodeUse>,
    infeasible: bool,
}

impl UseAccumulator {
    /// Charges a stream of `rate_kbps` over every connection of `route`.
    fn add_route(&mut self, state: &NetworkState, route: &[NodeId], rate_kbps: f64) {
        for w in route.windows(2) {
            let u = edge_use(state, w[0], w[1], rate_kbps);
            self.infeasible |= u.used > u.available;
            self.edges.push(u);
        }
    }

    /// Charges operators with summed base load `bload_sum` fed at
    /// `input_freq` to peer `v`.
    fn add_node_ops(&mut self, state: &NetworkState, v: NodeId, bload_sum: f64, input_freq: f64) {
        if let Some(u) = node_use(state, v, bload_sum, input_freq) {
            self.infeasible |= u.used > u.available;
            self.nodes.push(u);
        }
    }

    /// The accumulated uses under the cost function `C`.
    fn cost(&self, state: &NetworkState) -> PartCost {
        let (traffic, load) = plan_cost_split(&state.params, &self.edges, &self.nodes);
        PartCost {
            cost: traffic + load,
            traffic,
            load,
            feasible: !self.infeasible,
        }
    }
}

/// The value Algorithm 1 lines 19–22 compare candidate parts by: the cost
/// function over the part's route and tap peer, split into its two
/// weighted terms, and whether the part overloads anything. Costing a
/// candidate allocates nothing; the [`PlanPart`] is built only for a
/// candidate that wins the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PartCost {
    /// `C` of the part: `traffic + load`, exactly.
    pub(crate) cost: f64,
    /// The weighted traffic term `γ·Σ penalized(u_b)`.
    pub(crate) traffic: f64,
    /// The weighted load term `(1−γ)·Σ penalized(u_l)`.
    pub(crate) load: f64,
    /// `true` if the part overloads no connection or peer.
    pub(crate) feasible: bool,
}

/// The transport half of a part's cost: the weighted traffic term of
/// shipping the subscription's stream over one route, and whether every
/// connection on it has the room. It depends on the route and the
/// transported rate only — both fixed per tap peer within one input's
/// search — so the search computes it once per visited peer and shares it
/// among that peer's candidates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteCost {
    traffic: f64,
    feasible: bool,
}

impl RouteCost {
    /// Costs a stream of `rate_kbps` over every connection of `route`.
    pub(crate) fn of(state: &NetworkState, route: &[NodeId], rate_kbps: f64) -> RouteCost {
        let mut feasible = true;
        let traffic = traffic_term(
            &state.params,
            route.windows(2).map(|w| {
                let u = edge_use(state, w[0], w[1], rate_kbps);
                if u.used > u.available {
                    feasible = false;
                }
                u
            }),
        );
        RouteCost { traffic, feasible }
    }
}

/// The costing half of `generatePlan`: `C` of the part that taps
/// `tap_flow` at `tap_node`, runs operators of summed base load `bload`
/// there, and ships the result over the route `route` was computed for.
/// Same operations in the same order as [`plan_cost_split`] over the
/// collected uses, so the result is bit-identical to it.
pub(crate) fn cost_part(
    state: &NetworkState,
    route: RouteCost,
    tap_flow: FlowId,
    tap_node: NodeId,
    bload: f64,
) -> PartCost {
    let node = node_use(
        state,
        tap_node,
        bload,
        state.flow_estimate(tap_flow).frequency,
    );
    let load = load_term(&state.params, node.into_iter());
    PartCost {
        cost: route.traffic + load,
        traffic: route.traffic,
        load,
        feasible: route.feasible && !node.is_some_and(|u| u.used > u.available),
    }
}

/// Base load of execution-only flow operators (mirrors the engine's
/// `base_load` implementations).
pub fn flow_op_base_load(op: &FlowOp) -> f64 {
    match op {
        FlowOp::Standard(o) => base_load(o),
        FlowOp::ReAggregate { .. } => 0.5,
        FlowOp::ReWindow { .. } => 0.7,
        FlowOp::Restructure { .. } => 0.8,
    }
}

/// Per patched consumer, the planner's state-handoff choice for a
/// widening: prepending the restore patch rebuilds the child's whole
/// operator chain, and its open window state either *migrates* (the open
/// accumulators and buffers move — O(delta) items) or is rebuilt by
/// replaying a full window extent of input through every stateful
/// operator (O(window) items). The two estimates are the handoff's own
/// cost split; they stay out of the rate-based cost `C` because the
/// transfer is a one-shot, not a steady-state rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WidenDelta {
    /// The patched child flow.
    pub child: FlowId,
    /// Estimated items a delta migration moves: one open accumulator per
    /// window position for (re-)aggregates, the buffered raw items of the
    /// open windows for window-contents operators.
    pub migrate_items: f64,
    /// Estimated items a full rebuild replays: one window extent of input
    /// per stateful operator before the child's output is warm again.
    pub rebuild_items: f64,
    /// The choice: migrate when it moves no more items than a rebuild
    /// replays (ties prefer the loss-free handoff).
    pub migrate: bool,
}

/// Items covering one full extent of `window` at the stream's raw input
/// (the same items-per-window model `estimate_chain` uses).
fn window_extent_items(stats: &StreamStats, window: &WindowSpec) -> f64 {
    match window.kind() {
        WindowKind::Count => window.size().to_f64(),
        WindowKind::Diff => {
            let r = window.reference().expect("diff windows carry a reference");
            (window.size().to_f64() / stats.avg_increment(r)).max(1.0)
        }
    }
}

/// Number of concurrently open window positions of `window` (Δ/µ, the
/// "delta" a migration moves for accumulator-holding operators).
fn open_window_positions(window: &WindowSpec) -> f64 {
    let step = window.step().to_f64();
    if step <= 0.0 {
        return 1.0;
    }
    (window.size().to_f64() / step).ceil().max(1.0)
}

/// Estimates the state-handoff cost split for one widening-patched child:
/// sums, over the stateful operators of its current chain, the items a
/// delta migration would move vs. the items a full rebuild would replay.
fn widen_delta(state: &NetworkState, stats: &StreamStats, child: FlowId) -> WidenDelta {
    let mut migrate_items = 0.0;
    let mut rebuild_items = 0.0;
    for op in &state.deployment.flow(child).ops {
        let (window, holds_accumulators) = match op {
            FlowOp::Standard(Operator::Aggregation(s)) => (&s.window, true),
            FlowOp::ReAggregate { new, .. } => (&new.window, true),
            FlowOp::Standard(Operator::WindowOutput(w)) => (&w.window, false),
            FlowOp::ReWindow { new, .. } => (&new.window, false),
            _ => continue,
        };
        let extent = window_extent_items(stats, window);
        migrate_items += if holds_accumulators {
            open_window_positions(window)
        } else {
            extent
        };
        rebuild_items += extent;
    }
    WidenDelta {
        child,
        migrate_items,
        rebuild_items,
        migrate: migrate_items <= rebuild_items,
    }
}

/// Widening a deployed stream in place (the paper's ongoing-work
/// extension): the flow's operators are loosened so its stream also covers
/// the new subscription, and every existing consumer gets the original
/// narrowing operators prepended to preserve its results.
#[derive(Debug, Clone)]
pub struct WidenAction {
    /// The flow to widen (equals the part's `tap_flow`).
    pub flow: FlowId,
    /// The widened per-input properties the flow will carry.
    pub widened: InputProperties,
    /// Operators the widened flow executes (relative to its parent).
    pub new_flow_ops: Vec<FlowOp>,
    /// Estimated output of the widened stream.
    pub widened_estimate: StreamEstimate,
    /// Additional rate over the flow's existing route (widened − current,
    /// floored at zero).
    pub delta_estimate: StreamEstimate,
    /// Ops to prepend per existing child flow, restoring each consumer's
    /// original input.
    pub child_patches: Vec<(FlowId, Vec<FlowOp>)>,
    /// State-handoff choice per *patched* child (empty patches rebuild
    /// nothing and carry no delta): delta migration vs. full rebuild,
    /// with the estimated item movement behind the choice.
    pub deltas: Vec<WidenDelta>,
}

/// The plan for one input stream of a subscription (`P_s`).
#[derive(Debug, Clone)]
pub struct PlanPart {
    /// Original input stream name.
    pub stream: String,
    /// Deployed flow whose stream is reused.
    pub tap_flow: FlowId,
    /// Peer where the stream is tapped and the residual operators run
    /// (`v_b`).
    pub tap_node: NodeId,
    /// Residual operators installed at the tap node.
    pub ops: Vec<FlowOp>,
    /// Route of the produced stream from the tap node to the subscriber's
    /// super-peer (inclusive).
    pub route: Vec<NodeId>,
    /// Estimated size/frequency of the produced stream.
    pub estimate: StreamEstimate,
    /// Widening performed on the tapped flow before reuse, if any.
    pub widen: Option<WidenAction>,
    /// Cost-function value of this part.
    pub cost: f64,
    /// The weighted traffic term `γ·Σ penalized(u_b)` of `cost`.
    pub traffic: f64,
    /// The weighted load term `(1−γ)·Σ penalized(u_l)` of `cost`; the two
    /// terms sum to `cost` exactly.
    pub load: f64,
    /// `true` if the part overloads no connection or peer.
    pub feasible: bool,
}

/// A complete evaluation plan for a subscription.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Per-input parts.
    pub parts: Vec<PlanPart>,
    /// The subscriber's super-peer (`v_q`), where post-processing runs.
    pub post_node: NodeId,
    /// Post-processing operators (any residual evaluation the strategy
    /// placed at `v_q`, then restructuring).
    pub post_ops: Vec<FlowOp>,
    /// Route from `v_q` to the subscribing thin-peer (just `[v_q]` when the
    /// subscription was registered at a super-peer directly).
    pub deliver_route: Vec<NodeId>,
    /// Estimated delivered result stream.
    pub result_estimate: StreamEstimate,
    /// Cost of the post-processing + delivery component alone; adding the
    /// parts' costs reproduces `total_cost` exactly.
    pub post_cost: f64,
    /// Total cost across parts plus post-processing.
    pub total_cost: f64,
    /// `true` if no component overloads the network.
    pub feasible: bool,
}

impl Plan {
    /// Number of stream transports the plan adds to the network (excluding
    /// the final thin-peer delivery).
    pub fn num_routed_streams(&self) -> usize {
        self.parts.iter().filter(|p| p.route.len() > 1).count()
    }

    /// Human-readable summary.
    pub fn describe(&self, state: &NetworkState) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for part in &self.parts {
            let names: Vec<&str> = part
                .route
                .iter()
                .map(|&n| state.topo.peer(n).name.as_str())
                .collect();
            let _ = writeln!(
                s,
                "  input {}: reuse flow {} at {}, install {} op(s), route {}",
                part.stream,
                state.deployment.flow(part.tap_flow).label,
                state.topo.peer(part.tap_node).name,
                part.ops.len(),
                names.join(" → "),
            );
        }
        let _ = writeln!(
            s,
            "  post-processing at {} ({} op(s)), cost {:.6}",
            state.topo.peer(self.post_node).name,
            self.post_ops.len(),
            self.total_cost
        );
        s
    }
}

/// Computes the residual flow operators needed to turn the reused stream
/// into the subscription's stream. Aggregations already present upstream
/// become re-aggregations (Figure 5) instead of recomputation from raw
/// items.
pub fn residual_flow_ops(reused: &InputProperties, wanted: &InputProperties) -> Vec<FlowOp> {
    let reused_agg: Option<&AggregationSpec> = reused.aggregation();
    let reused_window: Option<&dss_properties::WindowOutputSpec> =
        reused.operators().iter().find_map(|o| match o {
            Operator::WindowOutput(w) => Some(w),
            _ => None,
        });
    dss_properties::residual_operators(reused, wanted)
        .into_iter()
        .map(|op| match (&op, reused_agg, reused_window) {
            (Operator::Aggregation(new_spec), Some(parent_spec), _) => FlowOp::ReAggregate {
                reused: parent_spec.clone(),
                new: new_spec.clone(),
            },
            (Operator::WindowOutput(new_spec), _, Some(parent_spec)) => FlowOp::ReWindow {
                reused: parent_spec.clone(),
                new: new_spec.clone(),
            },
            _ => FlowOp::Standard(op),
        })
        .collect()
}

impl PlanPart {
    /// The building half of `generatePlan`: the part that taps `tap_flow`
    /// at `tap_node`, installs `ops` there and ships the stream estimated
    /// at `estimate` over `route`, carrying the `cost` it was chosen by.
    pub(crate) fn build(
        stream: &str,
        tap_flow: FlowId,
        tap_node: NodeId,
        ops: Vec<FlowOp>,
        route: Vec<NodeId>,
        estimate: StreamEstimate,
        cost: PartCost,
    ) -> PlanPart {
        PlanPart {
            stream: stream.to_string(),
            tap_flow,
            tap_node,
            ops,
            route,
            estimate,
            widen: None,
            cost: cost.cost,
            traffic: cost.traffic,
            load: cost.load,
            feasible: cost.feasible,
        }
    }

    /// The cost the part carries, as the search compares it.
    pub(crate) fn part_cost(&self) -> PartCost {
        PartCost {
            cost: self.cost,
            traffic: self.traffic,
            load: self.load,
            feasible: self.feasible,
        }
    }

    /// Both halves back to back with nothing precomputed: the route's
    /// additional traffic plus the tap node's additional operator load,
    /// then the part.
    pub(crate) fn cost_and_build(
        state: &NetworkState,
        stream: &str,
        tap_flow: FlowId,
        tap_node: NodeId,
        ops: Vec<FlowOp>,
        route: Vec<NodeId>,
        estimate: StreamEstimate,
    ) -> PlanPart {
        let cost = cost_part(
            state,
            RouteCost::of(state, &route, estimate.kbps()),
            tap_flow,
            tap_node,
            ops.iter().map(flow_op_base_load).sum(),
        );
        PlanPart::build(stream, tap_flow, tap_node, ops, route, estimate, cost)
    }
}

/// `generatePlan(p_b, v_b, v_q)`: costs, then builds, the plan part that
/// reuses `tap_flow`'s stream at `tap_node` to satisfy the subscription
/// input `wanted`, delivering to `post_node`. The search costs its
/// candidates through the same `cost_part` and builds only the winners.
///
/// Returns `None` when no route exists.
pub fn generate_plan_part(
    state: &NetworkState,
    wanted: &InputProperties,
    tap_flow: FlowId,
    tap_node: NodeId,
    post_node: NodeId,
) -> Option<PlanPart> {
    let stats = state.stats(wanted.stream())?;
    let reused = state
        .deployment
        .flow(tap_flow)
        .properties
        .as_ref()
        .and_then(|p| p.input_for(wanted.stream()))?;
    let route = state.topo.route(tap_node, post_node)?.to_vec();
    // The transported stream is semantically the subscription's stream.
    let estimate = crate::cost::estimate_chain(stats, wanted.operators());
    Some(PlanPart::cost_and_build(
        state,
        wanted.stream(),
        tap_flow,
        tap_node,
        residual_flow_ops(reused, wanted),
        route,
        estimate,
    ))
}

/// `generatePlan` for a *widening* candidate: the stream at `tap_flow` does
/// not match the subscription, but loosening its operators (predicate hull,
/// projection union) makes it cover both its current consumers and the new
/// one. Conditions:
///
/// * the candidate's chain is widenable (selection/projection only),
/// * the candidate's **parent** stream contains everything the widened
///   stream needs (we widen one flow, not a whole upstream chain).
///
/// The extra cost has three parts beyond a normal reuse: the widened
/// stream's additional rate over the flow's existing route, the prepended
/// restore-operators at every existing consumer, and the usual transport of
/// the new subscription's stream from the tap to `post_node`.
pub fn generate_widening_part(
    state: &NetworkState,
    wanted: &InputProperties,
    tap_flow: FlowId,
    tap_node: NodeId,
    post_node: NodeId,
) -> Option<PlanPart> {
    let stats = state.stats(wanted.stream())?;
    let flow = state.deployment.flow(tap_flow);
    let current = flow
        .properties
        .as_ref()?
        .input_for(wanted.stream())?
        .clone();
    let widened = dss_properties::widen_input(&current, wanted)?;
    // The parent must be able to feed the widened stream.
    let parent_props: InputProperties = match &flow.input {
        dss_network::FlowInput::Source { stream } => InputProperties::original(stream.clone()),
        dss_network::FlowInput::Tap { parent } => state
            .deployment
            .flow(*parent)
            .properties
            .as_ref()?
            .input_for(wanted.stream())?
            .clone(),
    };
    if !dss_properties::match_input_properties(&parent_props, &widened) {
        return None;
    }
    let new_flow_ops = residual_flow_ops(&parent_props, &widened);
    let widened_estimate = crate::cost::estimate_chain(stats, widened.operators());
    let current_estimate = state.flow_estimate(tap_flow);
    let delta_estimate = StreamEstimate {
        item_size: widened_estimate.item_size,
        frequency: (widened_estimate.bytes_per_s() - current_estimate.bytes_per_s()).max(0.0)
            / widened_estimate.item_size.max(1.0),
    };
    // Restore-ops for every existing consumer of the flow.
    let child_patches: Vec<(FlowId, Vec<FlowOp>)> = state
        .deployment
        .children_of(tap_flow)
        .into_iter()
        .map(|c| (c, residual_flow_ops(&widened, &current)))
        .collect();
    // State handoff per patched child: prepending the patch rebuilds the
    // child's chain, so the planner decides here — per child, with its own
    // item-count cost split — whether the open window state migrates or is
    // replayed from scratch.
    let deltas: Vec<WidenDelta> = child_patches
        .iter()
        .filter(|(_, patch)| !patch.is_empty())
        .map(|(c, _)| widen_delta(state, stats, *c))
        .collect();

    // The new subscription taps the widened stream.
    let ops = residual_flow_ops(&widened, wanted);
    let route = state.topo.route(tap_node, post_node)?.to_vec();
    let estimate = crate::cost::estimate_chain(stats, wanted.operators());

    // ---- cost & feasibility ----------------------------------------------
    let mut uses = UseAccumulator::default();
    // Additional widened traffic over the flow's existing route.
    uses.add_route(state, &flow.route, delta_estimate.kbps());
    // Transport of the new stream.
    uses.add_route(state, &route, estimate.kbps());
    // Child restore-operators, charged at each child's processing node with
    // the widened stream's frequency.
    for (c, patch) in &child_patches {
        let v = state.deployment.flow(*c).processing_node;
        let bload: f64 = patch.iter().map(flow_op_base_load).sum();
        uses.add_node_ops(state, v, bload, widened_estimate.frequency);
    }
    // The new subscription's residual ops at the tap node.
    let bload: f64 = ops.iter().map(flow_op_base_load).sum();
    uses.add_node_ops(state, tap_node, bload, widened_estimate.frequency);
    let mut part = PlanPart::build(
        wanted.stream(),
        tap_flow,
        tap_node,
        ops,
        route,
        estimate,
        uses.cost(state),
    );
    part.widen = Some(WidenAction {
        flow: tap_flow,
        widened,
        new_flow_ops,
        widened_estimate,
        delta_estimate,
        child_patches,
        deltas,
    });
    Some(part)
}

/// Assembles the full plan from its parts, adding the post-processing and
/// delivery components (identical across candidate parts, so they do not
/// influence the search — but they do count toward feasibility and the
/// reported total cost).
pub fn assemble_plan(
    state: &NetworkState,
    query: &CompiledQuery,
    parts: Vec<PlanPart>,
    extra_post_ops: Vec<FlowOp>,
    post_node: NodeId,
    subscriber: NodeId,
) -> Plan {
    let mut post_ops = extra_post_ops;
    post_ops.push(restructure_flow_op(query));

    // Input frequency at the post node: the (sum of) arriving streams.
    let input_freq: f64 = parts.iter().map(|p| p.estimate.frequency).sum();
    // The delivered result stream always corresponds to the query's *full*
    // chain (under data shipping the chain runs inside the post-processing
    // step, so the arriving raw rate would wildly overestimate delivery).
    // Restructuring itself renames/reorders but does not add data.
    let result_estimate = {
        let mut size = 0.0f64;
        let mut freq = 0.0f64;
        for wanted in query.properties.inputs() {
            if let Some(stats) = state.stats(wanted.stream()) {
                let est = crate::cost::estimate_chain(stats, wanted.operators());
                size = size.max(est.item_size);
                freq += est.frequency;
            }
        }
        StreamEstimate {
            item_size: size,
            frequency: freq,
        }
    };

    let mut feasible = parts.iter().all(|p| p.feasible);
    let bload: f64 = post_ops.iter().map(flow_op_base_load).sum();
    let used_post = bload * state.topo.peer(post_node).pindex * input_freq
        / state.topo.peer(post_node).capacity;
    let avail_post = state.available_load_frac(post_node);
    if used_post > avail_post {
        feasible = false;
    }
    let mut edges = Vec::new();
    let deliver_route = if subscriber == post_node {
        vec![post_node]
    } else {
        state
            .topo
            .route(post_node, subscriber)
            .expect("subscriber reachable from its super-peer")
            .to_vec()
    };
    for w in deliver_route.windows(2) {
        let e = state.topo.edge_between(w[0], w[1]).expect("existing edges");
        let used = result_estimate.kbps() / state.topo.edge(e).bandwidth_kbps;
        let available = state.available_bandwidth_frac(e);
        if used > available {
            feasible = false;
        }
        edges.push(EdgeUse { used, available });
    }
    let post_cost = plan_cost(
        &state.params,
        &edges,
        &[NodeUse {
            used: used_post,
            available: avail_post,
        }],
    );
    let total_cost = parts.iter().map(|p| p.cost).sum::<f64>() + post_cost;
    Plan {
        parts,
        post_node,
        post_ops,
        deliver_route,
        result_estimate,
        post_cost,
        total_cost,
        feasible,
    }
}

/// Builds the full-chain flow ops of a compiled query (used by the data- and
/// query-shipping strategies, which install everything at one peer).
pub fn full_chain_ops(query: &CompiledQuery) -> Vec<FlowOp> {
    query
        .operator_chain()
        .iter()
        .cloned()
        .map(FlowOp::Standard)
        .collect()
}

/// Convenience: the restructure op spec of a query as a `FlowOp`.
fn restructure_flow_op(query: &CompiledQuery) -> FlowOp {
    FlowOp::Restructure {
        template: query.template.clone(),
        agg: query.aggregation.as_ref().map(|a| a.op),
        window: query.window_output.is_some(),
    }
}
