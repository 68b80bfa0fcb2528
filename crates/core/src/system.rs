//! The `StreamGlobe` façade: stream registration, query registration under
//! a strategy, plan installation, and simulation.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dss_network::{
    sim, ConfigError, Deployment, FlowId, FlowInput, FlowOp, GroupKey, NodeId, PeerKind, SimConfig,
    SimOutcome, StreamFlow, Topology,
};
use dss_properties::Properties;
use dss_wxquery::{compile_query, CompiledQuery, QueryError};
use dss_xml::Node;

use crate::cost::{CostParams, StreamEstimate};
use crate::plan::{flow_op_base_load, Plan};
use crate::state::NetworkState;
use crate::stats::StreamStats;
use crate::strategy::{plan_query_with, Strategy};
use crate::subscribe::SubscribeError;

/// Errors surfaced by the system façade.
#[derive(Debug)]
pub enum SystemError {
    /// The WXQuery text failed to parse/compile.
    Query(QueryError),
    /// Planning failed (unknown stream, admission rejection).
    Subscribe(SubscribeError),
    /// An unknown peer name was used.
    UnknownPeer(String),
    /// A stream with this name is already registered.
    DuplicateStream(String),
    /// No query with this id is registered.
    UnknownQuery(String),
    /// An invalid simulation/runtime configuration.
    Config(ConfigError),
    /// A valid configuration combination the system does not support.
    Unsupported(String),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Query(e) => write!(f, "{e}"),
            SystemError::Subscribe(e) => write!(f, "{e}"),
            SystemError::UnknownPeer(p) => write!(f, "unknown peer {p:?}"),
            SystemError::DuplicateStream(s) => write!(f, "stream {s:?} already registered"),
            SystemError::UnknownQuery(q) => write!(f, "no registered query with id {q:?}"),
            SystemError::Config(e) => write!(f, "{e}"),
            SystemError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<QueryError> for SystemError {
    fn from(e: QueryError) -> SystemError {
        SystemError::Query(e)
    }
}

impl From<SubscribeError> for SystemError {
    fn from(e: SubscribeError) -> SystemError {
        SystemError::Subscribe(e)
    }
}

impl From<ConfigError> for SystemError {
    fn from(e: ConfigError) -> SystemError {
        SystemError::Config(e)
    }
}

/// Result of registering a continuous query.
#[derive(Debug)]
pub struct Registration {
    /// Caller-chosen query id.
    pub query_id: String,
    /// The installed evaluation plan.
    pub plan: Plan,
    /// Wall-clock time from the beginning of registration until the plan
    /// was installed (Table 1's "query registration time").
    pub elapsed: Duration,
    /// Id of the flow delivering the final (restructured) result.
    pub delivery_flow: dss_network::FlowId,
    /// `true` if the plan reuses a non-original stream.
    pub reused_derived_stream: bool,
}

/// What it takes to narrow one widened flow back when the query that
/// widened it unregisters: the flow's pre-widening shape, the restore
/// patches spliced into its consumers, and the exact charges to reverse.
#[derive(Debug, Clone)]
pub(crate) struct WidenUndo {
    /// The widened flow.
    flow: FlowId,
    /// Properties this widening installed — narrowing only applies while
    /// the flow still carries exactly these (a later, stacked widening
    /// supersedes this undo).
    widened: Properties,
    prev_ops: Vec<FlowOp>,
    prev_properties: Option<Properties>,
    prev_label: String,
    prev_estimate: StreamEstimate,
    /// Input frequency the consumer patches were charged with.
    widened_frequency: f64,
    /// Extra rate charged over the flow's route at widening time.
    delta_estimate: StreamEstimate,
    route: Vec<NodeId>,
    /// Consumers that got a (non-empty) restore patch spliced in front of
    /// their operators.
    patched_children: Vec<(FlowId, Vec<FlowOp>)>,
}

/// Book-keeping for one installed query (enables unregistration and
/// failover re-registration).
#[derive(Debug, Clone)]
pub(crate) struct Installed {
    pub(crate) query_id: String,
    /// The original WXQuery text and registration site, kept so the query
    /// can be re-planned from scratch after a peer failure.
    pub(crate) text: String,
    pub(crate) at_peer: String,
    pub(crate) strategy: Strategy,
    /// The post-processing/delivery flow; transport flows are found by
    /// walking parents during retirement.
    pub(crate) delivery_flow: FlowId,
    /// Widenings this query performed, most recent last.
    widens: Vec<WidenUndo>,
}

/// The data-stream-sharing system over one super-peer network.
#[derive(Debug)]
pub struct StreamGlobe {
    pub(crate) state: NetworkState,
    /// Every registered source stream's items, in the shape the
    /// simulator borrows them.
    pub(crate) sources: BTreeMap<String, Vec<Node>>,
    pub(crate) registrations: Vec<Installed>,
    /// Stream widening (the paper's ongoing-work extension) enabled?
    widening: bool,
    /// Per-peer capacities as they were before the first capacity cap was
    /// applied. Caps are expressed against this baseline so re-applying a
    /// cap is idempotent instead of compounding.
    capacity_baseline: Option<Vec<f64>>,
    /// Queries the re-balancer already moved off a peer, as
    /// `(query id, peer)`: a pinned query is never selected for migration
    /// off that peer again, making consecutive rebalance passes a
    /// fixpoint instead of an oscillation.
    pub(crate) rebalance_pins: std::collections::BTreeSet<(String, NodeId)>,
}

impl StreamGlobe {
    /// Creates a system over a topology with default cost parameters.
    pub fn new(topo: Topology) -> StreamGlobe {
        StreamGlobe::with_params(topo, CostParams::default())
    }

    /// Creates a system with explicit cost parameters.
    pub fn with_params(topo: Topology, params: CostParams) -> StreamGlobe {
        StreamGlobe {
            state: NetworkState::new(topo, params),
            sources: BTreeMap::new(),
            registrations: Vec::new(),
            widening: false,
            capacity_baseline: None,
            rebalance_pins: std::collections::BTreeSet::new(),
        }
    }

    /// Enables or disables stream *widening*: non-matching streams may be
    /// loosened in place (predicate hull, projection union) to serve a new
    /// subscription, with every existing consumer patched to re-apply its
    /// original narrowing operators. Off by default — the paper presents it
    /// as ongoing work beyond plain stream sharing.
    pub fn set_widening(&mut self, on: bool) {
        self.widening = on;
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.state.topo
    }

    /// Mutable topology access (capacity caps for the admission
    /// experiment). Only peer/edge parameters may be changed, not the
    /// graph structure.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.state.topo
    }

    /// Caps every peer's capacity at `cpu_fraction` of its *original*
    /// (pre-cap) capacity and every connection at `bandwidth_kbps`. The
    /// baseline is recorded on first use, so calling this again with the
    /// same arguments is a no-op rather than compounding the cap.
    pub fn apply_capacity_caps(&mut self, cpu_fraction: f64, bandwidth_kbps: f64) {
        let baseline = self.capacity_baseline.get_or_insert_with(|| {
            (0..self.state.topo.peer_count())
                .map(|v| self.state.topo.peer(v).capacity)
                .collect()
        });
        for (v, &base) in baseline.iter().enumerate() {
            self.state.topo.peer_mut(v).capacity = base * cpu_fraction;
        }
        for e in 0..self.state.topo.edge_count() {
            self.state.topo.edge_mut(e).bandwidth_kbps = bandwidth_kbps;
        }
    }

    /// Sets the observed-load feedback overlay for `peer` — what a
    /// rebalance cycle injects between retiring its victims and
    /// re-registering them ([`NetworkState::set_load_feedback`]) — so a
    /// caller can plan against a measured network without running one.
    pub fn set_load_feedback(&mut self, peer: NodeId, extra_work: f64) {
        self.state.set_load_feedback(peer, extra_work);
    }

    /// The deployed dataflow graph.
    pub fn deployment(&self) -> &Deployment {
        &self.state.deployment
    }

    /// The planner state (estimates, usage book-keeping).
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// Registers a data stream produced by `source_peer`, with `items` as
    /// both the statistics sample and the simulation payload, arriving at
    /// `frequency` items/second.
    pub fn register_stream(
        &mut self,
        name: impl Into<String>,
        source_peer: &str,
        items: Vec<Node>,
        frequency: f64,
    ) -> Result<(), SystemError> {
        let name = name.into();
        if self.sources.contains_key(&name) {
            return Err(SystemError::DuplicateStream(name));
        }
        let peer = self.node_by_name(source_peer)?;
        let sp = self.super_peer_of(peer)?;
        let stats = StreamStats::from_sample(&items, frequency);
        let estimate = StreamEstimate {
            item_size: stats.item_size,
            frequency,
        };
        let route = if peer == sp {
            vec![peer]
        } else {
            vec![peer, sp]
        };
        let flow = self.state.deployment.add_flow(StreamFlow {
            label: format!("{name}@{}", self.state.topo.peer(sp).name),
            input: FlowInput::Source {
                stream: name.clone(),
            },
            processing_node: peer,
            ops: Vec::new(),
            route: route.clone(),
            properties: Some(Properties::original(name.clone())),
            retired: false,
        });
        self.state.flow_estimates.push(estimate);
        self.state
            .flow_charges
            .push(crate::state::FlowCharge::default());
        self.state.charge_route_for(flow, &route, estimate);
        self.state.stream_stats.insert(name.clone(), stats);
        self.state.source_flows.insert(name.clone(), flow);
        self.sources.insert(name, items);
        Ok(())
    }

    /// Registers a continuous WXQuery subscription at `at_peer` under the
    /// given strategy, installing the resulting plan.
    pub fn register_query(
        &mut self,
        query_id: impl Into<String>,
        text: &str,
        at_peer: &str,
        strategy: Strategy,
    ) -> Result<Registration, SystemError> {
        self.register_query_opts(query_id, text, at_peer, strategy, false)
    }

    /// [`register_query`](Self::register_query) with admission control:
    /// when `require_feasible` is set, registration fails instead of
    /// overloading any peer or connection.
    pub fn register_query_opts(
        &mut self,
        query_id: impl Into<String>,
        text: &str,
        at_peer: &str,
        strategy: Strategy,
        require_feasible: bool,
    ) -> Result<Registration, SystemError> {
        let query_id = query_id.into();
        let start = Instant::now();
        // The whole registration — search, plan choice, installation — is
        // one trace span; the per-input `subscribe_input` search spans
        // nest under it.
        let _reg_span = dss_telemetry::span("register_query", || {
            [
                ("query", dss_telemetry::Value::from(query_id.as_str())),
                ("strategy", format!("{strategy:?}").into()),
                ("peer", at_peer.into()),
            ]
        });
        let compiled = compile_query(text)?;
        let subscriber = self.node_by_name(at_peer)?;
        let v_q = self.super_peer_of(subscriber)?;
        let planned = plan_query_with(
            &self.state,
            &compiled,
            v_q,
            subscriber,
            strategy,
            require_feasible,
            self.widening,
        );
        let plan = match planned {
            Ok(plan) => plan,
            Err(e) => {
                dss_telemetry::add_field("outcome", || format!("error: {e}").into());
                return Err(e.into());
            }
        };
        dss_telemetry::add_field("outcome", || "installed".into());
        dss_telemetry::add_field("cost", || plan.total_cost.into());
        dss_telemetry::add_field("post_cost", || plan.post_cost.into());
        dss_telemetry::add_field("feasible", || plan.feasible.into());
        let registration = self.install(query_id, text, at_peer, strategy, &compiled, plan, start);
        dss_telemetry::add_field("elapsed_us", || {
            (registration.elapsed.as_micros() as u64).into()
        });
        Ok(registration)
    }

    /// Installs a planned query: creates the transport flow(s) and the
    /// post-processing/delivery flow, and charges the estimated usage.
    #[allow(clippy::too_many_arguments)]
    fn install(
        &mut self,
        query_id: String,
        text: &str,
        at_peer: &str,
        strategy: Strategy,
        compiled: &CompiledQuery,
        plan: Plan,
        start: Instant,
    ) -> Registration {
        let mut reused_derived = false;
        let mut upstream = Vec::new();
        let mut widens = Vec::new();
        for part in &plan.parts {
            // Widening: loosen the tapped flow in place and patch its
            // existing consumers before the new subscription taps it.
            if let Some(widen) = &part.widen {
                reused_derived = true;
                let widened_freq = widen.widened_estimate.frequency;
                {
                    // Snapshot the pre-widening shape so unregistering this
                    // query can narrow the stream back.
                    let flow = self.state.deployment.flow(widen.flow);
                    widens.push(WidenUndo {
                        flow: widen.flow,
                        widened: Properties::single(widen.widened.clone()),
                        prev_ops: flow.ops.clone(),
                        prev_properties: flow.properties.clone(),
                        prev_label: flow.label.clone(),
                        prev_estimate: self.state.flow_estimates[widen.flow],
                        widened_frequency: widened_freq,
                        delta_estimate: widen.delta_estimate,
                        route: flow.route.clone(),
                        patched_children: widen
                            .child_patches
                            .iter()
                            .filter(|(_, patch)| !patch.is_empty())
                            .cloned()
                            .collect(),
                    });
                }
                for (child, patch) in &widen.child_patches {
                    if patch.is_empty() {
                        continue;
                    }
                    let node = self.state.deployment.flow(*child).processing_node;
                    let bload: f64 = patch.iter().map(flow_op_base_load).sum();
                    {
                        let mut flow = self.state.deployment.flow_mut(*child);
                        flow.ops.splice(0..0, patch.iter().cloned());
                    }
                    self.state
                        .charge_node_for(*child, node, bload, widened_freq);
                }
                // Publish the planner's per-child state-handoff choice: the
                // live runtime rebuilds marked children with delta
                // migration instead of dropping their open windows. Setting
                // `false` clears a stale mark from an earlier widening.
                for d in &widen.deltas {
                    self.state.deployment.set_handoff(d.child, d.migrate);
                }
                let route = self.state.deployment.flow(widen.flow).route.clone();
                {
                    let mut flow = self.state.deployment.flow_mut(widen.flow);
                    flow.ops = widen.new_flow_ops.clone();
                    flow.properties = Some(Properties::single(widen.widened.clone()));
                    flow.label.push_str("+widened");
                }
                self.state.flow_estimates[widen.flow] = widen.widened_estimate;
                self.state
                    .charge_route_for(widen.flow, &route, widen.delta_estimate);
            }
            let parent = part.tap_flow;
            if !self
                .state
                .deployment
                .flow(parent)
                .properties
                .as_ref()
                .is_some_and(Properties::is_original)
            {
                reused_derived = true;
            }
            if part.ops.is_empty() && part.route.len() == 1 {
                // Nothing to install: the reused stream already ends (or
                // passes) exactly where post-processing runs.
                upstream.push(parent);
                continue;
            }
            // Transported stream properties: the reused stream's when we
            // forward verbatim, otherwise the subscription's input chain.
            // INVARIANT: every planner path (residual sharing, widening,
            // query shipping) builds `part.ops` to transform the tapped
            // stream into exactly the subscription's input stream, so
            // non-empty ops ⇒ the produced content matches the
            // subscription's chain. A future plan kind that installs a
            // partial chain must carry its own properties instead.
            let properties = if part.ops.is_empty() {
                self.state.deployment.flow(parent).properties.clone()
            } else {
                compiled
                    .properties
                    .input_for(&part.stream)
                    .map(|ip| Properties::single(ip.clone()))
            };
            let flow = self.state.deployment.add_flow(StreamFlow {
                label: format!("{query_id}/{}", part.stream),
                input: FlowInput::Tap { parent },
                processing_node: part.tap_node,
                ops: part.ops.clone(),
                route: part.route.clone(),
                properties,
                retired: false,
            });
            self.state.flow_estimates.push(part.estimate);
            self.state
                .flow_charges
                .push(crate::state::FlowCharge::default());
            self.state
                .charge_route_for(flow, &part.route, part.estimate);
            if !part.ops.is_empty() {
                let input_freq = self.state.flow_estimate(parent).frequency;
                // Route through the sharing book: operators an earlier flow
                // already runs at this tap (same input, mergeable prefix)
                // are not charged again — the fused executor runs them once.
                self.state.charge_shared_ops_for(
                    flow,
                    part.tap_node,
                    GroupKey::Tap(parent),
                    &part.ops,
                    input_freq,
                );
            }
            upstream.push(flow);
        }
        // Post-processing + delivery flow. Multi-input combination would
        // need a join here; the flat fragment guarantees a single input.
        let parent = upstream[0];
        let delivery_flow = self.state.deployment.add_flow(StreamFlow {
            label: format!("{query_id}/result"),
            input: FlowInput::Tap { parent },
            processing_node: plan.post_node,
            ops: plan.post_ops.clone(),
            route: plan.deliver_route.clone(),
            properties: None,
            retired: false,
        });
        self.state.flow_estimates.push(plan.result_estimate);
        self.state
            .flow_charges
            .push(crate::state::FlowCharge::default());
        self.state
            .charge_route_for(delivery_flow, &plan.deliver_route, plan.result_estimate);
        let input_freq = self.state.flow_estimate(parent).frequency;
        self.state.charge_shared_ops_for(
            delivery_flow,
            plan.post_node,
            GroupKey::Tap(parent),
            &plan.post_ops,
            input_freq,
        );

        self.registrations.push(Installed {
            query_id: query_id.clone(),
            text: text.to_string(),
            at_peer: at_peer.to_string(),
            strategy,
            delivery_flow,
            widens,
        });
        Registration {
            query_id,
            plan,
            elapsed: start.elapsed(),
            delivery_flow,
            reused_derived_stream: reused_derived,
        }
    }

    /// Runs the simulator over all registered streams and flows.
    pub fn run_simulation(&self, cfg: SimConfig) -> SimOutcome {
        sim::run(&self.state.topo, &self.state.deployment, &self.sources, cfg)
    }

    /// Number of currently registered queries.
    pub fn query_count(&self) -> usize {
        self.registrations.len()
    }

    /// The sample items of one registered source stream. Networked
    /// deployments replay these from each hosting process's local replica
    /// instead of shipping them over the control plane.
    pub fn source_items(&self, name: &str) -> Option<&[Node]> {
        self.sources.get(name).map(Vec::as_slice)
    }

    /// Names of all registered source streams, in registration-name order.
    pub fn source_names(&self) -> impl Iterator<Item = &str> {
        self.sources.keys().map(String::as_str)
    }

    /// Installed subscriptions as `(query_id, delivery_flow)`, in
    /// registration order — the map a deployment server needs to route a
    /// delivery flow's output back to its subscriber.
    pub fn registered_queries(&self) -> impl Iterator<Item = (&str, FlowId)> {
        self.registrations
            .iter()
            .map(|r| (r.query_id.as_str(), r.delivery_flow))
    }

    /// Unregisters a continuous query: its delivery flow is retired, its
    /// resource charges reversed, and any transport flow left without
    /// consumers is retired transitively (a stream kept alive by *other*
    /// subscribers keeps flowing). Streams this query widened are narrowed
    /// back to their pre-widening shape when it was their last widening
    /// consumer: the surviving consumers' restore patches come out, and the
    /// widening's extra bandwidth/work charges are reversed. A stream a
    /// *later* subscription relies on in its widened form stays widened.
    pub fn unregister_query(&mut self, query_id: &str) -> Result<(), SystemError> {
        let idx = self
            .registrations
            .iter()
            .position(|r| r.query_id == query_id)
            .ok_or_else(|| SystemError::UnknownQuery(query_id.to_string()))?;
        let installed = self.registrations.remove(idx);
        // Retire the delivery flow (it never has children).
        let mut retire_frontier = vec![installed.delivery_flow];
        while let Some(flow) = retire_frontier.pop() {
            let parent = match &self.state.deployment.flow(flow).input {
                dss_network::FlowInput::Tap { parent } => Some(*parent),
                dss_network::FlowInput::Source { .. } => None,
            };
            self.state.deployment.retire(flow);
            self.state.uncharge_flow(flow);
            // Walk upward: a parent transport created by *some* query is
            // retired once nothing taps it anymore. Source flows and flows
            // still delivering to another query stay.
            if let Some(p) = parent {
                let is_source = matches!(
                    self.state.deployment.flow(p).input,
                    dss_network::FlowInput::Source { .. }
                );
                // No active consumers left ⇒ the stream is dead. (Any flow
                // still serving another query has that query's delivery or
                // transport flow among its children.)
                if !is_source && self.state.deployment.children_of(p).is_empty() {
                    retire_frontier.push(p);
                }
            }
        }
        // Narrow widened streams back, most recent widening first.
        for undo in installed.widens.iter().rev() {
            self.narrow_back(undo);
        }
        Ok(())
    }

    /// Reverses one widening if it is still the flow's current shape and
    /// every surviving consumer is one of the patched originals. Skips
    /// silently otherwise — the widened width then remains as shareable
    /// slack (e.g. a later query subscribed to the widened stream itself,
    /// or a stacked widening superseded this one).
    fn narrow_back(&mut self, undo: &WidenUndo) {
        let flow = self.state.deployment.flow(undo.flow);
        if flow.retired || flow.properties.as_ref() != Some(&undo.widened) {
            return;
        }
        let active_children = self.state.deployment.children_of(undo.flow);
        let patched = |c: FlowId| undo.patched_children.iter().find(|(pc, _)| *pc == c);
        // Every surviving consumer must be a patched original whose restore
        // patch still sits in front of its operators.
        for &child in &active_children {
            let Some((_, patch)) = patched(child) else {
                return;
            };
            let ops = &self.state.deployment.flow(child).ops;
            if ops.len() < patch.len() || &ops[..patch.len()] != patch.as_slice() {
                return;
            }
        }
        for &child in &active_children {
            let (_, patch) = patched(child).expect("checked above");
            let node = self.state.deployment.flow(child).processing_node;
            let bload: f64 = patch.iter().map(flow_op_base_load).sum();
            self.state
                .deployment
                .flow_mut(child)
                .ops
                .drain(..patch.len());
            self.state
                .discharge_node_for(child, node, bload, undo.widened_frequency);
            // Dropping the patch restores the child's input byte-identical,
            // so narrowing back is always a loss-free handoff: keep the
            // child's open windows across the rebuild.
            self.state.deployment.set_handoff(child, true);
        }
        {
            let mut flow = self.state.deployment.flow_mut(undo.flow);
            flow.ops = undo.prev_ops.clone();
            flow.properties = undo.prev_properties.clone();
            flow.label = undo.prev_label.clone();
        }
        self.state.flow_estimates[undo.flow] = undo.prev_estimate;
        self.state
            .discharge_route_for(undo.flow, &undo.route, undo.delta_estimate);
    }

    fn node_by_name(&self, name: &str) -> Result<NodeId, SystemError> {
        self.state
            .topo
            .node(name)
            .ok_or_else(|| SystemError::UnknownPeer(name.to_string()))
    }

    /// The super-peer a peer is attached to: the peer itself for
    /// super-peers, the first *live* super-peer neighbor for thin-peers.
    pub(crate) fn super_peer_of(&self, peer: NodeId) -> Result<NodeId, SystemError> {
        if self.state.topo.peer(peer).kind == PeerKind::SuperPeer {
            return Ok(peer);
        }
        self.state
            .topo
            .neighbors(peer)
            .find(|&n| {
                self.state.topo.peer(n).kind == PeerKind::SuperPeer && self.state.topo.peer(n).up
            })
            .ok_or_else(|| SystemError::UnknownPeer(self.state.topo.peer(peer).name.clone()))
    }
}
