//! Book-keeping of the network's current estimated resource usage.
//!
//! The planner's cost function needs, per connection, the relative
//! bandwidth still available (`a_b(e)`) and, per peer, the relative load
//! still available (`a_l(v)`). Both are maintained incrementally as plans
//! are installed, using the same estimation formulas the planner itself
//! uses.

use std::collections::BTreeMap;

use dss_engine::{PrefixTrie, TrieNode};
use dss_network::{Deployment, EdgeId, FlowId, FlowOp, GroupKey, NodeId, Topology};

use crate::cost::{CostParams, StreamEstimate};
use crate::stats::StreamStats;

/// Resource charges attributed to one deployed flow, recorded at install
/// time so they can be reversed when the flow is retired.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowCharge {
    /// Estimated kbps charged per connection.
    pub edge_kbps: Vec<(EdgeId, f64)>,
    /// Estimated work units per second charged per peer.
    pub node_work: Vec<(NodeId, f64)>,
}

/// Estimate-level twin of the runtime's intra-peer operator sharing: per
/// (peer, input stream), a [`PrefixTrie`] — the structure
/// `dss_network::FlowDag` executes in — whose node payloads are the work
/// charged when each node was created. A newly registered flow only pays
/// for the operators no earlier flow already runs — shared-prefix work is
/// charged once and split across sharers, keeping the planner's `u_l(v)`
/// (and so `a_l(v)`) consistent with what the fused executor actually
/// does.
///
/// Scope: only the install-time operator charges of new flows route
/// through the book. Widening patch charges (and their narrow-back
/// reversals) stay on the exact-recompute [`FlowCharge`] paths — the book
/// releases exactly what it charged, never more, so both mechanisms
/// compose. A node's stored `work` is the estimate at creation time;
/// later sharers joining at a different estimated input frequency add
/// nothing (the instance already runs), which keeps release exact.
#[derive(Debug, Clone, Default)]
pub struct ShareBook {
    tries: BTreeMap<(NodeId, GroupKey), PrefixTrie<Charge>>,
    /// The trie each recorded flow is charged in.
    flows: BTreeMap<FlowId, (NodeId, GroupKey)>,
}

/// One row of [`ShareBook::ledger`]: a flow, the peer it is charged on,
/// and each path node's `(work bits, sharer count)` in path order.
pub type LedgerEntry = (FlowId, NodeId, Vec<(u64, usize)>);

/// A book node's payload: the operator it stands for and its charge.
#[derive(Debug, Clone)]
struct Charge {
    op: FlowOp,
    /// Estimated work/s charged when this node was created.
    work: f64,
}

impl ShareBook {
    /// Records `flow`'s operator chain at `peer` for input `key` and
    /// returns the newly charged work/s: `unit_work` summed over exactly
    /// the operators no existing sharer already runs (an equal [`FlowOp`],
    /// as in [`dss_network::FlowDag`]).
    ///
    /// # Panics
    /// Panics if `flow` already has a recorded chain.
    pub fn register(
        &mut self,
        flow: FlowId,
        peer: NodeId,
        key: GroupKey,
        ops: &[FlowOp],
        unit_work: impl Fn(&FlowOp) -> f64,
    ) -> f64 {
        assert!(
            !self.flows.contains_key(&flow),
            "flow {flow} has shared op charges recorded twice"
        );
        let mut added = 0.0;
        let charge = |op: &FlowOp| {
            let work = unit_work(op);
            added += work;
            Charge {
                op: op.clone(),
                work,
            }
        };
        let trie = self.tries.entry((peer, key.clone())).or_default();
        trie.insert(flow, ops, |c, op| c.op == **op, charge);
        self.flows.insert(flow, (peer, key));
        added
    }

    /// Drops `flow`'s recorded chain, returning the peer and the work/s
    /// freed by the operators it was the last sharer of. `None` when the
    /// flow never registered shared charges.
    pub fn retire(&mut self, flow: FlowId) -> Option<(NodeId, f64)> {
        let group = self.flows.remove(&flow)?;
        let trie = self.tries.get_mut(&group).expect("a recorded flow's trie");
        let mut freed = 0.0;
        trie.remove(flow, |c| freed += c.work);
        if trie.is_empty() {
            self.tries.remove(&group);
        }
        Some((group.0, freed))
    }

    /// `flow`'s path nodes, root first; none when the flow is not recorded.
    fn path(&self, flow: FlowId) -> impl Iterator<Item = &TrieNode<Charge>> {
        let trie = self.flows.get(&flow).map(|group| &self.tries[group]);
        trie.into_iter().flat_map(move |t| {
            let path = t.path(flow).expect("a recorded flow's path");
            path.iter().map(move |&i| t.node(i))
        })
    }

    /// `flow`'s fair share of the work it rides: each node's charge
    /// divided by its current sharer count.
    pub fn attributed_work(&self, flow: FlowId) -> f64 {
        (self.path(flow))
            .map(|n| n.value.work / n.sharers() as f64)
            .sum()
    }

    /// Bit-exact observable content, for regression tests: per registered
    /// flow, the peer and each path node's `(work bits, sharer count)` in
    /// path order. Two books with equal ledgers charge identically.
    pub fn ledger(&self) -> Vec<LedgerEntry> {
        (self.flows.iter())
            .map(|(&flow, (peer, _))| {
                let nodes = self
                    .path(flow)
                    .map(|n| (n.value.work.to_bits(), n.sharers()));
                (flow, *peer, nodes.collect())
            })
            .collect()
    }
}

/// Mutable network state shared by planning and installation. A clone
/// plans exactly as the original does, from nothing remembered: the
/// topology's routes and the catalog's verdict rows start empty in it.
#[derive(Debug, Clone)]
pub struct NetworkState {
    pub topo: Topology,
    pub deployment: Deployment,
    /// Statistics per *original* registered stream.
    pub stream_stats: BTreeMap<String, StreamStats>,
    /// Registered source flows per original stream name.
    pub source_flows: BTreeMap<String, FlowId>,
    /// Estimated size/frequency of every deployed flow's output.
    pub flow_estimates: Vec<StreamEstimate>,
    /// Charges recorded per flow (parallel to `flow_estimates`).
    pub flow_charges: Vec<FlowCharge>,
    /// Estimated bandwidth currently used per connection (kbps).
    pub edge_used_kbps: Vec<f64>,
    /// Estimated work currently executed per peer (work units per second).
    pub node_used_work: Vec<f64>,
    /// Observed-load feedback per peer (work units/s *beyond* the
    /// estimates), set by the re-planner from runtime telemetry and added
    /// on top of `node_used_work` in [`Self::available_load_frac`]. Zero
    /// everywhere while no rebalance cycle is planning.
    pub load_feedback: Vec<f64>,
    /// Refcounted install-time operator charges (intra-peer sharing).
    pub share_book: ShareBook,
    /// Cost-model parameters.
    pub params: CostParams,
}

impl NetworkState {
    /// Fresh state over a topology.
    pub fn new(topo: Topology, params: CostParams) -> NetworkState {
        let edges = topo.edge_count();
        let nodes = topo.peer_count();
        NetworkState {
            topo,
            deployment: Deployment::new(),
            stream_stats: BTreeMap::new(),
            source_flows: BTreeMap::new(),
            flow_estimates: Vec::new(),
            flow_charges: Vec::new(),
            edge_used_kbps: vec![0.0; edges],
            node_used_work: vec![0.0; nodes],
            load_feedback: vec![0.0; nodes],
            share_book: ShareBook::default(),
            params,
        }
    }

    /// Relative bandwidth still available on a connection (`a_b(e)`).
    /// May be negative when the connection is already overloaded.
    pub fn available_bandwidth_frac(&self, e: EdgeId) -> f64 {
        1.0 - self.edge_used_kbps[e] / self.topo.edge(e).bandwidth_kbps
    }

    /// Relative load still available on a peer (`a_l(v)`), folding in any
    /// observed-load feedback the re-planner set for `v`: the planner
    /// sees the work the estimates missed, so re-plans route away from
    /// peers that are hotter than the model predicted.
    pub fn available_load_frac(&self, v: NodeId) -> f64 {
        1.0 - (self.node_used_work[v] + self.load_feedback[v]) / self.topo.peer(v).capacity
    }

    /// Sets the observed-load feedback overlay for `v`: work units/s the
    /// runtime measured beyond the estimated `node_used_work`. Cleared by
    /// [`Self::clear_load_feedback`] once a rebalance cycle's re-plans
    /// are installed.
    pub fn set_load_feedback(&mut self, v: NodeId, extra_work: f64) {
        self.load_feedback[v] = extra_work;
    }

    /// Zeroes every observed-load feedback overlay.
    pub fn clear_load_feedback(&mut self) {
        self.load_feedback.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Estimated output of a deployed flow.
    pub fn flow_estimate(&self, f: FlowId) -> StreamEstimate {
        self.flow_estimates[f]
    }

    /// Statistics of an original stream.
    pub fn stats(&self, stream: &str) -> Option<&StreamStats> {
        self.stream_stats.get(stream)
    }

    /// Charges a stream's estimated rate to every connection on a route,
    /// attributing the charge to `flow` for later reversal.
    pub fn charge_route_for(&mut self, flow: usize, route: &[NodeId], est: StreamEstimate) {
        for w in route.windows(2) {
            let e = self
                .topo
                .edge_between(w[0], w[1])
                .expect("installed routes use existing connections");
            self.edge_used_kbps[e] += est.kbps();
            self.flow_charges[flow].edge_kbps.push((e, est.kbps()));
        }
    }

    /// Charges operator work (`Σ bload · pindex(v) · input-freq`) to a
    /// peer, attributing it to `flow`.
    pub fn charge_node_for(
        &mut self,
        flow: usize,
        v: NodeId,
        base_load_sum: f64,
        input_frequency: f64,
    ) {
        let work = base_load_sum * self.topo.peer(v).pindex * input_frequency;
        self.node_used_work[v] += work;
        self.flow_charges[flow].node_work.push((v, work));
    }

    /// Reverses one earlier [`charge_route_for`](Self::charge_route_for)
    /// with the same arguments (stream narrowing): subtracts the rate from
    /// every connection on the route and removes the matching recorded
    /// charge entries. Exact float equality is valid here because the
    /// reversal recomputes the identical expression that was stored.
    pub fn discharge_route_for(&mut self, flow: usize, route: &[NodeId], est: StreamEstimate) {
        for w in route.windows(2) {
            let e = self
                .topo
                .edge_between(w[0], w[1])
                .expect("installed routes use existing connections");
            self.edge_used_kbps[e] -= est.kbps();
            let charges = &mut self.flow_charges[flow].edge_kbps;
            if let Some(pos) = charges
                .iter()
                .position(|&(ce, ck)| ce == e && ck == est.kbps())
            {
                charges.remove(pos);
            }
        }
    }

    /// Reverses one earlier [`charge_node_for`](Self::charge_node_for)
    /// with the same arguments.
    pub fn discharge_node_for(
        &mut self,
        flow: usize,
        v: NodeId,
        base_load_sum: f64,
        input_frequency: f64,
    ) {
        let work = base_load_sum * self.topo.peer(v).pindex * input_frequency;
        self.node_used_work[v] -= work;
        let charges = &mut self.flow_charges[flow].node_work;
        if let Some(pos) = charges.iter().position(|&(cv, cw)| cv == v && cw == work) {
            charges.remove(pos);
        }
    }

    /// Charges `flow`'s operator chain at peer `v` through the sharing
    /// book: only operators not already run by a sharing sibling (same
    /// peer, same input `key`, mergeable prefix) add to `node_used_work`.
    pub fn charge_chain_for(
        &mut self,
        flow: FlowId,
        v: NodeId,
        key: GroupKey,
        ops: &[FlowOp],
        input_frequency: f64,
    ) {
        if ops.is_empty() {
            return;
        }
        let pindex = self.topo.peer(v).pindex;
        let added = self.share_book.register(flow, v, key, ops, |op| {
            crate::plan::flow_op_base_load(op) * pindex * input_frequency
        });
        self.node_used_work[v] += added;
        // `added` below the chain's full load means a sharing sibling
        // already pays for the prefix — the ShareBook win the trace makes
        // visible per installation.
        dss_telemetry::event("sharebook_charge", || {
            let full: f64 = ops
                .iter()
                .map(|op| crate::plan::flow_op_base_load(op) * pindex * input_frequency)
                .sum();
            [
                (
                    "peer",
                    dss_telemetry::Value::from(self.topo.peer(v).name.as_str()),
                ),
                ("flow", (flow as u64).into()),
                ("ops", ops.len().into()),
                ("charged", added.into()),
                ("full_load", full.into()),
            ]
        });
        dss_telemetry::histogram_record(
            "plan.sharebook_charge",
            || vec![("peer", self.topo.peer(v).name.clone())],
            added,
        );
    }

    /// `flow`'s fair share of the shared operator work it rides.
    pub fn shared_attributed_work(&self, flow: FlowId) -> f64 {
        self.share_book.attributed_work(flow)
    }

    /// Reverses every charge attributed to `flow` (flow retirement),
    /// including its sharing-book entry: operators the flow was the last
    /// sharer of free their charge, shared ones stay paid for by the
    /// remaining sharers.
    pub fn uncharge_flow(&mut self, flow: usize) {
        let charge = std::mem::take(&mut self.flow_charges[flow]);
        for (e, kbps) in charge.edge_kbps {
            self.edge_used_kbps[e] -= kbps;
        }
        for (v, work) in charge.node_work {
            self.node_used_work[v] -= work;
        }
        if let Some((v, freed)) = self.share_book.retire(flow) {
            self.node_used_work[v] -= freed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_network::grid_topology;

    #[test]
    fn availability_tracks_charges() {
        let topo = grid_topology(2, 2);
        let mut st = NetworkState::new(topo, CostParams::default());
        let e = 0;
        assert!((st.available_bandwidth_frac(e) - 1.0).abs() < 1e-12);
        let (a, b) = (st.topo.edge(e).a, st.topo.edge(e).b);
        let est = StreamEstimate {
            item_size: 12_500.0,
            frequency: 1.0,
        }; // 100 kbps
        st.flow_charges.push(FlowCharge::default());
        st.charge_route_for(0, &[a, b], est);
        // Default bandwidth is 100 Mbit/s ⇒ 0.1 % used.
        assert!((st.available_bandwidth_frac(e) - 0.999).abs() < 1e-9);

        assert!((st.available_load_frac(a) - 1.0).abs() < 1e-12);
        st.charge_node_for(0, a, 2.0, 100.0); // 200 units/s of 100k capacity
        assert!((st.available_load_frac(a) - 0.998).abs() < 1e-9);

        // Reversal restores full availability.
        st.uncharge_flow(0);
        assert!((st.available_bandwidth_frac(e) - 1.0).abs() < 1e-12);
        assert!((st.available_load_frac(a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn share_book_charges_prefix_once_and_frees_last_sharer() {
        use dss_properties::Operator;
        let udf = |name: &str| {
            FlowOp::Standard(Operator::Udf {
                name: name.into(),
                params: Vec::new(),
            })
        };
        let mut book = ShareBook::default();
        let unit = |_: &FlowOp| 10.0;
        // Flow 0 installs σ-like prefix [a, b]: both charged.
        let key = GroupKey::Tap(7);
        let added = book.register(0, 3, key.clone(), &[udf("a"), udf("b")], unit);
        assert!((added - 20.0).abs() < 1e-12);
        // Flow 1 shares [a] and adds [c]: only c is charged.
        let added = book.register(1, 3, key.clone(), &[udf("a"), udf("c")], unit);
        assert!((added - 10.0).abs() < 1e-12);
        // Fair split: flow 0 rides a (half) + b (alone).
        assert!((book.attributed_work(0) - 15.0).abs() < 1e-12);
        // Same ops at a different peer share nothing.
        let added = book.register(2, 4, key.clone(), &[udf("a")], unit);
        assert!((added - 10.0).abs() < 1e-12);
        // Retiring flow 0 frees b only; a stays paid for flow 1.
        let (peer, freed) = book.retire(0).unwrap();
        assert_eq!(peer, 3);
        assert!((freed - 10.0).abs() < 1e-12);
        assert!((book.attributed_work(1) - 20.0).abs() < 1e-12);
        // Retiring the last sharer frees the rest.
        let (_, freed) = book.retire(1).unwrap();
        assert!((freed - 20.0).abs() < 1e-12);
        assert!(book.retire(1).is_none(), "already retired");
    }

    #[test]
    fn uncharge_flow_releases_share_book_entry() {
        let topo = grid_topology(2, 2);
        let mut st = NetworkState::new(topo, CostParams::default());
        let ops = vec![FlowOp::Standard(dss_properties::Operator::Udf {
            name: "u".into(),
            params: Vec::new(),
        })];
        st.flow_charges.push(FlowCharge::default());
        st.flow_charges.push(FlowCharge::default());
        st.charge_chain_for(0, 1, GroupKey::Source("s".into()), &ops, 100.0);
        let one_flow = st.node_used_work[1];
        assert!(one_flow > 0.0);
        // A second identical flow shares the whole chain: no extra charge.
        st.charge_chain_for(1, 1, GroupKey::Source("s".into()), &ops, 100.0);
        assert_eq!(st.node_used_work[1], one_flow);
        st.uncharge_flow(0);
        assert_eq!(st.node_used_work[1], one_flow, "flow 1 still pays");
        st.uncharge_flow(1);
        assert!(st.node_used_work[1].abs() < 1e-12);
    }

    fn udf(name: &str) -> FlowOp {
        FlowOp::Standard(dss_properties::Operator::Udf {
            name: name.into(),
            params: Vec::new(),
        })
    }

    /// A small deployed graph: a source flow SP0→SP1 and two tap consumers
    /// at SP1 sharing an operator prefix. Flow 1 is then retired (the
    /// replan pattern).
    fn charged_state() -> NetworkState {
        use dss_network::{FlowInput, StreamFlow};
        let topo = grid_topology(2, 2);
        let mut st = NetworkState::new(topo, CostParams::default());
        let est = StreamEstimate {
            item_size: 777.0,
            frequency: 3.3,
        };
        let f0 = st.deployment.add_flow(StreamFlow {
            label: "photons".into(),
            input: FlowInput::Source {
                stream: "photons".into(),
            },
            processing_node: 0,
            ops: Vec::new(),
            route: vec![0, 1],
            properties: None,
            retired: false,
        });
        st.flow_charges.push(FlowCharge::default());
        st.charge_route_for(f0, &[0, 1], est);
        let mut tap = |ops: Vec<FlowOp>, route: Vec<NodeId>| {
            let f = st.deployment.add_flow(StreamFlow {
                label: format!("q{}", st.deployment.len()),
                input: FlowInput::Tap { parent: f0 },
                processing_node: 1,
                ops: ops.clone(),
                route,
                properties: None,
                retired: false,
            });
            st.flow_charges.push(FlowCharge::default());
            let route = st.deployment.flow(f).route.clone();
            st.charge_route_for(f, &route, est);
            st.charge_chain_for(f, 1, GroupKey::Tap(f0), &ops, 5.0);
            f
        };
        let f1 = tap(vec![udf("a"), udf("b")], vec![1, 3]);
        let _f2 = tap(vec![udf("a"), udf("c")], vec![1]);
        st.uncharge_flow(f1);
        st
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn uncharge_twice_equals_once() {
        // Repeated replan cycles must neither double-free nor leak the
        // shared-node install charges (mirror of apply_caps_twice_equals
        // _once): a second reversal of the same flow is a no-op.
        let mut st = charged_state();
        let f2 = 2;
        st.uncharge_flow(f2);
        let edges_once = bits(&st.edge_used_kbps);
        let nodes_once = bits(&st.node_used_work);
        let ledger_once = st.share_book.ledger();
        st.uncharge_flow(f2);
        assert_eq!(bits(&st.edge_used_kbps), edges_once);
        assert_eq!(bits(&st.node_used_work), nodes_once);
        assert_eq!(st.share_book.ledger(), ledger_once);
        // All flows gone: tables return to zero (no leak either).
        st.uncharge_flow(0);
        assert!(st.edge_used_kbps.iter().all(|x| x.abs() < 1e-12));
        assert!(st.node_used_work.iter().all(|x| x.abs() < 1e-12));
        // The cycle can re-register under the same id afterwards.
        st.flow_charges[f2] = FlowCharge::default();
        st.charge_chain_for(f2, 2, GroupKey::Tap(0), &[udf("a")], 5.0);
        assert!(st.shared_attributed_work(f2) > 0.0);
    }

    /// The book's live nodes for one (peer, input) as `(depth, sharers)`
    /// in DFS pre-order, and the arena slots its trie holds.
    fn book_shape(book: &ShareBook, group: &(NodeId, GroupKey)) -> (Vec<(usize, usize)>, usize) {
        let Some(trie) = book.tries.get(group) else {
            return (Vec::new(), 0);
        };
        let nodes = (trie.preorder().into_iter()).map(|(i, depth)| (depth, trie.node(i).sharers()));
        (nodes.collect(), trie.slots())
    }

    mod mirrors_the_dag {
        use super::*;
        use dss_network::FlowDag;
        use proptest::prelude::*;

        proptest! {
            /// Random register/retire sequences on one (peer, input): the
            /// book holds the trie the executor runs — the same nodes at
            /// the same depths with the same sharer counts as
            /// `FlowDag::node_stats` — never grows its arena past the peak
            /// live-node count, and is empty once every flow has retired.
            #[test]
            fn book_and_dag_agree_under_churn(
                steps in prop::collection::vec(
                    (0usize..6, prop::collection::vec(0usize..3, 0..4)),
                    1..40,
                ),
            ) {
                let ops = [udf("a"), udf("b"), udf("c")];
                let group = (1, GroupKey::Tap(0));
                let mut st = NetworkState::new(grid_topology(2, 2), CostParams::default());
                st.flow_charges.resize(6, FlowCharge::default());
                let mut dag = FlowDag::new();
                let mut peak = 0;
                // Each step toggles a flow; a last pass retires the rest.
                let steps = steps.into_iter().map(|(f, chain)| (f, Some(chain)));
                for (flow, chain) in steps.chain((0..6).map(|f| (f, None))) {
                    if dag.contains(flow) {
                        dag.retire(flow);
                        st.uncharge_flow(flow);
                    } else if let Some(chain) = chain {
                        let chain: Vec<FlowOp> = chain.iter().map(|&i| ops[i].clone()).collect();
                        dag.register(flow, &chain);
                        st.charge_chain_for(flow, group.0, group.1.clone(), &chain, 5.0);
                    }
                    let live: Vec<(usize, usize)> =
                        dag.node_stats().iter().map(|n| (n.depth, n.sharers)).collect();
                    let (book, slots) = book_shape(&st.share_book, &group);
                    prop_assert_eq!(&book, &live);
                    peak = peak.max(book.len());
                    prop_assert!(slots <= peak, "{} arena slots, peak {} live nodes", slots, peak);
                }
                prop_assert!(dag.is_empty() && dag.node_stats().is_empty());
                prop_assert!(st.share_book.tries.is_empty() && st.share_book.flows.is_empty());
                prop_assert!(st.node_used_work[group.0].abs() < 1e-9);
            }
        }
    }

    #[test]
    fn load_feedback_overlays_availability() {
        let topo = grid_topology(2, 2);
        let mut st = NetworkState::new(topo, CostParams::default());
        let cap = st.topo.peer(1).capacity;
        assert!((st.available_load_frac(1) - 1.0).abs() < 1e-12);
        st.set_load_feedback(1, cap / 2.0);
        assert!((st.available_load_frac(1) - 0.5).abs() < 1e-12);
        st.clear_load_feedback();
        assert!((st.available_load_frac(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pindex_scales_node_charge() {
        let mut topo = grid_topology(2, 2);
        topo.peer_mut(0).pindex = 3.0;
        let mut st = NetworkState::new(topo, CostParams::default());
        st.flow_charges.push(FlowCharge::default());
        st.charge_node_for(0, 0, 1.0, 100.0);
        assert!((st.node_used_work[0] - 300.0).abs() < 1e-9);
    }
}
