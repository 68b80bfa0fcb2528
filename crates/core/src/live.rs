//! Live execution with fault injection and automatic re-subscription.
//!
//! [`StreamGlobe::run_live`] drives the discrete-event runtime
//! (`dss_network::runtime`) over the system's current deployment while
//! replaying a scripted [`FaultScript`]. When a peer carrying flows
//! crashes, every query whose dataflow touched it is *re-subscribed*: its
//! flows are retired, and the query is re-planned from its stored WXQuery
//! text through the normal `Subscribe` machinery — which, because routing
//! skips down peers, automatically prefers surviving shared streams and
//! routes around the failure. The runtime keeps running throughout and
//! measures what the failure cost: items lost, duplicate deliveries, and
//! the time from the fault to each re-planned query's first delivery.
//!
//! Re-subscription preserves the query (text, subscriber, strategy) — not
//! the operator state: windowed aggregates of re-planned flows restart
//! empty, and widened streams a dead query had widened stay widened (their
//! extra width remains shareable slack; only a clean
//! [`StreamGlobe::unregister_query`] narrows back). The exception is
//! flows a widening re-plan patches *in place*: when the planner marked
//! the patch as a loss-free handoff (`WidenDelta::migrate`), the runtime
//! migrates the open window state across the in-place rebuild, so the
//! untouched owner query keeps delivering whole-stream-exact results.

use std::collections::BTreeMap;

use dss_network::runtime::{FaultKind, FaultScript, LiveConfig, LiveRuntime, RuntimeMetrics};
use dss_network::{FlowId, FlowInput, NodeId, SourceModel};
use dss_xml::Node;

use crate::rebalance::{RebalanceCycle, RebalancePolicy};
use crate::system::{Installed, Registration, StreamGlobe, SystemError};

/// What one peer failure did to the registered queries.
#[derive(Debug)]
pub struct FailoverReport {
    /// The crashed peer.
    pub peer: NodeId,
    /// Fault time (µs on the runtime clock).
    pub at_us: u64,
    /// Flows retired because the dead peer processed or carried them
    /// (including transitive consumers), in id order.
    pub retired_flows: Vec<FlowId>,
    /// Queries re-planned successfully, in original registration order.
    pub replanned: Vec<Registration>,
    /// Queries that could not be re-planned: `(query id, error)`. They are
    /// no longer registered.
    pub failed: Vec<(String, String)>,
}

/// Result of a [`StreamGlobe::run_live`] run.
#[derive(Debug)]
pub struct LiveOutcome {
    /// Time-aware measurements (queues, latencies, losses, traffic).
    pub metrics: RuntimeMetrics,
    /// Event trace, empty unless [`LiveConfig::trace`] was set.
    pub trace: Vec<String>,
    /// One report per scripted peer crash.
    pub failovers: Vec<FailoverReport>,
    /// Per query: every delivered item with its origin timestamp, in
    /// delivery order. Empty unless [`LiveConfig::record_deliveries`].
    pub delivered_items: BTreeMap<String, Vec<(u64, Node)>>,
    /// One entry per re-balance tick, empty unless the run came from
    /// [`StreamGlobe::run_live_rebalancing`].
    pub rebalances: Vec<RebalanceCycle>,
    /// Per query: `(delivered_at_us, latency_us)` per delivery, in
    /// delivery order — the timestamped samples behind the aggregate
    /// latency percentiles, so callers can window them (e.g. steady-state
    /// comparisons that exclude a warmup prefix).
    pub latency_samples: BTreeMap<String, Vec<(u64, u64)>>,
}

impl StreamGlobe {
    /// Delivery flow → query id for every current registration.
    pub(crate) fn delivery_map(&self) -> BTreeMap<FlowId, String> {
        self.registrations
            .iter()
            .map(|r| (r.delivery_flow, r.query_id.clone()))
            .collect()
    }

    /// Timed source models: each registered stream replays its items at
    /// its measured frequency.
    fn live_sources(&self) -> BTreeMap<String, SourceModel> {
        self.sources
            .iter()
            .map(|(name, items)| {
                let freq = self
                    .state
                    .stream_stats
                    .get(name)
                    .map(|s| s.frequency)
                    .unwrap_or(1.0);
                (
                    name.clone(),
                    SourceModel::from_frequency(items.clone(), freq),
                )
            })
            .collect()
    }

    /// Per flow id: whether the active flow's dataflow touches `peer` —
    /// it is processed there, routed through it, or taps (transitively) a
    /// flow that is.
    fn flows_touching(&self, peer: NodeId) -> Vec<bool> {
        let n = self.state.deployment.len();
        // One ascending pass computes the closure: tap parents always
        // have smaller ids than their children.
        let mut affected = vec![false; n];
        for id in 0..n {
            let flow = self.state.deployment.flow(id);
            if flow.retired {
                continue;
            }
            affected[id] = flow.processing_node == peer
                || flow.route.contains(&peer)
                || matches!(flow.input, FlowInput::Tap { parent } if affected[parent]);
        }
        affected
    }

    /// Handles a peer crash at planning level: marks the peer down, retires
    /// every active flow it processed or carried (plus their transitive
    /// consumers), reverses their charges, and re-registers each affected
    /// query from its stored text. Because routing now skips the dead
    /// peer, the re-plans land on surviving streams and routes.
    pub fn replan_after_peer_failure(&mut self, peer: NodeId, at_us: u64) -> FailoverReport {
        self.state.topo.set_peer_up(peer, false);
        let affected = self.flows_touching(peer);
        let n = affected.len();
        // Retire children before parents (descending ids).
        let mut retired_flows: Vec<FlowId> = Vec::new();
        for id in (0..n).rev() {
            if affected[id] {
                self.state.deployment.retire(id);
                self.state.uncharge_flow(id);
                retired_flows.push(id);
            }
        }
        retired_flows.reverse();
        // Pull the hit registrations out, keeping relative order.
        let mut keep = Vec::new();
        let mut hit: Vec<Installed> = Vec::new();
        for r in std::mem::take(&mut self.registrations) {
            if affected[r.delivery_flow] {
                hit.push(r);
            } else {
                keep.push(r);
            }
        }
        self.registrations = keep;
        let mut replanned = Vec::new();
        let mut failed = Vec::new();
        for r in hit {
            match self.register_query_opts(
                r.query_id.clone(),
                &r.text,
                &r.at_peer,
                r.strategy,
                false,
            ) {
                Ok(reg) => replanned.push(reg),
                Err(e) => failed.push((r.query_id, e.to_string())),
            }
        }
        FailoverReport {
            peer,
            at_us,
            retired_flows,
            replanned,
            failed,
        }
    }

    /// Queries whose dataflow touches `peer` (processing node, route hop,
    /// or a transitive tap consumer of an affected flow), in registration
    /// order.
    fn queries_touching(&self, peer: NodeId) -> Vec<String> {
        let affected = self.flows_touching(peer);
        self.registrations
            .iter()
            .filter(|r| affected[r.delivery_flow])
            .map(|r| r.query_id.clone())
            .collect()
    }

    /// Runs the system under the discrete-event live runtime for
    /// `cfg.duration_s` simulated seconds, replaying `faults`. Peer
    /// crashes trigger automatic re-subscription of the affected queries
    /// (see [`Self::replan_after_peer_failure`]); recoveries and link
    /// events only flip reachability — already-replanned queries are not
    /// moved back.
    ///
    /// With a write-ahead log configured ([`LiveConfig::wal`]) the policy
    /// flips to *resume, not replan*: a crashed peer's durable state makes
    /// re-subscription unnecessary, so the planning state is left alone,
    /// no flows retire, and the runtime's WAL recovery restores the peer
    /// in place when its `PeerRecover` fault fires. `failovers` stays
    /// empty in that mode; the affected queries are still marked
    /// recovering so their first post-crash delivery records a recovery
    /// time.
    pub fn run_live(
        &mut self,
        cfg: LiveConfig,
        faults: &FaultScript,
    ) -> Result<LiveOutcome, SystemError> {
        self.drive_live(cfg, faults, None)
    }

    /// [`Self::run_live`] with the periodic re-balancer enabled: every
    /// `policy.every_s` seconds on the live clock the runtime's measured
    /// per-peer utilization is fed back into the planner
    /// ([`StreamGlobe::rebalance_live`]), and queries whose measured load
    /// overloads a peer beyond the policy bound are migrated — a planned,
    /// state-carrying failover — to re-planned placements. Scripted faults
    /// still replay; crashes trigger the usual re-subscription.
    ///
    /// Not available with a write-ahead log configured: durable runs pin
    /// state to peers (resume, not replan), which planned migration would
    /// contradict.
    pub fn run_live_rebalancing(
        &mut self,
        cfg: LiveConfig,
        faults: &FaultScript,
        policy: &RebalancePolicy,
    ) -> Result<LiveOutcome, SystemError> {
        if cfg.wal.is_some() {
            return Err(SystemError::Unsupported(
                "re-balancing under a WAL: durable peers resume in place, they do not re-plan"
                    .into(),
            ));
        }
        assert!(policy.every_s > 0.0, "rebalance period must be positive");
        self.drive_live(cfg, faults, Some(policy))
    }

    /// The one fault-replay loop behind [`Self::run_live`] and
    /// [`Self::run_live_rebalancing`]: scripted faults in time order,
    /// interleaved with re-balance ticks when a `policy` is given.
    fn drive_live(
        &mut self,
        cfg: LiveConfig,
        faults: &FaultScript,
        policy: Option<&RebalancePolicy>,
    ) -> Result<LiveOutcome, SystemError> {
        let durable = cfg.wal.is_some();
        let mut runtime = LiveRuntime::new(
            self.state.topo.clone(),
            &self.state.deployment,
            self.live_sources(),
            self.delivery_map(),
            cfg,
        )?;
        let horizon = runtime.horizon_us();
        let ticking = policy.map(|p| (p, dss_network::runtime::fault::secs_to_us(p.every_s)));
        let mut next_tick = ticking.map(|(_, every)| every);
        let mut failovers = Vec::new();
        let mut rebalances = Vec::new();
        let mut pending = faults
            .events()
            .iter()
            .take_while(|f| f.at_us < horizon)
            .peekable();
        loop {
            let tick = next_tick.filter(|&t| t < horizon);
            // Fault first on ties: a crash at the tick instant must
            // re-subscribe before the re-balancer measures the wreck.
            if let Some(fault) = pending.next_if(|f| tick.is_none_or(|t| f.at_us <= t)) {
                runtime.run_until(fault.at_us);
                runtime.apply_fault(fault);
                match fault.kind {
                    FaultKind::PeerCrash(peer) if durable => {
                        self.state.topo.set_peer_up(peer, false);
                        for query in self.queries_touching(peer) {
                            runtime.mark_query_recovering(&query, fault.at_us);
                        }
                    }
                    FaultKind::PeerCrash(peer) => {
                        let report = self.replan_after_peer_failure(peer, fault.at_us);
                        runtime.sync_deployment(&self.state.deployment, self.delivery_map());
                        for reg in &report.replanned {
                            runtime.mark_query_recovering(&reg.query_id, fault.at_us);
                        }
                        failovers.push(report);
                    }
                    FaultKind::PeerRecover(peer) => self.state.topo.set_peer_up(peer, true),
                    FaultKind::LinkDown(edge) => self.state.topo.set_edge_up(edge, false),
                    FaultKind::LinkUp(edge) => self.state.topo.set_edge_up(edge, true),
                }
            } else if let (Some(t), Some((policy, every))) = (tick, ticking) {
                runtime.run_until(t);
                rebalances.push(self.rebalance_live(&mut runtime, policy));
                next_tick = Some(t + every);
            } else {
                break;
            }
        }
        // Drain the remaining horizon before collecting recorded
        // deliveries — `finish` would otherwise run it after the take.
        runtime.run_until(horizon);
        let delivered_items = runtime.take_delivered_items();
        let latency_samples = runtime.latency_samples();
        let (metrics, trace) = runtime.finish();
        Ok(LiveOutcome {
            metrics,
            trace,
            failovers,
            delivered_items,
            rebalances,
            latency_samples,
        })
    }
}
