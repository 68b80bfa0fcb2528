//! Periodic re-optimization: runtime load feedback closed back into the
//! planner, and planned (loss-free) query migration off overloaded peers.
//!
//! The planner's placements are driven by *estimates* (selectivities,
//! frequencies, operator base loads). When reality diverges — a predicate
//! that was estimated selective turns out to pass most items, a flash
//! crowd of subscriptions lands on one super-peer — a peer can saturate
//! while the admission book still says it has headroom. This module closes
//! the loop:
//!
//! * [`StreamGlobe::plan_rebalance`] compares a *measured* per-peer
//!   utilization (the live runtime's busy fraction, or any override) with
//!   a configurable bound. A peer is overloaded only when the measurement
//!   exceeds the bound **and** exceeds what the planner's own estimates
//!   predict ([`crate::cost::utilization_overlay`]): if the model already
//!   explains the load, moving queries would only shuffle it. For each hot
//!   peer it picks the costliest *movable* queries — those whose exclusive
//!   flow chain (`StreamGlobe::solo_retire_set`) has attributed work
//!   there — until the projected utilization drops under the bound.
//! * [`StreamGlobe::rebalance_live`] executes the decisions against a
//!   running [`LiveRuntime`] as a *planned failover*: it waits for the
//!   victims to be quiescent, exports their open window state, retires and
//!   re-registers them through the normal `Subscribe` machinery (with the
//!   measured overload folded into placement via
//!   [`crate::NetworkState::set_load_feedback`]), and adopts the exported
//!   state into the successor flows — the windows move, nothing replays.
//!
//! Stability: every migrated query is *pinned* to its former peer
//! (`StreamGlobe::rebalance_pins`) and never selected for migration off
//! that peer again; combined with the overlay gate (a balanced network has
//! zero overlay) consecutive passes reach a fixpoint instead of
//! oscillating. See the property tests at the bottom.

use std::collections::{BTreeMap, BTreeSet};

use dss_network::runtime::LiveRuntime;
use dss_network::{FlowId, FlowInput, NodeId};

use crate::cost::utilization_overlay;
use crate::system::{Installed, StreamGlobe};

/// Parameters of the periodic re-balancer.
#[derive(Debug, Clone)]
pub struct RebalancePolicy {
    /// Seconds between re-balance ticks on the live clock. Must be
    /// positive.
    pub every_s: f64,
    /// A peer whose measured utilization exceeds this fraction (and the
    /// planner's estimate for it) is a migration source.
    pub utilization_bound: f64,
    /// Global cap on migrations per cycle — moving everything at once
    /// trades one hotspot for another.
    pub max_moves_per_cycle: usize,
    /// Testing/scripting hook: per-peer utilization to use instead of the
    /// runtime's measured busy fractions.
    pub observed_override: Option<Vec<f64>>,
}

impl Default for RebalancePolicy {
    fn default() -> RebalancePolicy {
        RebalancePolicy {
            every_s: 2.0,
            utilization_bound: 0.75,
            max_moves_per_cycle: 4,
            observed_override: None,
        }
    }
}

/// One migration the planner decided on: move `query_id` off `from`.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationDecision {
    pub query_id: String,
    /// The overloaded peer the query is being moved away from.
    pub from: NodeId,
    /// Estimated work units/s the move frees at `from` (exclusive chain
    /// charges plus the query's attributed share of fused operators).
    pub attributed_work: f64,
}

/// One query a cycle actually moved.
#[derive(Debug, Clone, PartialEq)]
pub struct MigratedQuery {
    pub query_id: String,
    pub from: NodeId,
    /// `true` when every exported window snapshot was adopted by the
    /// successor flows — the subscriber's stream continues whole-stream
    /// exact. `false` means at least one window restarted (split handoff).
    pub loss_free: bool,
}

/// Everything one re-balance tick did.
#[derive(Debug, Clone, Default)]
pub struct RebalanceCycle {
    /// Tick time on the runtime clock (µs).
    pub at_us: u64,
    /// The per-peer utilization the decisions were based on.
    pub observed_util: Vec<f64>,
    /// What the planner decided (empty ⇒ the cycle was a no-op).
    pub decisions: Vec<MigrationDecision>,
    /// Queries actually moved, in decision order.
    pub migrated: Vec<MigratedQuery>,
    /// Queries that could not be re-registered: `(query id, error)`. They
    /// are no longer registered — exactly like a failed failover re-plan.
    pub failed: Vec<(String, String)>,
    /// The victims had items in flight; nothing moved this tick.
    pub deferred: bool,
    /// Flows retired by the migration, in id order.
    pub retired_flows: Vec<FlowId>,
    /// Open window/tile items carried to the successor flows.
    pub items_moved: u64,
    /// Stateful operators whose windows moved / restarted.
    pub windows_moved: u64,
    pub windows_dropped: u64,
}

impl StreamGlobe {
    /// The flows retired if `delivery` were unregistered *today*: the
    /// delivery flow plus every ancestor transport no other consumer taps
    /// — the query's exclusive chain. Flows shared with other queries (and
    /// source flows) stay put, exactly mirroring
    /// [`StreamGlobe::unregister_query`]'s walk, but without mutating
    /// anything. Ascending flow-id order.
    pub(crate) fn solo_retire_set(&self, delivery: FlowId) -> Vec<FlowId> {
        let mut removed: BTreeSet<FlowId> = BTreeSet::new();
        let mut frontier = vec![delivery];
        while let Some(flow) = frontier.pop() {
            if !removed.insert(flow) {
                continue;
            }
            let parent = match &self.state.deployment.flow(flow).input {
                FlowInput::Tap { parent } => Some(*parent),
                FlowInput::Source { .. } => None,
            };
            if let Some(p) = parent {
                let is_source = matches!(
                    self.state.deployment.flow(p).input,
                    FlowInput::Source { .. }
                );
                if !is_source
                    && self
                        .state
                        .deployment
                        .children_of(p)
                        .iter()
                        .all(|c| removed.contains(c))
                {
                    frontier.push(p);
                }
            }
        }
        removed.into_iter().collect()
    }

    /// Estimated work units/s that migrating `r` away would free at
    /// `peer`: the exclusive chain's direct node charges there, plus the
    /// chain's attributed share of fused (book-kept) operators hosted
    /// there.
    fn query_work_on(&self, r: &Installed, peer: NodeId) -> f64 {
        let mut work = 0.0;
        for f in self.solo_retire_set(r.delivery_flow) {
            work += self.state.flow_charges[f]
                .node_work
                .iter()
                .filter(|(v, _)| *v == peer)
                .map(|(_, w)| w)
                .sum::<f64>();
            if self.state.deployment.flow(f).processing_node == peer {
                work += self.state.shared_attributed_work(f);
            }
        }
        work
    }

    /// Decides which queries to migrate given a measured per-peer
    /// utilization (fraction of capacity, e.g. the live runtime's busy
    /// fractions). Pure — nothing moves until
    /// [`Self::rebalance_live`] executes the decisions.
    ///
    /// A peer is a migration source only when `observed` exceeds both the
    /// policy bound and the planner's own estimate for that peer
    /// ([`utilization_overlay`] positive): measured load the model already
    /// explains cannot be improved by re-planning with the same model.
    /// Victims are ranked by attributed work (costliest first, query id as
    /// the deterministic tiebreak); queries pinned to the peer by an
    /// earlier cycle are skipped, and each query moves at most once per
    /// cycle.
    pub fn plan_rebalance(
        &self,
        observed: &[f64],
        policy: &RebalancePolicy,
    ) -> Vec<MigrationDecision> {
        let mut decisions: Vec<MigrationDecision> = Vec::new();
        let mut moved: BTreeSet<&str> = BTreeSet::new();
        for v in 0..self.state.topo.peer_count() {
            let capacity = self.state.topo.peer(v).capacity;
            let estimated = self.state.node_used_work[v];
            let util = observed.get(v).copied().unwrap_or(0.0);
            if capacity <= 0.0 || estimated <= 0.0 || util <= policy.utilization_bound {
                continue;
            }
            if utilization_overlay(util, capacity, estimated) <= 0.0 {
                continue;
            }
            let mut candidates: Vec<(f64, &Installed)> = self
                .registrations
                .iter()
                .filter(|r| !moved.contains(r.query_id.as_str()))
                .filter(|r| !self.rebalance_pins.contains(&(r.query_id.clone(), v)))
                .map(|r| (self.query_work_on(r, v), r))
                .filter(|(w, _)| *w > 0.0)
                .collect();
            candidates.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.1.query_id.cmp(&b.1.query_id))
            });
            // Take victims until the projected utilization — the measured
            // load scaled down by the freed fraction of the estimate —
            // drops under the bound.
            let mut projected = util;
            for (work, r) in candidates {
                if projected <= policy.utilization_bound {
                    break;
                }
                projected -= util * (work / estimated);
                moved.insert(&r.query_id);
                decisions.push(MigrationDecision {
                    query_id: r.query_id.clone(),
                    from: v,
                    attributed_work: work,
                });
            }
        }
        decisions.truncate(policy.max_moves_per_cycle);
        decisions
    }

    /// Executes one re-balance tick against a running [`LiveRuntime`]:
    /// observe → decide → (if quiescent) export state, retire, re-register
    /// with the measured overload folded into placement, and hand the
    /// exported windows to the successor flows. Deferred cycles (victims
    /// busy) and empty cycles return without touching anything.
    pub fn rebalance_live(
        &mut self,
        runtime: &mut LiveRuntime,
        policy: &RebalancePolicy,
    ) -> RebalanceCycle {
        let at_us = runtime.now_us();
        let observed: Vec<f64> = match &policy.observed_override {
            Some(o) => o.clone(),
            None => runtime.observe_load().iter().map(|l| l.busy_frac).collect(),
        };
        let decisions = self.plan_rebalance(&observed, policy);
        let mut cycle = RebalanceCycle {
            at_us,
            observed_util: observed.clone(),
            decisions: decisions.clone(),
            ..RebalanceCycle::default()
        };
        if decisions.is_empty() {
            return cycle;
        }
        let decided: BTreeMap<&str, NodeId> = decisions
            .iter()
            .map(|d| (d.query_id.as_str(), d.from))
            .collect();
        // The union of the victims' exclusive chains — computed against
        // the *current* deployment, before anything retires.
        let mut affected: BTreeSet<FlowId> = BTreeSet::new();
        for r in &self.registrations {
            if decided.contains_key(r.query_id.as_str()) {
                affected.extend(self.solo_retire_set(r.delivery_flow));
            }
        }
        let affected: Vec<FlowId> = affected.into_iter().collect();
        // A planned move never races an item: if anything is in flight for
        // the victims, back off to the next tick.
        if !runtime.flows_quiescent(&affected) {
            runtime.note_rebalance_deferred();
            cycle.deferred = true;
            return cycle;
        }
        // Snapshot open windows and labels before the retire prunes them.
        // Labels are deterministic per query ("{qid}/{stream}",
        // "{qid}/result"), so they map old chains onto re-registered ones.
        let states = runtime.export_flow_states(&affected);
        let old_labels: BTreeMap<String, FlowId> = affected
            .iter()
            .map(|&f| (self.state.deployment.flow(f).label.clone(), f))
            .collect();
        // Retire children before parents (descending ids), exactly like a
        // failover — charges reverse through the same journaled path.
        for &f in affected.iter().rev() {
            self.state.deployment.retire(f);
            self.state.uncharge_flow(f);
        }
        // Fold the measurement into placement: while re-registering, every
        // peer's availability is reduced by the measured load its
        // *remaining* estimate does not explain, steering the new plans
        // toward genuinely idle peers. The overlay must be computed against
        // the post-retire books: the victims' own (under-estimated) charges
        // just reversed, and an overlay against the pre-retire estimate
        // would credit the overloaded peer with exactly the headroom the
        // victims appeared to free — re-admitting every one of them to the
        // peer they were measured overloading, placement unchanged. Against
        // the shrunken estimate, the measurement pessimistically assumes
        // the hot peer keeps everything it was observed doing, so the
        // victims can only land on peers with genuine headroom. The
        // feedback describes this cycle's measurement only and is cleared
        // below once the re-registrations are placed.
        for v in 0..self.state.topo.peer_count() {
            let overlay = utilization_overlay(
                observed.get(v).copied().unwrap_or(0.0),
                self.state.topo.peer(v).capacity,
                self.state.node_used_work[v],
            );
            if overlay > 0.0 {
                self.state.set_load_feedback(v, overlay);
            }
        }
        cycle.retired_flows = affected.clone();
        // Pull the victims' registrations and re-register through the
        // normal Subscribe machinery (planned failover, not a crash).
        let mut keep = Vec::new();
        let mut hit: Vec<Installed> = Vec::new();
        for r in std::mem::take(&mut self.registrations) {
            if decided.contains_key(r.query_id.as_str()) {
                hit.push(r);
            } else {
                keep.push(r);
            }
        }
        self.registrations = keep;
        let mut moved_queries: Vec<(String, NodeId)> = Vec::new();
        for r in hit {
            let from = decided[r.query_id.as_str()];
            match self.register_query_opts(
                r.query_id.clone(),
                &r.text,
                &r.at_peer,
                r.strategy,
                false,
            ) {
                Ok(_) => moved_queries.push((r.query_id, from)),
                Err(e) => cycle.failed.push((r.query_id, e.to_string())),
            }
        }
        // Pin every decided query to its former peer — even a failed
        // re-registration must not be retried forever — and drop the
        // feedback overlay: it described this cycle's measurement only.
        for d in &decisions {
            self.rebalance_pins.insert((d.query_id.clone(), d.from));
        }
        self.state.clear_load_feedback();
        // Hand the new deployment to the runtime, then move the windows:
        // successor flows are matched to their predecessors by label.
        runtime.sync_deployment(&self.state.deployment, self.delivery_map());
        let mut mapping: Vec<(FlowId, FlowId)> = Vec::new();
        let mut unmapped = 0usize;
        for (label, &old) in &old_labels {
            let successor = self
                .state
                .deployment
                .flows()
                .iter()
                .enumerate()
                .find(|(id, f)| !f.retired && *id != old && f.label == *label)
                .map(|(id, _)| id);
            match successor {
                Some(new) => mapping.push((old, new)),
                None => unmapped += 1,
            }
        }
        let outcome = runtime.apply_planned_migration(&mapping, states);
        cycle.items_moved = outcome.items_moved;
        cycle.windows_moved = outcome.windows_moved;
        cycle.windows_dropped = outcome.windows_dropped;
        let loss_free = outcome.windows_dropped == 0 && unmapped == 0;
        for (query_id, from) in moved_queries {
            runtime.mark_query_migrating(&query_id, at_us);
            cycle.migrated.push(MigratedQuery {
                query_id,
                from,
                loss_free,
            });
        }
        cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use crate::tests::{photons, system_with_photons};
    use dss_wxquery::queries;
    use proptest::prelude::*;

    /// The paper's four queries registered with stream sharing — q2 rides
    /// q1's stream, q4 rides q3's aggregates.
    fn loaded_system() -> StreamGlobe {
        let mut sys = system_with_photons();
        sys.register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        sys.register_query("q2", queries::Q2, "P2", Strategy::StreamSharing)
            .unwrap();
        sys.register_query("q3", queries::Q3, "P3", Strategy::StreamSharing)
            .unwrap();
        sys.register_query("q4", queries::Q4, "P4", Strategy::StreamSharing)
            .unwrap();
        sys
    }

    fn delivery_of(sys: &StreamGlobe, qid: &str) -> FlowId {
        sys.registrations
            .iter()
            .find(|r| r.query_id == qid)
            .unwrap()
            .delivery_flow
    }

    fn wide_open(bound: f64) -> RebalancePolicy {
        RebalancePolicy {
            utilization_bound: bound,
            max_moves_per_cycle: 16,
            ..RebalancePolicy::default()
        }
    }

    #[test]
    fn solo_retire_set_keeps_shared_transport() {
        let sys = loaded_system();
        let labels: Vec<&str> = sys
            .solo_retire_set(delivery_of(&sys, "q1"))
            .iter()
            .map(|&f| sys.state.deployment.flow(f).label.as_str())
            .collect();
        assert!(labels.contains(&"q1/result"));
        assert!(
            !labels.contains(&"q1/photons"),
            "q2 still taps q1/photons, it must stay: {labels:?}"
        );
        // q2's own chain is exclusive end to end.
        let labels2: Vec<&str> = sys
            .solo_retire_set(delivery_of(&sys, "q2"))
            .iter()
            .map(|&f| sys.state.deployment.flow(f).label.as_str())
            .collect();
        assert!(labels2.contains(&"q2/photons"));
        assert!(labels2.contains(&"q2/result"));
        assert!(!labels2.contains(&"q1/photons"), "{labels2:?}");
    }

    /// A peer that hosts movable (exclusive-chain) query work, if any.
    fn movable_peers(sys: &StreamGlobe) -> Vec<NodeId> {
        (0..sys.state.topo.peer_count())
            .filter(|&v| {
                sys.state.topo.peer(v).capacity > 0.0
                    && sys.state.node_used_work[v] > 0.0
                    && sys
                        .registrations
                        .iter()
                        .any(|r| sys.query_work_on(r, v) > 0.0)
            })
            .collect()
    }

    #[test]
    fn plan_moves_costliest_queries_off_hot_peer() {
        let sys = loaded_system();
        let hot = *movable_peers(&sys).first().expect("some peer has work");
        let mut observed = vec![0.0; sys.state.topo.peer_count()];
        observed[hot] = 1.0;
        let decisions = sys.plan_rebalance(&observed, &wide_open(0.2));
        assert!(!decisions.is_empty());
        assert!(decisions.iter().all(|d| d.from == hot));
        // Costliest first.
        for w in decisions.windows(2) {
            assert!(w[0].attributed_work >= w[1].attributed_work);
        }
        // The per-cycle cap truncates deterministically.
        let capped = sys.plan_rebalance(
            &observed,
            &RebalancePolicy {
                max_moves_per_cycle: 1,
                ..wide_open(0.2)
            },
        );
        assert_eq!(capped.len(), 1);
        assert_eq!(capped[0], decisions[0]);
    }

    #[test]
    fn pinned_queries_are_never_reselected() {
        let mut sys = loaded_system();
        let hot = *movable_peers(&sys).first().unwrap();
        let mut observed = vec![0.0; sys.state.topo.peer_count()];
        observed[hot] = 1.0;
        let first = sys.plan_rebalance(&observed, &wide_open(0.2));
        let victim = first[0].query_id.clone();
        sys.rebalance_pins.insert((victim.clone(), hot));
        let second = sys.plan_rebalance(&observed, &wide_open(0.2));
        assert!(
            second.iter().all(|d| d.query_id != victim),
            "pinned {victim} reselected: {second:?}"
        );
    }

    #[test]
    fn measured_load_the_model_explains_is_not_migrated() {
        // Observed exactly at capacity, but the estimate already accounts
        // for it (tiny capacities): zero overlay, zero decisions.
        let mut sys = loaded_system();
        for v in 0..sys.state.topo.peer_count() {
            let est = sys.state.node_used_work[v];
            if est > 0.0 {
                sys.state.topo.peer_mut(v).capacity = est;
            }
        }
        let observed = vec![1.0; sys.state.topo.peer_count()];
        assert!(sys.plan_rebalance(&observed, &wide_open(0.2)).is_empty());
    }

    /// End to end: a forced overload measurement migrates queries through
    /// the live runtime without losing or duplicating a single item, and
    /// the delivered results stay identical to an untouched run.
    #[test]
    fn live_migration_is_loss_free_and_output_identical() {
        use dss_network::runtime::{FaultScript, LiveConfig};

        let build = || {
            let mut sys = StreamGlobe::new(dss_network::example_topology());
            // 10 Hz: emissions sit on a 100 ms grid, so off-grid ticks
            // find the pipeline drained and the migration is not deferred
            // forever.
            sys.register_stream("photons", "P0", photons(60), 10.0)
                .unwrap();
            for (q, text, peer) in [
                ("q1", queries::Q1, "P1"),
                ("q2", queries::Q2, "P2"),
                ("q3", queries::Q3, "P3"),
                ("q4", queries::Q4, "P4"),
            ] {
                sys.register_query(q, text, peer, Strategy::StreamSharing)
                    .unwrap();
            }
            sys
        };
        let cfg = || LiveConfig {
            duration_s: 8.0,
            record_deliveries: true,
            ..LiveConfig::default()
        };

        let mut baseline_sys = build();
        let baseline = baseline_sys
            .run_live(cfg(), &FaultScript::new())
            .expect("baseline run");

        let mut sys = build();
        let hot = *movable_peers(&sys).first().expect("a peer has work");
        let mut observed = vec![0.0; sys.state.topo.peer_count()];
        observed[hot] = 1.0;
        let policy = RebalancePolicy {
            every_s: 1.03,
            utilization_bound: 0.2,
            max_moves_per_cycle: 16,
            observed_override: Some(observed),
        };
        let outcome = sys
            .run_live_rebalancing(cfg(), &FaultScript::new(), &policy)
            .expect("rebalancing run");

        let migrated: Vec<&MigratedQuery> = outcome
            .rebalances
            .iter()
            .flat_map(|c| &c.migrated)
            .collect();
        assert!(
            !migrated.is_empty(),
            "the forced overload must migrate something: {:?}",
            outcome.rebalances
        );
        for c in &outcome.rebalances {
            assert!(
                c.failed.is_empty(),
                "failed re-registrations: {:?}",
                c.failed
            );
        }
        assert_eq!(outcome.metrics.items_lost, 0);
        assert!(outcome.metrics.planned_migrations > 0);
        for (q, m) in &outcome.metrics.queries {
            assert_eq!(m.duplicates, 0, "{q} delivered duplicates");
            assert!(
                m.recoveries_us.is_empty(),
                "{q}: planned migrations must not count as crash recoveries"
            );
        }
        // Every migrated query recorded a migration gap, attributed
        // separately from crash recoveries.
        for mq in &migrated {
            assert!(
                !outcome.metrics.queries[&mq.query_id]
                    .migrations_us
                    .is_empty(),
                "{} has no migration attribution",
                mq.query_id
            );
        }
        // Byte-identical deliveries, query by query, origin order.
        assert_eq!(
            baseline.delivered_items.len(),
            outcome.delivered_items.len()
        );
        for (q, base) in &baseline.delivered_items {
            let mut a = base.clone();
            let mut b = outcome.delivered_items[q].clone();
            a.sort_by_key(|(origin, _)| *origin);
            b.sort_by_key(|(origin, _)| *origin);
            assert_eq!(a, b, "{q}: migrated run diverged from baseline");
        }
    }

    proptest! {
        /// Satellite: balanced load — a measurement that matches the
        /// planner's own estimates — never triggers a migration, for any
        /// utilization bound.
        #[test]
        fn balanced_load_plans_zero_migrations(bound_pct in 5u32..95) {
            let bound = bound_pct as f64 / 100.0;
            let sys = loaded_system();
            let observed: Vec<f64> = (0..sys.state.topo.peer_count())
                .map(|v| {
                    let cap = sys.state.topo.peer(v).capacity;
                    if cap > 0.0 { sys.state.node_used_work[v] / cap } else { 0.0 }
                })
                .collect();
            prop_assert!(sys.plan_rebalance(&observed, &wide_open(bound)).is_empty());
        }

        /// Any measurement under the bound everywhere is left alone, no
        /// matter how unevenly it spreads.
        #[test]
        fn under_bound_load_plans_zero_migrations(
            fracs_pm in prop::collection::vec(0u32..1000, 16),
            bound_pct in 10u32..95,
        ) {
            let bound = bound_pct as f64 / 100.0;
            let fracs: Vec<f64> = fracs_pm.iter().map(|&f| f as f64 / 1000.0).collect();
            let sys = loaded_system();
            let observed: Vec<f64> = (0..sys.state.topo.peer_count())
                .map(|v| bound * fracs[v % fracs.len()])
                .collect();
            prop_assert!(sys.plan_rebalance(&observed, &wide_open(bound)).is_empty());
        }

        /// Satellite: two consecutive re-balance passes are a fixpoint.
        /// Pass 1 decides moves off a hot peer; modelling the second
        /// measurement as the first minus the freed work (the planner's own
        /// projection), pass 2 — with the pins rebalance_live would set —
        /// decides nothing.
        #[test]
        fn consecutive_passes_reach_fixpoint(
            hot_util_pm in 800u32..1000,
            bound_pct in 30u32..75,
            hot_sel in 0usize..32,
        ) {
            let hot_util = hot_util_pm as f64 / 1000.0;
            let bound = bound_pct as f64 / 100.0;
            let mut sys = loaded_system();
            let peers = movable_peers(&sys);
            prop_assume!(!peers.is_empty());
            let hot = peers[hot_sel % peers.len()];
            let est = sys.state.node_used_work[hot];
            prop_assume!(
                utilization_overlay(hot_util, sys.state.topo.peer(hot).capacity, est) > 0.0
            );
            let mut observed = vec![0.0; sys.state.topo.peer_count()];
            observed[hot] = hot_util;
            let policy = wide_open(bound);
            let first = sys.plan_rebalance(&observed, &policy);
            // The pins rebalance_live installs after executing the moves.
            for d in &first {
                sys.rebalance_pins.insert((d.query_id.clone(), d.from));
            }
            // Second measurement: the moved queries' attributed work has
            // left the hot peer; everything else is unchanged.
            let freed: f64 = first.iter().map(|d| d.attributed_work).sum();
            let mut second_obs = observed.clone();
            second_obs[hot] = (hot_util * (est - freed).max(0.0) / est).max(0.0);
            let second = sys.plan_rebalance(&second_obs, &policy);
            prop_assert!(second.is_empty(), "second pass not a fixpoint: {second:?}");
        }
    }
}
