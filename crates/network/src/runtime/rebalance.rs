//! Runtime hooks for periodic re-balancing: load observation, quiescence
//! probing, and planned (loss-free) flow migration.
//!
//! The decision logic lives in the planner (`dss_core::rebalance`); this
//! module only gives it the runtime feedback it consumes and the
//! state-carrying handoff it triggers. A *planned* migration reuses the
//! failover machinery's retire + re-register path, but — unlike a crash —
//! it happens at a chosen instant when the affected flows are quiescent,
//! so their open window state can be exported first and adopted by the
//! re-registered flows instead of replaying or restarting:
//!
//! 1. [`LiveRuntime::observe_load`] closes the current observation window
//!    and reports each peer's measured busy fraction — the signal the PR 5
//!    telemetry histograms record, surfaced as a value the planner can
//!    compare against its utilization bound.
//! 2. [`LiveRuntime::flows_quiescent`] answers whether the victim flows
//!    have in-flight work anywhere (mailboxes, scheduled emissions or
//!    arrivals, pending commits). If not, the migration is *deferred* to
//!    the next cycle rather than risking an item in flight.
//! 3. [`LiveRuntime::export_flow_states`] snapshots the victims' open
//!    window state non-destructively (the PR 8 `OpState` machinery).
//! 4. After the planner retired and re-registered the victims and synced
//!    the deployment, [`LiveRuntime::apply_planned_migration`] rekeys the
//!    snapshots onto the successor flows and adopts them into the freshly
//!    built (cold) DAGs — the windows move instead of restarting.

use std::collections::BTreeMap;

use super::{EventKind, LiveRuntime};
use crate::flow::FlowId;
use crate::shared::GroupKey;

/// One peer's measured load over the closed observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadObservation {
    /// Length of the observation window in microseconds.
    pub window_us: u64,
    /// Fraction of the window the peer's server spent servicing items
    /// (clamped to 1.0 — a service that overruns the window edge is
    /// charged to the window it started in).
    pub busy_frac: f64,
    /// Mailbox depth at observation time.
    pub mailbox_depth: usize,
}

/// What one planned migration did to the moved window state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationOutcome {
    /// Stateful operators whose open windows the successor flows adopted.
    pub windows_moved: u64,
    /// Exported snapshots nothing adopted (unmapped flow, warm target DAG,
    /// or an operator-spec mismatch): that state restarted empty.
    pub windows_dropped: u64,
    /// Open window/tile items carried across, summed over adoptions.
    pub items_moved: u64,
}

impl LiveRuntime {
    /// Closes the current load-observation window: per peer, the fraction
    /// of the window spent servicing items plus the instantaneous mailbox
    /// depth. Resets the window so consecutive calls measure disjoint
    /// intervals — the periodic re-balancer's feedback signal.
    pub fn observe_load(&mut self) -> Vec<LoadObservation> {
        let window_us = self.now.saturating_sub(self.util_window_start).max(1);
        let out = (0..self.topo.peer_count())
            .map(|v| LoadObservation {
                window_us,
                busy_frac: (self.busy_us[v] as f64 / window_us as f64).min(1.0),
                mailbox_depth: self.mailboxes[v].len(),
            })
            .collect();
        self.util_window_start = self.now;
        self.busy_us.iter_mut().for_each(|b| *b = 0);
        out
    }

    /// `true` when none of `flows` has work in flight: no mailbox entry
    /// addressed to their sharing groups, no scheduled emission/arrival of
    /// the flows themselves *or of the tapped parents feeding those
    /// groups*, and no pending service commit. Source emissions and
    /// service kicks are ignored — they carry no items. This is the gate a
    /// planned migration must pass; a crash obviously never waits for it.
    pub fn flows_quiescent(&self, flows: &[FlowId]) -> bool {
        let groups = self.groups_of(flows);
        let parents: Vec<FlowId> = groups
            .iter()
            .filter_map(|&g| match self.group(g).key {
                GroupKey::Tap(parent) => Some(parent),
                GroupKey::Source(_) => None,
            })
            .collect();
        for &g in &groups {
            if self.mailboxes[self.group(g).node].contains_group(g) {
                return false;
            }
        }
        self.heap
            .iter()
            .all(|std::cmp::Reverse(ev)| match &ev.kind {
                EventKind::EmitOutputs { flow, .. } | EventKind::Arrive { flow, .. } => {
                    !flows.contains(flow) && !parents.contains(flow)
                }
                EventKind::ServiceCommit { group, .. } => !groups.contains(group),
                EventKind::SourceEmit { .. } | EventKind::StartService { .. } => true,
            })
    }

    /// Non-destructive snapshot of the open window state owned by `flows`,
    /// keyed by flow id — taken *before* the planner retires them (which
    /// prunes their DAG nodes and the state with them).
    pub fn export_flow_states(&self, flows: &[FlowId]) -> Vec<(FlowId, dss_engine::OpState)> {
        let mut out = Vec::new();
        for g in self.groups_of(flows) {
            for (f, s) in self.groups.dag(g).snapshot_states() {
                if flows.contains(&f) {
                    out.push((f, s));
                }
            }
        }
        out
    }

    /// The sharing groups `flows` joined, ascending and without repeats.
    fn groups_of(&self, flows: &[FlowId]) -> Vec<usize> {
        let mut groups: Vec<usize> = flows.iter().filter_map(|&f| self.flow(f).group).collect();
        groups.sort_unstable();
        groups.dedup();
        groups
    }

    /// Completes a planned migration after [`Self::sync_deployment`]
    /// picked up the re-registered flows: rekeys the exported snapshots
    /// through `mapping` (old id → successor id), carries the output
    /// numbering across, and adopts the state into the successors' freshly
    /// built DAG paths (`adopt_states_for`) — the target group may already
    /// be warm with *other* sinks' traffic; only nodes that have processed
    /// nothing and are owned exclusively by successors import. Snapshots
    /// nothing adopts (unmapped flow, merged/warm node, or an operator-spec
    /// mismatch) are dropped and those windows restart empty, which the
    /// caller must treat as a split — not a loss-free — handoff.
    pub fn apply_planned_migration(
        &mut self,
        mapping: &[(FlowId, FlowId)],
        states: Vec<(FlowId, dss_engine::OpState)>,
    ) -> MigrationOutcome {
        let map: BTreeMap<FlowId, FlowId> = mapping.iter().copied().collect();
        for (&old, &new) in &map {
            self.emit_next[new] = self.emit_next[old];
        }
        let mut outcome = MigrationOutcome::default();
        let mut per_group: BTreeMap<usize, Vec<(FlowId, dss_engine::OpState)>> = BTreeMap::new();
        for (old, state) in states {
            match map
                .get(&old)
                .and_then(|&new| self.flow(new).group.map(|g| (new, g)))
            {
                Some((new, g)) => per_group.entry(g).or_default().push((new, state)),
                None => outcome.windows_dropped += 1,
            }
        }
        for (g, pool) in per_group {
            // Adopt into the successors' freshly built paths only: a
            // successor may have joined a warm shared group (other sinks at
            // the target peer already tap the same parent), but its own
            // nodes are new and cold, so the scoped adopt moves the windows
            // without touching anything a running sink can see.
            let targets: Vec<FlowId> = map
                .values()
                .copied()
                .filter(|&new| self.flow(new).group == Some(g))
                .collect();
            let report = self.groups.dag_mut(g).adopt_states_for(&targets, pool);
            outcome.windows_moved += report.ops_migrated;
            outcome.windows_dropped += report.ops_dropped;
            outcome.items_moved += report.items_moved;
        }
        self.metrics.planned_migrations += 1;
        self.metrics.migration_windows_moved += outcome.windows_moved;
        self.metrics.migration_windows_dropped += outcome.windows_dropped;
        self.metrics.migration_items_moved += outcome.items_moved;
        self.trace_line(|_| {
            format!(
                "migrate flows={} moved={} dropped={}",
                mapping.len(),
                outcome.windows_moved,
                outcome.windows_dropped
            )
        });
        outcome
    }

    /// Marks `query` as under planned migration at time `t_us`: its next
    /// delivery records the migration gap — attributed separately from
    /// crash recoveries ([`super::QueryMetrics::migrations_us`]).
    pub fn mark_query_migrating(&mut self, query: &str, t_us: u64) {
        self.queries
            .entry(query.to_string())
            .or_default()
            .migrating_since = Some(t_us);
    }

    /// Counts a re-balance cycle that found its victims busy and backed
    /// off to the next tick instead of migrating mid-flight items.
    pub fn note_rebalance_deferred(&mut self) {
        self.metrics.rebalance_deferred += 1;
        self.trace_line(|_| "rebalance deferred".to_string());
    }
}
