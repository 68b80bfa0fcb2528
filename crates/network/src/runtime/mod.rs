//! A deterministic discrete-event live runtime over a deployed network —
//! the event-heap driver of [`crate::peer`].
//!
//! The batch simulator ([`crate::sim`]) pushes every source item through
//! the flow graph in one shot — no clock, no queues, no failures. This
//! module is its live counterpart. The sharing groups, their DAG
//! execution, output collection and the route step are the core's; what
//! this driver adds is what the paper measured on the blade cluster:
//!
//! * **Time**: a single `u64` microsecond clock driven by a binary-heap
//!   event queue. Ties break on a monotone sequence number, so a run is a
//!   pure function of its inputs — two runs with the same deployment,
//!   sources, and fault script produce byte-identical traces.
//! * **Sources**: each registered stream emits its items periodically
//!   ([`SourceModel::interarrival_us`], derived from the stream's measured
//!   frequency).
//! * **Peers**: one bounded mailbox and one server per peer. Serving an
//!   item runs it through its sharing group's DAG and occupies the server
//!   for `per_item_overhead_us` plus the measured operator work scaled by
//!   the peer's speed (`pindex`) over its capacity. The driver is one
//!   thread, as each modelled peer is one sequential server: a
//!   timestamp's services start after its events have drained, in claim
//!   order, each feeding its group's DAG in place.
//! * **Links**: a transmission takes `link_latency_us` plus the item's
//!   exact serialized bytes over the edge bandwidth; links carry any
//!   number of items concurrently (the bandwidth share is charged per
//!   item, not queued). A link is FIFO per flow, as TCP is under
//!   `dss serve`: an item never arrives before the previous item of its
//!   flow at the same hop. Different flows still overtake each other.
//! * **Faults** ([`fault`]): scripted peer crashes/recoveries and link
//!   drops. A crash loses the peer's queued items; traffic addressed to
//!   dead peers, down links, or retired flows is counted in
//!   [`RuntimeMetrics::items_lost`].
//!
//! The runtime deliberately does **not** flush windowed operator state at
//! the horizon: only items actually delivered within the simulated time
//! count, exactly like a wall-clock measurement window on the cluster.
//!
//! Re-planning after a failure happens *outside* this module (the planner
//! lives in `dss_core`): the driver pauses at a fault, rewrites the
//! deployment, and calls [`LiveRuntime::sync_deployment`] to pick up new
//! flows and retired ones ([`SharingGroups::sync`]). Windowed operator
//! state of re-planned flows restarts empty — re-subscription preserves
//! the query, not the state — *except* for flows the planner marked as
//! loss-free handoffs ([`Deployment::is_handoff`], set when widening
//! patches a consumer and delta migration beats a full rebuild): their
//! in-place rebuild carries the open window state across, moving O(delta)
//! items instead of restarting the windows.

pub mod fault;
mod mailbox;
mod metrics;
mod rebalance;

pub use fault::{FaultEvent, FaultKind, FaultScript};
pub use mailbox::{MailboxEntry, SyncMailbox};
pub use metrics::{OpWork, QueryMetrics, RuntimeMetrics};
pub use rebalance::{LoadObservation, MigrationOutcome};

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::path::PathBuf;

use dss_wal::{truncate_to_records, WalOptions, WalRecord, WalWriter};
use dss_xml::writer::serialized_size;
use dss_xml::Node;

use crate::flow::{Deployment, FlowId};
use crate::peer::{FlowOutputs, FlowView, Group, Next, SharingGroups, Step};
use crate::shared::GroupKey;
use crate::sim::ConfigError;
use crate::topology::{NodeId, Topology};
use mailbox::Mailbox;

/// Durability parameters for WAL mode ([`LiveConfig::wal`]).
///
/// With a WAL configured, every peer that hosts a sharing group appends a
/// crash-recovery log under `dir/<peer name>/`: one
/// [`WalRecord::Checkpoint`] (window-state snapshot + consumed offset +
/// per-flow emit counters) every `checkpoint_every` serviced items per
/// sharing group, and nothing else. A crashed peer then *resumes* instead
/// of re-planning: recovery replays the WAL, restores the latest surviving
/// checkpoint, re-feeds only the retained input tail past the checkpointed
/// offset, and relies on absolute per-flow output indices (deduplicated
/// downstream) for exactly-once delivery. A corrupt log — or one whose
/// checkpoints do not fit the deployed groups — degrades to the existing
/// replan-from-scratch path.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Root directory; each peer logs under `dir/<peer name>/`.
    pub dir: PathBuf,
    /// Checkpoint cadence: one window-state checkpoint per sharing group
    /// every this many serviced items. Must be at least 1.
    pub checkpoint_every: u64,
    /// Fsync batching handed to [`WalOptions::fsync_every`].
    pub fsync_every: u64,
    /// Segment rotation threshold handed to [`WalOptions::segment_bytes`].
    pub segment_bytes: u64,
    /// Crash-point injection: when set, a peer crash truncates that peer's
    /// WAL to this many records before recovery reads it — deterministic
    /// "everything after append #N was lost" scenarios for the crash-point
    /// matrix. `None` models a crash losing nothing that was appended.
    pub crash_keep_records: Option<u64>,
}

impl WalConfig {
    /// Defaults: checkpoint every 4 items, fsync every 16 appends, 4 MiB
    /// segments, no crash-point truncation.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            checkpoint_every: 4,
            fsync_every: 16,
            segment_bytes: 4 << 20,
            crash_keep_records: None,
        }
    }
}

/// Live runtime parameters.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Simulated horizon in seconds. Must be positive.
    pub duration_s: f64,
    /// Bounded mailbox capacity per peer (items). Must be at least 1.
    pub mailbox_capacity: usize,
    /// Fixed per-hop link latency in microseconds.
    pub link_latency_us: u64,
    /// Fixed per-item service overhead in microseconds (scheduling,
    /// parsing, framing) on top of measured operator work.
    pub per_item_overhead_us: u64,
    /// Width of the per-edge traffic time buckets in microseconds.
    pub bucket_us: u64,
    /// Record a textual event trace (determinism fingerprinting).
    pub trace: bool,
    /// Keep every delivered item (with its origin timestamp) per query,
    /// for differential comparison against a reference evaluation. Off by
    /// default: long runs would hold the whole output in memory.
    pub record_deliveries: bool,
    /// Per-peer write-ahead log for resume-not-replan crash recovery
    /// ([`WalConfig`]). `None` (the default) leaves every code path of the
    /// non-durable runtime byte-identical.
    pub wal: Option<WalConfig>,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            duration_s: 10.0,
            mailbox_capacity: 256,
            link_latency_us: 200,
            per_item_overhead_us: 50,
            bucket_us: 1_000_000,
            trace: false,
            record_deliveries: false,
            wal: None,
        }
    }
}

impl LiveConfig {
    /// Checks the documented invariants, returning the first violation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            return Err(ConfigError::NonPositiveDuration(self.duration_s));
        }
        if self.mailbox_capacity == 0 {
            return Err(ConfigError::ZeroMailboxCapacity);
        }
        if self.bucket_us == 0 {
            return Err(ConfigError::ZeroBucket);
        }
        if let Some(wal) = &self.wal {
            if wal.checkpoint_every == 0 {
                return Err(ConfigError::ZeroCheckpointCadence);
            }
        }
        Ok(())
    }
}

/// A timed source: the items of a registered stream plus their emission
/// period.
#[derive(Debug, Clone)]
pub struct SourceModel {
    pub items: Vec<Node>,
    /// Microseconds between consecutive item emissions; the first item is
    /// emitted one interarrival after t=0.
    pub interarrival_us: u64,
}

impl SourceModel {
    /// Builds a model emitting at `freq_hz` items per second (the unit of
    /// `StreamStats::frequency`).
    pub fn from_frequency(items: Vec<Node>, freq_hz: f64) -> SourceModel {
        let interarrival_us = if freq_hz > 0.0 && freq_hz.is_finite() {
            ((1e6 / freq_hz).round() as u64).max(1)
        } else {
            u64::MAX
        };
        SourceModel {
            items,
            interarrival_us,
        }
    }
}

enum EventKind {
    /// A source stream emits its next item.
    SourceEmit { source: String, idx: usize },
    /// The peer's server looks at its mailbox.
    StartService { node: NodeId },
    /// A service completed: the produced items leave the processing node.
    EmitOutputs {
        flow: FlowId,
        origin: u64,
        /// Absolute output index of `items[0]` within the flow's output
        /// stream (WAL mode; always 0 otherwise). Indices are contiguous
        /// per service, so `items[i]` carries `base + i`.
        base: u64,
        items: Vec<Node>,
    },
    /// An item reaches `route[hop]` of its flow.
    Arrive {
        flow: FlowId,
        hop: usize,
        origin: u64,
        /// Absolute per-flow output index (WAL mode; 0 otherwise).
        index: u64,
        item: Node,
    },
    /// WAL mode only: a service's outputs have left the peer — advance
    /// the group's consumed counter (and checkpoint on cadence).
    /// Scheduled at the service's completion time, *after* its
    /// `EmitOutputs`: a crash before this point loses neither more nor
    /// less than what replay regenerates, so recovery never skips an
    /// output that was still in flight.
    ServiceCommit { node: NodeId, group: usize },
}

struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

// The heap orders on (time, seq) only; seq is unique, giving a total,
// deterministic order. `Reverse` turns the max-heap into a min-heap.
impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Event) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Exactly-once admission of an absolute item index against `mark`, the
/// index after the last one accepted (WAL mode). Links are FIFO per flow,
/// so only a recovery replay arrives below the mark: it is suppressed. An
/// index past the mark is accepted — the items in between were lost on a
/// down link or relay, and nothing will resend them.
fn admit(mark: &mut u64, index: u64) -> bool {
    if index < *mark {
        return false;
    }
    *mark = index + 1;
    true
}

/// A mailbox entry an idle peer took while a timestamp's events drained —
/// `(node, group, origin, item)` — serviced once the drain is over.
type Claim = (NodeId, usize, u64, Node);

/// Everything the runtime keeps per query id.
#[derive(Default)]
struct QueryTrack {
    /// `(delivered_at_us, latency_us)` per delivery, in delivery order —
    /// the raw samples behind the aggregate percentiles, kept timestamped
    /// so callers can window them (e.g. exclude a warmup prefix when
    /// comparing steady-state latency).
    latencies: Vec<(u64, u64)>,
    duplicates: u64,
    last_origin: Option<u64>,
    /// Set while re-planned after a crash: the next delivery records the
    /// recovery time.
    recovering_since: Option<u64>,
    recoveries: Vec<u64>,
    /// Set mid-planned-migration: the next delivery records a migration
    /// gap, attributed separately from crash recoveries.
    migrating_since: Option<u64>,
    migrations: Vec<u64>,
    /// Every delivered item with its origin timestamp, in delivery order
    /// (only when `cfg.record_deliveries`).
    items: Vec<(u64, Node)>,
    /// Exactly-once mark over delivered item indices (WAL mode, [`admit`]).
    mark: u64,
}

/// The discrete-event scheduler. See the module docs for the model.
pub struct LiveRuntime {
    topo: Topology,
    cfg: LiveConfig,
    now: u64,
    seq: u64,
    horizon_us: u64,
    heap: BinaryHeap<std::cmp::Reverse<Event>>,
    sources: BTreeMap<String, SourceModel>,
    /// Every peer's sharing groups (this driver hosts them all), plus
    /// the flow routes and the delivery map the route step reads.
    groups: SharingGroups,
    mailboxes: Vec<Mailbox>,
    busy_until: Vec<u64>,
    // Load observation window for the re-balancer: per-peer busy service
    // time accumulated since the window started ([`Self::observe_load`]
    // reads and resets it).
    busy_us: Vec<u64>,
    util_window_start: u64,
    /// The report, counted in place; [`Self::finish`] fills the fields
    /// that are derived from other state (queues, queries, DAG stats).
    metrics: RuntimeMetrics,
    /// Every query a delivery map ever named, delivered to or not.
    queries: BTreeMap<String, QueryTrack>,
    trace: Vec<String>,
    // WAL mode state (all inert when `cfg.wal` is None).
    /// Lazily opened per-peer log writers; closed (taken) on crash.
    wal_writers: Vec<Option<WalWriter>>,
    /// Per group: every input item accepted at the peer, in service order
    /// — the retained stream tail recovery re-feeds past the checkpoint.
    history: Vec<Vec<(u64, Node)>>,
    /// Per group: committed input count ([`EventKind::ServiceCommit`]).
    consumed: Vec<u64>,
    /// Per group: exactly-once mark over input item indices ([`admit`]).
    group_mark: Vec<u64>,
    /// Per flow: next absolute output index to assign.
    emit_next: Vec<u64>,
    /// Per flow, per hop: when the flow's last item arrives there — the
    /// earliest the next one may (FIFO links).
    last_arrival: Vec<Vec<u64>>,
}

impl LiveRuntime {
    /// Builds a runtime over a (cloned) topology and the current
    /// deployment. `deliveries` maps each query's delivery flow to the
    /// query id; only those flows' final-hop arrivals count as deliveries.
    pub fn new(
        topo: Topology,
        deployment: &Deployment,
        sources: BTreeMap<String, SourceModel>,
        deliveries: BTreeMap<FlowId, String>,
        cfg: LiveConfig,
    ) -> Result<LiveRuntime, ConfigError> {
        cfg.validate()?;
        deployment.validate(&topo);
        let horizon_us = fault::secs_to_us(cfg.duration_s);
        let n_buckets = (horizon_us / cfg.bucket_us + 1) as usize;
        let n_peers = topo.peer_count();
        let n_edges = topo.edge_count();
        let mailbox_capacity = cfg.mailbox_capacity;
        let metrics = RuntimeMetrics {
            horizon_us,
            bucket_us: cfg.bucket_us,
            node_work: vec![0.0; n_peers],
            edge_bytes: vec![0; n_edges],
            edge_bytes_buckets: vec![vec![0; n_buckets]; n_edges],
            ..RuntimeMetrics::default()
        };
        let mut rt = LiveRuntime {
            topo,
            cfg,
            now: 0,
            seq: 0,
            horizon_us,
            heap: BinaryHeap::new(),
            sources,
            groups: SharingGroups::default(),
            mailboxes: (0..n_peers)
                .map(|_| Mailbox::new(mailbox_capacity))
                .collect(),
            busy_until: vec![0; n_peers],
            busy_us: vec![0; n_peers],
            util_window_start: 0,
            metrics,
            queries: BTreeMap::new(),
            trace: Vec::new(),
            wal_writers: (0..n_peers).map(|_| None).collect(),
            history: Vec::new(),
            consumed: Vec::new(),
            group_mark: Vec::new(),
            emit_next: Vec::new(),
            last_arrival: Vec::new(),
        };
        rt.sync_deployment(deployment, deliveries);
        // Seed the periodic source emissions (BTreeMap order: stable).
        let seeds: Vec<(String, u64)> = rt
            .sources
            .iter()
            .filter(|(_, m)| !m.items.is_empty())
            .map(|(name, m)| (name.clone(), m.interarrival_us))
            .collect();
        for (source, at) in seeds {
            if at <= rt.horizon_us {
                rt.schedule(at, EventKind::SourceEmit { source, idx: 0 });
            }
        }
        Ok(rt)
    }

    /// The simulated horizon in microseconds.
    pub fn horizon_us(&self) -> u64 {
        self.horizon_us
    }

    /// Current simulation time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now
    }

    /// Reconciles the runtime with a rewritten deployment (after a
    /// failover re-plan, a widening or a re-balance): see
    /// [`SharingGroups::sync`] for what joins, leaves, rebuilds and
    /// migrates. `deliveries` replaces the delivery-flow → query map.
    pub fn sync_deployment(
        &mut self,
        deployment: &Deployment,
        deliveries: BTreeMap<FlowId, String>,
    ) {
        for handoff in self.groups.sync(deployment, |_| true) {
            let report = handoff.report;
            self.metrics.widen_delta_items += report.items_moved;
            self.metrics.windows_migrated += report.ops_migrated;
            self.metrics.windows_dropped += report.ops_dropped;
            dss_telemetry::event("widen_handoff", || {
                let peer = self.topo.peer(self.group(handoff.group).node).name.as_str();
                [
                    ("peer", dss_telemetry::Value::from(peer)),
                    ("flows", (handoff.flows as u64).into()),
                    ("items_moved", report.items_moved.into()),
                    ("ops_migrated", report.ops_migrated.into()),
                    ("ops_dropped", report.ops_dropped.into()),
                ]
            });
        }
        // New groups and flows start with empty WAL-mode and link state.
        let (n_groups, n_flows) = {
            let table = self.groups.table();
            (table.groups().len(), table.flows().len())
        };
        self.history.resize_with(n_groups, Vec::new);
        self.consumed.resize(n_groups, 0);
        self.group_mark.resize(n_groups, 0);
        self.emit_next.resize(n_flows, 0);
        self.last_arrival.resize_with(n_flows, Vec::new);
        for q in deliveries.values() {
            self.queries.entry(q.clone()).or_default();
        }
        self.groups.set_deliveries(deliveries);
    }

    fn group(&self, g: usize) -> &Group {
        &self.groups.table().groups()[g]
    }

    fn flow(&self, f: FlowId) -> &FlowView {
        &self.groups.table().flows()[f]
    }

    /// The groups at `peer` that still have members, in creation order.
    fn live_groups_at(&self, peer: NodeId) -> Vec<usize> {
        let groups = self.groups.table().groups().iter().enumerate();
        groups
            .filter(|(_, g)| g.node == peer && !g.members.is_empty())
            .map(|(i, _)| i)
            .collect()
    }

    /// Applies one scripted fault at the current simulation time.
    pub fn apply_fault(&mut self, fault: &FaultEvent) {
        match fault.kind {
            FaultKind::PeerCrash(peer) => {
                self.topo.set_peer_up(peer, false);
                // A drained entry would have served its whole group: count
                // one loss per flow that was waiting on it. In WAL mode the
                // drained entries are already in `history`, so recovery
                // re-services them — nothing is lost here.
                let drained = self.mailboxes[peer].drain_all();
                let lost: u64 = if self.cfg.wal.is_some() {
                    0
                } else {
                    drained
                        .into_iter()
                        .map(|(g, _, _)| self.group(g).members.len().max(1) as u64)
                        .sum()
                };
                self.metrics.items_lost += lost;
                self.busy_until[peer] = 0;
                if self.cfg.wal.is_some() {
                    self.wal_crash(peer);
                }
                self.trace_line(|topo| format!("fault crash {} lost={lost}", topo.peer(peer).name));
                dss_telemetry::event("fault", || {
                    [
                        ("kind", dss_telemetry::Value::from("peer-crash")),
                        ("peer", self.topo.peer(peer).name.as_str().into()),
                        ("at_us", self.now.into()),
                        ("items_lost", lost.into()),
                    ]
                });
            }
            FaultKind::PeerRecover(peer) => {
                self.topo.set_peer_up(peer, true);
                if self.cfg.wal.is_some() {
                    match self.wal_recover(peer) {
                        Ok(replayed) => {
                            self.metrics.wal_replayed_items += replayed;
                            self.trace_line(|topo| {
                                format!("wal recover {} replayed={replayed}", topo.peer(peer).name)
                            });
                        }
                        Err(e) => {
                            // Unreadable log: degrade to the non-durable
                            // semantics — the retained tail is abandoned,
                            // exactly as if it had never been kept.
                            self.metrics.wal_fallbacks += 1;
                            for g in self.live_groups_at(peer) {
                                let pending = self.history[g].len() as u64 - self.consumed[g];
                                self.metrics.items_lost +=
                                    pending * self.group(g).members.len() as u64;
                                self.consumed[g] = self.history[g].len() as u64;
                            }
                            self.trace_line(|topo| {
                                format!("wal fallback {} err={e}", topo.peer(peer).name)
                            });
                        }
                    }
                }
                self.trace_line(|topo| format!("fault recover {}", topo.peer(peer).name));
                dss_telemetry::event("fault", || {
                    [
                        ("kind", dss_telemetry::Value::from("peer-recover")),
                        ("peer", self.topo.peer(peer).name.as_str().into()),
                        ("at_us", self.now.into()),
                    ]
                });
            }
            FaultKind::LinkDown(edge) => {
                self.topo.set_edge_up(edge, false);
                self.trace_line(|_| format!("fault link-down e{edge}"));
                dss_telemetry::event("fault", || {
                    [
                        ("kind", dss_telemetry::Value::from("link-down")),
                        ("edge", edge.into()),
                        ("at_us", self.now.into()),
                    ]
                });
            }
            FaultKind::LinkUp(edge) => {
                self.topo.set_edge_up(edge, true);
                self.trace_line(|_| format!("fault link-up e{edge}"));
                dss_telemetry::event("fault", || {
                    [
                        ("kind", dss_telemetry::Value::from("link-up")),
                        ("edge", edge.into()),
                        ("at_us", self.now.into()),
                    ]
                });
            }
        }
    }

    /// Marks `query` as re-planned at time `t`: its next delivery records
    /// the recovery time `delivery - t`.
    pub fn mark_query_recovering(&mut self, query: &str, t_us: u64) {
        self.queries
            .entry(query.to_string())
            .or_default()
            .recovering_since = Some(t_us);
    }

    /// Runs all events up to and including `t_us` (capped at the horizon).
    ///
    /// Every event sharing a timestamp is handled in sequence order, with
    /// each `StartService` *claiming* at most one mailbox item per idle
    /// peer; the claimed services then run in claim order. Servicing after
    /// the drain rather than inside it fixes the sequence numbers of the
    /// follow-up events, and so the order of everything downstream.
    pub fn run_until(&mut self, t_us: u64) {
        let t = t_us.min(self.horizon_us);
        while let Some(std::cmp::Reverse(head)) = self.heap.peek() {
            if head.time > t {
                break;
            }
            let now = head.time;
            self.now = now;
            // Drain the timestamp (handlers may add more events at `now`;
            // they are drained too, in seq order).
            let mut claims: Vec<Claim> = Vec::new();
            loop {
                match self.heap.peek() {
                    Some(std::cmp::Reverse(ev)) if ev.time == now => {}
                    _ => break,
                }
                let std::cmp::Reverse(ev) = self.heap.pop().expect("peeked");
                match ev.kind {
                    EventKind::SourceEmit { source, idx } => self.handle_source_emit(source, idx),
                    EventKind::StartService { node } => self.try_claim(node, &mut claims),
                    EventKind::EmitOutputs {
                        flow,
                        origin,
                        base,
                        items,
                    } => self.handle_emit_outputs(flow, origin, base, items),
                    EventKind::Arrive {
                        flow,
                        hop,
                        origin,
                        index,
                        item,
                    } => self.handle_arrive(flow, hop, origin, index, item),
                    EventKind::ServiceCommit { node, group } => {
                        self.handle_service_commit(node, group)
                    }
                }
            }
            for (node, group, origin, item) in claims {
                self.service(node, group, origin, &item, false);
            }
        }
        self.now = self.now.max(t);
    }

    /// Hands out the recorded per-query deliveries (empty unless
    /// `LiveConfig::record_deliveries`): every delivered item with its
    /// origin timestamp, in delivery order. Call before [`Self::finish`].
    pub fn take_delivered_items(&mut self) -> BTreeMap<String, Vec<(u64, Node)>> {
        self.queries
            .iter_mut()
            .filter(|(_, t)| !t.items.is_empty())
            .map(|(q, t)| (q.clone(), std::mem::take(&mut t.items)))
            .collect()
    }

    /// The per-query latency samples so far: `(delivered_at_us,
    /// latency_us)` per delivery, in delivery order. The aggregate
    /// percentiles in [`QueryMetrics`] summarize the same samples over the
    /// whole run; the raw timestamped form lets callers window them —
    /// e.g. drop a warmup prefix when comparing steady-state latency
    /// across runs. Cloned (not drained): [`Self::finish`] still
    /// aggregates the full set.
    pub fn latency_samples(&self) -> BTreeMap<String, Vec<(u64, u64)>> {
        self.queries
            .iter()
            .filter(|(_, t)| !t.latencies.is_empty())
            .map(|(q, t)| (q.clone(), t.latencies.clone()))
            .collect()
    }

    /// Runs to the horizon and produces the report plus the event trace
    /// (empty unless `LiveConfig::trace`).
    pub fn finish(mut self) -> (RuntimeMetrics, Vec<String>) {
        self.run_until(self.horizon_us);
        let mut queries: BTreeMap<String, QueryMetrics> = BTreeMap::new();
        for (q, track) in self.queries {
            let mut m = QueryMetrics {
                delivered: track.latencies.len() as u64,
                duplicates: track.duplicates,
                recoveries_us: track.recoveries,
                migrations_us: track.migrations,
                ..QueryMetrics::default()
            };
            m.set_latencies(track.latencies.iter().map(|&(_, l)| l).collect());
            queries.insert(q, m);
        }
        let mut node_ops: Vec<Vec<OpWork>> = vec![Vec::new(); self.topo.peer_count()];
        for (g, group) in self.groups.table().groups().iter().enumerate() {
            let dag = self.groups.dag(g);
            for s in dag.node_stats() {
                node_ops[group.node].push(OpWork {
                    name: s.stats.name,
                    depth: s.depth,
                    sharers: s.sharers,
                    items_in: s.stats.items_in,
                    items_out: s.stats.items_out,
                    work: s.stats.work,
                });
            }
            // Work executed by since-pruned nodes (retired flows'
            // exclusive operators) still happened: report it as one
            // zero-sharer aggregate so the books balance after failovers.
            let r = dag.retired_stats();
            if r.items_in > 0 {
                node_ops[group.node].push(OpWork {
                    name: r.name,
                    depth: 0,
                    sharers: 0,
                    items_in: r.items_in,
                    items_out: r.items_out,
                    work: r.work,
                });
            }
        }
        let mut metrics = self.metrics;
        metrics.queue_high_water = self.mailboxes.iter().map(|m| m.high_water).collect();
        metrics.mailbox_dropped = self.mailboxes.iter().map(|m| m.dropped).collect();
        metrics.queries = queries;
        metrics.node_ops = node_ops;
        if dss_telemetry::enabled() {
            metrics.publish(&self.topo);
        }
        (metrics, self.trace)
    }

    fn schedule(&mut self, time: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(std::cmp::Reverse(Event { time, seq, kind }));
    }

    fn trace_line(&mut self, f: impl FnOnce(&Topology) -> String) {
        if self.cfg.trace {
            let line = format!("{:>12} {}", self.now, f(&self.topo));
            self.trace.push(line);
        }
    }

    fn handle_emit_outputs(&mut self, flow: FlowId, origin: u64, base: u64, items: Vec<Node>) {
        if !self.flow(flow).active {
            self.metrics.items_lost += items.len() as u64;
            return;
        }
        if !self.topo.peer(self.flow(flow).node).up {
            // WAL mode: the emitting peer crashed with these outputs still
            // in flight. They were never committed, so recovery replays
            // the input and regenerates them index-identically — dropping
            // them here is silent, not a loss.
            if self.cfg.wal.is_none() {
                self.metrics.items_lost += items.len() as u64;
            }
            return;
        }
        self.trace_line(|_| format!("out f{flow} n={}", items.len()));
        for (i, item) in items.into_iter().enumerate() {
            self.dispatch_at(flow, 0, origin, base + i as u64, item);
        }
    }

    fn handle_arrive(&mut self, flow: FlowId, hop: usize, origin: u64, index: u64, item: Node) {
        let node = self.flow(flow).route[hop];
        if !self.flow(flow).active {
            self.metrics.items_lost += 1;
            return;
        }
        if !self.topo.peer(node).up && self.cfg.wal.is_none() {
            self.metrics.items_lost += 1;
            return;
        }
        // WAL mode proceeds even when `node` is down: `dispatch_at` still
        // offers the item to tap groups hosted there (their history defers
        // it for recovery) before counting the unforwardable hop as lost.
        self.trace_line(|_| format!("arr f{flow} hop={hop}"));
        self.dispatch_at(flow, hop, origin, index, item);
    }

    fn handle_source_emit(&mut self, source: String, idx: usize) {
        let model = &self.sources[&source];
        let (item, interarrival, more) = (
            model.items[idx].clone(),
            model.interarrival_us,
            idx + 1 < model.items.len(),
        );
        self.trace_line(|_| format!("src {source} #{idx}"));
        let origin = self.now;
        // Hand the item to every sharing group reading this source — one
        // mailbox entry per group serves all its member flows.
        let groups = self.groups.table().groups().iter().enumerate();
        let readers: Vec<usize> = groups
            .filter(|(_, g)| {
                !g.members.is_empty() && matches!(&g.key, GroupKey::Source(s) if *s == source)
            })
            .map(|(i, _)| i)
            .collect();
        for group in readers {
            // Source items are indexed by their position in the stream.
            self.enqueue(group, origin, idx as u64, item.clone());
        }
        if more {
            let next = self.now.saturating_add(interarrival);
            if next <= self.horizon_us {
                self.schedule(
                    next,
                    EventKind::SourceEmit {
                        source,
                        idx: idx + 1,
                    },
                );
            }
        }
    }

    /// Puts an item into a sharing group's input queue at its peer and
    /// kicks the server there. `index` is the item's absolute position in
    /// the group's input stream (WAL mode; ignored otherwise).
    fn enqueue(&mut self, group: usize, origin: u64, index: u64, item: Node) {
        let node = self.group(group).node;
        if self.cfg.wal.is_some() {
            // Exactly-once: recovery replays regenerate inputs the group
            // may already have serviced before the crash.
            if !admit(&mut self.group_mark[group], index) {
                self.metrics.wal_suppressed += 1;
                return;
            }
            if !self.topo.peer(node).up {
                // The peer is down but durable: retain the item in the
                // group history — recovery re-services it from there.
                self.history[group].push((origin, item));
                self.metrics.wal_deferred += 1;
                return;
            }
            if self.mailboxes[node].push(group, origin, item.clone()) {
                self.history[group].push((origin, item));
                self.schedule(self.now, EventKind::StartService { node });
                return;
            }
            // Refused by a full mailbox: a final drop in WAL mode too
            // (deliberately *not* retained — durability covers crashes,
            // not backpressure), so fall through to the drop accounting.
        } else if !self.topo.peer(node).up {
            // The entry would have served every member flow.
            self.metrics.items_lost += self.group(group).members.len().max(1) as u64;
            return;
        } else if self.mailboxes[node].push(group, origin, item) {
            self.schedule(self.now, EventKind::StartService { node });
            return;
        }
        // The refused entry would have served every member flow of the
        // group: attribute the drop to each of them, so the report can
        // say which flow (and thus which query/stream) lost data — the
        // per-peer aggregate alone cannot.
        for &f in &self.groups.table().groups()[group].members {
            let label = &self.groups.table().flows()[f].label;
            *self
                .metrics
                .mailbox_dropped_flows
                .entry((node, label.clone()))
                .or_insert(0) += 1;
            dss_telemetry::counter_add(
                "runtime.mailbox.dropped",
                || {
                    vec![
                        ("peer", self.topo.peer(node).name.clone()),
                        ("flow", label.clone()),
                    ]
                },
                1,
            );
        }
    }

    /// An idle peer with no service claimed yet at this timestamp takes
    /// its next live mailbox entry.
    fn try_claim(&mut self, node: NodeId, claims: &mut Vec<Claim>) {
        let claimed = claims.iter().any(|&(n, ..)| n == node);
        if !self.topo.peer(node).up || self.now < self.busy_until[node] || claimed {
            return;
        }
        loop {
            let Some((group, origin, item)) = self.mailboxes[node].pop() else {
                return;
            };
            if self.group(group).members.is_empty() {
                // Every member retired while the item waited.
                self.metrics.items_lost += 1;
                continue;
            }
            claims.push((node, group, origin, item));
            return;
        }
    }

    /// The one service routine: runs `item` through `group`'s DAG in place
    /// and schedules what each member flow produced, numbering the outputs
    /// (WAL mode) from the flow's emit counter — nothing else assigns
    /// output indices. A mailbox service charges the work to `node`,
    /// occupies its server for the service time, and has the outputs
    /// leave — then the commit, then the next look at the mailbox — when
    /// that time is up. Recovery's `replay` of a retained tail emits at
    /// `now` and leaves charging and committing the whole tail to its
    /// caller.
    fn service(&mut self, node: NodeId, group: usize, origin: u64, item: &Node, replay: bool) {
        let before = self.groups.dag(group).total_work();
        let mut fed = FlowOutputs::default();
        fed.feed(self.groups.dag_mut(group), item);
        let outputs: Vec<(FlowId, Vec<Node>)> = fed.drain().collect();
        let done_at = if replay {
            self.now
        } else {
            let work = self.groups.dag(group).total_work() - before;
            let peer = self.topo.peer(node);
            let scaled = work * peer.pindex;
            let service_us = (self.cfg.per_item_overhead_us as f64 + scaled / peer.capacity * 1e6)
                .round()
                .max(1.0) as u64;
            self.metrics.node_work[node] += scaled;
            self.busy_us[node] += service_us;
            let done_at = self.now + service_us;
            self.busy_until[node] = done_at;
            let n_out: usize = outputs.iter().map(|(_, v)| v.len()).sum();
            self.trace_line(|_| format!("svc n{node} g{group} outs={n_out} busy={service_us}"));
            dss_telemetry::histogram_record(
                "runtime.service_us",
                || vec![("peer", self.topo.peer(node).name.clone())],
                service_us as f64,
            );
            dss_telemetry::histogram_record(
                "runtime.mailbox.depth",
                || vec![("peer", self.topo.peer(node).name.clone())],
                self.mailboxes[node].len() as f64,
            );
            done_at
        };
        let wal = self.cfg.wal.is_some();
        for (flow, items) in outputs {
            let base = if wal {
                let base = self.emit_next[flow];
                self.emit_next[flow] += items.len() as u64;
                base
            } else {
                0
            };
            self.schedule(
                done_at,
                EventKind::EmitOutputs {
                    flow,
                    origin,
                    base,
                    items,
                },
            );
        }
        if replay {
            return;
        }
        if wal {
            // Committed at completion time, *after* the outputs above: a
            // crash between claim and completion then replays the item.
            self.schedule(done_at, EventKind::ServiceCommit { node, group });
        }
        // Look at the mailbox again once this service is over.
        self.schedule(done_at, EventKind::StartService { node });
    }

    /// WAL mode: a service's outputs have left the peer — count its input
    /// as consumed, snapshotting window state every `checkpoint_every`
    /// items.
    fn handle_service_commit(&mut self, node: NodeId, group: usize) {
        if !self.topo.peer(node).up {
            // Crashed before the commit: the item replays at recovery.
            return;
        }
        self.consumed[group] += 1;
        let every = self.cfg.wal.as_ref().expect("WAL mode").checkpoint_every;
        if self.consumed[group].is_multiple_of(every) {
            self.wal_checkpoint(node, group);
        }
    }

    /// An item of `flow` is present at `route[hop]`: offer it to the taps
    /// reading the passing stream there, then either forward it one hop or
    /// — at the end of the route — count the delivery. `index` is the
    /// item's absolute position in the flow's output stream (WAL mode).
    fn dispatch_at(&mut self, flow: FlowId, hop: usize, origin: u64, index: u64, item: Node) {
        let Step { node, tap, next } = self.groups.table().step(flow, hop);
        let (forward, query) = match next {
            Next::Forward { to, hop } => (Some((to, hop)), None),
            Next::Deliver { query } => (None, Some(query.to_string())),
            Next::End => (None, None),
        };
        // Offer the passing item to the taps reading it here: all of them
        // form one sharing group, fed by a single enqueue.
        if let Some(g) = tap {
            self.enqueue(g, origin, index, item.clone());
        }
        if !self.topo.peer(node).up {
            // Only reachable in WAL mode (`handle_arrive` short-circuits
            // otherwise): the tap offer above was deferred into history,
            // but the down relay itself cannot forward or deliver. At a
            // route terminus with no delivery the taps *were* the only
            // consumers, so nothing downstream is lost.
            if forward.is_some() || query.is_some() {
                self.metrics.items_lost += 1;
            }
            return;
        }
        if let Some((next, hop)) = forward {
            let edge_id = self
                .topo
                .edge_between(node, next)
                .expect("deployment validated against topology");
            let edge = self.topo.edge(edge_id);
            if !edge.up {
                self.metrics.items_lost += 1;
                return;
            }
            let bytes = serialized_size(&item) as u64;
            let tx_us = ((bytes as f64) * 8000.0 / edge.bandwidth_kbps).round() as u64;
            self.metrics.edge_bytes[edge_id] += bytes;
            let bucket = ((self.now / self.cfg.bucket_us) as usize)
                .min(self.metrics.edge_bytes_buckets[edge_id].len() - 1);
            self.metrics.edge_bytes_buckets[edge_id][bucket] += bytes;
            // FIFO per flow: not before the flow's previous item at `hop`;
            // a tie keeps its order through the heap's sequence number.
            let last = &mut self.last_arrival[flow];
            if last.len() <= hop {
                last.resize(hop + 1, 0);
            }
            let at = (self.now + self.cfg.link_latency_us + tx_us).max(last[hop]);
            last[hop] = at;
            self.schedule(
                at,
                EventKind::Arrive {
                    flow,
                    hop,
                    origin,
                    index,
                    item,
                },
            );
        } else if let Some(query) = query {
            let track = self
                .queries
                .get_mut(&query)
                .expect("sync_deployment tracks every query of the delivery map");
            if self.cfg.wal.is_some() && !admit(&mut track.mark, index) {
                // A recovery replay re-sent an output that already reached
                // the subscriber: exactly-once filtering absorbs it.
                self.metrics.wal_suppressed += 1;
                return;
            }
            let latency = self.now - origin;
            track.latencies.push((self.now, latency));
            match track.last_origin {
                Some(last) if origin < last => track.duplicates += 1,
                _ => track.last_origin = Some(origin),
            }
            if let Some(since) = track.recovering_since.take() {
                track.recoveries.push(self.now.saturating_sub(since));
            }
            // Planned migrations are attributed apart from crash
            // recoveries: a scheduled move's delivery gap is a latency
            // cost of re-balancing, not of a failure.
            if let Some(since) = track.migrating_since.take() {
                track.migrations.push(self.now.saturating_sub(since));
            }
            if self.cfg.record_deliveries {
                track.items.push((origin, item));
            }
            self.trace_line(|_| format!("dlv {query} lat={latency}"));
        }
    }

    /// The log directory of one peer: `wal.dir/<peer name>`.
    fn wal_dir(&self, peer: NodeId) -> PathBuf {
        self.cfg
            .wal
            .as_ref()
            .expect("WAL mode")
            .dir
            .join(&self.topo.peer(peer).name)
    }

    /// Durably snapshots one sharing group — its window state, consumed
    /// input count, and the members' output counters — as one record of
    /// `node`'s log, opening the writer lazily (a fresh segment per open).
    /// I/O failure on the durability path is not recoverable
    /// mid-simulation: it panics rather than silently running without the
    /// log it promised.
    fn wal_checkpoint(&mut self, node: NodeId, group: usize) {
        let members = &self.group(group).members;
        let emits: Vec<(u64, u64)> = members
            .iter()
            .map(|&f| (f as u64, self.emit_next[f]))
            .collect();
        let states = self
            .groups
            .dag(group)
            .snapshot_states()
            .into_iter()
            .map(|(f, s)| (f as u64, s))
            .collect();
        let record = WalRecord::Checkpoint {
            group: group as u64,
            consumed: self.consumed[group],
            emits,
            states,
        };
        let wal = self.cfg.wal.as_ref().expect("WAL mode");
        let opts = WalOptions {
            segment_bytes: wal.segment_bytes,
            fsync_every: wal.fsync_every,
        };
        let dir = wal.dir.join(&self.topo.peer(node).name);
        let writer = self.wal_writers[node]
            .get_or_insert_with(|| WalWriter::open(dir, opts).expect("open peer WAL"));
        writer.append(&record).expect("append to peer WAL");
        self.metrics.wal_checkpoints += 1;
    }

    /// A peer crashed in WAL mode: close its log (a restart opens a fresh
    /// segment), optionally truncate it to a scripted crash point, and
    /// discard the in-memory operator state a real crash would lose — the
    /// groups' DAGs restart empty until recovery restores them.
    fn wal_crash(&mut self, peer: NodeId) {
        drop(self.wal_writers[peer].take());
        if let Some(keep) = self.cfg.wal.as_ref().expect("WAL mode").crash_keep_records {
            let dir = self.wal_dir(peer);
            // A missing directory (crash before the first append) has
            // nothing to truncate.
            if dir.exists() {
                truncate_to_records(&dir, keep).expect("truncate peer WAL");
            }
        }
        self.groups.rebuild_node(peer);
    }

    /// A peer came back in WAL mode: replay its log, restore the latest
    /// surviving checkpoint per group, and re-service the retained input
    /// tail past it. Replayed items regenerate their outputs with the
    /// *same* absolute indices, so downstream exactly-once filters absorb
    /// anything that already got through before the crash — zero dropped,
    /// zero duplicated. Returns the number of re-serviced input items; an
    /// unreadable log is the caller's cue to fall back to replan.
    fn wal_recover(&mut self, peer: NodeId) -> Result<u64, dss_wal::WalError> {
        let replayed = dss_wal::replay(self.wal_dir(peer))?;
        // Last checkpoint per group wins (torn tails already dropped).
        // Checkpoint body: (consumed, per-flow emit counters, sink states).
        type Body = (u64, Vec<(u64, u64)>, Vec<(u64, dss_engine::OpState)>);
        let mut checkpoints: BTreeMap<u64, Body> = BTreeMap::new();
        for rec in replayed.records {
            if let WalRecord::Checkpoint {
                group,
                consumed,
                emits,
                states,
            } = rec
            {
                checkpoints.insert(group, (consumed, emits, states));
            }
        }
        // The CRC vouches for the bytes, not for whose log this is: a
        // checkpoint that does not fit the group it would restore (a
        // previous deployment's directory) makes the log unusable.
        let live = self.live_groups_at(peer);
        for &g in &live {
            let Some((consumed, emits, _)) = checkpoints.get(&(g as u64)) else {
                continue;
            };
            let members = &self.group(g).members;
            if *consumed > self.history[g].len() as u64
                || !emits.iter().all(|&(f, _)| members.contains(&(f as usize)))
            {
                return Err(dss_wal::WalError::Corrupt {
                    segment: "<dir>".to_string(),
                    detail: format!("checkpoint of group {g} does not match the deployed group"),
                });
            }
        }
        let mut total = 0u64;
        for g in live {
            let (from, emits, states) =
                checkpoints
                    .remove(&(g as u64))
                    .unwrap_or((0, Vec::new(), Vec::new()));
            // Output numbering restarts at the checkpointed counters; with
            // no checkpoint the cold replay regenerates from index 0.
            for &f in &self.groups.table().groups()[g].members {
                self.emit_next[f] = 0;
            }
            for (f, next) in emits {
                self.emit_next[f as usize] = next;
            }
            if !states.is_empty() {
                let pool: Vec<(FlowId, dss_engine::OpState)> =
                    states.into_iter().map(|(f, s)| (f as usize, s)).collect();
                let report = self.groups.dag_mut(g).adopt_states(pool);
                self.metrics.windows_migrated += report.ops_migrated;
                self.metrics.windows_dropped += report.ops_dropped;
            }
            // Re-service the retained tail through the restored DAG. The
            // work is real (charged to the peer), but happens in recovery
            // rather than through the mailbox: one batch, at `now`.
            let tail: Vec<(u64, Node)> = self.history[g][from as usize..].to_vec();
            let work_before = self.groups.dag(g).total_work();
            for (origin, item) in &tail {
                self.service(peer, g, *origin, item, true);
            }
            total += tail.len() as u64;
            let work = self.groups.dag(g).total_work() - work_before;
            self.metrics.node_work[peer] += work * self.topo.peer(peer).pindex;
            self.consumed[g] = self.history[g].len() as u64;
            // Seal recovery with a fresh checkpoint: the next crash
            // resumes from here instead of replaying the same tail again.
            self.wal_checkpoint(peer, g);
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowInput, StreamFlow};
    use crate::topology::grid_topology;
    use dss_properties::{InputProperties, Properties};

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

    fn one_flow_setup() -> (Topology, Deployment, BTreeMap<FlowId, String>) {
        let t = grid_topology(2, 2);
        let (sp0, sp1, sp3) = (
            t.expect_node("SP0"),
            t.expect_node("SP1"),
            t.expect_node("SP3"),
        );
        let mut d = Deployment::new();
        let f = d.add_flow(StreamFlow {
            label: "photons".into(),
            input: FlowInput::Source {
                stream: "photons".into(),
            },
            processing_node: sp0,
            ops: Vec::new(),
            route: vec![sp0, sp1, sp3],
            properties: Some(Properties::single(InputProperties::original("photons"))),
            retired: false,
        });
        let deliveries = BTreeMap::from([(f, "q".to_string())]);
        (t, d, deliveries)
    }

    fn sources(n: usize, freq: f64) -> BTreeMap<String, SourceModel> {
        BTreeMap::from([(
            "photons".to_string(),
            SourceModel::from_frequency(items(n), freq),
        )])
    }

    #[test]
    fn config_validation() {
        assert!(LiveConfig::default().validate().is_ok());
        let bad = LiveConfig {
            duration_s: 0.0,
            ..LiveConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::NonPositiveDuration(0.0)));
        let bad = LiveConfig {
            mailbox_capacity: 0,
            ..LiveConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroMailboxCapacity));
        let bad = LiveConfig {
            bucket_us: 0,
            ..LiveConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroBucket));
        let mut wal = WalConfig::new("/tmp/unused");
        wal.checkpoint_every = 0;
        let bad = LiveConfig {
            wal: Some(wal),
            ..LiveConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroCheckpointCadence));
    }

    #[test]
    fn delivers_all_items_with_positive_latency() {
        let (t, d, deliveries) = one_flow_setup();
        let cfg = LiveConfig {
            duration_s: 30.0,
            ..LiveConfig::default()
        };
        let rt = LiveRuntime::new(t, &d, sources(20, 10.0), deliveries, cfg).unwrap();
        let (m, _) = rt.finish();
        let q = &m.queries["q"];
        assert_eq!(q.delivered, 20);
        assert_eq!(q.duplicates, 0);
        // Two hops with 200µs latency each, plus service and transmission.
        assert!(q.latency_min_us.unwrap() >= 400);
        assert!(q.latency_p99_us.unwrap() >= q.latency_min_us.unwrap());
        assert_eq!(m.items_lost, 0);
        // Both edges on the route carried every item's bytes.
        let positive = m.edge_bytes.iter().filter(|&&b| b > 0).count();
        assert_eq!(positive, 2);
        // The time buckets sum to the per-edge totals.
        for (e, total) in m.edge_bytes.iter().enumerate() {
            assert_eq!(m.edge_bytes_buckets[e].iter().sum::<u64>(), *total);
        }
        assert!(m.node_work.iter().all(|&w| w >= 0.0));
        assert!(m.queue_high_water.iter().any(|&h| h > 0));
    }

    #[test]
    fn horizon_cuts_off_late_items() {
        let (t, d, deliveries) = one_flow_setup();
        // 20 items at 1 Hz but only 5 simulated seconds: items 1..=4 are
        // emitted in time (first at t=1s), the rest never happen.
        let cfg = LiveConfig {
            duration_s: 5.0,
            ..LiveConfig::default()
        };
        let rt = LiveRuntime::new(t, &d, sources(20, 1.0), deliveries, cfg).unwrap();
        let (m, _) = rt.finish();
        assert!(m.queries["q"].delivered < 20);
        assert!(m.queries["q"].delivered >= 4);
    }

    #[test]
    fn peer_crash_loses_traffic_and_recovery_restores_it() {
        let (t, d, deliveries) = one_flow_setup();
        let sp1 = t.expect_node("SP1");
        let cfg = LiveConfig {
            duration_s: 30.0,
            ..LiveConfig::default()
        };
        let mut rt = LiveRuntime::new(t, &d, sources(25, 1.0), deliveries, cfg).unwrap();
        // Crash the middle hop for 10 simulated seconds.
        rt.run_until(fault::secs_to_us(10.0));
        rt.apply_fault(&FaultEvent {
            at_us: fault::secs_to_us(10.0),
            kind: FaultKind::PeerCrash(sp1),
        });
        rt.run_until(fault::secs_to_us(20.0));
        rt.apply_fault(&FaultEvent {
            at_us: fault::secs_to_us(20.0),
            kind: FaultKind::PeerRecover(sp1),
        });
        let (m, _) = rt.finish();
        let q = &m.queries["q"];
        assert!(m.items_lost > 0, "items crossing SP1 while down are lost");
        assert!(q.delivered > 0, "items after recovery are delivered");
        assert!(
            (q.delivered + m.items_lost) >= 25,
            "every emitted item is accounted for: {} + {}",
            q.delivered,
            m.items_lost
        );
    }

    #[test]
    fn link_down_drops_in_transit() {
        let (t, d, deliveries) = one_flow_setup();
        let e = t
            .edge_between(t.expect_node("SP1"), t.expect_node("SP3"))
            .unwrap();
        let cfg = LiveConfig {
            duration_s: 30.0,
            ..LiveConfig::default()
        };
        let mut rt = LiveRuntime::new(t, &d, sources(25, 1.0), deliveries, cfg).unwrap();
        rt.run_until(0);
        rt.apply_fault(&FaultEvent {
            at_us: 0,
            kind: FaultKind::LinkDown(e),
        });
        let (m, _) = rt.finish();
        assert_eq!(m.queries["q"].delivered, 0);
        assert_eq!(m.items_lost, 25);
    }

    #[test]
    fn identical_runs_are_byte_identical() {
        let mk = || {
            let (t, d, deliveries) = one_flow_setup();
            let cfg = LiveConfig {
                duration_s: 10.0,
                trace: true,
                ..LiveConfig::default()
            };
            let rt = LiveRuntime::new(t, &d, sources(30, 5.0), deliveries, cfg).unwrap();
            rt.finish()
        };
        let (m1, t1) = mk();
        let (m2, t2) = mk();
        assert!(!t1.is_empty());
        assert_eq!(t1, t2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn same_timestamp_services_start_after_the_drain_in_claim_order() {
        // Two peers read the one source, so their services coincide; the
        // flows are declared against node order (SP3 first), so claim order
        // and node order differ. Items arrive every 10µs against a 50µs
        // service, so from t=60 each timestamp holds both peers' finished
        // outputs *and* their next services: the `out` lines of the drain
        // come first, then the services in claim order. Executing a service
        // inside the drain would interleave them (`out f0, svc n3, out f1`).
        let t = grid_topology(2, 2);
        let (sp0, sp1, sp3) = (
            t.expect_node("SP0"),
            t.expect_node("SP1"),
            t.expect_node("SP3"),
        );
        let mut d = Deployment::new();
        let mut deliveries = BTreeMap::new();
        for (query, at) in [("qa", sp3), ("qb", sp0)] {
            let f = d.add_flow(StreamFlow {
                label: "photons".into(),
                input: FlowInput::Source {
                    stream: "photons".into(),
                },
                processing_node: at,
                ops: Vec::new(),
                route: vec![at, sp1],
                properties: Some(Properties::single(InputProperties::original("photons"))),
                retired: false,
            });
            deliveries.insert(f, query.to_string());
        }
        let cfg = LiveConfig {
            duration_s: 5.0,
            trace: true,
            ..LiveConfig::default()
        };
        let rt = LiveRuntime::new(t, &d, sources(3, 100_000.0), deliveries, cfg).unwrap();
        let (_, trace) = rt.finish();
        let trace: Vec<&str> = trace.iter().map(|l| l.trim_start()).collect();
        let expected = [
            "10 src photons #0",
            "10 svc n3 g0 outs=1 busy=50",
            "10 svc n0 g1 outs=1 busy=50",
            "20 src photons #1",
            "30 src photons #2",
            "60 out f0 n=1",
            "60 out f1 n=1",
            "60 svc n3 g0 outs=1 busy=50",
            "60 svc n0 g1 outs=1 busy=50",
            "110 out f0 n=1",
            "110 out f1 n=1",
            "110 svc n3 g0 outs=1 busy=50",
            "110 svc n0 g1 outs=1 busy=50",
            "160 out f0 n=1",
            "160 out f1 n=1",
            "264 arr f0 hop=1",
            "264 dlv qa lat=254",
            "264 arr f1 hop=1",
            "264 dlv qb lat=254",
            "314 arr f0 hop=1",
            "314 dlv qa lat=294",
            "314 arr f1 hop=1",
            "314 dlv qb lat=294",
            "364 arr f0 hop=1",
            "364 dlv qa lat=334",
            "364 arr f1 hop=1",
            "364 dlv qb lat=334",
        ];
        assert_eq!(trace, expected);
    }

    #[test]
    fn outputs_of_one_flow_arrive_in_emission_order() {
        // ω over a sliding diff window: the last item closes every open
        // window in one service, the fullest first. Over a slow link each
        // smaller window would overtake the larger ones emitted before it
        // unless the link is FIFO per flow.
        use crate::flow::FlowOp;
        use dss_predicate::PredicateGraph;
        use dss_properties::{Operator, WindowOutputSpec, WindowSpec};
        let mut t = Topology::new();
        let (a, b) = (t.add_super_peer("A"), t.add_super_peer("B"));
        t.connect_with(a, b, 80.0); // 100 µs per byte
        let window = WindowSpec::diff(
            "det_time".parse().unwrap(),
            "5".parse().unwrap(),
            Some("1".parse().unwrap()),
        )
        .unwrap();
        let ops = vec![FlowOp::Standard(Operator::WindowOutput(WindowOutputSpec {
            window,
            pre_selection: PredicateGraph::new(),
        }))];
        let mut d = Deployment::new();
        let f = d.add_flow(StreamFlow {
            label: "windows".into(),
            input: FlowInput::Source {
                stream: "photons".into(),
            },
            processing_node: a,
            ops: ops.clone(),
            route: vec![a, b],
            properties: Some(Properties::single(InputProperties::original("photons"))),
            retired: false,
        });
        let mut photons = items(5);
        photons.push(Node::elem(
            "photon",
            vec![Node::leaf("en", "1.0"), Node::leaf("det_time", "100")],
        ));
        // The flow's output stream, in emission order: its chain run directly.
        let mut dag = crate::shared::FlowDag::new();
        dag.register(f, &ops);
        let mut emitted = Vec::new();
        for p in &photons {
            dag.process_into(p, &mut |_, out| emitted.push(out.clone()));
        }
        let sizes: Vec<usize> = emitted.iter().map(serialized_size).collect();
        assert!(
            sizes.windows(2).any(|w| w[1] < w[0]),
            "some output is smaller than the one before it: {sizes:?}"
        );
        let cfg = LiveConfig {
            duration_s: 30.0,
            record_deliveries: true,
            ..LiveConfig::default()
        };
        let source = SourceModel::from_frequency(photons, 1.0);
        let sources = BTreeMap::from([("photons".to_string(), source)]);
        let deliveries = BTreeMap::from([(f, "q".to_string())]);
        let mut rt = LiveRuntime::new(t, &d, sources, deliveries, cfg).unwrap();
        rt.run_until(rt.horizon_us());
        let delivered = rt.take_delivered_items().remove("q").unwrap_or_default();
        let delivered: Vec<Node> = delivered.into_iter().map(|(_, item)| item).collect();
        assert_eq!(delivered, emitted);
    }

    #[test]
    fn tiny_mailbox_drops_bursts() {
        let (t, d, deliveries) = one_flow_setup();
        // 1000 Hz into a 1-item mailbox with 50µs overhead per item is
        // sustainable, but the shared clock granularity makes bursts; use
        // an extreme rate to force drops.
        let cfg = LiveConfig {
            duration_s: 5.0,
            mailbox_capacity: 1,
            per_item_overhead_us: 5_000,
            ..LiveConfig::default()
        };
        let sp0 = t.expect_node("SP0");
        let rt = LiveRuntime::new(t, &d, sources(200, 1000.0), deliveries, cfg).unwrap();
        let (m, _) = rt.finish();
        assert!(m.total_dropped() > 0, "overloaded mailbox must drop");
        assert!(m.queries["q"].delivered > 0);
        assert!(m.queue_high_water.contains(&1));
        // Every drop is attributed to the flow that lost data, not just to
        // the peer: the single flow here reads "photons" at SP0.
        let attributed = m
            .mailbox_dropped_flows
            .get(&(sp0, "photons".to_string()))
            .copied()
            .unwrap_or(0);
        assert_eq!(
            attributed, m.mailbox_dropped[sp0],
            "single-flow group: per-flow drops must equal the peer aggregate"
        );
        assert_eq!(
            m.mailbox_dropped_flows.values().sum::<u64>(),
            m.total_dropped(),
            "one member flow per group: attribution covers every drop"
        );
    }

    fn wal_test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dss-live-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// 25 items at 1 Hz over 60s; the processing peer SP0 crashes at 10s
    /// and recovers at 20s. Returns the final metrics, the delivered items
    /// in delivery order, and the event trace.
    fn crash_recover_run(
        wal: Option<WalConfig>,
        crash: bool,
    ) -> (RuntimeMetrics, Vec<(u64, Node)>, Vec<String>) {
        let (t, d, deliveries) = one_flow_setup();
        let sp0 = t.expect_node("SP0");
        let cfg = LiveConfig {
            duration_s: 60.0,
            record_deliveries: true,
            trace: true,
            wal,
            ..LiveConfig::default()
        };
        let mut rt = LiveRuntime::new(t, &d, sources(25, 1.0), deliveries, cfg).unwrap();
        if crash {
            rt.run_until(fault::secs_to_us(10.0));
            rt.apply_fault(&FaultEvent {
                at_us: fault::secs_to_us(10.0),
                kind: FaultKind::PeerCrash(sp0),
            });
            rt.run_until(fault::secs_to_us(20.0));
            rt.apply_fault(&FaultEvent {
                at_us: fault::secs_to_us(20.0),
                kind: FaultKind::PeerRecover(sp0),
            });
        }
        rt.run_until(rt.horizon_us());
        let items = rt.take_delivered_items().remove("q").unwrap_or_default();
        let (m, trace) = rt.finish();
        (m, items, trace)
    }

    #[test]
    fn wal_crash_recovery_is_exactly_once() {
        let dir = wal_test_dir("exactly-once");
        let (m, items, _) = crash_recover_run(Some(WalConfig::new(&dir)), true);
        let q = &m.queries["q"];
        assert_eq!(q.delivered, 25, "resume-not-replan drops nothing");
        assert_eq!(q.duplicates, 0, "and duplicates nothing");
        assert_eq!(m.items_lost, 0);
        assert!(m.wal_checkpoints > 0);
        assert!(m.wal_replayed_items > 0, "the crash forces a replay");
        assert!(m.wal_deferred > 0, "downtime emissions are retained");
        assert_eq!(m.wal_fallbacks, 0);
        // The delivered stream is identical to a run that never crashed.
        let (bm, baseline, _) = crash_recover_run(None, false);
        assert_eq!(bm.queries["q"].delivered, 25);
        assert_eq!(items, baseline);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_crash_points_preserve_exactly_once() {
        // Truncating the victim's log to any length — every prefix of the
        // append sequence — only changes how much recovery replays, never
        // what the subscriber sees.
        for keep in [0u64, 1, 2, 3, 5, 8, 13, 1000] {
            let dir = wal_test_dir(&format!("keep-{keep}"));
            let mut wal = WalConfig::new(&dir);
            wal.crash_keep_records = Some(keep);
            let (m, items, _) = crash_recover_run(Some(wal), true);
            let q = &m.queries["q"];
            assert_eq!(q.delivered, 25, "keep={keep}: zero dropped");
            assert_eq!(q.duplicates, 0, "keep={keep}: zero duplicated");
            assert_eq!(m.items_lost, 0, "keep={keep}");
            assert_eq!(
                m.wal_fallbacks, 0,
                "keep={keep}: a truncated log is a torn tail, not corruption"
            );
            assert_eq!(items.len(), 25);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn wal_runs_are_byte_identical() {
        let run = |tag: &str| {
            let dir = wal_test_dir(tag);
            let out = crash_recover_run(Some(WalConfig::new(&dir)), true);
            let _ = std::fs::remove_dir_all(&dir);
            out
        };
        let (m1, i1, t1) = run("det-a");
        let (m2, i2, t2) = run("det-b");
        assert!(!t1.is_empty());
        assert_eq!(t1, t2);
        assert_eq!(i1, i2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn corrupt_wal_falls_back_to_replan_semantics() {
        let dir = wal_test_dir("corrupt");
        let mut wal = WalConfig::new(&dir);
        wal.segment_bytes = 1; // rotate every record: plenty of segments
        wal.checkpoint_every = 1;
        let (t, d, deliveries) = one_flow_setup();
        let sp0 = t.expect_node("SP0");
        let cfg = LiveConfig {
            duration_s: 60.0,
            wal: Some(wal),
            ..LiveConfig::default()
        };
        let mut rt = LiveRuntime::new(t, &d, sources(25, 1.0), deliveries, cfg).unwrap();
        rt.run_until(fault::secs_to_us(10.0));
        rt.apply_fault(&FaultEvent {
            at_us: fault::secs_to_us(10.0),
            kind: FaultKind::PeerCrash(sp0),
        });
        // Destroy a durable non-final segment: replay must refuse the log
        // (a gap means committed records are gone for good).
        let victim = dir.join("SP0");
        let mut segs: Vec<_> = std::fs::read_dir(&victim)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        assert!(segs.len() > 2, "tiny segments must have rotated");
        std::fs::remove_file(&segs[1]).unwrap();
        rt.run_until(fault::secs_to_us(20.0));
        rt.apply_fault(&FaultEvent {
            at_us: fault::secs_to_us(20.0),
            kind: FaultKind::PeerRecover(sp0),
        });
        let (m, _) = rt.finish();
        assert_eq!(m.wal_fallbacks, 1, "unreadable log degrades, no panic");
        assert!(m.items_lost > 0, "fallback abandons the retained tail");
        let q = &m.queries["q"];
        assert!(
            q.delivered > 0 && q.delivered < 25,
            "pre-crash and post-recovery traffic still flows: {}",
            q.delivered
        );
        assert_eq!(q.duplicates, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_checkpoint_falls_back_instead_of_panicking() {
        // A log directory left behind by another deployment decodes fine
        // but names flows this group never had, or a consumed offset past
        // its history. Recovery must refuse it, not index with it.
        let foreign = [(0, vec![(10_000, 7)]), (1_000_000, vec![(0, 7)])];
        for (consumed, emits) in foreign {
            let dir = wal_test_dir("foreign");
            let mut old = WalWriter::open(dir.join("SP0"), WalOptions::default()).unwrap();
            let stale = WalRecord::Checkpoint {
                group: 0,
                consumed,
                emits,
                states: Vec::new(),
            };
            old.append(&stale).unwrap();
            old.sync().unwrap();
            drop(old);
            let mut wal = WalConfig::new(&dir);
            wal.checkpoint_every = 1000; // this run never supersedes it
            let (m, items, _) = crash_recover_run(Some(wal), true);
            assert_eq!(m.wal_fallbacks, 1, "foreign log degrades, no panic");
            assert!(m.items_lost > 0, "fallback abandons the retained tail");
            let q = &m.queries["q"];
            assert!(q.delivered > 0 && q.delivered < 25, "{}", q.delivered);
            assert_eq!(q.duplicates, 0);
            let last_origin = items.last().expect("deliveries").0;
            assert!(
                last_origin > fault::secs_to_us(20.0),
                "post-recovery traffic is delivered"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn durable_run_logs_only_checkpoints() {
        // Nothing is logged that recovery does not read: every record of
        // every peer log is a checkpoint, and peers hosting no sharing
        // group keep no log at all.
        let dir = wal_test_dir("only-checkpoints");
        let (m, _, _) = crash_recover_run(Some(WalConfig::new(&dir)), true);
        assert!(m.wal_checkpoints > 0);
        let mut on_disk = 0;
        for peer in std::fs::read_dir(&dir).unwrap() {
            let peer = peer.unwrap();
            assert_eq!(peer.file_name(), "SP0", "only the group's host logs");
            let log = dss_wal::replay(peer.path()).unwrap();
            assert!(log.is_clean());
            for rec in &log.records {
                assert!(matches!(rec, WalRecord::Checkpoint { .. }), "{rec:?}");
            }
            on_disk += log.records.len() as u64;
        }
        assert_eq!(on_disk, m.wal_checkpoints);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
