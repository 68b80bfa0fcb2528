//! Time-aware measurements produced by the live runtime.
//!
//! Where the batch simulator's [`crate::metrics::NetworkMetrics`] reports
//! one aggregate number per edge/peer (Figures 6/7), the live runtime adds
//! the time axis: queue depths, per-query end-to-end latency percentiles,
//! bytes per edge bucketed over time, and the cost of failures (items
//! lost, duplicates, recovery times).

use std::collections::BTreeMap;

use crate::topology::{NodeId, Topology};

/// Per-query delivery statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryMetrics {
    /// Result items delivered to the query's peer within the horizon.
    pub delivered: u64,
    /// Deliveries whose source timestamp precedes an already-delivered
    /// item — re-sent data after a failover re-subscription.
    pub duplicates: u64,
    /// End-to-end latency (source emission → delivery) extremes/percentile,
    /// `None` until the first delivery.
    pub latency_min_us: Option<u64>,
    pub latency_mean_us: Option<u64>,
    pub latency_p99_us: Option<u64>,
    /// For each failover that hit this query: time from the fault to the
    /// first post-re-subscription delivery (recovery time).
    pub recoveries_us: Vec<u64>,
    /// For each *planned* migration that moved this query: time from the
    /// re-balance decision to the first post-move delivery. Kept apart
    /// from `recoveries_us` — a scheduled move's delivery gap is a cost of
    /// re-balancing, not of a failure.
    pub migrations_us: Vec<u64>,
}

impl QueryMetrics {
    /// Folds a sorted latency sample into min/mean/p99.
    pub(crate) fn set_latencies(&mut self, mut sample: Vec<u64>) {
        if sample.is_empty() {
            return;
        }
        sample.sort_unstable();
        self.latency_min_us = Some(sample[0]);
        let sum: u128 = sample.iter().map(|&l| l as u128).sum();
        self.latency_mean_us = Some((sum / sample.len() as u128) as u64);
        let idx = (sample.len() * 99).div_ceil(100).saturating_sub(1);
        self.latency_p99_us = Some(sample[idx]);
    }
}

/// Execution counters of one operator node in a peer's shared DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct OpWork {
    /// Operator kind (`select`, `project`, `aggregate`, …).
    pub name: &'static str,
    /// Depth in the sharing trie (0 = reads the group's input directly).
    pub depth: usize,
    /// How many flows shared this node at the end of the run. Values above
    /// one mean the node's work was executed once *for all of them*.
    pub sharers: usize,
    /// Items the node processed.
    pub items_in: u64,
    /// Items the node emitted.
    pub items_out: u64,
    /// Work units executed (unscaled by the peer's performance index).
    pub work: f64,
}

/// The live runtime's report: per-peer queueing behaviour, per-edge traffic
/// over time, and per-query delivery quality.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeMetrics {
    /// Simulated horizon in microseconds.
    pub horizon_us: u64,
    /// Width of one `edge_bytes_buckets` interval in microseconds.
    pub bucket_us: u64,
    /// Per-peer mailbox depth high-water marks.
    pub queue_high_water: Vec<usize>,
    /// Per-peer items dropped at a full mailbox.
    pub mailbox_dropped: Vec<u64>,
    /// Mailbox drops attributed per (peer, flow label). A refused entry
    /// would have served every active member flow of its sharing group, so
    /// each drop counts once *per member flow* here — the per-peer
    /// aggregate above cannot say which flow (query/stream) lost data.
    pub mailbox_dropped_flows: BTreeMap<(NodeId, String), u64>,
    /// Items lost to faults: drained from crashed mailboxes, dropped on
    /// down links, or addressed to dead peers/retired flows.
    pub items_lost: u64,
    /// Items moved by planned loss-free handoffs (widening/narrowing):
    /// open window accumulators and buffered window contents migrated
    /// across in-place chain rebuilds — the O(delta) movement that
    /// replaces replaying an O(window extent) of input.
    pub widen_delta_items: u64,
    /// Stateful operators whose open windows survived an in-place rebuild
    /// via migration.
    pub windows_migrated: u64,
    /// Exported window snapshots no rebuilt operator could adopt exactly:
    /// that state dropped and the affected windows restarted, as a plain
    /// rebuild would.
    pub windows_dropped: u64,
    /// WAL mode: window-state checkpoints written — the only record kind,
    /// so also the number of records across all peer logs (0 otherwise).
    pub wal_checkpoints: u64,
    /// WAL mode: input items re-serviced by crash recovery.
    pub wal_replayed_items: u64,
    /// WAL mode: items retained in a down peer's durable history instead
    /// of being lost (recovery re-services them).
    pub wal_deferred: u64,
    /// WAL mode: duplicate items absorbed by exactly-once filters
    /// (replayed inputs already serviced, re-sent outputs already
    /// delivered).
    pub wal_suppressed: u64,
    /// WAL mode: recoveries that found an unreadable log and degraded to
    /// replan-from-scratch semantics.
    pub wal_fallbacks: u64,
    /// Planned migrations applied by the periodic re-balancer (each may
    /// move several flows of one cycle's victim queries).
    pub planned_migrations: u64,
    /// Stateful operators whose open windows moved to the re-registered
    /// flows of a planned migration — attributed apart from
    /// `windows_migrated`, which counts widening/recovery handoffs.
    pub migration_windows_moved: u64,
    /// Exported migration snapshots nothing adopted (the affected windows
    /// restarted, turning that cycle into a split handoff).
    pub migration_windows_dropped: u64,
    /// Open window/tile items carried across planned migrations.
    pub migration_items_moved: u64,
    /// Re-balance cycles that found their victims busy and backed off to
    /// the next tick instead of migrating in-flight items.
    pub rebalance_deferred: u64,
    /// Per-peer operator work executed (scaled by performance index, same
    /// unit as the batch simulator's `node_work`).
    pub node_work: Vec<f64>,
    /// Per-edge total bytes carried.
    pub edge_bytes: Vec<u64>,
    /// Per-edge bytes per time bucket (the Figure 6/7 traffic numbers as a
    /// time series).
    pub edge_bytes_buckets: Vec<Vec<u64>>,
    /// Per-query delivery statistics, keyed by query id.
    pub queries: BTreeMap<String, QueryMetrics>,
    /// Per-peer operator counters of the shared DAGs (one entry per DAG
    /// node in deterministic trie order) — where the sharing wins show.
    pub node_ops: Vec<Vec<OpWork>>,
}

impl RuntimeMetrics {
    /// Total bytes over all edges.
    pub fn total_edge_bytes(&self) -> u64 {
        self.edge_bytes.iter().sum()
    }

    /// Total mailbox drops over all peers.
    pub fn total_dropped(&self) -> u64 {
        self.mailbox_dropped.iter().sum()
    }

    /// Work units intra-peer sharing avoided: each DAG node with `s`
    /// sharers executed once instead of `s` times, saving `(s-1)·work`.
    pub fn shared_work_saved(&self) -> f64 {
        // fold, not sum: an empty iterator's f64 sum is -0.0, which would
        // print as "-0.0 work units saved".
        self.node_ops
            .iter()
            .flatten()
            .filter(|o| o.sharers > 1)
            .map(|o| o.work * (o.sharers - 1) as f64)
            .fold(0.0, |a, b| a + b)
    }

    /// Pushes the report into the telemetry registry: per-peer queue/work
    /// gauges, per-(peer, flow) drop counters, and per-query delivery
    /// counters and latency/recovery values. No-op while recording is
    /// disabled (the caller typically guards on [`dss_telemetry::enabled`]
    /// anyway to skip the iteration).
    pub fn publish(&self, topo: &Topology) {
        for (id, &hw) in self.queue_high_water.iter().enumerate() {
            if hw > 0 {
                dss_telemetry::gauge_set(
                    "runtime.queue_high_water",
                    || vec![("peer", topo.peer(id).name.clone())],
                    hw as f64,
                );
            }
        }
        for (id, &work) in self.node_work.iter().enumerate() {
            if work > 0.0 {
                dss_telemetry::gauge_set(
                    "runtime.node_work",
                    || vec![("peer", topo.peer(id).name.clone())],
                    work,
                );
            }
        }
        for ((peer, flow), &n) in &self.mailbox_dropped_flows {
            dss_telemetry::counter_add(
                "runtime.mailbox.dropped_flow",
                || {
                    vec![
                        ("peer", topo.peer(*peer).name.clone()),
                        ("flow", flow.clone()),
                    ]
                },
                n,
            );
        }
        dss_telemetry::counter_add("runtime.items_lost", Vec::new, self.items_lost);
        dss_telemetry::counter_add(
            "runtime.widen_delta_items",
            Vec::new,
            self.widen_delta_items,
        );
        dss_telemetry::counter_add("runtime.windows_migrated", Vec::new, self.windows_migrated);
        dss_telemetry::counter_add("runtime.windows_dropped", Vec::new, self.windows_dropped);
        dss_telemetry::counter_add("runtime.wal.checkpoints", Vec::new, self.wal_checkpoints);
        dss_telemetry::counter_add(
            "runtime.wal.replayed_items",
            Vec::new,
            self.wal_replayed_items,
        );
        dss_telemetry::counter_add("runtime.wal.deferred", Vec::new, self.wal_deferred);
        dss_telemetry::counter_add("runtime.wal.suppressed", Vec::new, self.wal_suppressed);
        dss_telemetry::counter_add("runtime.wal.fallbacks", Vec::new, self.wal_fallbacks);
        dss_telemetry::counter_add(
            "runtime.planned_migrations",
            Vec::new,
            self.planned_migrations,
        );
        dss_telemetry::counter_add(
            "runtime.migration_windows_moved",
            Vec::new,
            self.migration_windows_moved,
        );
        dss_telemetry::counter_add(
            "runtime.migration_windows_dropped",
            Vec::new,
            self.migration_windows_dropped,
        );
        dss_telemetry::counter_add(
            "runtime.rebalance_deferred",
            Vec::new,
            self.rebalance_deferred,
        );
        for (q, m) in &self.queries {
            dss_telemetry::counter_add(
                "runtime.delivered",
                || vec![("query", q.clone())],
                m.delivered,
            );
            dss_telemetry::counter_add(
                "runtime.duplicates",
                || vec![("query", q.clone())],
                m.duplicates,
            );
            if let Some(mean) = m.latency_mean_us {
                dss_telemetry::gauge_set(
                    "runtime.latency_mean_us",
                    || vec![("query", q.clone())],
                    mean as f64,
                );
            }
            for &r in &m.recoveries_us {
                dss_telemetry::histogram_record(
                    "runtime.recovery_us",
                    || vec![("query", q.clone())],
                    r as f64,
                );
            }
            for &g in &m.migrations_us {
                dss_telemetry::histogram_record(
                    "runtime.migration_us",
                    || vec![("query", q.clone())],
                    g as f64,
                );
            }
        }
        for (id, ops) in self.node_ops.iter().enumerate() {
            for op in ops {
                if op.sharers > 1 {
                    dss_telemetry::counter_add(
                        "runtime.shared_op_executions",
                        || {
                            vec![
                                ("peer", topo.peer(id).name.clone()),
                                ("op", op.name.to_string()),
                            ]
                        },
                        op.items_in,
                    );
                }
            }
        }
    }

    /// Human-readable report (the `peer_failure` example prints this).
    pub fn report(&self, topo: &Topology) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "runtime report over {:.1}s: {} bytes on {} edges, {} items lost, {} dropped",
            self.horizon_us as f64 / 1e6,
            self.total_edge_bytes(),
            self.edge_bytes.iter().filter(|&&b| b > 0).count(),
            self.items_lost,
            self.total_dropped(),
        );
        if self.wal_checkpoints > 0 || self.wal_fallbacks > 0 {
            let _ = writeln!(
                out,
                "  wal: {} checkpoints, {} replayed, {} deferred, {} suppressed, {} fallbacks",
                self.wal_checkpoints,
                self.wal_replayed_items,
                self.wal_deferred,
                self.wal_suppressed,
                self.wal_fallbacks,
            );
        }
        if self.windows_migrated > 0 || self.windows_dropped > 0 {
            let _ = writeln!(
                out,
                "  widening handoffs: {} window operator(s) migrated ({} items moved), {} dropped",
                self.windows_migrated, self.widen_delta_items, self.windows_dropped,
            );
        }
        if self.planned_migrations > 0 || self.rebalance_deferred > 0 {
            let _ = writeln!(
                out,
                "  re-balancing: {} planned migration(s), {} window(s) moved ({} items), {} dropped, {} deferred",
                self.planned_migrations,
                self.migration_windows_moved,
                self.migration_items_moved,
                self.migration_windows_dropped,
                self.rebalance_deferred,
            );
        }
        for (q, m) in &self.queries {
            let lat = match (m.latency_min_us, m.latency_mean_us, m.latency_p99_us) {
                (Some(min), Some(mean), Some(p99)) => {
                    format!("latency µs min/mean/p99 {min}/{mean}/{p99}")
                }
                _ => "no deliveries".to_string(),
            };
            let recov = if m.recoveries_us.is_empty() {
                String::new()
            } else {
                format!(
                    ", recovered in {}",
                    m.recoveries_us
                        .iter()
                        .map(|r| format!("{:.2}s", *r as f64 / 1e6))
                        .collect::<Vec<_>>()
                        .join("+")
                )
            };
            let recov = if m.migrations_us.is_empty() {
                recov
            } else {
                format!(
                    "{recov}, migrated in {}",
                    m.migrations_us
                        .iter()
                        .map(|g| format!("{:.2}s", *g as f64 / 1e6))
                        .collect::<Vec<_>>()
                        .join("+")
                )
            };
            let _ = writeln!(
                out,
                "  query {q}: {} delivered ({} duplicates), {lat}{recov}",
                m.delivered, m.duplicates
            );
        }
        for (id, &hw) in self.queue_high_water.iter().enumerate() {
            if hw > 0 {
                let _ = writeln!(
                    out,
                    "  peer {}: queue high-water {hw}, dropped {}",
                    topo.peer(id).name,
                    self.mailbox_dropped[id]
                );
            }
        }
        for ((peer, flow), n) in &self.mailbox_dropped_flows {
            let _ = writeln!(
                out,
                "    drop {} @ {}: {n} items",
                flow,
                topo.peer(*peer).name
            );
        }
        for (id, ops) in self.node_ops.iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let _ = writeln!(out, "  peer {} operators:", topo.peer(id).name);
            for op in ops {
                let _ = writeln!(
                    out,
                    "    {:indent$}{} sharers={} in={} out={} work={:.1}",
                    "",
                    op.name,
                    op.sharers,
                    op.items_in,
                    op.items_out,
                    op.work,
                    indent = op.depth * 2
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats() {
        let mut m = QueryMetrics::default();
        m.set_latencies((1..=100).collect());
        assert_eq!(m.latency_min_us, Some(1));
        assert_eq!(m.latency_mean_us, Some(50));
        assert_eq!(m.latency_p99_us, Some(99));

        let mut single = QueryMetrics::default();
        single.set_latencies(vec![42]);
        assert_eq!(single.latency_min_us, Some(42));
        assert_eq!(single.latency_mean_us, Some(42));
        assert_eq!(single.latency_p99_us, Some(42));

        let mut empty = QueryMetrics::default();
        empty.set_latencies(Vec::new());
        assert_eq!(empty.latency_min_us, None);
    }
}
