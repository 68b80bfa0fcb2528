//! The network simulator — the run-to-completion driver of [`crate::peer`]:
//! pushes real XML items through the deployed flows and measures actual
//! bytes per connection and work per peer.
//!
//! The paper evaluated on a blade cluster; we substitute a discrete
//! simulator that executes the *same* operator plans over the *same* XML
//! items and charges edges by the exact serialized size of every item that
//! crosses them (the serializer defines the byte counts, see
//! `dss_xml::writer`). Peer work combines operator execution (per-item base
//! loads scaled by the peer's performance index) and forwarding work for
//! every byte a peer sends or receives — this is what makes pure data
//! shipping show elevated CPU load across all forwarding peers, as in
//! Figure 6.
//!
//! What this driver adds to the core: every sharing group sees its whole
//! input at once, so groups run level by level (a tap group one level
//! below its parent's group), the groups of one level in parallel, and
//! each flow's output is transmitted along its route in one piece.

use std::collections::BTreeMap;

use dss_engine::Emit;
use dss_xml::writer::serialized_size;
use dss_xml::Node;

use crate::flow::{build_flow_pipeline, Deployment, FlowInput};
use crate::metrics::NetworkMetrics;
use crate::peer::{FlowOutputs, GroupTable, Next};
use crate::pool::{max_parallelism, run_scoped};
use crate::shared::GroupKey;
use crate::topology::{NodeId, Topology};

/// An invalid simulation or runtime configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `duration_s` must be strictly positive (and finite).
    NonPositiveDuration(f64),
    /// `forward_work_per_kb` must be non-negative.
    NegativeForwardWork(f64),
    /// Mailboxes need room for at least one item.
    ZeroMailboxCapacity,
    /// Metric time buckets must be non-empty intervals.
    ZeroBucket,
    /// WAL checkpoints need a cadence of at least one item.
    ZeroCheckpointCadence,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositiveDuration(d) => {
                write!(f, "duration_s must be positive, got {d}")
            }
            ConfigError::NegativeForwardWork(w) => {
                write!(f, "forward_work_per_kb must be non-negative, got {w}")
            }
            ConfigError::ZeroMailboxCapacity => write!(f, "mailbox_capacity must be at least 1"),
            ConfigError::ZeroBucket => write!(f, "bucket_us must be at least 1"),
            ConfigError::ZeroCheckpointCadence => {
                write!(f, "wal.checkpoint_every must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Simulated duration of the source streams in seconds; used to convert
    /// byte/work totals into rates. Must be positive.
    pub duration_s: f64,
    /// Forwarding work units charged per kilobyte sent or received by a
    /// peer (before scaling with its performance index). Must be
    /// non-negative.
    pub forward_work_per_kb: f64,
    /// Fuse the flows sharing an input stream at a peer into one operator
    /// DAG (shared prefixes execute once) and run independent peers'
    /// DAGs in parallel. `false` runs each flow as its own pipeline — per-
    /// flow outputs are byte-identical either way, only the work accounting
    /// of shared prefixes differs.
    pub shared_ops: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            duration_s: 60.0,
            forward_work_per_kb: 1.0,
            shared_ops: true,
        }
    }
}

impl SimConfig {
    /// Builds a validated configuration (with operator sharing enabled).
    pub fn new(duration_s: f64, forward_work_per_kb: f64) -> Result<SimConfig, ConfigError> {
        let cfg = SimConfig {
            duration_s,
            forward_work_per_kb,
            shared_ops: true,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the documented invariants, returning the first violation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            return Err(ConfigError::NonPositiveDuration(self.duration_s));
        }
        if self.forward_work_per_kb.is_nan() || self.forward_work_per_kb < 0.0 {
            return Err(ConfigError::NegativeForwardWork(self.forward_work_per_kb));
        }
        Ok(())
    }
}

/// Result of a simulation run: metrics plus each flow's delivered items.
#[derive(Debug)]
pub struct SimOutcome {
    /// Per-edge / per-peer measurements.
    pub metrics: NetworkMetrics,
    /// Output items per flow (what arrived at each flow's target).
    pub flow_outputs: Vec<Vec<Node>>,
}

/// Runs the deployment over the given source streams, panicking on an
/// invalid configuration. See [`try_run`] for the fallible variant.
pub fn run(
    topo: &Topology,
    deployment: &Deployment,
    sources: &BTreeMap<String, Vec<Node>>,
    cfg: SimConfig,
) -> SimOutcome {
    try_run(topo, deployment, sources, cfg).unwrap_or_else(|e| panic!("invalid SimConfig: {e}"))
}

/// Runs the deployment over the given source streams.
///
/// `sources` maps stream names to their item sequences. Taps read the
/// parent's full output (tapping never costs extra transmission — the
/// parent stream already flows past the tap). With `cfg.shared_ops`, the
/// flows consuming one input stream at one peer are fused into a shared
/// operator DAG and independent DAGs of one tap depth run in parallel;
/// per-flow outputs are identical to unfused execution either way.
pub fn try_run(
    topo: &Topology,
    deployment: &Deployment,
    sources: &BTreeMap<String, Vec<Node>>,
    cfg: SimConfig,
) -> Result<SimOutcome, ConfigError> {
    cfg.validate()?;
    deployment.validate(topo);
    let mut metrics = NetworkMetrics::new(topo, cfg.duration_s);
    let mut flow_outputs: Vec<Vec<Node>> = vec![Vec::new(); deployment.len()];
    // What each flow puts on its route, sized where the output was made.
    let mut flow_bytes = vec![0u64; deployment.len()];

    let table = GroupTable::build(deployment, |_| true);
    if cfg.shared_ops {
        run_shared(
            topo,
            &table,
            sources,
            &mut metrics,
            &mut flow_outputs,
            &mut flow_bytes,
        );
    } else {
        run_unfused(topo, deployment, sources, &mut metrics, &mut flow_outputs);
        for (id, flow) in deployment.flows().iter().enumerate() {
            flow_bytes[id] = route_bytes(&flow.route, &flow_outputs[id]);
        }
    }

    // Transmit every flow's outputs along its route, charging edges and
    // forwarding work, in flow id order.
    for (id, flow) in table.flows().iter().enumerate() {
        if !flow.active || flow.route.len() < 2 {
            continue;
        }
        let total_bytes = flow_bytes[id];
        let forward_work = total_bytes as f64 / 1024.0 * cfg.forward_work_per_kb;
        let mut step = table.step(id, 0);
        while let Next::Forward { to, hop } = step.next {
            let edge = topo
                .edge_between(step.node, to)
                .expect("deployment validated against topology");
            metrics.record_transmission(edge, step.node, to, total_bytes);
            metrics.record_work(step.node, forward_work * topo.peer(step.node).pindex);
            metrics.record_work(to, forward_work * topo.peer(to).pindex);
            step = table.step(id, hop);
        }
    }

    metrics.publish(topo);

    Ok(SimOutcome {
        metrics,
        flow_outputs,
    })
}

/// Serialized size of what a flow sends along `route`: all of `items` if
/// there is a second hop to send them to, nothing otherwise.
fn route_bytes(route: &[NodeId], items: &[Node]) -> u64 {
    if route.len() < 2 {
        return 0;
    }
    items.iter().map(|n| serialized_size(n) as u64).sum()
}

/// Unfused execution: every flow runs its own pipeline, in id order.
fn run_unfused(
    topo: &Topology,
    deployment: &Deployment,
    sources: &BTreeMap<String, Vec<Node>>,
    metrics: &mut NetworkMetrics,
    flow_outputs: &mut [Vec<Node>],
) {
    for (id, flow) in deployment.flows().iter().enumerate() {
        if flow.retired {
            continue;
        }
        let inputs: &[Node] = match &flow.input {
            FlowInput::Source { stream } => sources
                .get(stream)
                .unwrap_or_else(|| panic!("flow {} reads unknown source {stream:?}", flow.label))
                .as_slice(),
            FlowInput::Tap { parent } => flow_outputs[*parent].as_slice(),
        };
        let mut pipeline = build_flow_pipeline(&flow.ops);
        let mut sink = Emit::new();
        for item in inputs {
            pipeline.process_into(item, &mut sink);
        }
        pipeline.flush_into(&mut sink);
        let pindex = topo.peer(flow.processing_node).pindex;
        metrics.record_work(flow.processing_node, pipeline.total_work() * pindex);
        flow_outputs[id] = sink.into_vec();
    }
}

/// Fused execution: each sharing group runs its DAG over its whole input,
/// and the independent groups of one level execute on a scoped worker
/// pool — each worker building the DAG it runs — borrowing the parent
/// flow's output as their input. A worker also sizes what it produced
/// (`flow_bytes`): a field read per output item, but made while the items
/// are in that worker's cache — the same pass left to the caller's
/// transmit loop measured ≈ 5 % slower. Results are applied in `(level,
/// node, key)` order regardless of worker scheduling.
fn run_shared(
    topo: &Topology,
    table: &GroupTable,
    sources: &BTreeMap<String, Vec<Node>>,
    metrics: &mut NetworkMetrics,
    flow_outputs: &mut [Vec<Node>],
    flow_bytes: &mut [u64],
) {
    // A tap group runs one level below its parent's group, which was
    // created first (`add_flow` guarantees parent ids are smaller).
    let mut level = vec![0usize; table.groups().len()];
    for (g, group) in table.groups().iter().enumerate() {
        if let GroupKey::Tap(parent) = group.key {
            level[g] = table.flows()[parent].group.map_or(0, |pg| level[pg] + 1);
        }
    }
    let mut order: Vec<usize> = table.ordered().collect();
    order.sort_by_key(|&g| level[g]);

    let threads = max_parallelism();
    for groups in order.chunk_by(|&a, &b| level[a] == level[b]) {
        // Resolve inputs on this thread: an unknown source must panic here,
        // not inside a worker.
        let jobs: Vec<(usize, &[Node])> = groups
            .iter()
            .map(|&g| {
                let group = &table.groups()[g];
                let inputs: &[Node] = match &group.key {
                    GroupKey::Source(stream) => sources
                        .get(stream)
                        .unwrap_or_else(|| {
                            let reader = &table.flows()[group.members[0]].label;
                            panic!("flow {reader} reads unknown source {stream:?}")
                        })
                        .as_slice(),
                    GroupKey::Tap(parent) => flow_outputs[*parent].as_slice(),
                };
                (g, inputs)
            })
            .collect();
        let results = run_scoped(jobs, threads, |(g, inputs)| {
            let mut dag = table.cold_dag(g);
            let mut outputs = FlowOutputs::default();
            for item in inputs {
                outputs.feed(&mut dag, item);
            }
            outputs.flush(&mut dag);
            let sized: Vec<_> = outputs
                .drain()
                .map(|(flow, items)| {
                    let bytes = route_bytes(&table.flows()[flow].route, &items);
                    (flow, items, bytes)
                })
                .collect();
            (g, dag.total_work(), sized)
        });
        for (g, work, sized) in results {
            let node = table.groups()[g].node;
            metrics.record_work(node, work * topo.peer(node).pindex);
            for (flow, items, bytes) in sized {
                flow_outputs[flow] = items;
                flow_bytes[flow] = bytes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowOp, StreamFlow};
    use crate::topology::grid_topology;
    use dss_predicate::{Atom, CompOp, PredicateGraph};
    use dss_properties::{InputProperties, Operator, Properties};
    use dss_xml::{Decimal, Path};

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

    fn selection_ge(en: &str) -> FlowOp {
        FlowOp::Standard(Operator::Selection(PredicateGraph::from_atoms(&[
            Atom::var_const(
                "en".parse::<Path>().unwrap(),
                CompOp::Ge,
                en.parse::<Decimal>().unwrap(),
            ),
        ])))
    }

    #[test]
    fn source_flow_charges_route_edges() {
        let t = grid_topology(2, 2);
        let (sp0, sp1, sp3) = (
            t.expect_node("SP0"),
            t.expect_node("SP1"),
            t.expect_node("SP3"),
        );
        let mut d = Deployment::new();
        d.add_flow(StreamFlow {
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
        let mut sources = BTreeMap::new();
        sources.insert("photons".to_string(), items(100));
        let out = run(&t, &d, &sources, SimConfig::default());
        let e01 = t.edge_between(sp0, sp1).unwrap();
        let e13 = t.edge_between(sp1, sp3).unwrap();
        assert!(out.metrics.edge_bytes[e01] > 0);
        assert_eq!(out.metrics.edge_bytes[e01], out.metrics.edge_bytes[e13]);
        assert_eq!(out.flow_outputs[0].len(), 100);
        // Forwarding work charged on every node along the route.
        assert!(out.metrics.node_work[sp0] > 0.0);
        assert!(out.metrics.node_work[sp1] > 0.0);
        assert!(out.metrics.node_work[sp3] > 0.0);
        // The middle node both receives and sends.
        assert_eq!(
            out.metrics.node_bytes_in[sp1],
            out.metrics.node_bytes_out[sp1]
        );
    }

    #[test]
    fn selection_reduces_downstream_traffic() {
        let t = grid_topology(2, 2);
        let (sp0, sp1, sp3) = (
            t.expect_node("SP0"),
            t.expect_node("SP1"),
            t.expect_node("SP3"),
        );
        let mut d = Deployment::new();
        let src = d.add_flow(StreamFlow {
            label: "photons".into(),
            input: FlowInput::Source {
                stream: "photons".into(),
            },
            processing_node: sp0,
            ops: Vec::new(),
            route: vec![sp0, sp1],
            properties: Some(Properties::single(InputProperties::original("photons"))),
            retired: false,
        });
        d.add_flow(StreamFlow {
            label: "filtered".into(),
            input: FlowInput::Tap { parent: src },
            processing_node: sp1,
            ops: vec![selection_ge("1.5")],
            route: vec![sp1, sp3],
            properties: None,
            retired: false,
        });
        let mut sources = BTreeMap::new();
        sources.insert("photons".to_string(), items(100));
        let out = run(&t, &d, &sources, SimConfig::default());
        let e01 = t.edge_between(sp0, sp1).unwrap();
        let e13 = t.edge_between(sp1, sp3).unwrap();
        assert!(out.metrics.edge_bytes[e13] < out.metrics.edge_bytes[e01]);
        // en cycles 1.0..1.9, so exactly half the items pass en >= 1.5.
        assert_eq!(out.flow_outputs[1].len(), 50);
    }

    #[test]
    fn tapping_is_free_on_the_parent_route() {
        let t = grid_topology(2, 2);
        let (sp0, sp1) = (t.expect_node("SP0"), t.expect_node("SP1"));
        let mut d = Deployment::new();
        let src = d.add_flow(StreamFlow {
            label: "photons".into(),
            input: FlowInput::Source {
                stream: "photons".into(),
            },
            processing_node: sp0,
            ops: Vec::new(),
            route: vec![sp0, sp1],
            properties: Some(Properties::single(InputProperties::original("photons"))),
            retired: false,
        });
        // A consumer at SP1 tapping the stream with a zero-length route
        // adds no transmission.
        d.add_flow(StreamFlow {
            label: "local-consumer".into(),
            input: FlowInput::Tap { parent: src },
            processing_node: sp1,
            ops: vec![selection_ge("1.5")],
            route: vec![sp1],
            properties: None,
            retired: false,
        });
        let mut sources = BTreeMap::new();
        sources.insert("photons".to_string(), items(10));
        let out = run(&t, &d, &sources, SimConfig::default());
        let without_tap: u64 = {
            let mut d2 = Deployment::new();
            d2.add_flow(StreamFlow {
                label: "photons".into(),
                input: FlowInput::Source {
                    stream: "photons".into(),
                },
                processing_node: sp0,
                ops: Vec::new(),
                route: vec![sp0, sp1],
                properties: Some(Properties::single(InputProperties::original("photons"))),
                retired: false,
            });
            run(&t, &d2, &sources, SimConfig::default())
                .metrics
                .total_edge_bytes()
        };
        assert_eq!(out.metrics.total_edge_bytes(), without_tap);
    }

    #[test]
    fn config_validation() {
        assert!(SimConfig::new(60.0, 1.0).is_ok());
        assert!(matches!(
            SimConfig::new(0.0, 1.0),
            Err(ConfigError::NonPositiveDuration(_))
        ));
        assert!(matches!(
            SimConfig::new(f64::NAN, 1.0),
            Err(ConfigError::NonPositiveDuration(_))
        ));
        assert!(matches!(
            SimConfig::new(60.0, -1.0),
            Err(ConfigError::NegativeForwardWork(_))
        ));
        assert!(SimConfig::new(60.0, 0.0).is_ok());
        assert!(SimConfig::default().validate().is_ok());
        // try_run surfaces the error instead of panicking.
        let t = grid_topology(2, 2);
        let d = Deployment::new();
        let bad = SimConfig {
            duration_s: -3.0,
            ..SimConfig::default()
        };
        assert_eq!(
            try_run(&t, &d, &BTreeMap::new(), bad).err(),
            Some(ConfigError::NonPositiveDuration(-3.0))
        );
    }

    #[test]
    #[should_panic(expected = "duration_s must be positive")]
    fn invalid_config_panics_in_run() {
        let t = grid_topology(2, 2);
        let d = Deployment::new();
        let bad = SimConfig {
            duration_s: 0.0,
            ..SimConfig::default()
        };
        run(&t, &d, &BTreeMap::new(), bad);
    }

    #[test]
    #[should_panic(expected = "unknown source")]
    fn missing_source_panics() {
        let t = grid_topology(2, 2);
        let mut d = Deployment::new();
        let sp0 = t.expect_node("SP0");
        d.add_flow(StreamFlow {
            label: "ghost".into(),
            input: FlowInput::Source {
                stream: "nope".into(),
            },
            processing_node: sp0,
            ops: Vec::new(),
            route: vec![sp0],
            properties: None,
            retired: false,
        });
        run(&t, &d, &BTreeMap::new(), SimConfig::default());
    }

    #[test]
    fn fused_matches_unfused_and_shares_work() {
        // Four flows tap the same source at SP1: two share the σ≥1.5 chain
        // exactly, the others differ. Outputs must match the unfused run
        // byte-for-byte; the shared prefix must be charged once.
        let t = grid_topology(2, 2);
        let (sp0, sp1) = (t.expect_node("SP0"), t.expect_node("SP1"));
        let mut d = Deployment::new();
        let src = d.add_flow(StreamFlow {
            label: "photons".into(),
            input: FlowInput::Source {
                stream: "photons".into(),
            },
            processing_node: sp0,
            ops: Vec::new(),
            route: vec![sp0, sp1],
            properties: Some(Properties::single(InputProperties::original("photons"))),
            retired: false,
        });
        for (label, en) in [("a", "1.5"), ("b", "1.5"), ("c", "1.7"), ("d", "1.9")] {
            d.add_flow(StreamFlow {
                label: label.into(),
                input: FlowInput::Tap { parent: src },
                processing_node: sp1,
                ops: vec![selection_ge(en)],
                route: vec![sp1],
                properties: None,
                retired: false,
            });
        }
        let mut sources = BTreeMap::new();
        sources.insert("photons".to_string(), items(100));
        let fused = run(&t, &d, &sources, SimConfig::default());
        let unfused = run(
            &t,
            &d,
            &sources,
            SimConfig {
                shared_ops: false,
                ..SimConfig::default()
            },
        );
        assert_eq!(fused.flow_outputs, unfused.flow_outputs);
        assert_eq!(
            fused.metrics.total_edge_bytes(),
            unfused.metrics.total_edge_bytes()
        );
        // The duplicate σ≥1.5 ran once when fused: SP1's work drops by
        // exactly one selection pass over the 100 tapped items.
        assert!(fused.metrics.node_work[sp1] < unfused.metrics.node_work[sp1]);
    }

    #[test]
    fn pindex_scales_work() {
        let mut t = grid_topology(2, 2);
        let sp0 = t.expect_node("SP0");
        t.peer_mut(sp0).pindex = 4.0;
        let mut d = Deployment::new();
        d.add_flow(StreamFlow {
            label: "photons".into(),
            input: FlowInput::Source {
                stream: "photons".into(),
            },
            processing_node: sp0,
            ops: vec![selection_ge("0.0")],
            route: vec![sp0],
            properties: None,
            retired: false,
        });
        let mut sources = BTreeMap::new();
        sources.insert("photons".to_string(), items(10));
        let fast = {
            let mut t2 = grid_topology(2, 2);
            t2.peer_mut(sp0).pindex = 1.0;
            run(&t2, &d, &sources, SimConfig::default())
                .metrics
                .node_work[sp0]
        };
        let slow = run(&t, &d, &sources, SimConfig::default())
            .metrics
            .node_work[sp0];
        assert!((slow - 4.0 * fast).abs() < 1e-9);
    }
}
