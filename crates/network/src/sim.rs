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
//! What this driver adds to the core: every sharing group runs its DAG
//! over its whole input at once, each node over the whole slice. The
//! groups form a forest — a tap group reads the output of a flow of its
//! parent group — and run on a few worker threads, each as soon as its
//! parent has finished ([`crate::pool::run_forest`]). Results are applied
//! in a fixed order, so the schedule cannot change a number, and each
//! flow's output is transmitted along its route in one piece.

use std::collections::BTreeMap;

use dss_xml::writer::serialized_size;
use dss_xml::Node;

use crate::flow::{Deployment, FlowId};
use crate::metrics::NetworkMetrics;
use crate::peer::{FlowOutputs, GroupTable, Next};
use crate::pool::{max_parallelism, run_forest};
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
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            duration_s: 60.0,
            forward_work_per_kb: 1.0,
        }
    }
}

impl SimConfig {
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
/// invalid configuration.
///
/// `sources` maps stream names to their item sequences. Taps read the
/// parent's full output (tapping never costs extra transmission — the
/// parent stream already flows past the tap). The flows consuming one
/// input stream at one peer are fused into a shared operator DAG, and each
/// DAG runs as soon as the one it taps has finished, in parallel with the
/// others; a flow's output is what it would deliver alone.
pub fn run(
    topo: &Topology,
    deployment: &Deployment,
    sources: &BTreeMap<String, Vec<Node>>,
    cfg: SimConfig,
) -> SimOutcome {
    run_on(max_parallelism(), topo, deployment, sources, cfg)
        .unwrap_or_else(|e| panic!("invalid SimConfig: {e}"))
}

/// [`run`] with the sharing groups on `threads` workers, an invalid
/// configuration returned as an error.
fn run_on(
    threads: usize,
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
    run_shared(
        threads,
        topo,
        &table,
        sources,
        &mut metrics,
        &mut flow_outputs,
        &mut flow_bytes,
    );

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

/// A sharing group to run, with its stream if it reads a source.
type GroupJob<'a> = (usize, &'a [Node]);

/// What one sharing group's run produced: its DAG's work and, ascending by
/// flow, each member's output with the bytes it puts on its route.
struct GroupRun {
    work: f64,
    outputs: Vec<(FlowId, Vec<Node>, u64)>,
}

impl GroupRun {
    /// What `flow` emitted: nothing if it is not among the outputs.
    fn output(&self, flow: FlowId) -> &[Node] {
        self.outputs
            .binary_search_by_key(&flow, |(f, ..)| *f)
            .map_or(&[], |i| &self.outputs[i].1)
    }
}

/// Fused execution: each sharing group runs its DAG over its whole input
/// at once, on `threads` workers ([`run_forest`]). A source group starts
/// at once; a tap group as soon as the group of the flow it taps has
/// finished, reading that flow's output where the parent's run left it
/// (a parent flow with no group is retired: its tap reads nothing). The
/// worker builds the DAG it runs and sizes what it produced (`flow_bytes`)
/// while the items are in its cache — the same pass left to the caller's
/// transmit loop measured ≈ 5 % slower. Results are applied in `(level,
/// node, key)` order whatever the schedule, so no float sum moves.
fn run_shared(
    threads: usize,
    topo: &Topology,
    table: &GroupTable,
    sources: &BTreeMap<String, Vec<Node>>,
    metrics: &mut NetworkMetrics,
    flow_outputs: &mut [Vec<Node>],
    flow_bytes: &mut [u64],
) {
    // A tap group's parent group was created first (`add_flow` guarantees
    // parent ids are smaller), so it has the smaller index. Sources are
    // resolved on this thread: an unknown one must panic here, not inside
    // a worker.
    let jobs: Vec<(Option<usize>, GroupJob)> = (table.groups().iter().enumerate())
        .map(|(g, group)| match &group.key {
            GroupKey::Source(stream) => {
                let items = sources.get(stream).unwrap_or_else(|| {
                    let reader = &table.flows()[group.members[0]].label;
                    panic!("flow {reader} reads unknown source {stream:?}")
                });
                (None, (g, items.as_slice()))
            }
            GroupKey::Tap(parent) => (table.flows()[*parent].group, (g, &[][..])),
        })
        .collect();
    let mut runs = run_forest(jobs, threads, |(g, source), parent: Option<&GroupRun>| {
        let inputs = match (&table.groups()[g].key, parent) {
            (GroupKey::Tap(flow), Some(parent)) => parent.output(*flow),
            _ => source,
        };
        let mut dag = table.cold_dag(g);
        let mut outputs = FlowOutputs::default();
        outputs.feed_slice(&mut dag, inputs);
        outputs.flush(&mut dag);
        let outputs = outputs
            .drain()
            .map(|(flow, items)| {
                let bytes = route_bytes(&table.flows()[flow].route, &items);
                (flow, items, bytes)
            })
            .collect();
        GroupRun {
            work: dag.total_work(),
            outputs,
        }
    });

    // A tap group is one level below its parent's group.
    let mut level = vec![0usize; table.groups().len()];
    for (g, group) in table.groups().iter().enumerate() {
        if let GroupKey::Tap(parent) = group.key {
            level[g] = table.flows()[parent].group.map_or(0, |pg| level[pg] + 1);
        }
    }
    let mut order: Vec<usize> = table.ordered().collect();
    order.sort_by_key(|&g| level[g]);
    for g in order {
        let node = table.groups()[g].node;
        metrics.record_work(node, runs[g].work * topo.peer(node).pindex);
        for (flow, items, bytes) in runs[g].outputs.drain(..) {
            flow_outputs[flow] = items;
            flow_bytes[flow] = bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowInput, FlowOp, StreamFlow};
    use crate::routing::shortest_path;
    use crate::topology::{example_topology, grid_topology};
    use dss_predicate::{Atom, CompOp, PredicateGraph};
    use dss_properties::{
        AggOp, AggregationSpec, InputProperties, Operator, Properties, ResultFilter, WindowSpec,
    };
    use dss_xml::{Decimal, Path};
    use proptest::prelude::TestRng;

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
        let validate = |duration_s, forward_work_per_kb| {
            let cfg = SimConfig {
                duration_s,
                forward_work_per_kb,
            };
            cfg.validate()
        };
        assert!(validate(60.0, 1.0).is_ok());
        assert!(matches!(
            validate(0.0, 1.0),
            Err(ConfigError::NonPositiveDuration(_))
        ));
        assert!(matches!(
            validate(f64::NAN, 1.0),
            Err(ConfigError::NonPositiveDuration(_))
        ));
        assert!(matches!(
            validate(60.0, -1.0),
            Err(ConfigError::NegativeForwardWork(_))
        ));
        assert!(validate(60.0, 0.0).is_ok());
        assert!(SimConfig::default().validate().is_ok());
        // run_on surfaces the error instead of panicking.
        let t = grid_topology(2, 2);
        let d = Deployment::new();
        let bad = SimConfig {
            duration_s: -3.0,
            ..SimConfig::default()
        };
        assert_eq!(
            run_on(1, &t, &d, &BTreeMap::new(), bad).err(),
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

    /// Every flow of `d` run alone, each in a deployment of its own that
    /// holds the flow and its chain of parents: per flow its output, and
    /// per edge and peer the bytes and work it adds to its parent chain's
    /// run.
    fn run_alone(
        t: &Topology,
        d: &Deployment,
        sources: &BTreeMap<String, Vec<Node>>,
        cfg: SimConfig,
    ) -> SimOutcome {
        let mut alone = SimOutcome {
            metrics: NetworkMetrics::new(t, cfg.duration_s),
            flow_outputs: Vec::new(),
        };
        // The metrics of each flow's own run, by flow id.
        let mut runs: Vec<NetworkMetrics> = Vec::new();
        for id in 0..d.len() {
            let mut chain = vec![id];
            while let FlowInput::Tap { parent } = d.flow(chain[chain.len() - 1]).input {
                chain.push(parent);
            }
            let mut solo = Deployment::new();
            for &f in chain.iter().rev() {
                let mut flow = d.flow(f).clone();
                if let FlowInput::Tap { parent } = &mut flow.input {
                    *parent = solo.len() - 1;
                }
                solo.add_flow(flow);
            }
            let mut own = run(t, &solo, sources, cfg);
            let base = match d.flow(id).input {
                FlowInput::Tap { parent } => Some(&runs[parent]),
                FlowInput::Source { .. } => None,
            };
            let m = &mut alone.metrics;
            for (e, bytes) in own.metrics.edge_bytes.iter().enumerate() {
                m.edge_bytes[e] += bytes - base.map_or(0, |b| b.edge_bytes[e]);
            }
            for (n, work) in own.metrics.node_work.iter().enumerate() {
                m.node_work[n] += work - base.map_or(0.0, |b| b.node_work[n]);
            }
            alone.flow_outputs.push(own.flow_outputs.pop().unwrap());
            runs.push(own.metrics);
        }
        alone
    }

    #[test]
    fn fused_matches_unfused_and_shares_work() {
        // Four flows tap the same source at SP1: two share the σ≥1.5 chain
        // exactly, the others differ. Outputs must match every flow run
        // alone byte-for-byte; the shared prefix must be charged once.
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
        let alone = run_alone(&t, &d, &sources, SimConfig::default());
        assert_eq!(fused.flow_outputs, alone.flow_outputs);
        assert_eq!(
            fused.metrics.total_edge_bytes(),
            alone.metrics.total_edge_bytes()
        );
        // The duplicate σ≥1.5 ran once when fused: SP1's work drops by
        // exactly one selection pass over the 100 tapped items.
        assert!(fused.metrics.node_work[sp1] < alone.metrics.node_work[sp1]);
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

    /// Sum of `en` over windows of `size` items, or of `size` det_time
    /// units when `by_time`.
    fn sum_over(size: i64, by_time: bool) -> FlowOp {
        let size = Decimal::from_int(size);
        let window = if by_time {
            WindowSpec::diff("det_time".parse().unwrap(), size, None)
        } else {
            WindowSpec::count(size, None)
        };
        FlowOp::Standard(Operator::Aggregation(AggregationSpec {
            op: AggOp::Sum,
            element: "en".parse().unwrap(),
            window: window.unwrap(),
            pre_selection: PredicateGraph::new(),
            result_filter: ResultFilter::none(),
        }))
    }

    /// A deployment shaped like the paper's scenarios: each source stream
    /// enters at its peer and `queries` subscriptions follow, each tapping
    /// a random earlier flow at a random node of its route — the raw
    /// stream or another query's — running a short random chain there and
    /// routed to a random peer. Taps of taps make the groups a forest
    /// several levels deep.
    fn scenario_like(
        topo: &Topology,
        entries: &[(&str, &str)],
        queries: usize,
        rng: &mut TestRng,
    ) -> Deployment {
        let mut d = Deployment::new();
        let peers = topo.peer_count();
        for &(stream, peer) in entries {
            let at = topo.expect_node(peer);
            let to = rng.usize_below(peers);
            d.add_flow(StreamFlow {
                label: stream.into(),
                input: FlowInput::Source {
                    stream: stream.into(),
                },
                processing_node: at,
                ops: Vec::new(),
                route: shortest_path(topo, at, to).unwrap(),
                properties: None,
                retired: false,
            });
        }
        for q in 0..queries {
            let parent = rng.usize_below(d.len());
            let route = &d.flow(parent).route;
            let at = route[rng.usize_below(route.len())];
            let ops = (0..rng.usize_below(3))
                .map(|_| match rng.usize_below(5) {
                    0 => selection_ge("1.3"),
                    1 => selection_ge("1.6"),
                    2 => sum_over(4, false),
                    3 => sum_over(6, true),
                    _ => FlowOp::Standard(Operator::Udf {
                        name: "calib".into(),
                        params: Vec::new(),
                    }),
                })
                .collect();
            let to = rng.usize_below(peers);
            d.add_flow(StreamFlow {
                label: format!("q{q}"),
                input: FlowInput::Tap { parent },
                processing_node: at,
                ops,
                route: shortest_path(topo, at, to).unwrap(),
                properties: None,
                retired: false,
            });
        }
        d
    }

    /// The schedule cannot change a number: scenario-1- and scenario-2-
    /// shaped mixes on one worker and on four give the same flow outputs
    /// and bit-identical metrics.
    #[test]
    fn worker_count_changes_no_output_and_no_metric() {
        let scenarios = [
            (example_topology(), vec![("photons", "P0")], 25),
            (
                grid_topology(4, 4),
                vec![("photons_a", "SP0"), ("photons_b", "SP15")],
                100,
            ),
        ];
        let mut rng = TestRng::from_seed(0x51);
        for (topo, entries, queries) in &scenarios {
            let sources: BTreeMap<String, Vec<Node>> = entries
                .iter()
                .map(|&(stream, _)| (stream.to_string(), items(300)))
                .collect();
            for _ in 0..4 {
                let d = scenario_like(topo, entries, *queries, &mut rng);
                let cfg = SimConfig::default();
                let one = run_on(1, topo, &d, &sources, cfg).unwrap();
                let four = run_on(4, topo, &d, &sources, cfg).unwrap();
                assert_eq!(one.flow_outputs, four.flow_outputs);
                assert!(one.flow_outputs.iter().any(|out| !out.is_empty()));
                let (a, b) = (&one.metrics, &four.metrics);
                assert_eq!(a.edge_bytes, b.edge_bytes);
                assert_eq!(a.node_bytes_in, b.node_bytes_in);
                assert_eq!(a.node_bytes_out, b.node_bytes_out);
                let bits = |m: &NetworkMetrics| -> Vec<u64> {
                    m.node_work.iter().map(|w| w.to_bits()).collect()
                };
                assert_eq!(bits(a), bits(b));
            }
        }
    }

    /// A tap on a retired flow has a group of its own but no parent group:
    /// it reads nothing, on any number of workers.
    #[test]
    fn tap_of_a_flow_without_a_group_reads_nothing() {
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
            properties: None,
            retired: false,
        });
        let gone = d.add_flow(StreamFlow {
            label: "gone".into(),
            input: FlowInput::Tap { parent: src },
            processing_node: sp1,
            ops: vec![selection_ge("1.5")],
            route: vec![sp1],
            properties: None,
            retired: false,
        });
        d.retire(gone);
        let orphan = d.add_flow(StreamFlow {
            label: "orphan".into(),
            input: FlowInput::Tap { parent: gone },
            processing_node: sp1,
            ops: Vec::new(),
            route: vec![sp1, sp0],
            properties: None,
            retired: false,
        });
        let mut sources = BTreeMap::new();
        sources.insert("photons".to_string(), items(10));
        for threads in [1, 4] {
            let out = run_on(threads, &t, &d, &sources, SimConfig::default()).unwrap();
            assert_eq!(out.flow_outputs[src].len(), 10);
            assert!(out.flow_outputs[gone].is_empty() && out.flow_outputs[orphan].is_empty());
            let sent = route_bytes(&[sp0, sp1], &out.flow_outputs[src]);
            assert_eq!(
                out.metrics.total_edge_bytes(),
                sent,
                "the orphan sends nothing"
            );
        }
    }
}
