//! The telemetry-overhead guard's workload: sixteen flows running the
//! identical σ → Φ chain over one stream at one peer, which the batch
//! simulator fuses into one path, packaged as a library function so
//! `scripts/telemetry_overhead.sh` can time the identical work with the
//! telemetry layer compiled in (but disabled) and compiled out, and fail
//! on regression.

use std::collections::BTreeMap;

use dss_network::{
    grid_topology, run, Deployment, FlowInput, FlowOp, SimConfig, StreamFlow, Topology,
};
use dss_predicate::{Atom, CompOp, PredicateGraph};
use dss_properties::{
    AggOp, AggregationSpec, InputProperties, Operator, Properties, ResultFilter, WindowSpec,
};
use dss_rass::{GeneratorConfig, PhotonGenerator};
use dss_xml::{Decimal, Node, Path};

const N_FLOWS: usize = 16;
const N_ITEMS: usize = 2_000;

/// σ(en ≥ 1.2) → Φ avg over |det_time diff 20 step 10| — the chain every
/// tap shares.
fn chain() -> Vec<FlowOp> {
    let sel = PredicateGraph::from_atoms(&[Atom::var_const(
        "en".parse::<Path>().unwrap(),
        CompOp::Ge,
        "1.2".parse::<Decimal>().unwrap(),
    )]);
    let agg = AggregationSpec {
        op: AggOp::Avg,
        element: "en".parse().unwrap(),
        window: WindowSpec::diff(
            "det_time".parse().unwrap(),
            Decimal::from_int(20),
            Some(Decimal::from_int(10)),
        )
        .unwrap(),
        pre_selection: PredicateGraph::new(),
        result_filter: ResultFilter::none(),
    };
    vec![
        FlowOp::Standard(Operator::Selection(sel)),
        FlowOp::Standard(Operator::Aggregation(agg)),
    ]
}

/// One source flow SP0→SP1 plus [`N_FLOWS`] identical taps at SP1.
fn deployment() -> (Topology, Deployment) {
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
    for i in 0..N_FLOWS {
        d.add_flow(StreamFlow {
            label: format!("tap{i}"),
            input: FlowInput::Tap { parent: src },
            processing_node: sp1,
            ops: chain(),
            route: vec![sp1],
            properties: None,
            retired: false,
        });
    }
    (t, d)
}

/// Pre-built inputs for [`Workload::run_once`], so the timed region holds
/// only the simulation itself.
pub struct Workload {
    topo: Topology,
    deployment: Deployment,
    sources: BTreeMap<String, Vec<Node>>,
}

impl Default for Workload {
    fn default() -> Workload {
        Workload::new()
    }
}

impl Workload {
    pub fn new() -> Workload {
        let (topo, deployment) = deployment();
        let cfg = GeneratorConfig {
            seed: 7,
            mean_time_increment: 0.1,
            ..GeneratorConfig::default()
        };
        let mut sources = BTreeMap::new();
        sources.insert(
            "photons".to_string(),
            PhotonGenerator::new(cfg).generate_items(N_ITEMS),
        );
        Workload {
            topo,
            deployment,
            sources,
        }
    }

    /// Runs the fused simulation once; returns the work total at SP1 so the
    /// caller can keep the result observable (and check determinism).
    pub fn run_once(&self) -> f64 {
        let cfg = SimConfig {
            forward_work_per_kb: 0.0,
            ..SimConfig::default()
        };
        let outcome = run(&self.topo, &self.deployment, &self.sources, cfg);
        outcome.metrics.node_work[self.topo.expect_node("SP1")]
    }
}
