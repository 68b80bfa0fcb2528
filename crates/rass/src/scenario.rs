//! The paper's two benchmark scenarios (Section 4).
//!
//! * Scenario 1: the example network of Figures 1/2 — 8 super-peers, 1 data
//!   stream, 25 template queries.
//! * Scenario 2: a 4×4 super-peer grid — 16 super-peers, 2 data streams,
//!   100 template queries.

use dss_core::{Registration, Strategy, StreamGlobe, SystemError};
use dss_network::{example_topology, grid_topology, SimConfig, SimOutcome, Topology};
use dss_xml::Node;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generator::{GeneratorConfig, PhotonGenerator};
use crate::templates::QueryTemplateGenerator;

/// A stream to register before the queries.
#[derive(Debug, Clone)]
pub struct StreamDef {
    pub name: String,
    pub peer: String,
    pub items: Vec<Node>,
    pub frequency: f64,
}

/// A query to register.
#[derive(Debug, Clone)]
pub struct QueryDef {
    pub id: String,
    pub text: String,
    pub peer: String,
}

/// A reproducible benchmark scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    pub topology: Topology,
    pub streams: Vec<StreamDef>,
    pub queries: Vec<QueryDef>,
}

/// Result of running a scenario under one strategy.
#[derive(Debug)]
pub struct ScenarioOutcome {
    pub system: StreamGlobe,
    pub registrations: Vec<Registration>,
    /// Ids rejected by admission control.
    pub rejected: Vec<String>,
    /// Ids that errored for other reasons (should stay empty).
    pub errored: Vec<(String, String)>,
}

impl Scenario {
    /// Scenario 1: "the network topology of the example scenario of
    /// Section 1 … 8 super-peers, 1 data stream, and 25 queries." Queries
    /// are registered round-robin at the subscriber thin-peers P1–P4.
    pub fn scenario1(seed: u64) -> Scenario {
        let mut topology = example_topology();
        calibrate_capacities(&mut topology);
        // Stretch det_time so the template windows (Δ up to 120) produce a
        // healthy number of aggregate values over the 2 000-item sample.
        let cfg = GeneratorConfig {
            seed,
            mean_time_increment: 0.2,
            ..GeneratorConfig::default()
        };
        let streams = vec![StreamDef {
            name: "photons".into(),
            peer: "P0".into(),
            items: PhotonGenerator::new(cfg.clone()).generate_items(2_000),
            // The RASS instrument delivers on the order of 100 photons/s;
            // det_time advances in abstract units independent of wall time.
            frequency: STREAM_FREQUENCY,
        }];
        let mut tgen = QueryTemplateGenerator::new(seed ^ 0x51, "photons");
        let peers = ["P1", "P2", "P3", "P4"];
        let queries = (0..25)
            .map(|i| QueryDef {
                id: format!("q{i}"),
                text: tgen.next_query(),
                peer: peers[i % peers.len()].to_string(),
            })
            .collect();
        Scenario {
            name: "scenario1".into(),
            topology,
            streams,
            queries,
        }
    }

    /// Scenario 2: "a 4 × 4 grid topology with 16 super-peers, 2 data
    /// streams, and 100 queries." The streams enter at opposite corners
    /// (SP0 and SP15); queries are registered at uniformly chosen
    /// super-peers and reference one of the two streams uniformly.
    pub fn scenario2(seed: u64) -> Scenario {
        let mut topology = grid_topology(4, 4);
        calibrate_capacities(&mut topology);
        let mk_stream = |name: &str, peer: &str, s: u64| {
            let cfg = GeneratorConfig {
                seed: s,
                mean_time_increment: 0.2,
                ..GeneratorConfig::default()
            };
            StreamDef {
                name: name.into(),
                peer: peer.into(),
                items: PhotonGenerator::new(cfg.clone()).generate_items(1_500),
                frequency: STREAM_FREQUENCY,
            }
        };
        let streams = vec![
            mk_stream("photons_a", "SP0", seed ^ 0xa),
            mk_stream("photons_b", "SP15", seed ^ 0xb),
        ];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x52);
        let mut tgen_a = QueryTemplateGenerator::new(seed ^ 0x5a, "photons_a");
        let mut tgen_b = QueryTemplateGenerator::new(seed ^ 0x5b, "photons_b");
        let queries = (0..100)
            .map(|i| {
                let text = if rng.gen_bool(0.5) {
                    tgen_a.next_query()
                } else {
                    tgen_b.next_query()
                };
                QueryDef {
                    id: format!("q{i}"),
                    text,
                    peer: format!("SP{}", rng.gen_range(0..16)),
                }
            })
            .collect();
        Scenario {
            name: "scenario2".into(),
            topology,
            streams,
            queries,
        }
    }

    /// Builds a fresh system with the scenario's streams registered (no
    /// queries yet).
    pub fn build_system(&self) -> StreamGlobe {
        let mut sys = StreamGlobe::new(self.topology.clone());
        for s in &self.streams {
            sys.register_stream(s.name.clone(), &s.peer, s.items.clone(), s.frequency)
                .expect("scenario streams register cleanly");
        }
        sys
    }

    /// Registers all queries under `strategy`. With `admission`, overload
    /// rejections are collected instead of installed.
    pub fn run(&self, strategy: Strategy, admission: bool) -> ScenarioOutcome {
        let mut system = self.build_system();
        let mut registrations = Vec::new();
        let mut rejected = Vec::new();
        let mut errored = Vec::new();
        for q in &self.queries {
            match system.register_query_opts(q.id.clone(), &q.text, &q.peer, strategy, admission) {
                Ok(reg) => registrations.push(reg),
                Err(SystemError::Subscribe(dss_core::SubscribeError::Overload)) => {
                    rejected.push(q.id.clone());
                }
                Err(other) => errored.push((q.id.clone(), other.to_string())),
            }
        }
        ScenarioOutcome {
            system,
            registrations,
            rejected,
            errored,
        }
    }
}

/// Stream item frequency used by both scenarios (photons per second).
///
/// Together with [`SCENARIO_SP_CAPACITY`] this calibrates the workload so
/// that the paper's admission caps (10 % CPU, 1 Mbit/s) bind comparably:
/// the raw stream is a noticeable fraction of a capped connection and a
/// capped super-peer sustains a few dozen per-query operator chains.
const STREAM_FREQUENCY: f64 = 60.0;

/// Super-peer capacity used by the scenarios (work units per second).
const SCENARIO_SP_CAPACITY: f64 = 40_000.0;

fn calibrate_capacities(topology: &mut Topology) {
    for sp in topology.super_peers() {
        topology.peer_mut(sp).capacity = SCENARIO_SP_CAPACITY;
    }
}

impl ScenarioOutcome {
    /// Runs the simulator over the installed deployment.
    pub fn simulate(&self, cfg: SimConfig) -> SimOutcome {
        self.system.run_simulation(cfg)
    }

    /// Timed mode: runs the installed deployment under the discrete-event
    /// live runtime, replaying `faults` (peer crashes trigger automatic
    /// re-subscription of affected queries).
    pub fn run_live(
        &mut self,
        cfg: dss_network::runtime::LiveConfig,
        faults: &dss_network::runtime::FaultScript,
    ) -> Result<dss_core::LiveOutcome, SystemError> {
        self.system.run_live(cfg, faults)
    }
}

/// The example network of Figures 1/2 with the `photons` stream registered
/// at P0 — the starting point of the README/quickstart.
pub fn example_network() -> StreamGlobe {
    let mut sys = StreamGlobe::new(example_topology());
    // ~500 time units over 1 000 photons.
    let cfg = GeneratorConfig {
        seed: 0xbeef,
        mean_time_increment: 0.5,
        ..GeneratorConfig::default()
    };
    sys.register_stream(
        "photons",
        "P0",
        PhotonGenerator::new(cfg.clone()).generate_items(1_000),
        cfg.frequency(),
    )
    .expect("photons registers");
    sys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario1_matches_paper_parameters() {
        let s = Scenario::scenario1(42);
        assert_eq!(s.topology.super_peers().len(), 8);
        assert_eq!(s.streams.len(), 1);
        assert_eq!(s.queries.len(), 25);
    }

    #[test]
    fn scenario2_matches_paper_parameters() {
        let s = Scenario::scenario2(42);
        assert_eq!(s.topology.super_peers().len(), 16);
        assert_eq!(s.streams.len(), 2);
        assert_eq!(s.queries.len(), 100);
    }

    #[test]
    fn scenario1_runs_under_all_strategies() {
        let s = Scenario::scenario1(42);
        for strategy in Strategy::ALL {
            let out = s.run(strategy, false);
            assert_eq!(out.registrations.len(), 25, "{strategy}: {:?}", out.errored);
            assert!(out.rejected.is_empty());
            assert!(out.errored.is_empty());
        }
    }

    #[test]
    fn scenario1_stream_sharing_reuses_streams() {
        let s = Scenario::scenario1(42);
        let out = s.run(Strategy::StreamSharing, false);
        let reused = out
            .registrations
            .iter()
            .filter(|r| r.reused_derived_stream)
            .count();
        assert!(
            reused > 0,
            "template queries should produce shareable streams"
        );
    }

    #[test]
    fn scenario1_traffic_ordering() {
        let s = Scenario::scenario1(42);
        let mut totals = Vec::new();
        for strategy in Strategy::ALL {
            let out = s.run(strategy, false);
            let sim = out.simulate(SimConfig::default());
            totals.push(sim.metrics.total_edge_bytes());
        }
        let (ds, qs, ss) = (totals[0], totals[1], totals[2]);
        assert!(ds > qs, "data shipping {ds} ≤ query shipping {qs}");
        assert!(qs > ss, "query shipping {qs} ≤ stream sharing {ss}");
    }

    #[test]
    fn scenarios_are_reproducible() {
        let a = Scenario::scenario1(9);
        let b = Scenario::scenario1(9);
        assert_eq!(
            a.queries.iter().map(|q| &q.text).collect::<Vec<_>>(),
            b.queries.iter().map(|q| &q.text).collect::<Vec<_>>()
        );
        assert_eq!(a.streams[0].items, b.streams[0].items);
    }

    #[test]
    fn scenario1_timed_mode_delivers() {
        let s = Scenario::scenario1(42);
        let mut out = s.run(Strategy::StreamSharing, false);
        let cfg = dss_network::runtime::LiveConfig {
            duration_s: 2.0,
            ..Default::default()
        };
        let live = out
            .run_live(cfg, &dss_network::runtime::FaultScript::new())
            .unwrap();
        assert!(
            live.metrics.queries.values().any(|q| q.delivered > 0),
            "some selection query must deliver within 2 simulated seconds"
        );
        assert!(live.failovers.is_empty());
        assert_eq!(live.metrics.items_lost, 0);
    }

    #[test]
    fn example_network_is_ready() {
        let sys = example_network();
        assert_eq!(sys.deployment().len(), 1);
        assert_eq!(sys.query_count(), 0);
    }
}
