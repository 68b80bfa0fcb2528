//! Whole-system determinism: identical inputs must yield identical plans,
//! deployments, and measurements — run to run and irrespective of hidden
//! iteration orders. The planner's tie-breaking, the template generator,
//! and the simulator are all supposed to be fully deterministic; this
//! catches regressions (e.g. an accidental `HashMap` iteration dependency).

use data_stream_sharing::core::Strategy;
use data_stream_sharing::network::SimConfig;
use dss_rass::Scenario;

fn run_fingerprint(seed: u64) -> String {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let scenario = Scenario::scenario1(seed);
    let outcome = scenario.run(Strategy::StreamSharing, false);
    assert!(outcome.errored.is_empty());
    let sim = outcome.simulate(SimConfig::default());
    let mut fp = String::new();
    for (i, flow) in outcome.system.deployment().flows().iter().enumerate() {
        // Hash the full serialized output so any divergence in operator
        // choice or item content shows, not just count/byte-sum changes.
        let mut h = DefaultHasher::new();
        for item in &sim.flow_outputs[i] {
            data_stream_sharing::xml::writer::node_to_string(item).hash(&mut h);
        }
        fp.push_str(&format!(
            "{i}:{}:{:?}:{}ops:{:016x}\n",
            flow.label,
            flow.route,
            flow.ops.len(),
            h.finish(),
        ));
    }
    fp.push_str(&format!("edges:{:?}\n", sim.metrics.edge_bytes));
    fp
}

#[test]
fn scenario_runs_are_reproducible() {
    let a = run_fingerprint(42);
    let b = run_fingerprint(42);
    assert_eq!(a, b, "two identical runs diverged");
    let c = run_fingerprint(43);
    assert_ne!(a, c, "different seeds should differ");
}

fn live_fingerprint(seed: u64) -> String {
    use data_stream_sharing::network::runtime::{FaultScript, LiveConfig};
    let scenario = Scenario::scenario1(seed);
    let mut outcome = scenario.run(Strategy::StreamSharing, false);
    assert!(outcome.errored.is_empty());
    let sp5 = scenario.topology.expect_node("SP5");
    let cfg = LiveConfig {
        duration_s: 4.0,
        trace: true,
        ..Default::default()
    };
    let live = outcome
        .run_live(cfg, &FaultScript::new().crash_peer(1.5, sp5))
        .expect("live run succeeds");
    let mut fp = live.trace.join("\n");
    fp.push_str(&format!("\nmetrics:{:?}\n", live.metrics));
    for flow in outcome.system.deployment().flows() {
        fp.push_str(&format!(
            "{}:{:?}:{}\n",
            flow.label, flow.route, flow.retired
        ));
    }
    fp
}

#[test]
fn live_runs_with_faults_are_reproducible() {
    // Same seed and fault script ⇒ byte-identical event traces, metrics,
    // and post-failover deployments. The live runtime's heap ordering,
    // failover re-planning, and metric folds must all be deterministic.
    let a = live_fingerprint(42);
    let b = live_fingerprint(42);
    assert_eq!(a, b, "two identical live runs diverged");
    let c = live_fingerprint(43);
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn estimates_track_measured_sizes() {
    // The cost model's projected_size must be a sane predictor of the
    // projection operator's actual output sizes (the paper's size(p)
    // estimate drives plan choice).
    use data_stream_sharing::core::StreamStats;
    use data_stream_sharing::engine::ProjectOp;
    use data_stream_sharing::properties::ProjectionSpec;
    use data_stream_sharing::xml::writer::serialized_size;
    use data_stream_sharing::xml::Path;

    let items = dss_rass::default_photons(5, 500);
    let stats = StreamStats::from_sample(&items, 100.0);
    let cases: Vec<Vec<&str>> = vec![
        vec!["en"],
        vec!["en", "det_time"],
        vec!["coord/cel/ra", "coord/cel/dec", "en"],
        vec!["coord"],
        vec!["phc", "coord", "en", "det_time"],
    ];
    for paths in cases {
        let spec = ProjectionSpec::returning(
            paths
                .iter()
                .map(|p| p.parse::<Path>().unwrap())
                .collect::<Vec<_>>(),
        );
        let estimated = stats.projected_size(&spec.output);
        let measured: f64 = items
            .iter()
            .map(|i| serialized_size(&ProjectOp::project(&spec, i)) as f64)
            .sum::<f64>()
            / items.len() as f64;
        let ratio = estimated / measured;
        assert!(
            (0.8..1.25).contains(&ratio),
            "projection {paths:?}: estimated {estimated:.1} vs measured {measured:.1} \
             (ratio {ratio:.3})"
        );
    }
}

#[test]
fn selectivity_estimates_track_measured_rates() {
    use data_stream_sharing::core::StreamStats;
    use data_stream_sharing::predicate::{Atom, CompOp, PredicateGraph};
    use data_stream_sharing::xml::{Decimal, Path};

    let items = dss_rass::default_photons(11, 2_000);
    let stats = StreamStats::from_sample(&items, 100.0);
    let p = |s: &str| s.parse::<Path>().unwrap();
    let d = |s: &str| s.parse::<Decimal>().unwrap();
    // The Vela region predicate: photons cluster there, so the uniform
    // assumption *underestimates*; allow a wide band but require the same
    // order of magnitude.
    let vela = PredicateGraph::from_atoms(&[
        Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("120.0")),
        Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("138.0")),
        Atom::var_const(p("coord/cel/dec"), CompOp::Ge, d("-49.0")),
        Atom::var_const(p("coord/cel/dec"), CompOp::Le, d("-40.0")),
    ]);
    let estimated = stats.selectivity(&vela);
    let measured = items.iter().filter(|i| vela.evaluate(i)).count() as f64 / items.len() as f64;
    assert!(
        estimated > measured / 20.0 && estimated < measured * 20.0,
        "vela: estimated {estimated:.4} vs measured {measured:.4}"
    );
    // A plain energy cut: energies are a mixture (background + two source
    // spectra), so the uniform-range model overestimates somewhat — it must
    // still land in the right ballpark.
    let encut = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.5"))]);
    let estimated = stats.selectivity(&encut);
    let measured = items.iter().filter(|i| encut.evaluate(i)).count() as f64 / items.len() as f64;
    assert!(
        (estimated - measured).abs() < 0.25,
        "en cut: estimated {estimated:.4} vs measured {measured:.4}"
    );
}

/// Every field of a stream's statistics, each `f64` as its bits, folded
/// into one FNV-1a digest.
fn stats_digest(stats: &data_stream_sharing::core::StreamStats) -> u64 {
    let mut text = format!(
        "{:x} {:x} {}\n",
        stats.item_size.to_bits(),
        stats.frequency.to_bits(),
        stats.item_name_len
    );
    for (path, st) in &stats.paths {
        let (occ, size) = (st.occurrence.to_bits(), st.subtree_size.to_bits());
        text += &format!("{path} {occ:x} {size:x} {}\n", st.name_len);
    }
    for (path, (lo, hi)) in &stats.ranges {
        text += &format!("{path} [{lo}, {hi}]\n");
    }
    for (path, inc) in &stats.increments {
        text += &format!("{path} +{:x}\n", inc.to_bits());
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn scenario_stream_statistics_are_pinned() {
    // The statistics every plan and cost is computed from, bit for bit,
    // for both scenarios' streams at three seeds.
    use data_stream_sharing::core::StreamStats;
    let mut got = Vec::new();
    for seed in [42, 7, 99] {
        let s1 = Scenario::scenario1(seed);
        let s2 = Scenario::scenario2(seed);
        for stream in s1.streams.iter().chain(&s2.streams) {
            let stats = StreamStats::from_sample(&stream.items, stream.frequency);
            got.push(format!(
                "{seed} {}: {:016x}",
                stream.name,
                stats_digest(&stats)
            ));
        }
    }
    // Computed by the per-element collector (the one-pass tally's oracle
    // in `dss_core::stats`), not by the code under test.
    let want = [
        "42 photons: bd234838e70aa09f",
        "42 photons_a: 3726d8950e4d5ba6",
        "42 photons_b: 6f0b815b818b1236",
        "7 photons: d0f787eb280b4806",
        "7 photons_a: 3139d5c1dbc6b6c3",
        "7 photons_b: 541deafd86c64968",
        "99 photons: 2ee0166e8d4765a8",
        "99 photons_a: 3c8f1d7b81a4f4f6",
        "99 photons_b: 6e4c580acad87514",
    ];
    assert_eq!(got, want);
}
