//! Integration tests over the paper's two evaluation scenarios: the
//! qualitative shapes of Figures 6/7, Table 1, and the rejection
//! experiment, asserted end-to-end.

use data_stream_sharing::core::{AdmissionControl, Strategy};
use data_stream_sharing::network::SimConfig;
use data_stream_sharing::rass::Scenario;

fn sim_cfg(s: &Scenario) -> SimConfig {
    SimConfig {
        duration_s: s.streams[0].items.len() as f64 / s.streams[0].frequency,
        ..SimConfig::default()
    }
}

#[test]
fn scenario1_figure6_shapes() {
    let scenario = Scenario::scenario1(42);
    let mut totals = Vec::new();
    let mut peaks = Vec::new();
    let mut cpu_totals = Vec::new();
    let topo = scenario.topology.clone();
    let sp4 = topo.expect_node("SP4");
    for strategy in Strategy::ALL {
        let out = scenario.run(strategy, false);
        assert_eq!(out.registrations.len(), 25, "{strategy}: {:?}", out.errored);
        let sim = out.simulate(sim_cfg(&scenario));
        totals.push(sim.metrics.total_edge_bytes());
        let loads: Vec<f64> = topo
            .super_peers()
            .iter()
            .map(|&v| sim.metrics.node_load_pct(&topo, v))
            .collect();
        peaks.push((
            loads.iter().cloned().fold(0.0, f64::max),
            sim.metrics.node_load_pct(&topo, sp4),
        ));
        cpu_totals.push(loads.iter().sum::<f64>());
    }
    // Traffic: data shipping ≫ query shipping > stream sharing.
    assert!(
        totals[0] > totals[1] && totals[1] > totals[2],
        "traffic ordering: {totals:?}"
    );
    // Query shipping produces a massive peak at the source super-peer SP4.
    let (qs_peak, qs_sp4) = peaks[1];
    assert!(
        (qs_peak - qs_sp4).abs() < 1e-9,
        "query shipping's CPU peak must be at SP4 (peak {qs_peak}, SP4 {qs_sp4})"
    );
    // Stream sharing causes the least overall CPU load.
    assert!(
        cpu_totals[2] < cpu_totals[0] && cpu_totals[2] < cpu_totals[1],
        "stream sharing total CPU should be lowest: {cpu_totals:?}"
    );
}

#[test]
fn scenario2_figure7_shapes() {
    let scenario = Scenario::scenario2(42);
    let topo = scenario.topology.clone();
    let mut totals = Vec::new();
    for strategy in Strategy::ALL {
        let out = scenario.run(strategy, false);
        assert_eq!(
            out.registrations.len(),
            100,
            "{strategy}: {:?}",
            out.errored
        );
        let sim = out.simulate(sim_cfg(&scenario));
        totals.push(sim.metrics.total_edge_bytes());
        if strategy == Strategy::QueryShipping {
            // The CPU peaks sit at the stream sources SP0 and SP15.
            let loads: Vec<(String, f64)> = topo
                .super_peers()
                .iter()
                .map(|&v| {
                    (
                        topo.peer(v).name.clone(),
                        sim.metrics.node_load_pct(&topo, v),
                    )
                })
                .collect();
            let mut sorted = loads.clone();
            sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
            let top2: Vec<&str> = sorted[..2].iter().map(|(n, _)| n.as_str()).collect();
            assert!(
                top2.contains(&"SP0") && top2.contains(&"SP15"),
                "query shipping peaks must be the source peers, got {sorted:?}"
            );
        }
    }
    assert!(
        totals[0] > totals[1] && totals[1] > totals[2],
        "traffic ordering: {totals:?}"
    );
}

#[test]
fn registration_times_within_small_factor() {
    // Table 1's qualitative claim: "The stream sharing approach stays
    // within a factor of 3 of the other two much simpler approaches."
    // Wall-clock measurements are noisy in CI, so allow a wide margin while
    // still catching pathological blowups.
    let scenario = Scenario::scenario1(42);
    let avg = |strategy: Strategy| {
        let out = scenario.run(strategy, false);
        let total: std::time::Duration = out.registrations.iter().map(|r| r.elapsed).sum();
        total.as_secs_f64() / out.registrations.len() as f64
    };
    let ds = avg(Strategy::DataShipping);
    let ss = avg(Strategy::StreamSharing);
    assert!(
        ss < ds * 60.0,
        "stream sharing registration ({ss:.6}s) should stay within a small factor of \
         data shipping ({ds:.6}s)"
    );
}

#[test]
fn rejection_experiment_shape() {
    let scenario = Scenario::scenario2(42);
    let mut rejected = Vec::new();
    for strategy in Strategy::ALL {
        let mut system = scenario.build_system();
        AdmissionControl::apply_caps(&mut system, 0.10, 1_000.0);
        let batch: Vec<(String, String, String)> = scenario
            .queries
            .iter()
            .map(|q| (q.id.clone(), q.text.clone(), q.peer.clone()))
            .collect();
        let report = AdmissionControl::register_batch(&mut system, &batch, strategy);
        assert!(
            report.errored.is_empty(),
            "{strategy}: {:?}",
            report.errored
        );
        assert_eq!(report.accepted_count() + report.rejected_count(), 100);
        rejected.push(report.rejected_count());
    }
    // Paper: 47 / 35 / 2.
    assert!(
        rejected[0] > rejected[1],
        "data shipping should reject more than query shipping: {rejected:?}"
    );
    assert!(
        rejected[1] > rejected[2],
        "query shipping should reject more than stream sharing: {rejected:?}"
    );
    assert!(
        rejected[2] <= 5,
        "stream sharing rejects almost nothing: {rejected:?}"
    );
    // Pin the exact seed-42 counts so a silent cost-model change (like the
    // duplicate-selectivity double-count this fixed) shows up in review
    // rather than drifting unnoticed. Data shipping lands exactly on the
    // paper's 47.
    assert_eq!(
        rejected,
        vec![47, 24, 0],
        "seed-42 rejection counts changed — cost model drift?"
    );
}

#[test]
fn sharing_reuses_many_streams_in_scenario1() {
    let scenario = Scenario::scenario1(42);
    let out = scenario.run(Strategy::StreamSharing, false);
    let reused = out
        .registrations
        .iter()
        .filter(|r| r.reused_derived_stream)
        .count();
    // The template value sets are small; a decent share of the 25 queries
    // must land on previously generated streams.
    assert!(
        reused >= 5,
        "only {reused} of 25 queries reused derived streams"
    );
}

#[test]
fn super_peer_crash_replans_and_keeps_delivering() {
    // The paper's motivating deployment routes the shared stream through
    // SP5. Crash SP5 mid-run: the queries riding it (q1 at P1, q2 at P2)
    // must be re-planned onto surviving streams and keep delivering, while
    // the untouched q_east at P4 never stops.
    use data_stream_sharing::core::Strategy;
    use data_stream_sharing::network::runtime::{FaultScript, LiveConfig};
    use data_stream_sharing::wxquery::queries;

    let mut system = dss_rass::scenario::example_network();
    for (name, text, peer) in [
        ("q_east", queries::Q1, "P4"),
        ("q1", queries::Q1, "P1"),
        ("q2", queries::Q2, "P2"),
    ] {
        system
            .register_query(name, text, peer, Strategy::StreamSharing)
            .expect("query registers");
    }
    let sp5 = system.topology().expect_node("SP5");
    assert!(
        system
            .deployment()
            .flows()
            .iter()
            .any(|f| !f.retired && (f.processing_node == sp5 || f.route.contains(&sp5))),
        "precondition: the shared deployment must actually use SP5"
    );

    let cfg = LiveConfig {
        duration_s: 60.0,
        ..Default::default()
    };
    let faults = FaultScript::new().crash_peer(10.0, sp5);
    let outcome = system.run_live(cfg, &faults).expect("live run succeeds");

    assert_eq!(outcome.failovers.len(), 1);
    let report = &outcome.failovers[0];
    assert_eq!(report.peer, sp5);
    assert!(
        report.failed.is_empty(),
        "failed replans: {:?}",
        report.failed
    );
    let mut replanned: Vec<&str> = report
        .replanned
        .iter()
        .map(|r| r.query_id.as_str())
        .collect();
    replanned.sort_unstable();
    assert_eq!(replanned, ["q1", "q2"], "exactly the SP5 riders re-plan");

    // The re-planned deployment must avoid the dead peer entirely.
    for f in system.deployment().flows().iter().filter(|f| !f.retired) {
        assert_ne!(f.processing_node, sp5, "{} still processed at SP5", f.label);
        assert!(!f.route.contains(&sp5), "{} still routed via SP5", f.label);
    }

    // Every query delivers; the re-planned ones record a recovery time.
    for q in ["q_east", "q1", "q2"] {
        let m = &outcome.metrics.queries[q];
        assert!(m.delivered > 0, "{q} delivered nothing");
    }
    for q in ["q1", "q2"] {
        let m = &outcome.metrics.queries[q];
        assert!(
            !m.recoveries_us.is_empty(),
            "{q} should record its post-fault recovery"
        );
    }
    assert!(outcome.metrics.queries["q_east"].recoveries_us.is_empty());
}

#[test]
fn durable_super_peer_crash_resumes_without_replanning() {
    // The WAL flips the failover policy from *replan* to *resume*: with
    // durable peers a crash must leave the planning state untouched (no
    // failover reports, no retired flows, the deployment unchanged) and
    // restore the peer in place when it recovers — every query keeps
    // delivering, exactly once. The victim is SP7, which *processes*
    // q2's result flow and terminates q2's photon flow (both covered by
    // durable input custody) but relays nothing pass-through: an interior
    // relay hop like SP5 has no custody of the streams it forwards, so
    // its outage gaps are a re-send problem for the networked data plane,
    // not the simulator's log.
    use data_stream_sharing::core::Strategy;
    use data_stream_sharing::network::runtime::{FaultScript, LiveConfig, WalConfig};
    use data_stream_sharing::wxquery::queries;

    let build = || {
        let mut system = dss_rass::scenario::example_network();
        for (name, text, peer) in [
            ("q_east", queries::Q1, "P4"),
            ("q1", queries::Q1, "P1"),
            ("q2", queries::Q2, "P2"),
        ] {
            system
                .register_query(name, text, peer, Strategy::StreamSharing)
                .expect("query registers");
        }
        system
    };
    let wal_root = std::env::temp_dir().join(format!("dss-scenario-wal-{}", std::process::id()));
    let run = |crash: bool, tag: &str| {
        let mut system = build();
        let dir = wal_root.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = LiveConfig {
            duration_s: 60.0,
            wal: Some(WalConfig::new(&dir)),
            ..Default::default()
        };
        let sp7 = system.topology().expect_node("SP7");
        let faults = if crash {
            FaultScript::new()
                .crash_peer(10.0, sp7)
                .recover_peer(20.0, sp7)
        } else {
            FaultScript::new()
        };
        let outcome = system.run_live(cfg, &faults).expect("live run succeeds");
        let _ = std::fs::remove_dir_all(&dir);
        (system, outcome)
    };

    let (_, baseline) = run(false, "baseline");
    let (system, outcome) = run(true, "crash");
    let sp7 = system.topology().expect_node("SP7");
    assert!(
        system
            .deployment()
            .flows()
            .iter()
            .any(|f| !f.retired && f.processing_node == sp7),
        "precondition: SP7 must process shared flows"
    );

    // Resume, not replan: no failover report, nothing retired, and the
    // deployment still runs through the crashed peer.
    assert!(
        outcome.failovers.is_empty(),
        "durable crash must not replan"
    );
    assert!(
        system.deployment().flows().iter().all(|f| !f.retired),
        "durable crash must not retire flows"
    );

    // The crash hit the log: records written, the outage deferred inputs
    // durably, and recovery re-serviced them. Nothing fell back, nothing
    // was delivered twice or lost.
    let m = &outcome.metrics;
    assert!(m.wal_checkpoints > 0, "peers must write WAL records");
    assert!(m.wal_deferred > 0, "the outage must defer inputs durably");
    assert!(m.wal_replayed_items > 0, "recovery must re-service history");
    assert_eq!(m.wal_fallbacks, 0, "no corrupt log, no fallback");
    assert_eq!(m.items_lost, 0, "durable outage must lose nothing");
    for (q, qm) in &m.queries {
        assert_eq!(qm.duplicates, 0, "{q} received duplicates");
    }

    // Exactly-once across the crash: per-query delivery counts equal the
    // run that never crashed.
    for q in ["q_east", "q1", "q2"] {
        assert!(m.queries[q].delivered > 0, "{q} delivered nothing");
        assert_eq!(
            m.queries[q].delivered, baseline.metrics.queries[q].delivered,
            "{q}: crashed-and-resumed run must deliver exactly the baseline count"
        );
    }

    // Exactly the SP7 rider records a recovery time once deliveries
    // restart; the untouched queries never entered recovery.
    assert!(
        !m.queries["q2"].recoveries_us.is_empty(),
        "q2 should record its post-fault recovery"
    );
    for q in ["q_east", "q1"] {
        assert!(
            m.queries[q].recoveries_us.is_empty(),
            "{q} does not touch SP7 and must not record a recovery"
        );
    }
}

#[test]
fn unperturbed_live_run_matches_batch_results() {
    // Without faults, the live runtime is just a timed replay of the same
    // deployment the batch simulator processes: it must not change what
    // queries receive, only add timestamps.
    use data_stream_sharing::core::Strategy;
    use data_stream_sharing::network::runtime::{FaultScript, LiveConfig};

    let scenario = Scenario::scenario1(42);
    let mut out = scenario.run(Strategy::StreamSharing, false);
    let batch = out.simulate(sim_cfg(&scenario));
    let cfg = LiveConfig {
        duration_s: sim_cfg(&scenario).duration_s + 1.0,
        ..Default::default()
    };
    let live = out
        .run_live(cfg, &FaultScript::new())
        .expect("live run succeeds");
    assert!(live.failovers.is_empty());
    assert_eq!(live.metrics.items_lost, 0);
    assert_eq!(live.metrics.total_dropped(), 0);

    // Windowed operators buffer state that the batch simulator flushes at
    // end-of-input but the live runtime (deliberately) does not, so
    // windowed chains may deliver fewer items — never more, and never
    // different ones. Stateless chains must match the batch run exactly.
    use data_stream_sharing::network::{FlowInput, FlowOp};
    use data_stream_sharing::properties::Operator;
    let chain_is_stateless = |flow: usize| -> bool {
        let mut cur = Some(flow);
        while let Some(id) = cur {
            let f = &out.system.deployment().flows()[id];
            let windowed = f.ops.iter().any(|op| {
                matches!(
                    op,
                    FlowOp::Standard(Operator::Aggregation(_))
                        | FlowOp::Standard(Operator::WindowOutput(_))
                        | FlowOp::ReAggregate { .. }
                        | FlowOp::ReWindow { .. }
                )
            });
            if windowed {
                return false;
            }
            cur = match f.input {
                FlowInput::Tap { parent } => Some(parent),
                FlowInput::Source { .. } => None,
            };
        }
        true
    };
    let mut stateless_queries = 0;
    for reg in &out.registrations {
        let delivered = live.metrics.queries[&reg.query_id].delivered;
        let batch_count = batch.flow_outputs[reg.delivery_flow].len() as u64;
        if chain_is_stateless(reg.delivery_flow) {
            stateless_queries += 1;
            assert_eq!(
                delivered, batch_count,
                "stateless query {}: live delivered {delivered}, batch {batch_count}",
                reg.query_id
            );
        } else {
            assert!(
                delivered <= batch_count,
                "windowed query {}: live delivered {delivered} > batch {batch_count}",
                reg.query_id
            );
        }
    }
    assert!(
        stateless_queries > 0,
        "scenario 1 should contain selection-only template queries"
    );
}

#[test]
fn different_seeds_preserve_shapes() {
    for seed in [1u64, 7, 1234] {
        let scenario = Scenario::scenario1(seed);
        let mut totals = Vec::new();
        for strategy in Strategy::ALL {
            let out = scenario.run(strategy, false);
            assert!(
                out.errored.is_empty(),
                "seed {seed}, {strategy}: {:?}",
                out.errored
            );
            totals.push(out.simulate(sim_cfg(&scenario)).metrics.total_edge_bytes());
        }
        assert!(
            totals[0] > totals[2],
            "seed {seed}: sharing must beat data shipping ({totals:?})"
        );
        assert!(
            totals[1] >= totals[2],
            "seed {seed}: sharing must not exceed query shipping ({totals:?})"
        );
    }
}
