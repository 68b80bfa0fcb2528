//! Discrete-event scheduler throughput: the live runtime replaying the
//! example deployment, with and without a mid-run super-peer crash (the
//! crash adds the failover re-plan plus the runtime's deployment re-sync
//! to the measured cost), and scenario 2 under data shipping — the case
//! where up to six peers' services share a timestamp (EXPERIMENTS.md "DES
//! wall clock").

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dss_core::{Strategy, StreamGlobe};
use dss_network::runtime::{FaultScript, LiveConfig};
use dss_rass::scenario::{example_network, Scenario};
use dss_wxquery::queries;

fn shared_system() -> StreamGlobe {
    let mut sys = example_network();
    for (name, text, peer) in [
        ("q_east", queries::Q1, "P4"),
        ("q1", queries::Q1, "P1"),
        ("q2", queries::Q2, "P2"),
    ] {
        sys.register_query(name, text, peer, Strategy::StreamSharing)
            .expect("query registers");
    }
    sys
}

fn bench_live_runtime(c: &mut Criterion) {
    let cfg = LiveConfig {
        duration_s: 30.0,
        ..Default::default()
    };
    // ~2 items/s replayed to three queries over 30 simulated seconds.
    let mut g = c.benchmark_group("live-runtime/example-network");
    g.throughput(Throughput::Elements(60));
    g.bench_function("no-faults", |b| {
        b.iter(|| {
            let mut sys = shared_system();
            sys.run_live(cfg.clone(), &FaultScript::new()).unwrap()
        })
    });
    g.bench_function("sp5-crash-and-failover", |b| {
        b.iter(|| {
            let mut sys = shared_system();
            let sp5 = sys.topology().expect_node("SP5");
            let faults = FaultScript::new().crash_peer(10.0, sp5);
            sys.run_live(cfg.clone(), &faults).unwrap()
        })
    });
    g.finish();

    // Registration is outside the timed loop: the run consumes nothing of
    // the system, so one registered deployment serves every iteration.
    let mut s2 = Scenario::scenario2(42).run(Strategy::DataShipping, false);
    let mut g = c.benchmark_group("live-runtime/scenario2");
    g.bench_function("data-shipping-30s", |b| {
        b.iter(|| s2.run_live(cfg.clone(), &FaultScript::new()).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_live_runtime);
criterion_main!(benches);
