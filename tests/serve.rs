//! Integration tests for the networked deployment mode (`dss serve`).
//!
//! Each test spawns a real loopback fleet — one OS process per super-peer
//! of the Figure-2 example topology, speaking the binary wire protocol
//! over TCP — and drives it with the client library. The batch simulator
//! (`StreamGlobe::run_simulation`) is the oracle throughout: the deployed
//! fleet must reproduce its per-query delivered outputs *byte for byte*.

use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use data_stream_sharing::core::{Strategy, StreamGlobe};
use data_stream_sharing::network::{GroupKey, GroupTable};
use data_stream_sharing::server::{
    Client, ClientEvent, ClusterOptions, LocalCluster, NetMap, ServeSpec, ServerError,
};
use data_stream_sharing::xml::writer::node_to_string;
use dss_proto::WireStrategy;
use dss_wxquery::queries;

const FLEET_TIMEOUT: Duration = Duration::from_secs(60);
const RUN_TIMEOUT: Duration = Duration::from_secs(300);

/// The paper's four example queries, subscribed at their Figure-2 peers.
const SUBS: [(&str, &str); 4] = [("q1", "P1"), ("q2", "P2"), ("q3", "P3"), ("q4", "P4")];

fn query_text(id: &str) -> &'static str {
    match id {
        "q1" => queries::Q1,
        "q2" => queries::Q2,
        "q3" => queries::Q3,
        "q4" => queries::Q4,
        other => panic!("unknown query {other}"),
    }
}

/// Picks a port range where all `n` consecutive ports currently bind.
fn pick_port_base(n: u16) -> u16 {
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as u64;
    for attempt in 0..200u64 {
        let base = 20000 + ((seed.wrapping_add(attempt.wrapping_mul(977)) % 40000) as u16);
        let probes: Vec<_> = (0..n)
            .map(|i| TcpListener::bind(("127.0.0.1", base + i)))
            .collect();
        if probes.iter().all(Result::is_ok) {
            return base;
        }
    }
    panic!("no free 8-port range on loopback");
}

fn spawn_example_fleet(metrics_dir: Option<&Path>) -> (LocalCluster, ServeSpec) {
    let mut spec = ServeSpec::new("example").unwrap();
    spec.port_base = pick_port_base(8);
    let cluster = LocalCluster::spawn(Path::new(env!("CARGO_BIN_EXE_dss")), &spec, metrics_dir)
        .expect("fleet spawns");
    (cluster, spec)
}

/// In-process oracle: same registrations on the same base system, run
/// through the batch simulator. Returns each query's delivered items
/// (serialized) plus its registration metadata for plan comparison.
struct Oracle {
    results: BTreeMap<String, Vec<String>>,
    reused: BTreeMap<String, bool>,
    plans: BTreeMap<String, String>,
    costs: BTreeMap<String, f64>,
}

fn oracle(subs: &[(&str, &str)]) -> Oracle {
    let mut sys: StreamGlobe = dss_rass::scenario::example_network();
    let mut regs = Vec::new();
    for &(id, peer) in subs {
        let reg = sys
            .register_query(id, query_text(id), peer, Strategy::StreamSharing)
            .unwrap_or_else(|e| panic!("oracle registration of {id} failed: {e}"));
        let plan = reg.plan.describe(sys.state());
        regs.push((id.to_string(), reg, plan));
    }
    let sim = sys.run_simulation(Default::default());
    let mut o = Oracle {
        results: BTreeMap::new(),
        reused: BTreeMap::new(),
        plans: BTreeMap::new(),
        costs: BTreeMap::new(),
    };
    for (id, reg, plan) in regs {
        o.results.insert(
            id.clone(),
            sim.flow_outputs[reg.delivery_flow]
                .iter()
                .map(node_to_string)
                .collect(),
        );
        o.reused.insert(id.clone(), reg.reused_derived_stream);
        o.plans.insert(id.clone(), plan);
        o.costs.insert(id, reg.plan.total_cost);
    }
    o
}

/// The acceptance gate: a loopback Figure-2 deployment answers all four
/// paper queries with exactly the bytes the batch simulator delivers, and
/// a telemetry snapshot pulled from a *live* peer conforms to
/// `schemas/trace.schema.json`.
#[test]
fn loopback_figure2_is_byte_exact_against_the_simulator() {
    let expect = oracle(&SUBS);
    let (cluster, _spec) = spawn_example_fleet(None);
    let mut client =
        Client::connect(cluster.coordinator_addr(), "tester", FLEET_TIMEOUT).expect("connects");

    for &(id, peer) in &SUBS {
        let reply = client
            .subscribe(id, query_text(id), peer, WireStrategy::StreamSharing)
            .unwrap_or_else(|e| panic!("subscribing {id} failed: {e}"));
        // The replicated planner must make the oracle's sharing decisions.
        assert_eq!(
            reply.reused, expect.reused[id],
            "{id}: sharing decision diverged from the in-process planner"
        );
        assert_eq!(
            reply.plan, expect.plans[id],
            "{id}: plan diverged from the in-process planner"
        );
        assert_eq!(reply.cost, expect.costs[id], "{id}: plan cost diverged");
    }

    let out = client.run_and_collect(RUN_TIMEOUT).expect("run completes");
    let total: usize = expect.results.values().map(Vec::len).sum();
    assert_eq!(out.delivered as usize, total, "fleet-wide delivered count");
    for (id, want) in &expect.results {
        assert!(!want.is_empty(), "oracle delivers nothing for {id}");
        let got: Vec<String> = out
            .results
            .get(id)
            .unwrap_or_else(|| panic!("no deliveries for {id}"))
            .iter()
            .map(node_to_string)
            .collect();
        assert_eq!(
            &got, want,
            "{id}: delivered bytes differ from the simulator"
        );
    }

    // Telemetry from the live coordinator validates against the schema
    // and shows data-plane activity.
    let snapshot = client.metrics().expect("metrics pull");
    let doc = dss_telemetry::json::parse(&snapshot).expect("snapshot parses as JSON");
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/schemas/trace.schema.json"
    ))
    .expect("schema file");
    let schema = dss_telemetry::json::parse(&schema_text).expect("schema parses");
    let violations = dss_telemetry::schema::validate(&doc, &schema);
    assert!(
        violations.is_empty(),
        "live snapshot violates the schema: {violations:?}"
    );
    assert!(
        snapshot.contains("runtime.delivered"),
        "live snapshot should account deliveries"
    );
    assert!(
        snapshot.contains("server.frame_items"),
        "live snapshot should report how many items its frames carry"
    );
    assert!(
        snapshot.contains("server.items_relayed"),
        "the coordinator passes deliveries on as the bytes it received"
    );

    client.goodbye();
    cluster.shutdown(FLEET_TIMEOUT).expect("clean shutdown");
}

/// Regression for the default-mailbox self-deadlock: at the shipped
/// `--mailbox-capacity` (1024, well below the 2 000-item stream) the
/// flat-out source fills P0's mailbox, and the node's own worker — the
/// only thread that drains it — used to block pushing a tap item into that
/// same full mailbox; the fleet wedged after ten deliveries. The 25
/// queries of scenario 1 must complete, byte-equal to the simulator.
#[test]
fn scenario1_completes_byte_exact_at_the_default_mailbox_capacity() {
    let scenario = dss_rass::Scenario::scenario1(42);
    let mut spec = ServeSpec::new("scenario1").unwrap();
    spec.port_base = pick_port_base(8);
    let mut sys: StreamGlobe = spec.build_globe();
    let cluster = LocalCluster::spawn(Path::new(env!("CARGO_BIN_EXE_dss")), &spec, None)
        .expect("fleet spawns");
    let mut client =
        Client::connect(cluster.coordinator_addr(), "tester", FLEET_TIMEOUT).expect("connects");

    let mut flows = Vec::new();
    for q in &scenario.queries {
        let reg = sys
            .register_query(q.id.clone(), &q.text, &q.peer, Strategy::StreamSharing)
            .unwrap_or_else(|e| panic!("oracle registration of {} failed: {e}", q.id));
        flows.push((q.id.clone(), reg.delivery_flow));
        client
            .subscribe(&q.id, &q.text, &q.peer, WireStrategy::StreamSharing)
            .unwrap_or_else(|e| panic!("subscribing {} failed: {e}", q.id));
    }
    assert_eq!(flows.len(), 25);
    let sim = sys.run_simulation(Default::default());

    // A wedged fleet must fail this test, not eat the suite's timeout.
    let out = client
        .run_and_collect(Duration::from_secs(60))
        .expect("run completes at the default mailbox capacity");
    let mut total = 0;
    for (id, flow) in &flows {
        let want: Vec<String> = sim.flow_outputs[*flow].iter().map(node_to_string).collect();
        let got: Vec<String> = out
            .results
            .get(id)
            .map(|items| items.iter().map(node_to_string).collect())
            .unwrap_or_default();
        assert_eq!(got, want, "{id}: delivered bytes differ from the simulator");
        total += want.len();
    }
    assert!(total > 2_000, "scenario 1 delivers more than it replays");
    assert_eq!(out.delivered as usize, total, "fleet-wide delivered count");

    // A super-peer that hosts no operator only passes bytes on: its live
    // snapshot counts relayed items and not one materialised; one that
    // hosts taps fed over the wire counts both.
    let map = NetMap::new(sys.topology());
    let hosts_no_group = |i: usize| {
        let hosted = GroupTable::build(sys.deployment(), |n| map.owner_of(n) == i);
        hosted.groups().is_empty()
    };
    let metrics_of = |i: usize| {
        let mut probe = Client::connect(&map.addr(&spec, i), "probe", FLEET_TIMEOUT)
            .unwrap_or_else(|e| panic!("dialing process {i}: {e}"));
        let snapshot = probe.metrics().expect("metrics pull");
        probe.goodbye();
        snapshot
    };
    let relays: Vec<usize> = (1..map.process_count())
        .filter(|&i| hosts_no_group(i))
        .collect();
    let relayed: Vec<String> = relays.iter().map(|&i| metrics_of(i)).collect();
    assert!(
        relayed.iter().any(|m| m.contains("server.items_relayed")),
        "scenario 1 routes through a pure-relay super-peer ({relays:?})"
    );
    assert!(
        relayed.iter().any(|m| m.contains("server.dial_ms")),
        "a relay dialed its next hop and says what the dial cost"
    );
    for (i, snapshot) in relays.iter().zip(&relayed) {
        assert!(
            !snapshot.contains("server.items_materialised"),
            "process {i} hosts no operator yet built trees"
        );
    }
    let consumers = (1..map.process_count()).filter(|&i| !hosts_no_group(i));
    assert!(
        consumers
            .map(metrics_of)
            .any(|m| m.contains("server.items_materialised")),
        "some tap is fed over the wire"
    );

    client.goodbye();
    cluster.shutdown(FLEET_TIMEOUT).expect("clean shutdown");
}

/// Sum of the counter `name` over a telemetry snapshot's label sets.
fn counter(snapshot: &str, name: &str) -> u64 {
    let doc = dss_telemetry::json::parse(snapshot).expect("snapshot parses as JSON");
    let metrics = doc.get("metrics").and_then(|m| m.as_array()).unwrap_or(&[]);
    metrics
        .iter()
        .filter(|m| m.get("name").and_then(|n| n.as_str()) == Some(name))
        .filter_map(|m| m.get("value").and_then(|v| v.as_f64()))
        .sum::<f64>() as u64
}

/// Data shipping over real sockets: each subscriber's raw stream crosses
/// the fleet as bytes and is read only at the subscriber's super-peer.
/// The 25 queries of scenario 1 arrive byte-exact. A peer whose taps all
/// start with a σ builds fewer trees than it receives items, and one whose
/// taps all read one copy class — a raw copy of the photons per query it
/// hosts — builds at most the distinct items it receives: each copied
/// batch is read once per process, however many copies arrive.
#[test]
fn scenario1_under_data_shipping_is_byte_exact_and_reads_each_copied_batch_once_per_process() {
    let scenario = dss_rass::Scenario::scenario1(42);
    let mut spec = ServeSpec::new("scenario1").unwrap();
    spec.port_base = pick_port_base(8);
    let mut sys: StreamGlobe = spec.build_globe();
    let cluster = LocalCluster::spawn(Path::new(env!("CARGO_BIN_EXE_dss")), &spec, None)
        .expect("fleet spawns");
    let mut client =
        Client::connect(cluster.coordinator_addr(), "tester", FLEET_TIMEOUT).expect("connects");
    let mut flows = Vec::new();
    for q in &scenario.queries {
        let reg = sys
            .register_query(q.id.clone(), &q.text, &q.peer, Strategy::DataShipping)
            .unwrap_or_else(|e| panic!("oracle registration of {} failed: {e}", q.id));
        flows.push((q.id.clone(), reg.delivery_flow));
        client
            .subscribe(&q.id, &q.text, &q.peer, WireStrategy::DataShipping)
            .unwrap_or_else(|e| panic!("subscribing {} failed: {e}", q.id));
    }
    let sim = sys.run_simulation(Default::default());
    let out = client
        .run_and_collect(Duration::from_secs(60))
        .expect("the data-shipping run completes");
    let mut total = 0;
    for (id, flow) in &flows {
        let want: Vec<String> = sim.flow_outputs[*flow].iter().map(node_to_string).collect();
        let got: Vec<String> = out
            .results
            .get(id)
            .map(|items| items.iter().map(node_to_string).collect())
            .unwrap_or_default();
        assert_eq!(got, want, "{id}: delivered bytes differ from the simulator");
        total += want.len();
    }
    assert_eq!(out.delivered as usize, total, "fleet-wide delivered count");

    // The processes whose groups are all σ-led taps fed over the wire: what
    // they receive is their taps' parents' output.
    let map = NetMap::new(sys.topology());
    let (mut checked, mut one_class) = (0, 0);
    for i in 0..map.process_count() {
        let hosted = GroupTable::build(sys.deployment(), |n| map.owner_of(n) == i);
        let mut received = 0;
        let all_filtered_over_the_wire = !hosted.groups().is_empty()
            && hosted.groups().iter().enumerate().all(|(g, group)| {
                let GroupKey::Tap(parent) = group.key else {
                    return false;
                };
                let route = &hosted.flows()[parent].route;
                let hop = route.iter().position(|&n| n == group.node).unwrap();
                received += sim.flow_outputs[parent].len();
                hosted.tap_filter(g).is_some() && hop > 0 && map.owner_of(route[hop - 1]) != i
            });
        if !all_filtered_over_the_wire {
            continue;
        }
        let mut probe = Client::connect(&map.addr(&spec, i), "probe", FLEET_TIMEOUT)
            .unwrap_or_else(|e| panic!("dialing process {i}: {e}"));
        let built = counter(
            &probe.metrics().expect("metrics pull"),
            "server.items_materialised",
        );
        probe.goodbye();
        assert!(
            0 < built && built < received as u64,
            "process {i} built {built} trees of {received} items received"
        );
        checked += 1;
        let classes: BTreeSet<GroupKey> = (hosted.groups().iter())
            .map(|group| hosted.copy_class(&group.key))
            .collect();
        if hosted.groups().len() > 1 && classes.len() == 1 {
            // Every parent carries the same items: the class's.
            let GroupKey::Tap(parent) = hosted.groups()[0].key else {
                unreachable!("a tap group")
            };
            let distinct = sim.flow_outputs[parent].len();
            assert!(
                built <= distinct as u64 && distinct <= 2_000,
                "process {i} built {built} trees of {distinct} distinct items \
                 ({received} received in {} copies)",
                hosted.groups().len()
            );
            one_class += 1;
        }
    }
    assert!(checked > 0, "some subscriber peer taps only with σs");
    assert!(
        one_class > 0,
        "some subscriber peer taps copies of one stream only"
    );

    client.goodbye();
    cluster.shutdown(FLEET_TIMEOUT).expect("clean shutdown");
}

/// Connection set-up is event-driven: every process answers a dial from a
/// blocking acceptor thread of its own, so the first `subscribe` — seven
/// cold coordinator → peer dials behind it — returns, and all eight
/// processes go on answering new connections *while a run is in flight*
/// (the acceptor shares nothing with the data plane).
#[test]
fn every_process_answers_a_dial_while_a_run_is_in_flight() {
    const SOURCE_DELAY_MS: u64 = 2;
    let scenario = dss_rass::Scenario::scenario1(42);
    let paced = Duration::from_millis(SOURCE_DELAY_MS * scenario.streams[0].items.len() as u64);
    let mut spec = ServeSpec::new("scenario1").unwrap();
    spec.port_base = pick_port_base(8);
    let cluster = LocalCluster::spawn_with(
        Path::new(env!("CARGO_BIN_EXE_dss")),
        &spec,
        &ClusterOptions {
            // Pace the source so the run outlasts the probes by seconds.
            source_delay_ms: Some(SOURCE_DELAY_MS),
            ..ClusterOptions::default()
        },
    )
    .expect("fleet spawns");
    let mut client =
        Client::connect(cluster.coordinator_addr(), "tester", FLEET_TIMEOUT).expect("connects");
    for q in &scenario.queries {
        client
            .subscribe(&q.id, &q.text, &q.peer, WireStrategy::StreamSharing)
            .unwrap_or_else(|e| panic!("subscribing {} failed: {e}", q.id));
    }
    let run_requested = Instant::now();
    client.start_run().expect("run starts");
    match client.next_event(RUN_TIMEOUT).expect("first delivery") {
        ClientEvent::Deliver { .. } => {}
        ClientEvent::RunDone { .. } => panic!("run finished before any delivery"),
    }

    let map = NetMap::new(spec.build_globe().topology());
    assert_eq!(map.process_count(), 8);
    for i in 0..map.process_count() {
        let mut probe = Client::connect(&map.addr(&spec, i), "probe", FLEET_TIMEOUT)
            .unwrap_or_else(|e| panic!("process {i} did not answer a dial mid-run: {e}"));
        let snapshot = probe
            .metrics()
            .unwrap_or_else(|e| panic!("process {i} did not answer a metrics pull mid-run: {e}"));
        dss_telemetry::json::parse(&snapshot)
            .unwrap_or_else(|e| panic!("process {i}'s snapshot is not JSON: {e:?}"));
        probe.goodbye();
    }

    // The source pauses after every photon it replays, so the run cannot
    // end sooner than `paced` after it was asked for: probes done by then
    // were all answered mid-run.
    assert!(
        run_requested.elapsed() < paced,
        "the probes outlasted the paced run"
    );
    loop {
        if let ClientEvent::RunDone { .. } = client.next_event(RUN_TIMEOUT).expect("run completes")
        {
            break;
        }
    }
    client.goodbye();
    cluster.shutdown(FLEET_TIMEOUT).expect("clean shutdown");
}

/// Regression for two teardown races that lost roughly one warm run in
/// three to ten: the teardown thread of run *n* cleared the plane slot
/// without checking it still held run *n*'s plane, so it could wipe run
/// *n+1*'s freshly built one (whose batches then vanished without a
/// word); and the requester heard `RunDone` before the coordinator had
/// released the run, so an immediate `StartRun` faulted. Twelve runs
/// started back to back on one fleet, each byte-equal to the simulator.
#[test]
fn back_to_back_runs_on_a_warm_fleet_each_complete_byte_exact() {
    let expect = oracle(&SUBS);
    let total: usize = expect.results.values().map(Vec::len).sum();
    let (cluster, _spec) = spawn_example_fleet(None);
    let mut client =
        Client::connect(cluster.coordinator_addr(), "tester", FLEET_TIMEOUT).expect("connects");
    for &(id, peer) in &SUBS {
        client
            .subscribe(id, query_text(id), peer, WireStrategy::StreamSharing)
            .unwrap_or_else(|e| panic!("subscribing {id} failed: {e}"));
    }
    for run in 0..12 {
        // A lost run must fail this test, not eat the suite's timeout.
        let out = client
            .run_and_collect(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("run {run} did not complete: {e}"));
        assert_eq!(out.delivered as usize, total, "run {run}: delivered count");
        for (id, want) in &expect.results {
            let got: Vec<String> = out.results[id].iter().map(node_to_string).collect();
            assert_eq!(&got, want, "run {run}, {id}: bytes differ");
        }
    }
    client.goodbye();
    cluster.shutdown(FLEET_TIMEOUT).expect("clean shutdown");
}

/// Two clients with overlapping queries: the fleet's sharing decisions
/// (reuse flags, plans, costs) match `register_query` in-process, and both
/// subscribers receive their own byte-exact results from one run.
#[test]
fn concurrent_clients_share_streams_like_in_process_registration() {
    let expect = oracle(&SUBS[..2]);
    assert!(
        expect.reused["q2"],
        "oracle sanity: q2 reuses q1's stream in-process"
    );
    let (cluster, _spec) = spawn_example_fleet(None);
    let mut alice =
        Client::connect(cluster.coordinator_addr(), "alice", FLEET_TIMEOUT).expect("connects");
    let mut bob =
        Client::connect(cluster.coordinator_addr(), "bob", FLEET_TIMEOUT).expect("connects");

    let r1 = alice
        .subscribe("q1", query_text("q1"), "P1", WireStrategy::StreamSharing)
        .expect("q1 subscribes");
    let r2 = bob
        .subscribe("q2", query_text("q2"), "P2", WireStrategy::StreamSharing)
        .expect("q2 subscribes");
    assert!(!r1.reused, "q1 arrives first, nothing to share");
    assert!(r2.reused, "q2 must reuse q1's stream, as in-process");
    for (id, reply) in [("q1", &r1), ("q2", &r2)] {
        assert_eq!(reply.plan, expect.plans[id], "{id}: plan diverged");
        assert_eq!(reply.cost, expect.costs[id], "{id}: cost diverged");
    }

    // A duplicate id is refused with a typed fault, not a crash.
    let dup = bob.subscribe("q1", query_text("q1"), "P1", WireStrategy::StreamSharing);
    assert!(
        matches!(
            dup,
            Err(data_stream_sharing::server::ServerError::Fault { .. })
        ),
        "duplicate subscription must fault"
    );

    // Alice requests the run; each client receives its own query's stream.
    alice.start_run().expect("run starts");
    let bob_results = bob.wait_eos(&["q2"], RUN_TIMEOUT).expect("bob's stream");
    let alice_results = alice
        .wait_eos(&["q1"], RUN_TIMEOUT)
        .expect("alice's stream");
    for (id, results) in [("q1", &alice_results), ("q2", &bob_results)] {
        let got: Vec<String> = results[id].iter().map(node_to_string).collect();
        assert_eq!(&got, &expect.results[id], "{id}: bytes differ");
    }

    alice.goodbye();
    bob.goodbye();
    cluster.shutdown(FLEET_TIMEOUT).expect("clean shutdown");
}

/// A `Subscribe` whose return clause nests 50 000 element constructors
/// (350 KB) is refused with a typed `Fault` — the parser's nesting cap,
/// not a stack overflow that takes the coordinator down — and the next
/// well-formed `Subscribe` is served.
#[test]
fn a_deeply_nested_subscribe_is_refused_and_the_coordinator_stays_up() {
    let (cluster, _spec) = spawn_example_fleet(None);
    let mut client =
        Client::connect(cluster.coordinator_addr(), "tester", FLEET_TIMEOUT).expect("connects");
    let levels = 50_000;
    let text = format!(
        "for $p in stream(\"photons\")/photons/photon return {}{{$p/en}}{}",
        "<a>".repeat(levels),
        "</a>".repeat(levels)
    );
    match client.subscribe("deep", &text, "P1", WireStrategy::StreamSharing) {
        Err(ServerError::Fault { context, message }) => {
            assert_eq!(context, "subscribe");
            assert!(message.contains("nested deeper"), "{message}");
        }
        other => panic!("expected a subscribe fault, got {other:?}"),
    }
    client
        .subscribe("q1", query_text("q1"), "P1", WireStrategy::StreamSharing)
        .expect("the next subscribe is served");
    client.goodbye();
    cluster.shutdown(FLEET_TIMEOUT).expect("clean shutdown");
}

/// A subscription whose where clause bounds `conjuncts` distinct paths.
fn wide_where_clause(conjuncts: usize) -> String {
    let atoms: Vec<String> = (0..conjuncts).map(|i| format!("$p/v{i} <= {i}")).collect();
    format!(
        "for $p in stream(\"photons\")/photons/photon where {} return <x>{{$p/en}}</x>",
        atoms.join(" and ")
    )
}

/// A where clause of 1 600 conjuncts on distinct paths (35 KB). Closing
/// and minimizing that predicate costs minutes on the coordinator's
/// control thread. Compile's size caps refuse it before any predicate
/// work: the `Subscribe` gets a typed `Fault` within a second, and the
/// next well-formed `Subscribe` is served.
#[test]
fn an_oversized_where_clause_is_refused_at_once_and_the_coordinator_stays_up() {
    let (cluster, _spec) = spawn_example_fleet(None);
    let mut client =
        Client::connect(cluster.coordinator_addr(), "tester", FLEET_TIMEOUT).expect("connects");
    let text = wide_where_clause(1_600);
    let started = Instant::now();
    match client.subscribe("wide", &text, "P1", WireStrategy::StreamSharing) {
        Err(ServerError::Fault { context, message }) => {
            assert_eq!(context, "subscribe");
            assert!(message.contains("too large"), "{message}");
        }
        other => panic!("expected a subscribe fault, got {other:?}"),
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "the fault took {took:?}");
    client
        .subscribe("q1", query_text("q1"), "P1", WireStrategy::StreamSharing)
        .expect("the next subscribe is served");
    client.goodbye();
    cluster.shutdown(FLEET_TIMEOUT).expect("clean shutdown");
}

/// A `Subscribe` whose where clause chains bounds the predicate closure
/// cannot sum inside the decimal range gets a typed `Fault` — composition
/// is checked, so the coordinator's control thread does not panic — and
/// the next well-formed `Subscribe` is served.
#[test]
fn a_where_clause_whose_bounds_overflow_is_refused_and_the_coordinator_stays_up() {
    let (cluster, _spec) = spawn_example_fleet(None);
    let mut client =
        Client::connect(cluster.coordinator_addr(), "tester", FLEET_TIMEOUT).expect("connects");
    let mut atoms: Vec<String> = (1..40)
        .map(|i| format!("$p/v{i} <= $p/v{} + 9999999999999999999", i + 1))
        .collect();
    atoms.push("$p/v40 <= 0.000000000000000001".into());
    let text = format!(
        "for $p in stream(\"photons\")/photons/photon where {} return <x>{{$p/en}}</x>",
        atoms.join(" and ")
    );
    match client.subscribe("overflow", &text, "P1", WireStrategy::StreamSharing) {
        Err(ServerError::Fault { context, message }) => {
            assert_eq!(context, "subscribe");
            assert!(message.contains("beyond the decimal range"), "{message}");
        }
        other => panic!("expected a subscribe fault, got {other:?}"),
    }
    client
        .subscribe("q1", query_text("q1"), "P1", WireStrategy::StreamSharing)
        .expect("the next subscribe is served");
    client.goodbye();
    cluster.shutdown(FLEET_TIMEOUT).expect("clean shutdown");
}

/// The tentpole crash-recovery gate for the networked mode: a durable
/// peer SIGKILLed *mid-run* — no drain, no flush — is respawned with the
/// same `--wal-dir`, replays its log, rebuilds its share of the plane,
/// asks upstream peers to resend their retained output, and the run
/// completes with exactly the oracle's bytes delivered exactly once.
///
/// The victim is SP1: it hosts q1's tap group and the delivery flow for
/// the example deployment, is not the coordinator, and hosts no sources —
/// so everything it re-derives after the crash must come over the wire
/// via `ResumeFrom`, exercising the whole recovery path.
#[test]
fn sigkilled_durable_peer_rejoins_and_the_run_stays_byte_exact() {
    let expect = oracle(&SUBS[..1]);
    let scratch = std::env::temp_dir().join(format!("dss-restart-test-{}", std::process::id()));
    let wal_dir = scratch.join("wal");
    let metrics_dir = scratch.join("metrics");
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&wal_dir).unwrap();
    std::fs::create_dir_all(&metrics_dir).unwrap();

    let mut spec = ServeSpec::new("example").unwrap();
    spec.port_base = pick_port_base(8);
    let mut cluster = LocalCluster::spawn_with(
        Path::new(env!("CARGO_BIN_EXE_dss")),
        &spec,
        &ClusterOptions {
            metrics_dir: Some(metrics_dir.clone()),
            wal_dir: Some(wal_dir.clone()),
            // Pace the sources so the run is still in flight across the
            // kill + respawn window (1 000 photons × 5 ms ≈ 5 s).
            source_delay_ms: Some(5),
        },
    )
    .expect("fleet spawns");
    let mut client =
        Client::connect(cluster.coordinator_addr(), "tester", FLEET_TIMEOUT).expect("connects");
    client
        .subscribe("q1", query_text("q1"), "P1", WireStrategy::StreamSharing)
        .expect("subscribes");
    client.start_run().expect("run starts");

    // Wait until results are demonstrably flowing, then crash the victim
    // hard and bring it back with the same WAL directory.
    let mut collected: Vec<String> = Vec::new();
    let mut eos_seen;
    match client.next_event(RUN_TIMEOUT).expect("first delivery") {
        ClientEvent::Deliver { items, eos, .. } => {
            collected.extend(items.iter().map(node_to_string));
            eos_seen = eos;
        }
        ClientEvent::RunDone { .. } => panic!("run finished before any delivery"),
    }
    assert!(!eos_seen, "paced run ended before the crash could happen");
    cluster.kill("SP1").expect("victim dies");
    std::thread::sleep(Duration::from_millis(250));
    cluster.respawn("SP1").expect("victim restarts");

    // The stream resumes and completes: every oracle item, in order,
    // exactly once, then end-of-stream, then RunDone.
    let mut delivered_total = None;
    while delivered_total.is_none() {
        match client.next_event(RUN_TIMEOUT).expect("stream continues") {
            ClientEvent::Deliver { items, eos, .. } => {
                collected.extend(items.iter().map(node_to_string));
                eos_seen |= eos;
            }
            ClientEvent::RunDone { delivered, .. } => delivered_total = Some(delivered),
        }
    }
    assert!(eos_seen, "end-of-stream never arrived after the restart");
    assert_eq!(
        collected, expect.results["q1"],
        "recovered run delivered different bytes than the simulator"
    );
    assert_eq!(
        delivered_total,
        Some(expect.results["q1"].len() as u64),
        "recovery re-delivered (or dropped) items instead of resuming exactly-once"
    );

    client.goodbye();
    cluster.shutdown(FLEET_TIMEOUT).expect("clean shutdown");

    // The *restarted* victim participated as a first-class peer to the
    // end: its final telemetry snapshot exists and validates against the
    // trace schema like everyone else's.
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/schemas/trace.schema.json"
    ))
    .expect("schema file");
    let schema = dss_telemetry::json::parse(&schema_text).expect("schema parses");
    let path = metrics_dir.join("metrics-SP1.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("restarted SP1 left no final snapshot {path:?}: {e}"));
    let doc = dss_telemetry::json::parse(&text)
        .unwrap_or_else(|e| panic!("snapshot {path:?} is not valid JSON: {e:?}"));
    let violations = dss_telemetry::schema::validate(&doc, &schema);
    assert!(
        violations.is_empty(),
        "restarted SP1's snapshot violates the schema: {violations:?}"
    );
    std::fs::remove_dir_all(&scratch).ok();
}

/// Clean shutdown during an active run loses nothing: the run drains
/// fully (every item + end-of-stream delivered, byte-exact) before the
/// fleet stops, and every process flushes a final metrics snapshot.
#[test]
fn shutdown_mid_run_drains_without_losing_deliveries() {
    let expect = oracle(&SUBS[..1]);
    let metrics_dir =
        std::env::temp_dir().join(format!("dss-shutdown-test-{}", std::process::id()));
    std::fs::create_dir_all(&metrics_dir).unwrap();
    let (cluster, _spec) = spawn_example_fleet(Some(&metrics_dir));
    let mut subscriber =
        Client::connect(cluster.coordinator_addr(), "subscriber", FLEET_TIMEOUT).expect("connects");
    let mut admin =
        Client::connect(cluster.coordinator_addr(), "admin", FLEET_TIMEOUT).expect("connects");

    subscriber
        .subscribe("q1", query_text("q1"), "P1", WireStrategy::StreamSharing)
        .expect("subscribes");
    subscriber.start_run().expect("run starts");

    // Wait until the run is demonstrably in flight (first delivery seen),
    // then ask for shutdown *while items are still streaming*.
    let first = subscriber.next_event(RUN_TIMEOUT).expect("first delivery");
    let mut collected: Vec<String> = Vec::new();
    let mut eos_seen = false;
    if let ClientEvent::Deliver { items, eos, .. } = first {
        collected.extend(items.iter().map(node_to_string));
        eos_seen = eos;
    }
    admin.shutdown_fleet(RUN_TIMEOUT).expect("shutdown acked");

    // Everything the oracle delivers still arrives, in order, then EOS.
    while !eos_seen {
        match subscriber
            .next_event(RUN_TIMEOUT)
            .expect("stream continues")
        {
            ClientEvent::Deliver { items, eos, .. } => {
                collected.extend(items.iter().map(node_to_string));
                eos_seen = eos;
            }
            ClientEvent::RunDone { .. } => break,
        }
    }
    assert_eq!(
        collected, expect.results["q1"],
        "shutdown dropped or reordered deliveries"
    );

    cluster.wait(FLEET_TIMEOUT).expect("children exit cleanly");
    // Every peer process flushed its final snapshot on the way down.
    for i in 0..8 {
        let path = metrics_dir.join(format!("metrics-SP{i}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing final snapshot {path:?}: {e}"));
        dss_telemetry::json::parse(&text)
            .unwrap_or_else(|e| panic!("snapshot {path:?} is not valid JSON: {e:?}"));
    }
    std::fs::remove_dir_all(&metrics_dir).ok();
}

/// SIGTERM takes the drain-and-flush path a wire `Shutdown` takes: the
/// handler only sets a latch, which `serve`'s main thread — otherwise
/// asleep until a shutdown path wakes it — looks at between timed waits.
#[cfg(unix)]
#[test]
fn sigterm_stops_a_peer_cleanly_and_flushes_its_metrics() {
    let metrics =
        std::env::temp_dir().join(format!("dss-sigterm-test-{}.json", std::process::id()));
    std::fs::remove_file(&metrics).ok();
    let mut spec = ServeSpec::new("example").unwrap();
    spec.port_base = pick_port_base(8);
    let map = NetMap::new(spec.build_globe().topology());
    let mut peer = std::process::Command::new(env!("CARGO_BIN_EXE_dss"))
        .args(["serve", "example", "--peer", "SP1", "--port-base"])
        .arg(spec.port_base.to_string())
        .arg("--metrics-out")
        .arg(&metrics)
        .stdin(std::process::Stdio::null())
        .spawn()
        .expect("peer spawns");
    // Listening, and idle in its wait, before the signal arrives.
    let mut probe = Client::connect(&map.addr(&spec, 1), "probe", FLEET_TIMEOUT).expect("dials");
    probe.metrics().expect("metrics pull");
    probe.goodbye();

    let sent = std::process::Command::new("kill")
        .args(["-TERM", &peer.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(sent.success());
    // A peer that ignores the signal must fail this test, not hang it.
    let deadline = Instant::now() + FLEET_TIMEOUT;
    let exit = loop {
        if let Some(exit) = peer.try_wait().expect("peer is waitable") {
            break exit;
        }
        if Instant::now() >= deadline {
            peer.kill().ok();
            panic!("peer still running {FLEET_TIMEOUT:?} after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        exit.success(),
        "SIGTERM must end in a clean exit, got {exit}"
    );
    let text = std::fs::read_to_string(&metrics).expect("final snapshot flushed");
    dss_telemetry::json::parse(&text).expect("snapshot parses as JSON");
    std::fs::remove_file(&metrics).ok();
}
