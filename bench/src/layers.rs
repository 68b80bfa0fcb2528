//! Per-layer unit costs, measured from outside by timing calls into each
//! crate's public functions on one corpus: `Scenario::scenario1(seed)`'s
//! items and queries and its in-process stream-sharing deployment (plus
//! scenario 2 where the metric says so). These numbers do not depend on
//! the workload; `budget.*` multiplies them with a fleet workload's own
//! operation counts.
//!
//! Every timed metric is the median over at least [`MIN_REPEATS`] batches
//! of calls; its IQR ÷ median is recorded as the metric's noise. Each batch
//! is one span of the tracer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dss_core::{subscribe_with, SearchOrder, Strategy, StreamGlobe};
use dss_engine::{AggregateOp, Emit, OpDag, ProjectOp, SelectOp, StreamOperator};
use dss_network::{FlowDag, FlowId, GroupKey, NodeId, SimConfig, SyncMailbox};
use dss_predicate::{match_predicates, Atom, CompOp, PredicateGraph};
use dss_properties::{
    match_input_properties, AggOp, AggregationSpec, Operator, ProjectionSpec, ResultFilter,
    WindowSpec,
};
use dss_proto::{write_message, Message};
use dss_rass::{GeneratorConfig, PhotonGenerator, Scenario};
use dss_server::Conn;
use dss_wxquery::compile_query;
use dss_xml::reader::StreamReader;
use dss_xml::writer::{node_to_string, stream_close, stream_open};
use dss_xml::{Decimal, Node, Path};

use crate::stats;
use crate::tracer::Tracer;

const MIN_REPEATS: usize = 5;
/// Wall time one timed metric may spend repeating its batch.
const METRIC_BUDGET: Duration = Duration::from_millis(120);

/// Metric values by name, with the relative spread of the timed ones.
#[derive(Debug, Clone, Default)]
pub struct Values {
    pub values: BTreeMap<String, f64>,
    /// IQR ÷ median of the samples behind a metric.
    pub noise: BTreeMap<String, f64>,
}

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records the median of `samples` (already in the metric's unit).
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        self.set(name, stats::median(samples));
        self.noise.insert(name.to_string(), stats::rel_iqr(samples));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn absorb(&mut self, other: Values) {
        self.values.extend(other.values);
        self.noise.extend(other.noise);
    }
}

/// Times `batch` (which performs `ops` operations) repeatedly; returns the
/// per-operation cost of each repeat in nanoseconds.
fn time_batches<R>(
    tracer: &mut Tracer,
    span: &str,
    ops: usize,
    mut batch: impl FnMut() -> R,
) -> Vec<f64> {
    let begun = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPEATS || begun.elapsed() < METRIC_BUDGET {
        let t0 = Instant::now();
        let r = tracer.span(span, |_| batch());
        samples.push(t0.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64);
        black_box(r);
    }
    tracer.count(span, (samples.len() * ops) as u64);
    samples
}

fn scale(samples: &[f64], by: f64) -> Vec<f64> {
    samples.iter().map(|x| x * by).collect()
}

fn path(s: &str) -> Path {
    s.parse().expect("literal path parses")
}

/// σ over the Vela region: four range atoms on two coordinates.
fn vela_selection() -> PredicateGraph {
    PredicateGraph::from_atoms(&[
        Atom::var_const(path("coord/cel/ra"), CompOp::Ge, Decimal::from_int(120)),
        Atom::var_const(path("coord/cel/ra"), CompOp::Le, Decimal::from_int(138)),
        Atom::var_const(path("coord/cel/dec"), CompOp::Ge, Decimal::from_int(-49)),
        Atom::var_const(path("coord/cel/dec"), CompOp::Le, Decimal::from_int(-40)),
    ])
}

/// Φ avg(en) over |det_time diff 20 step 10|.
fn avg_window() -> AggregationSpec {
    AggregationSpec {
        op: AggOp::Avg,
        element: path("en"),
        window: WindowSpec::diff(
            path("det_time"),
            Decimal::from_int(20),
            Some(Decimal::from_int(10)),
        )
        .expect("literal window is valid"),
        pre_selection: PredicateGraph::new(),
        result_filter: ResultFilter::none(),
    }
}

fn run_operator(op: &mut dyn StreamOperator, items: &[Node]) -> usize {
    let mut out = Emit::new();
    let mut n = 0;
    for item in items {
        op.process_into(item, &mut out);
        n += out.len();
        out.clear();
    }
    n
}

/// What [`run_all_groups`] pushed through a deployment's sharing groups.
#[derive(Debug, Default, Clone, Copy)]
pub struct GroupsRun {
    pub groups: usize,
    /// Items fed into the groups' DAGs.
    pub fed: usize,
    /// Outputs the DAGs emitted, flushes included.
    pub emitted: usize,
}

/// Builds every sharing group's `FlowDag` — one per `(processing node,
/// GroupKey)`, members in ascending flow id, exactly as `Plane::build` and
/// the batch simulator form them — and runs it over the group's real input:
/// a source stream's items, or the outputs of the tapped parent flow in the
/// reference run `flow_outputs`.
pub fn run_all_groups(globe: &StreamGlobe, flow_outputs: &[Vec<Node>]) -> GroupsRun {
    let deployment = globe.deployment();
    let mut groups: BTreeMap<(NodeId, GroupKey), Vec<FlowId>> = BTreeMap::new();
    for (id, f) in deployment.flows().iter().enumerate() {
        if !f.retired {
            let key = (f.processing_node, GroupKey::of(&f.input));
            groups.entry(key).or_default().push(id);
        }
    }
    let mut ran = GroupsRun::default();
    for ((_, key), members) in groups {
        let input: &[Node] = match &key {
            GroupKey::Source(stream) => globe.source_items(stream).unwrap_or(&[]),
            GroupKey::Tap(parent) => &flow_outputs[*parent],
        };
        let mut dag = FlowDag::new();
        for &id in &members {
            dag.register(id, &deployment.flow(id).ops);
        }
        for item in input {
            dag.process_into(item, &mut |_, _| ran.emitted += 1);
        }
        dag.flush_into(&mut |_, _| ran.emitted += 1);
        ran.groups += 1;
        ran.fed += input.len();
    }
    ran
}

/// A one-flow `StreamItemBatch` carrying `items`.
fn batch_message(items: Vec<Node>) -> Message {
    Message::StreamItemBatch {
        run: 1,
        flow: 7,
        hop: 1,
        offset: 0,
        eos: false,
        items,
    }
}

/// Measures every workload-independent layer metric.
pub fn measure(seed: u64, tracer: &mut Tracer) -> Values {
    let mut v = Values::default();
    let sc = Scenario::scenario1(seed);
    let items = &sc.streams[0].items;
    let n = items.len();

    // rass: the generator call `Scenario::scenario1` makes.
    let cfg = GeneratorConfig {
        seed,
        mean_time_increment: 0.2,
        ..GeneratorConfig::default()
    };
    let s = time_batches(tracer, "layer.rass.generate", n, || {
        PhotonGenerator::new(cfg.clone()).generate_items(n)
    });
    v.set_samples("rass.generate_ns_per_item", &s);

    xml(&mut v, tracer, items);
    planner(&mut v, tracer, &sc, seed);
    engine(&mut v, tracer, items);
    network(&mut v, tracer, &sc, seed);
    proto(&mut v, tracer, items);
    conn_send(&mut v, tracer, items);
    v
}

fn xml(v: &mut Values, tracer: &mut Tracer, items: &[Node]) {
    let n = items.len();
    let s = time_batches(tracer, "layer.xml.serialize", n, || {
        items.iter().map(|i| node_to_string(i).len()).sum::<usize>()
    });
    v.set_samples("xml.serialize_ns_per_item", &s);

    let mut doc = stream_open("photons");
    let body: usize = items
        .iter()
        .map(|i| {
            let text = node_to_string(i);
            doc.push_str(&text);
            text.len()
        })
        .sum();
    doc.push_str(&stream_close("photons"));
    v.set("xml.bytes_per_item", body as f64 / n as f64);

    let s = time_batches(tracer, "layer.xml.parse", n, || {
        let mut r = StreamReader::new();
        r.feed(doc.as_bytes());
        r.finish();
        let mut read = 0usize;
        while r
            .next_item()
            .expect("serialized stream re-parses")
            .is_some()
        {
            read += 1;
        }
        assert_eq!(read, n, "reader lost items");
    });
    v.set_samples("xml.parse_ns_per_item", &s);
}

/// wxquery, predicate, properties and core: the control plane.
fn planner(v: &mut Values, tracer: &mut Tracer, sc: &Scenario, seed: u64) {
    let texts: Vec<&str> = sc.queries.iter().map(|q| q.text.as_str()).collect();
    let s = time_batches(tracer, "layer.wxquery.compile", texts.len(), || {
        for t in &texts {
            black_box(compile_query(t).expect("template query compiles"));
        }
    });
    v.set_samples("wxquery.compile_us_per_query", &scale(&s, 1e-3));

    let compiled: Vec<_> = texts
        .iter()
        .map(|t| compile_query(t).expect("template query compiles"))
        .collect();
    let inputs: Vec<_> = compiled.iter().map(|c| &c.properties.inputs()[0]).collect();

    let selections: Vec<&PredicateGraph> = inputs.iter().filter_map(|p| p.selection()).collect();
    let pairs = selections.len() * selections.len();
    if pairs > 0 {
        let s = time_batches(tracer, "layer.predicate.implies", pairs, || {
            let mut yes = 0usize;
            for a in &selections {
                for b in &selections {
                    yes += usize::from(match_predicates(a, b));
                }
            }
            yes
        });
        v.set_samples("predicate.implies_ns_per_pair", &s);
    }

    let pairs = inputs.len() * inputs.len();
    let mut accepted = 0usize;
    let s = time_batches(tracer, "layer.properties.match", pairs, || {
        accepted = 0;
        for a in &inputs {
            for b in &inputs {
                accepted += usize::from(match_input_properties(a, b));
            }
        }
        accepted
    });
    v.set_samples("properties.match_us_per_pair", &scale(&s, 1e-3));
    v.set(
        "properties.match_accept_ratio",
        accepted as f64 / pairs as f64,
    );

    // core: scenario 2's 100 registrations on the 4×4 grid. The search
    // statistics come from a dry `subscribe_with` against the state each
    // registration is about to see.
    let s2 = Scenario::scenario2(seed);
    let compiled2: Vec<_> = s2
        .queries
        .iter()
        .map(|q| compile_query(&q.text).expect("template query compiles"))
        .collect();
    let regs = s2.queries.len();
    let (mut candidates, mut visited, mut reused) = (0usize, 0usize, 0usize);
    let mut register_us = Vec::new();
    for _ in 0..MIN_REPEATS {
        let mut sys = s2.build_system();
        (candidates, visited, reused) = (0, 0, 0);
        let mut spent = Duration::ZERO;
        tracer.span("layer.core.register", |_| {
            for (q, c) in s2.queries.iter().zip(&compiled2) {
                let at = sys.topology().expect_node(&q.peer);
                let (_, found) =
                    subscribe_with(sys.state(), c, at, at, SearchOrder::Bfs, false, false)
                        .expect("template query plans");
                candidates += found.candidates_matched;
                visited += found.nodes_visited;
                let t0 = Instant::now();
                let reg = sys
                    .register_query(q.id.clone(), &q.text, &q.peer, Strategy::StreamSharing)
                    .expect("template query registers");
                spent += t0.elapsed();
                reused += usize::from(reg.reused_derived_stream);
            }
        });
        register_us.push(spent.as_secs_f64() * 1e6 / regs as f64);
    }
    tracer.count("layer.core.register", (MIN_REPEATS * regs) as u64);
    let regs = regs as f64;
    v.set_samples("core.register_us_per_query_s2", &register_us);
    v.set("core.candidates_per_register", candidates as f64 / regs);
    v.set("core.nodes_visited_per_register", visited as f64 / regs);
    v.set("core.reuse_ratio", reused as f64 / regs);
}

fn engine(v: &mut Values, tracer: &mut Tracer, items: &[Node]) {
    let n = items.len();
    let s = time_batches(tracer, "layer.engine.select", n, || {
        run_operator(&mut SelectOp::new(vela_selection()), items)
    });
    v.set_samples("engine.select_ns_per_item", &s);

    let spec = ProjectionSpec::returning([path("coord/cel/ra"), path("coord/cel/dec"), path("en")]);
    let s = time_batches(tracer, "layer.engine.project", n, || {
        run_operator(&mut ProjectOp::new(spec.clone()), items)
    });
    v.set_samples("engine.project_ns_per_item", &s);

    let s = time_batches(tracer, "layer.engine.window_agg", n, || {
        run_operator(&mut AggregateOp::new(avg_window()), items)
    });
    v.set_samples("engine.window_agg_ns_per_item", &s);

    // N sinks registering the identical σ → Φ chain: fused they share one
    // path; with merging refused each runs its own.
    let chain = [
        Operator::Selection(vela_selection()),
        Operator::Aggregation(avg_window()),
    ];
    let dag = |sinks: usize, share: bool| {
        let mut dag: OpDag<usize> = OpDag::new();
        for sink in 0..sinks {
            let ops = chain
                .iter()
                .enumerate()
                .map(|(k, op)| (k, dss_engine::build_operator(op)))
                .collect();
            dag.register(sink, ops, |a, b| share && a == b);
        }
        dag
    };
    let feed = |dag: &mut OpDag<usize>| {
        let mut out = 0usize;
        for item in items {
            dag.process_into(item, &mut |_, _| out += 1);
        }
        dag.flush_into(&mut |_, _| out += 1);
        out
    };
    for sinks in [1usize, 4, 16] {
        let s = time_batches(tracer, "layer.engine.opdag", n, || {
            feed(&mut dag(sinks, true))
        });
        v.set_samples(&format!("engine.opdag_ns_per_item_f{sinks}"), &s);
    }
    let (mut fused, mut unfused) = (dag(16, true), dag(16, false));
    assert_eq!(
        feed(&mut fused),
        feed(&mut unfused),
        "fusing changed outputs"
    );
    v.set(
        "engine.opdag_work_ratio_f16",
        unfused.total_work() / fused.total_work(),
    );
}

fn network(v: &mut Values, tracer: &mut Tracer, sc: &Scenario, seed: u64) {
    let items = &sc.streams[0].items;
    let n = items.len();
    let shared = sc.run(Strategy::StreamSharing, false);

    // Every sharing group of the real scenario-1 deployment, fused as the
    // data plane fuses them and fed its real input.
    let outputs = shared.simulate(SimConfig::default()).flow_outputs;
    let ran = run_all_groups(&shared.system, &outputs);
    let s = time_batches(tracer, "layer.network.flowdag", ran.fed, || {
        run_all_groups(&shared.system, &outputs)
    });
    v.set_samples("network.flowdag_ns_per_item_s1", &s);
    v.set(
        "network.flowdag_outputs_per_item",
        ran.emitted as f64 / ran.fed as f64,
    );

    // A hand-off between two threads in the regime the fleet runs in: the
    // queue is backlogged (mean depth in the hundreds), so neither side
    // sleeps. One thread pushes the whole corpus, then another pops it;
    // the cost is both loops. Wake-ups of an idle consumer come on top and
    // land in `budget.unexplained_cpu_ms`.
    let mut samples = Vec::new();
    for _ in 0..MIN_REPEATS {
        let mailbox = SyncMailbox::new(1_000_000);
        let batch = items.to_vec();
        let spent = tracer.span("layer.network.mailbox", |_| {
            let t0 = Instant::now();
            for item in batch {
                mailbox.push(0, 0, item);
            }
            mailbox.close();
            let pushing = t0.elapsed();
            let popping = std::thread::scope(|scope| {
                let popper = scope.spawn(|| {
                    let t0 = Instant::now();
                    let mut popped = 0usize;
                    while let Some(entry) = mailbox.pop() {
                        black_box(entry);
                        popped += 1;
                    }
                    assert_eq!(popped, n, "mailbox lost items");
                    t0.elapsed()
                });
                popper.join().expect("popper panicked")
            });
            pushing + popping
        });
        samples.push(spent.as_secs_f64() * 1e9 / n as f64);
    }
    tracer.count("layer.network.mailbox", (MIN_REPEATS * n) as u64);
    v.set_samples("network.mailbox_handoff_ns", &samples);

    let s = time_batches(tracer, "layer.network.sim_run", 1, || {
        shared.simulate(SimConfig::default()).flow_outputs.len()
    });
    v.set_samples("network.sim_run_ms_s1_share", &scale(&s, 1e-6));

    // The paper's Figure-7 shape: scenario 2 under each strategy, once —
    // these are counts and repeat exactly.
    let s2 = Scenario::scenario2(seed);
    let mut edge = BTreeMap::new();
    for (tag, strategy) in [
        ("ds", Strategy::DataShipping),
        ("qs", Strategy::QueryShipping),
        ("ss", Strategy::StreamSharing),
    ] {
        let m = tracer.span("layer.network.sim_strategy", |_| {
            s2.run(strategy, false)
                .simulate(SimConfig::default())
                .metrics
        });
        let mb = m.total_edge_bytes() as f64 / 1e6;
        edge.insert(tag, mb);
        v.set(&format!("network.sim_edge_mbytes_{tag}"), mb);
        v.set(&format!("network.sim_work_units_{tag}"), m.total_work());
    }
    v.set("network.traffic_ratio_ds_over_ss", edge["ds"] / edge["ss"]);
}

fn proto(v: &mut Values, tracer: &mut Tracer, items: &[Node]) {
    let n = items.len();
    for (tag, per_frame) in [("b1", 1usize), ("b64", 64)] {
        let messages: Vec<Message> = items
            .chunks(per_frame)
            .map(|c| batch_message(c.to_vec()))
            .collect();
        let s = time_batches(tracer, "layer.proto.encode", n, || {
            messages.iter().map(|m| m.encode().len()).sum::<usize>()
        });
        v.set_samples(&format!("proto.encode_ns_per_item_{tag}"), &s);

        let payloads: Vec<Vec<u8>> = messages.iter().map(Message::encode).collect();
        let s = time_batches(tracer, "layer.proto.decode", n, || {
            for p in &payloads {
                black_box(Message::decode(p).expect("own encoding decodes"));
            }
        });
        v.set_samples(&format!("proto.decode_ns_per_item_{tag}"), &s);

        let mut wire = Vec::new();
        for m in &messages {
            write_message(&mut wire, m).expect("writing to memory cannot fail");
        }
        v.set(
            &format!("proto.frame_bytes_per_item_{tag}"),
            wire.len() as f64 / n as f64,
        );
    }
}

/// `Conn::send` of one-item frames over a loopback socket: encode, frame,
/// CRC and one flushed write per frame. Only the sender's loop is timed.
/// The other end is drained by a thread that reads a non-blocking socket
/// in gulps and naps in between, so a send neither wakes a reader blocked
/// on the socket nor contends with one spinning on it (either costs the
/// sender about 1 µs more, and less steadily). The reader's side of a
/// frame is `proto.decode` plus a read the budget does not itemize.
fn conn_send(v: &mut Values, tracer: &mut Tracer, items: &[Node]) {
    let messages: Vec<Message> = items
        .iter()
        .map(|i| batch_message(vec![i.clone()]))
        .collect();
    let mut samples = Vec::new();
    for _ in 0..MIN_REPEATS {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("loopback binds");
        let addr = listener.local_addr().expect("bound socket has an address");
        let sending = std::thread::scope(|scope| {
            let drain = scope.spawn(move || {
                let (mut stream, _) = listener.accept().expect("loopback accepts");
                stream
                    .set_nonblocking(true)
                    .expect("socket turns non-blocking");
                let mut buf = [0u8; 64 * 1024];
                let mut drained = 0usize;
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) => return drained,
                        Ok(n) => drained += n,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_micros(20));
                        }
                        Err(e) => panic!("draining the loopback socket failed: {e}"),
                    }
                }
            });
            let stream = TcpStream::connect(addr).expect("loopback connects");
            stream.set_nodelay(true).ok();
            let conn = Conn::new(stream, "drain".into()).expect("socket clones");
            let t0 = Instant::now();
            tracer.span("layer.server.conn_send", |_| {
                for m in &messages {
                    conn.send(m).expect("loopback send");
                }
            });
            let sending = t0.elapsed();
            conn.hangup();
            let wire: usize = messages.iter().map(|m| 8 + m.encode().len()).sum();
            assert_eq!(drain.join().expect("drain panicked"), wire, "bytes lost");
            sending
        });
        samples.push(sending.as_secs_f64() * 1e9 / messages.len() as f64);
    }
    tracer.count(
        "layer.server.conn_send",
        (MIN_REPEATS * messages.len()) as u64,
    );
    v.set_samples("server.conn_send_ns_per_frame", &samples);
}
