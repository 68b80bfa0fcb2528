//! `dss serve` without sockets: one `Control` machine and one `Plane` per
//! process of the Figure-2 fleet, all on this thread, over a seeded
//! in-memory network — the machine and the plane `dss serve` runs,
//! driven here the way the loopback suite (`tests/serve.rs`) cannot: at
//! every message boundary, in every order.
//!
//! The network is one FIFO link per directed pair of endpoints. It
//! carries frames as `dss serve` writes them: a control message encoded,
//! a batch as its `BatchHeader` and item list, which the receiver parses
//! into a `BatchView` and hands to its plane; the client decodes each
//! `Deliver`. Each step does one thing picked at random — delivers the
//! head of a link, runs one worker pass of a node whose mailbox holds
//! something, or hands a process one of its own inputs (`QueryDone`,
//! `TornDown`) — so messages reorder across connections but never within
//! one, and nothing ever blocks: mailboxes are unbounded here, and a pass
//! runs only on a mailbox that is not empty. Time is virtual: it moves a
//! little with every step, and a second at a time while nothing is in
//! flight — which is how a missing ack, or a run that cannot complete,
//! reaches its deadline.
//!
//! One client drives a script, one request at a time: Subscribe →
//! Subscribe → Unsubscribe → StartRun → Shutdown over a 10-photon stream
//! (two of the paper's four queries, picked by the seed), or — the data
//! sweep — Subscribe Q1 → Subscribe Q2 → StartRun → Shutdown over a stream
//! long enough that each query's results cross the wire in several
//! batches, or the shipping sweep: the same under data shipping with both
//! queries at P1, whose process then taps two copies of the stream that
//! arrive on one connection. Every process is durable. Each seed runs a
//! script fault-free, with a peer that never acks, with a forged batch,
//! with a peer restarted without its log, and with a non-coordinator
//! process killed after each message it handles — left dead, or restarted
//! at once from the records it logged. A dead process loses what was in flight to it; a restarted
//! one loses the batches in flight to it (they die in its sockets) and is
//! reached by the sender's redial for everything else (a control record
//! lost in a dead peer's socket buffer is not modelled: the control plane
//! has no catch-up for it).
//!
//! A run that completes must hand the client every query's results
//! exactly as `run_simulation` computes them — in order, each item once,
//! one end of stream — and `RunDone.delivered` must count them; a run
//! that cannot complete ends in a typed `Fault`, never a hang, and what
//! it delivered is a prefix of the same results.
//!
//! `DSS_PROPTEST_SEED=<seed>` replays one seed; a failing seed prints it.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use data_stream_sharing::core::StreamGlobe;
use data_stream_sharing::network::{example_topology, GroupKey, GroupTable, NodeId};
use data_stream_sharing::server::control::{
    Addr, Control, Input, Output, ACK_TIMEOUT, RUN_TIMEOUT,
};
use data_stream_sharing::server::data::{Egress, LastRead, Plane, Worker, BATCH_CAP};
use data_stream_sharing::server::{NetMap, ServeSpec};
use data_stream_sharing::xml::Node;
use dss_proto::{BatchDest, BatchHeader, BatchView, Message, WireStrategy};
use dss_rass::{GeneratorConfig, PhotonGenerator};
use dss_wal::WalRecord;
use dss_wxquery::queries;
use proptest::test_runner::{parse_seed, SEED_ENV};

const SEEDS: u64 = 200;
/// Seeds of the data sweep, which kills every non-coordinator at every
/// message of the run.
const DATA_SEEDS: u64 = 5;
/// The data sweep's stream: Q2, the smaller of its two results, crosses
/// the wire in three batches.
const DATA_PHOTONS: usize = 1_400;
/// Seeds of the shipping sweep, which kills every non-coordinator at every
/// message of the run.
const SHIP_SEEDS: u64 = 3;
/// The shipping sweep's stream: each raw copy crosses the wire in ten
/// batches.
const SHIP_PHOTONS: usize = 600;
const COORDINATOR: usize = 0;
const CLIENT: Addr = Addr::Client(1);
/// A connection that sends a batch no process hosts ([`Fault::Forge`]).
const FORGER: Addr = Addr::Client(2);
/// Virtual time a request may take at most: a run may time out, and every
/// step it waits on can time out once.
const REQUEST_BUDGET: Duration =
    Duration::from_secs(RUN_TIMEOUT.as_secs() + 4 * ACK_TIMEOUT.as_secs());

#[derive(Debug, Clone, Copy, PartialEq)]
enum Restart {
    /// Left dead.
    No,
    /// Restarted at once from its log.
    FromLog,
    /// Restarted at once with its log lost.
    WithoutLog,
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Only the random delivery order.
    Reorder,
    /// This peer never sends an ack.
    Mute(usize),
    /// At `RunGo`, a connection sends this peer batches for hops it does
    /// not host.
    Forge(usize),
    /// `victim` dies after handling `after` messages.
    Kill {
        victim: usize,
        after: usize,
        restart: Restart,
    },
}

/// What a script subscribes, and over how long a stream.
#[derive(Clone, Copy)]
enum Script {
    /// Two of the four paper queries, then one of them unsubscribed, over
    /// 10 photons: the replicas only have to agree with each other.
    Control,
    /// Q1 and Q2 over [`DATA_PHOTONS`] photons.
    Data,
    /// Q1 and Q2, both at P1, under data shipping over [`SHIP_PHOTONS`]
    /// photons.
    Shipping,
}

impl Script {
    /// The base system every process starts from: `dss serve example`'s
    /// topology and stream, as long as the script needs it. Each process
    /// gets a clone: computing the stream's statistics is one pass over
    /// the sample (≈ 0.4 µs per photon in a release build, ≈ 2.6 µs in a
    /// debug one), and eight of them per run, in every run of a sweep,
    /// would still add up.
    fn base(self) -> StreamGlobe {
        let n = match self {
            Script::Control => 10,
            Script::Data => DATA_PHOTONS,
            Script::Shipping => SHIP_PHOTONS,
        };
        let mut globe = StreamGlobe::new(example_topology());
        let cfg = GeneratorConfig {
            seed: 0xbeef,
            mean_time_increment: 0.5,
            ..GeneratorConfig::default()
        };
        let items = PhotonGenerator::new(cfg.clone()).generate_items(n);
        let registered = globe.register_stream("photons", "P0", items, cfg.frequency());
        registered.expect("photons registers");
        globe
    }
}

/// xorshift64: reproducible choices without another dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// What a plane sent and posted during one call: the frames go onto the
/// links, the inputs to its process.
#[derive(Default)]
struct Out {
    frames: RefCell<Vec<(Addr, Vec<u8>)>>,
    posted: RefCell<Vec<Input>>,
}

impl Egress for Out {
    fn send(&self, to: Addr, header: &BatchHeader<'_>, items: impl Fn(&mut Vec<u8>)) -> bool {
        let mut payload = Vec::new();
        header.encode_into(&mut payload);
        items(&mut payload);
        self.frames.borrow_mut().push((to, payload));
        true
    }

    fn post(&self, input: Input) {
        self.posted.borrow_mut().push(input);
    }
}

struct Process {
    control: Control,
    /// Its write-ahead log: every record it was told to log.
    log: Vec<WalRecord>,
    /// The current run's plane, and a worker per hosted node.
    plane: Option<(Plane, Vec<(NodeId, Worker)>)>,
    /// Inputs from its own threads (`QueryDone`, `TornDown`), in order.
    local: VecDeque<Input>,
    handled: usize,
    dead: bool,
    stopped: bool,
}

/// What the client was handed of one query's results.
#[derive(Debug, Default)]
struct Received {
    items: Vec<Node>,
    eos: bool,
}

struct Sim<'a> {
    spec: &'a ServeSpec,
    base: &'a StreamGlobe,
    map: NetMap,
    procs: Vec<Process>,
    links: BTreeMap<(Addr, Addr), VecDeque<Vec<u8>>>,
    /// Per link, what its receiver last read for a shared tap: one per
    /// connection, as `serve`'s reader threads keep it.
    reads: BTreeMap<(Addr, Addr), LastRead>,
    now: Duration,
    rng: Rng,
    fault: Fault,
    /// The control replies the client received, in order.
    replies: Vec<Message>,
    /// The results the client received, by query.
    results: BTreeMap<String, Received>,
    /// What the forging connection was answered.
    forged: Vec<Message>,
    /// Per `StartRun` broadcast: the processes it reached.
    reached: BTreeMap<u64, BTreeSet<usize>>,
    /// `(seq, process)` of every ack the coordinator handled.
    acked: BTreeSet<(u64, usize)>,
}

impl<'a> Sim<'a> {
    fn new(spec: &'a ServeSpec, base: &'a StreamGlobe, seed: u64, fault: Fault) -> Sim<'a> {
        let map = NetMap::new(base.topology());
        let procs = (0..map.process_count()).map(|i| Process {
            control: Control::new(spec, base.clone(), i, &[]).0,
            log: Vec::new(),
            plane: None,
            local: VecDeque::new(),
            handled: 0,
            dead: false,
            stopped: false,
        });
        Sim {
            spec,
            base,
            map,
            procs: procs.collect(),
            links: BTreeMap::new(),
            reads: BTreeMap::new(),
            now: Duration::ZERO,
            rng: Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            fault,
            replies: Vec::new(),
            results: BTreeMap::new(),
            forged: Vec::new(),
            reached: BTreeMap::new(),
            acked: BTreeSet::new(),
        }
    }

    fn live(&self, i: usize) -> bool {
        !self.procs[i].dead && !self.procs[i].stopped
    }

    fn send(&mut self, from: Addr, to: Addr, frame: Vec<u8>) {
        if let Addr::Process(j) = to {
            if self.procs[j].dead {
                return; // lost with the dead process
            }
        }
        self.links.entry((from, to)).or_default().push_back(frame);
    }

    /// Puts what process `i`'s plane sent on the links, and what it
    /// posted in its inbox.
    fn flush(&mut self, i: usize, out: Out) {
        for (to, frame) in out.frames.into_inner() {
            self.send(Addr::Process(i), to, frame);
        }
        self.procs[i].local.extend(out.posted.into_inner());
    }

    /// Hands `input` to process `i`'s machine and carries out what it
    /// asks for.
    fn handle(&mut self, i: usize, input: Input) {
        if let Input::Msg {
            from: Addr::Process(from),
            msg: Message::Ack { seq },
        } = input
        {
            if i == COORDINATOR {
                self.acked.insert((seq, from));
            }
        }
        let outputs = self.procs[i].control.handle(self.now, input);
        for output in outputs {
            self.execute(i, output);
        }
    }

    fn execute(&mut self, i: usize, output: Output) {
        let me = Addr::Process(i);
        match output {
            Output::Send { to, msg } => {
                if let Message::Ack { seq } = msg {
                    // (d) A sequenced record is logged before it is acked.
                    if seq != 0 {
                        let logged = self.procs[i].log.iter().any(|r| record_seq(r) == Some(seq));
                        assert!(logged, "process {i} acked seq {seq} before logging it");
                    }
                    if matches!(self.fault, Fault::Mute(m) if m == i) {
                        return;
                    }
                }
                self.send(me, to, msg.encode());
            }
            Output::Broadcast(msg) => {
                if let Some(seq) = message_seq(&msg) {
                    // (d) ... and logged before it is broadcast.
                    let logged = self.procs[i].log.iter().any(|r| record_seq(r) == Some(seq));
                    assert!(logged, "process {i} broadcast seq {seq} before logging it");
                }
                let others = (0..self.procs.len()).filter(|&j| j != i);
                let reached: BTreeSet<usize> = others.filter(|&j| !self.procs[j].dead).collect();
                match msg {
                    Message::StartRun { run } => {
                        self.reached.insert(run, reached.clone());
                    }
                    // (c) `RunGo` only after every reached process acked
                    // the run's `StartRun`.
                    Message::RunGo { run } => {
                        for &j in &self.reached[&run] {
                            assert!(
                                self.acked.contains(&(run, j)),
                                "RunGo {run} before process {j} acked its StartRun"
                            );
                        }
                        if let Fault::Forge(victim) = self.fault {
                            self.forge(victim, run);
                        }
                    }
                    _ => {}
                }
                for j in reached {
                    self.send(me, Addr::Process(j), msg.encode());
                }
            }
            Output::Log(record) => self.procs[i].log.push(record),
            Output::BuildPlane(run) => {
                self.drain(i);
                let control = &self.procs[i].control;
                let deliveries = control.deliveries();
                let plane = Plane::build(control.globe(), i, run, usize::MAX, true, deliveries);
                let workers = plane.nodes().map(|n| (n, plane.worker(n))).collect();
                self.procs[i].plane = Some((plane, workers));
            }
            Output::Rejoin(run) => {
                let requests: Vec<(usize, Message)> = match &self.procs[i].plane {
                    Some((plane, _)) if plane.run == run => plane.resume_requests().collect(),
                    _ => Vec::new(),
                };
                for (to, msg) in requests {
                    self.send(me, Addr::Process(to), msg.encode());
                }
            }
            Output::StartSources(run) => {
                if let Some((plane, _)) = self.procs[i].plane.as_ref().filter(|p| p.0.run == run) {
                    plane.replay(Duration::ZERO);
                }
            }
            Output::Teardown(run) => {
                if self.procs[i].plane.as_ref().is_some_and(|p| p.0.run == run) {
                    self.drain(i);
                }
                self.procs[i].local.push_back(Input::TornDown { run });
            }
            Output::Stop => {
                self.drain(i);
                self.procs[i].stopped = true;
            }
        }
    }

    /// Drains process `i`'s plane, as `serve` does: closes its mailboxes
    /// and runs each worker until its mailbox is empty.
    fn drain(&mut self, i: usize) {
        let Some((plane, mut workers)) = self.procs[i].plane.take() else {
            return;
        };
        plane.close();
        let out = Out::default();
        for (_, worker) in &mut workers {
            while plane.pass(worker, &out) {}
        }
        self.flush(i, out);
    }

    /// Sends `victim`, from the forging connection, a batch of `run` for a
    /// flow no process has and one for a hop another process hosts.
    fn forge(&mut self, victim: usize, run: u64) {
        let globe = self.procs[COORDINATOR].control.globe();
        let flows = globe.deployment().flows();
        let elsewhere = (flows.iter().enumerate())
            .flat_map(|(f, flow)| flow.route.iter().enumerate().map(move |(h, &n)| (f, h, n)))
            .find(|&(_, _, node)| self.map.owner_of(node) != victim)
            .map(|(f, h, _)| (f as u64, h as u32))
            .expect("a hop another process hosts");
        for (flow, hop) in [(flows.len() as u64 + 7, 0), elsewhere] {
            let header = BatchHeader {
                run,
                dest: BatchDest::Hop { flow, hop },
                offset: 0,
                eos: false,
            };
            let mut frame = Vec::new();
            header.encode_into(&mut frame);
            let photons = self.base.source_items("photons").expect("the stream");
            dss_proto::wire::put_items(&mut frame, &photons[..1]);
            // Handed over at once: the victim holds the run's plane now.
            self.receive(FORGER, victim, frame);
        }
    }

    /// Kills `victim`; a restart keeps the control messages in flight to
    /// it (the senders redial) and loses the batches.
    fn kill(&mut self, victim: usize, restart: Restart) {
        let p = &mut self.procs[victim];
        p.local.clear(); // its threads die with it
        p.plane = None;
        let to = Addr::Process(victim);
        self.reads.retain(|&(_, dest), _| dest != to); // its readers die too
        if restart == Restart::No {
            p.dead = true;
            self.links.retain(|&(_, dest), _| dest != to);
            return;
        }
        if restart == Restart::WithoutLog {
            p.log.clear();
        }
        let (control, rejoin) = Control::new(self.spec, self.base.clone(), victim, &p.log);
        p.control = control;
        for (_, frames) in self.links.iter_mut().filter(|((_, dest), _)| *dest == to) {
            frames.retain(|frame| !BatchView::is_batch(frame));
        }
        for output in rejoin {
            self.execute(victim, output);
        }
    }

    /// Hands process `j` a frame off the link from `from`: a batch to its
    /// plane, a `ResumeFrom` to its plane's resend, anything else to its
    /// machine.
    fn receive(&mut self, from: Addr, j: usize, frame: Vec<u8>) {
        let out = Out::default();
        let plane = self.procs[j].plane.as_ref().map(|(plane, _)| plane);
        if BatchView::is_batch(&frame) {
            let view = BatchView::parse(&frame).expect("a plane frames what it sends");
            let read = self.reads.entry((from, Addr::Process(j))).or_default();
            if let Some(Err(refused)) = plane.map(|p| p.receive(view, read, &out)) {
                // As `serve`: the sender is faulted and its connection
                // hung up.
                let context = "stream item batch".into();
                let message = refused.to_string();
                self.send(
                    Addr::Process(j),
                    from,
                    Message::Fault { context, message }.encode(),
                );
                self.links.remove(&(from, Addr::Process(j)));
                self.reads.remove(&(from, Addr::Process(j)));
            }
        } else {
            match Message::decode(&frame).expect("a control frame decodes") {
                Message::ResumeFrom {
                    run,
                    flow,
                    hop,
                    offset,
                } => {
                    if let Some(p) = plane {
                        p.resend(run, flow, hop, offset, &out);
                    }
                }
                msg => self.handle(j, Input::Msg { from, msg }),
            }
        }
        self.flush(j, out);
    }

    /// A frame for a client: a `Deliver` of a query's results, or a reply.
    fn client(&mut self, to: Addr, frame: Vec<u8>) {
        let msg = Message::decode(&frame).expect("a client frame decodes");
        match (to, msg) {
            (FORGER, msg) => self.forged.push(msg),
            (
                _,
                Message::Deliver {
                    query,
                    offset,
                    eos,
                    items,
                    ..
                },
            ) => {
                let got = self.results.entry(query.clone()).or_default();
                // Exactly once and in order: each batch starts where the
                // last one ended, and nothing follows the end of stream.
                assert!(!got.eos, "{query}: a delivery after its end of stream");
                assert_eq!(offset, got.items.len() as u64, "{query}: delivery offset");
                got.items.extend(items);
                got.eos = eos;
            }
            (_, msg) => self.replies.push(msg),
        }
    }

    /// Does one step, picked at random: delivers a frame, runs a worker
    /// pass, or hands a process one of its own inputs. False when
    /// nothing is in flight.
    fn step(&mut self) -> bool {
        let links = self.links.iter().filter(|(_, q)| !q.is_empty());
        let links: Vec<(Addr, Addr)> = links.map(|(&k, _)| k).collect();
        let locals: Vec<usize> = (0..self.procs.len())
            .filter(|&i| self.live(i) && !self.procs[i].local.is_empty())
            .collect();
        let mut passes = Vec::new();
        for (i, p) in self.procs.iter().enumerate().filter(|&(i, _)| self.live(i)) {
            if let Some((plane, workers)) = &p.plane {
                let ready = workers
                    .iter()
                    .enumerate()
                    .filter(|(_, (n, _))| plane.queued(*n) > 0);
                passes.extend(ready.map(|(k, _)| (i, k)));
            }
        }
        let steps = links.len() + locals.len() + passes.len();
        if steps == 0 {
            return false;
        }
        self.now += Duration::from_micros(self.rng.below(2000) as u64);
        let pick = self.rng.below(steps);
        if pick >= links.len() + locals.len() {
            let (i, k) = passes[pick - links.len() - locals.len()];
            let out = Out::default();
            let (plane, workers) = self.procs[i].plane.as_mut().expect("a ready plane");
            plane.pass(&mut workers[k].1, &out);
            self.flush(i, out);
            return true;
        }
        if pick >= links.len() {
            let i = locals[pick - links.len()];
            let input = self.procs[i].local.pop_front().expect("a local input");
            self.handle(i, input);
            return true;
        }
        let (from, to) = links[pick];
        let frame = self
            .links
            .get_mut(&(from, to))
            .unwrap()
            .pop_front()
            .unwrap();
        match to {
            Addr::Client(_) => self.client(to, frame),
            Addr::Process(j) if !self.live(j) => {} // a stopped process reads nothing
            Addr::Process(j) => {
                self.receive(from, j, frame);
                self.procs[j].handled += 1;
                if let Fault::Kill {
                    victim,
                    after,
                    restart,
                } = self.fault
                {
                    if j == victim && self.procs[j].handled == after {
                        self.kill(victim, restart);
                    }
                }
            }
        }
        true
    }

    /// Sends `request` and runs the fleet until the client has its reply.
    fn request(&mut self, request: Message) -> Message {
        let asked = self.replies.len();
        self.send(CLIENT, Addr::Process(COORDINATOR), request.encode());
        let deadline = self.now + REQUEST_BUDGET;
        while self.replies.len() == asked {
            if !self.step() {
                // Nothing in flight: let a second pass.
                self.now += Duration::from_secs(1);
                for i in 0..self.procs.len() {
                    if self.live(i) {
                        self.handle(i, Input::Tick { signal: false });
                    }
                }
            }
            // (b) No request hangs.
            assert!(
                self.now <= deadline,
                "no reply to {request:?} by {deadline:?}"
            );
        }
        // (b) ... and none gets two replies.
        assert_eq!(self.replies.len(), asked + 1, "replies to {request:?}");
        self.replies[asked].clone()
    }

    /// Delivers everything still in flight.
    fn drain_network(&mut self) {
        while self.step() {}
    }

    /// How many frames each process has handled so far.
    fn handled(&self) -> Vec<usize> {
        self.procs.iter().map(|p| p.handled).collect()
    }
}

fn record_seq(record: &WalRecord) -> Option<u64> {
    match record {
        WalRecord::Deploy { seq, .. } | WalRecord::Undeploy { seq, .. } => Some(*seq),
        WalRecord::RunStart { run } => Some(*run),
        _ => None,
    }
}

fn message_seq(msg: &Message) -> Option<u64> {
    match msg {
        Message::Deploy { seq, .. } | Message::Undeploy { seq, .. } => Some(*seq),
        Message::StartRun { run } => Some(*run),
        _ => None,
    }
}

/// What a replica deployed: every registered query with its delivery
/// flow, and every flow's placement.
fn deployment(globe: &StreamGlobe) -> String {
    let queries: Vec<_> = globe.registered_queries().collect();
    let flows = globe.deployment().flows().iter();
    let flows: Vec<_> = flows
        .map(|f| (&f.input, f.processing_node, &f.ops, &f.route, f.retired))
        .collect();
    format!("{queries:?} {flows:?}")
}

/// Each registered query's results as `run_simulation` computes them,
/// remembered per deployment.
type References = BTreeMap<String, BTreeMap<String, Vec<Node>>>;

fn reference<'r>(
    cache: &'r mut References,
    globe: &StreamGlobe,
) -> &'r BTreeMap<String, Vec<Node>> {
    cache.entry(deployment(globe)).or_insert_with(|| {
        let outputs = globe.run_simulation(Default::default()).flow_outputs;
        let queries = globe.registered_queries();
        queries
            .map(|(q, f)| (q.to_string(), outputs[f].clone()))
            .collect()
    })
}

/// How many frames each process handled before the run began, by the
/// time the requester had the run's outcome, and in all.
struct Handled {
    before_run: Vec<usize>,
    by_run_end: Vec<usize>,
    total: Vec<usize>,
}

/// One run of `script` under `fault`.
fn run_script(
    spec: &ServeSpec,
    script: Script,
    base: &StreamGlobe,
    references: &mut References,
    seed: u64,
    fault: Fault,
) -> Handled {
    let mut sim = Sim::new(spec, base, seed, fault);
    if let Fault::Kill {
        victim,
        after: 0,
        restart,
    } = fault
    {
        sim.kill(victim, restart);
    }
    let mut subs = [("q1", "P1"), ("q2", "P2"), ("q3", "P3"), ("q4", "P4")];
    let mut strategy = WireStrategy::StreamSharing;
    match script {
        Script::Control => {
            for k in (1..subs.len()).rev() {
                subs.swap(k, sim.rng.below(k + 1));
            }
        }
        Script::Data => {}
        Script::Shipping => {
            subs[1].1 = "P1";
            strategy = WireStrategy::DataShipping;
        }
    }
    for &(id, peer) in &subs[..2] {
        let text = match id {
            "q1" => queries::Q1,
            "q2" => queries::Q2,
            "q3" => queries::Q3,
            _ => queries::Q4,
        };
        let reply = sim.request(Message::Subscribe {
            id: id.into(),
            at_peer: peer.into(),
            strategy,
            text: text.into(),
        });
        assert!(
            matches!(&reply, Message::SubscribeOk { id: got, .. } if got == id),
            "{reply:?}"
        );
    }
    if let Script::Shipping = script {
        // P1's process taps a raw copy per query: two taps, one copy class.
        let globe = sim.procs[COORDINATOR].control.globe();
        let p1 = sim.map.owner_of(globe.topology().expect_node("P1"));
        let hosted = GroupTable::build(globe.deployment(), |n| sim.map.owner_of(n) == p1);
        let classes: Vec<GroupKey> = (hosted.groups().iter())
            .filter(|group| matches!(group.key, GroupKey::Tap(_)))
            .map(|group| hosted.copy_class(&group.key))
            .collect();
        assert_eq!(classes, vec![GroupKey::Source("photons".into()); 2]);
    }
    if let Script::Control = script {
        let id = subs[sim.rng.below(2)].0.to_string();
        let reply = sim.request(Message::Unsubscribe { id: id.clone() });
        assert_eq!(reply, Message::UnsubscribeOk { id });
    }
    let before_run = sim.handled();
    let reply = sim.request(Message::StartRun { run: 0 });
    let by_run_end = sim.handled();
    let want = reference(references, sim.procs[COORDINATOR].control.globe());
    for (query, got) in &sim.results {
        // Whatever the client got is what the simulator computes.
        let want = &want[query];
        assert_eq!(
            got.items[..],
            want[..got.items.len()],
            "{query} under {fault:?}"
        );
    }
    let restarted = |restart| matches!(fault, Fault::Kill { restart: r, .. } if r == restart);
    match &reply {
        Message::RunDone { delivered, .. }
            if !matches!(fault, Fault::Mute(_)) && !restarted(Restart::WithoutLog) =>
        {
            for (query, want) in want {
                let got = sim.results.get(query);
                let got = got.unwrap_or_else(|| panic!("{query}: nothing delivered"));
                assert_eq!(got.items.len(), want.len(), "{query} under {fault:?}");
                assert!(got.eos, "{query}: no end of stream");
            }
            assert_eq!(
                sim.results.len(),
                want.len(),
                "deliveries of queries not run"
            );
            let total: usize = want.values().map(Vec::len).sum();
            assert_eq!(*delivered, total as u64, "RunDone counts every result once");
        }
        // (c) A run whose `StartRun` is never fully acked is aborted, and
        // so is one that lost its path for good.
        Message::Fault { context, .. }
            if matches!(fault, Fault::Mute(_))
                || restarted(Restart::No)
                || restarted(Restart::WithoutLog) =>
        {
            assert_eq!(context, "run")
        }
        _ => panic!("StartRun answered {reply:?} under {fault:?}"),
    }
    let reply = sim.request(Message::Shutdown);
    assert_eq!(reply, Message::Ack { seq: 0 });
    sim.drain_network();
    // (b) One reply per request: none came late.
    let requests = match script {
        Script::Control => 5,
        Script::Data | Script::Shipping => 4,
    };
    assert_eq!(sim.replies.len(), requests, "{:?}", sim.replies);
    if let Fault::Forge(_) = fault {
        let refused = sim.forged.iter().filter(
            |msg| matches!(msg, Message::Fault { context, .. } if context == "stream item batch"),
        );
        assert_eq!(refused.count(), 2, "{:?}", sim.forged);
    }

    let coordinator = deployment(sim.procs[COORDINATOR].control.globe());
    for (i, p) in sim.procs.iter().enumerate().filter(|(_, p)| !p.dead) {
        // (a), (e) Every live replica — a restarted one too — deploys
        // what the coordinator deployed; one that lost its log does not,
        // and must not pretend to.
        if !(restarted(Restart::WithoutLog)
            && matches!(fault, Fault::Kill { victim, .. } if victim == i))
        {
            assert_eq!(deployment(p.control.globe()), coordinator, "process {i}");
        }
        // (f) Shutdown stops every live process.
        assert!(p.stopped, "process {i} still running after the shutdown");
    }
    Handled {
        before_run,
        by_run_end,
        total: sim.handled(),
    }
}

/// Runs `faults(handled)` of `script` for every seed — or for
/// `DSS_PROPTEST_SEED` only — where `handled` is what the fault-free run
/// of the seed handled, and names the seed that fails.
fn sweep(script: Script, seeds: u64, faults: impl Fn(&Handled, u64) -> Vec<Fault>) {
    let spec = ServeSpec::new("example").unwrap();
    let base = script.base();
    let mut references = References::new();
    let seeds: Vec<u64> = match std::env::var(SEED_ENV) {
        Ok(s) => vec![parse_seed(&s).unwrap_or_else(|| panic!("bad {SEED_ENV} {s:?}"))],
        Err(_) => (0..seeds).collect(),
    };
    for seed in seeds {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut run = |fault| run_script(&spec, script, &base, &mut references, seed, fault);
            let handled = run(Fault::Reorder);
            for fault in faults(&handled, seed) {
                run(fault);
            }
        }));
        if let Err(panic) = run {
            eprintln!("fleet_sim: seed {seed} failed; replay with {SEED_ENV}={seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A non-coordinator process, picked by `seed` and `salt`.
fn pick(seed: u64, salt: u64) -> usize {
    let n = NetMap::new(&example_topology()).process_count();
    1 + Rng(seed ^ salt).below(n - 1)
}

/// A non-coordinator process, picked by the seed, killed after each
/// message it handles but the `Shutdown` it stops at (a restart after
/// that would outlive the fleet).
fn kills(handled: &Handled, seed: u64, restart: Restart) -> Vec<Fault> {
    let victim = pick(seed, 0xD1B5_4A32_D192_ED03);
    let kill = |after| Fault::Kill {
        victim,
        after,
        restart,
    };
    (0..handled.total[victim]).map(kill).collect()
}

#[test]
fn any_delivery_order_and_a_peer_that_never_acks_end_in_a_clean_stop() {
    sweep(Script::Control, SEEDS, |_, seed| {
        vec![Fault::Mute(pick(seed, 0x94D0_49BB_1331_11EB))]
    });
}

/// Batches for hops their receiver does not host are refused — the
/// connection they came on is faulted and hung up — and the run goes on
/// to deliver every result exactly.
#[test]
fn a_batch_for_a_hop_its_receiver_does_not_host_is_refused_and_the_run_completes() {
    sweep(Script::Control, SEEDS, |_, seed| {
        vec![Fault::Forge(pick(seed, 0x2545_F491_4F6C_DD1D))]
    });
}

#[test]
fn a_peer_killed_at_any_message_boundary_leaves_the_fleet_consistent() {
    sweep(Script::Control, SEEDS, |handled, seed| {
        kills(handled, seed, Restart::No)
    });
}

#[test]
fn a_peer_restarted_from_its_log_at_any_message_boundary_rejoins_the_replica() {
    sweep(Script::Control, SEEDS, |handled, seed| {
        kills(handled, seed, Restart::FromLog)
    });
}

/// A peer that comes back without its log has missed the records it had
/// applied: it applies nothing past the gap and acks none of it, so the
/// run ends in the usual `Fault` instead of in a plane built on a
/// replica the fleet does not share.
#[test]
fn a_peer_restarted_without_its_log_faults_the_run_instead_of_diverging() {
    sweep(Script::Control, SEEDS, |_, seed| {
        let victim = pick(seed, 0xBF58_476D_1CE4_E5B9);
        // Its first message is the first `Deploy`.
        let restart = Restart::WithoutLog;
        vec![Fault::Kill {
            victim,
            after: 1,
            restart,
        }]
    });
}

/// Every non-coordinator, killed after each frame it handles during the
/// run, and restarted from its log.
fn run_kills(handled: &Handled) -> Vec<Fault> {
    let n = handled.before_run.len();
    let kills = (1..n).flat_map(|victim| {
        let during = handled.before_run[victim] + 1..=handled.by_run_end[victim];
        during.map(move |after| Fault::Kill {
            victim,
            after,
            restart: Restart::FromLog,
        })
    });
    kills.collect()
}

/// Every non-coordinator, killed after each frame it handles during a run
/// over a stream long enough that every query's results cross the wire
/// in several batches, and restarted from its log: the run resumes and
/// delivers every result exactly once, byte for byte.
#[test]
fn a_durable_peer_killed_at_any_message_of_a_run_rejoins_and_the_results_stay_exact() {
    sweep(Script::Data, DATA_SEEDS, |handled, _| run_kills(handled));
}

/// Under data shipping, P1's process taps two copies of the stream, which
/// it reads through one connection's `LastRead`. Every non-coordinator,
/// killed after each frame it handles during the run and restarted from
/// its log, leaves the results exact: a restarted reader starts with no
/// last read, and a resend's batches are read again from their bytes.
#[test]
fn two_copies_tapped_at_one_process_stay_exact_when_a_peer_is_killed_at_any_message_of_a_run() {
    sweep(Script::Shipping, SHIP_SEEDS, |handled, _| {
        run_kills(handled)
    });
}

/// The data sweep's stream is long enough for what it claims: each
/// query's results cross the wire in at least three batches.
#[test]
fn the_data_sweep_sends_each_result_in_several_batches() {
    let spec = ServeSpec::new("example").unwrap();
    let mut references = References::new();
    run_script(
        &spec,
        Script::Data,
        &Script::Data.base(),
        &mut references,
        1,
        Fault::Reorder,
    );
    let results = references.into_values().next().expect("one deployment ran");
    assert_eq!(results.len(), 2);
    for (query, items) in results {
        assert!(
            items.len() > 2 * BATCH_CAP,
            "{query}: {} results",
            items.len()
        );
    }
}
