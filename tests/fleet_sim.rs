//! `dss serve`'s control plane without sockets: one `Control` machine per
//! process of the Figure-2 fleet, all on this thread, over a seeded
//! in-memory network — the same machine `dss serve` runs, driven here
//! the way the loopback suite (`tests/serve.rs`) cannot: at every message
//! boundary, in every order.
//!
//! The network is one FIFO link per directed pair of endpoints, and each
//! step delivers the head of a link picked at random, so messages reorder
//! across connections but never within one. Time is virtual: it moves a
//! little with every delivery, and a second at a time while nothing is in
//! flight — which is how a missing ack reaches its deadline. The data
//! plane is stubbed: `BuildPlane` is done at once, the coordinator's
//! `StartSources` posts each registered query's `QueryDone`, and a
//! `Teardown` posts its `TornDown`; both reach the machine as a further
//! input, interleaved at random with the network's.
//!
//! One client drives a Subscribe → Subscribe → Unsubscribe → StartRun →
//! Shutdown script, one request at a time. Each seed runs it fault-free,
//! with one peer that never acks, and with a non-coordinator process
//! killed after each message it handles — left dead, or restarted at once
//! from the records it logged. A dead process loses what was in flight
//! to it; a restarted one is reached by the sender's redial, so nothing
//! in flight is lost (a record lost in a dead peer's socket buffer is not
//! modelled: the control plane has no catch-up for it).
//!
//! Every machine starts from the Figure-2 topology with a 10-photon
//! stream rather than `dss serve`'s 1 000: the replicas only have to agree
//! with each other, and generating the full stream eight times per run
//! would cost this sweep most of its time.
//!
//! `DSS_PROPTEST_SEED=<seed>` replays one seed; a failing seed prints it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use data_stream_sharing::core::StreamGlobe;
use data_stream_sharing::network::example_topology;
use data_stream_sharing::server::control::{Addr, Control, Input, Output, ACK_TIMEOUT};
use data_stream_sharing::server::{NetMap, ServeSpec};
use dss_proto::{Message, WireStrategy};
use dss_rass::{GeneratorConfig, PhotonGenerator};
use dss_wal::WalRecord;
use dss_wxquery::queries;
use proptest::test_runner::{parse_seed, SEED_ENV};

const SEEDS: u64 = 200;
const COORDINATOR: usize = 0;
const CLIENT: Addr = Addr::Client(1);
/// Virtual time a request may take at most: every step it waits on can
/// time out once, and a run's teardown is immediate here.
const REQUEST_BUDGET: Duration = Duration::from_secs(4 * ACK_TIMEOUT.as_secs());

#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Only the random delivery order.
    Reorder,
    /// This peer never sends an ack.
    Mute(usize),
    /// `victim` dies after handling `after` messages; restarted at once
    /// from its logged records, or left dead.
    Kill {
        victim: usize,
        after: usize,
        restart: bool,
    },
}

/// The base system every process starts from: `dss serve example`'s
/// topology and stream, 10 photons long.
fn base() -> StreamGlobe {
    let mut globe = StreamGlobe::new(example_topology());
    let cfg = GeneratorConfig {
        seed: 0xbeef,
        mean_time_increment: 0.5,
        ..GeneratorConfig::default()
    };
    let items = PhotonGenerator::new(cfg.clone()).generate_items(10);
    let registered = globe.register_stream("photons", "P0", items, cfg.frequency());
    registered.expect("photons registers");
    globe
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

struct Process {
    control: Control,
    /// Its write-ahead log: every record it was told to log.
    log: Vec<WalRecord>,
    /// Inputs from its own threads (`QueryDone`, `TornDown`), in order.
    local: VecDeque<Input>,
    handled: usize,
    dead: bool,
    stopped: bool,
}

struct Sim<'a> {
    spec: &'a ServeSpec,
    procs: Vec<Process>,
    links: BTreeMap<(Addr, Addr), VecDeque<Message>>,
    now: Duration,
    rng: Rng,
    fault: Fault,
    /// What the client received, in order.
    replies: Vec<Message>,
    /// Per `StartRun` broadcast: the processes it reached.
    reached: BTreeMap<u64, BTreeSet<usize>>,
    /// `(seq, process)` of every ack the coordinator handled.
    acked: BTreeSet<(u64, usize)>,
}

impl<'a> Sim<'a> {
    fn new(spec: &'a ServeSpec, n: usize, seed: u64, fault: Fault) -> Sim<'a> {
        let procs = (0..n).map(|i| Process {
            control: Control::new(spec, base(), i, &[]),
            log: Vec::new(),
            local: VecDeque::new(),
            handled: 0,
            dead: false,
            stopped: false,
        });
        Sim {
            spec,
            procs: procs.collect(),
            links: BTreeMap::new(),
            now: Duration::ZERO,
            rng: Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            fault,
            replies: Vec::new(),
            reached: BTreeMap::new(),
            acked: BTreeSet::new(),
        }
    }

    fn live(&self, i: usize) -> bool {
        !self.procs[i].dead && !self.procs[i].stopped
    }

    fn send(&mut self, from: Addr, to: Addr, msg: Message) {
        if let Addr::Process(j) = to {
            if self.procs[j].dead {
                return; // lost with the dead process
            }
        }
        self.links.entry((from, to)).or_default().push_back(msg);
    }

    /// Hands `input` to process `i` and carries out what it asks for.
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
                self.send(me, to, msg);
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
                    }
                    _ => {}
                }
                for j in reached {
                    self.send(me, Addr::Process(j), msg.clone());
                }
            }
            Output::Log(record) => self.procs[i].log.push(record),
            Output::BuildPlane(_) => {}
            Output::StartSources(run) if i == COORDINATOR => {
                let globe = self.procs[i].control.globe();
                let done = globe.registered_queries().enumerate().map(|(k, (q, _))| {
                    let (query, delivered) = (q.to_string(), k as u64 + 1);
                    Input::QueryDone {
                        run,
                        query,
                        delivered,
                    }
                });
                let done: Vec<Input> = done.collect();
                self.procs[i].local.extend(done);
            }
            Output::StartSources(_) => {}
            Output::Teardown(run) => self.procs[i].local.push_back(Input::TornDown { run }),
            Output::Stop => self.procs[i].stopped = true,
        }
    }

    fn kill(&mut self, victim: usize, restart: bool) {
        let p = &mut self.procs[victim];
        p.local.clear(); // its threads die with it
        if restart {
            p.control = Control::new(self.spec, base(), victim, &p.log);
        } else {
            p.dead = true;
            let to = Addr::Process(victim);
            self.links.retain(|&(_, dest), _| dest != to);
        }
    }

    /// Delivers one message or local input, picked at random. False when
    /// nothing is in flight.
    fn step(&mut self) -> bool {
        let links = self.links.iter().filter(|(_, q)| !q.is_empty());
        let links: Vec<(Addr, Addr)> = links.map(|(&k, _)| k).collect();
        let locals: Vec<usize> = (0..self.procs.len())
            .filter(|&i| self.live(i) && !self.procs[i].local.is_empty())
            .collect();
        if links.is_empty() && locals.is_empty() {
            return false;
        }
        self.now += Duration::from_micros(self.rng.below(2000) as u64);
        let pick = self.rng.below(links.len() + locals.len());
        if pick >= links.len() {
            let i = locals[pick - links.len()];
            let input = self.procs[i].local.pop_front().expect("a local input");
            self.handle(i, input);
            return true;
        }
        let (from, to) = links[pick];
        let msg = self
            .links
            .get_mut(&(from, to))
            .unwrap()
            .pop_front()
            .unwrap();
        match to {
            Addr::Client(_) => self.replies.push(msg),
            Addr::Process(j) if !self.live(j) => {} // a stopped process reads nothing
            Addr::Process(j) => {
                self.handle(j, Input::Msg { from, msg });
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
        self.send(CLIENT, Addr::Process(COORDINATOR), request.clone());
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
    fn drain(&mut self) {
        while self.step() {}
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

/// One run of the script under `fault`; returns how many messages each
/// process handled.
fn run_script(spec: &ServeSpec, n: usize, seed: u64, fault: Fault) -> Vec<usize> {
    let mut sim = Sim::new(spec, n, seed, fault);
    if let Fault::Kill {
        victim, after: 0, ..
    } = fault
    {
        let restart = matches!(fault, Fault::Kill { restart: true, .. });
        sim.kill(victim, restart);
    }
    let mut subs = [("q1", "P1"), ("q2", "P2"), ("q3", "P3"), ("q4", "P4")];
    for k in (1..subs.len()).rev() {
        subs.swap(k, sim.rng.below(k + 1));
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
            strategy: WireStrategy::StreamSharing,
            text: text.into(),
        });
        assert!(
            matches!(&reply, Message::SubscribeOk { id: got, .. } if got == id),
            "{reply:?}"
        );
    }
    let id = subs[sim.rng.below(2)].0.to_string();
    let reply = sim.request(Message::Unsubscribe { id: id.clone() });
    assert_eq!(reply, Message::UnsubscribeOk { id });
    let reply = sim.request(Message::StartRun { run: 0 });
    match (&reply, fault) {
        (Message::RunDone { delivered, .. }, Fault::Reorder | Fault::Kill { .. }) => {
            assert_eq!(*delivered, 1, "one query left, delivering 1")
        }
        // (c) A run whose `StartRun` is never fully acked is aborted.
        (Message::Fault { context, .. }, Fault::Mute(_) | Fault::Kill { .. }) => {
            assert_eq!(context, "run")
        }
        _ => panic!("StartRun answered {reply:?} under {fault:?}"),
    }
    let reply = sim.request(Message::Shutdown);
    assert_eq!(reply, Message::Ack { seq: 0 });
    sim.drain();
    // (b) Five requests, five replies: none came late.
    assert_eq!(sim.replies.len(), 5, "{:?}", sim.replies);

    let coordinator = deployment(sim.procs[COORDINATOR].control.globe());
    for (i, p) in sim.procs.iter().enumerate().filter(|(_, p)| !p.dead) {
        // (a), (e) Every live replica — a restarted one too — deploys
        // what the coordinator deployed.
        assert_eq!(deployment(p.control.globe()), coordinator, "process {i}");
        // (f) Shutdown stops every live process.
        assert!(p.stopped, "process {i} still running after the shutdown");
    }
    sim.procs.iter().map(|p| p.handled).collect()
}

/// Runs `faults(seed)` for every seed — or for `DSS_PROPTEST_SEED` only —
/// and names the seed that fails.
fn sweep(faults: impl Fn(&ServeSpec, usize, u64) -> Vec<Fault>) {
    let spec = ServeSpec::new("example").unwrap();
    let n = NetMap::new(base().topology()).process_count();
    let seeds: Vec<u64> = match std::env::var(SEED_ENV) {
        Ok(s) => vec![parse_seed(&s).unwrap_or_else(|| panic!("bad {SEED_ENV} {s:?}"))],
        Err(_) => (0..SEEDS).collect(),
    };
    for seed in seeds {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for fault in faults(&spec, n, seed) {
                run_script(&spec, n, seed, fault);
            }
        }));
        if let Err(panic) = run {
            eprintln!("fleet_sim: seed {seed} failed; replay with {SEED_ENV}={seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A non-coordinator process, picked by the seed, killed after each
/// message it handles but the `Shutdown` it stops at (a restart after
/// that would outlive the fleet).
fn kills(spec: &ServeSpec, n: usize, seed: u64, restart: bool) -> Vec<Fault> {
    let victim = 1 + Rng(seed ^ 0xD1B5_4A32_D192_ED03).below(n - 1);
    let handled = run_script(spec, n, seed, Fault::Reorder)[victim];
    let kill = |after| Fault::Kill {
        victim,
        after,
        restart,
    };
    (0..handled).map(kill).collect()
}

#[test]
fn any_delivery_order_and_a_peer_that_never_acks_end_in_a_clean_stop() {
    sweep(|_, n, seed| {
        let mute = 1 + Rng(seed ^ 0x94D0_49BB_1331_11EB).below(n - 1);
        vec![Fault::Reorder, Fault::Mute(mute)]
    });
}

#[test]
fn a_peer_killed_at_any_message_boundary_leaves_the_fleet_consistent() {
    sweep(|spec, n, seed| kills(spec, n, seed, false));
}

#[test]
fn a_peer_restarted_from_its_log_at_any_message_boundary_rejoins_the_replica() {
    sweep(|spec, n, seed| kills(spec, n, seed, true));
}
