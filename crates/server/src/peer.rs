//! One super-peer server process (`dss serve <topology> --peer <id>`).
//!
//! ## Control plane: replicated registration
//!
//! Every process builds the identical deterministic base system from the
//! topology name ([`ServeSpec::build_globe`]). The *coordinator* (process
//! 0, the first super-peer) is the client gateway: it serializes
//! `Subscribe`/`Unsubscribe` under a control lock, applies them to its own
//! replica, and broadcasts sequenced `Deploy`/`Undeploy` records that
//! every other process replays through the same deterministic planner.
//! Identical base state + identical log + identical planner ⇒ identical
//! deployments and sharing decisions everywhere, so plans and operator
//! graphs never cross the wire — only the query text.
//!
//! One function, `apply`, decides how a logged record changes a
//! replica. The coordinator calls it before it sequences a record
//! (`Server::commit`), every other process on receipt
//! (`Server::on_sequenced`), and a durable restart for each record of its
//! log (`replay_control`): live apply and replay cannot drift apart.
//!
//! ## Connections
//!
//! One acceptor thread per process blocks in `accept`
//! ([`wire::accept_loop`]) and hands each connection to a reader thread
//! (`Server::inbound`: handshake, then [`wire::read_loop`]). Outbound
//! connections are dialed on demand by `Server::conn_to` — the
//! coordinator's at its first broadcast, a peer's when the first batch of
//! a run has to cross — one per directed pair, redialed once if a send
//! finds the socket dead. The main thread does no I/O: it waits for a
//! shutdown path to finish ([`serve`]).
//!
//! ## Data plane: batch replay runs
//!
//! `StartRun` is two-phase: every process builds its share of the data
//! plane ([`Plane`]) and acks before `RunGo` releases the sources, so no
//! item can reach a process whose groups don't exist yet. Items travel as
//! `StreamItemBatch` frames along each flow's planned route, batched
//! naturally: a worker sends per flow whatever one pass over its queued
//! input produced (see [`crate::data`]). Every later hop receives the
//! batch as a validated view over the frame's bytes and relays those
//! bytes behind a fresh header — next `hop`, `Deliver` at the end of the
//! route — never decoding an item it does not itself consume: trees are
//! built only for a hosted tap ([`Plane::advance`]) and at the client. A
//! full mailbox blocks the enqueuing reader thread,
//! which stops reading the connection, fills the kernel receive window,
//! and stalls the sender — TCP backpressure mapped onto the
//! bounded-mailbox semantics. The run
//! completes when every registered query's delivery flow has reported
//! end-of-stream to the coordinator.

use std::collections::{BTreeMap, BTreeSet};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dss_core::{Registration, StreamGlobe};
use dss_network::{Contiguity, FlowId, Topology};
use dss_proto::{
    negotiate, read_message, BatchDest, BatchHeader, BatchView, DecodeError, Message, ProtoError,
    Role, WireStrategy, VERSION_MAX, VERSION_MIN,
};
use dss_wal::{WalOptions, WalRecord, WalWriter};

use crate::data::{Exit, Items, Plane};
use crate::spec::{NetMap, ServeSpec};
use crate::wire::{self, Conn, Incoming};
use crate::{to_core_strategy, ServerError};

/// How long the coordinator waits for the fleet to ack a broadcast.
const ACK_TIMEOUT: Duration = Duration::from_secs(30);
/// How long shutdown waits for an in-flight run to drain before warning.
const RUN_DRAIN_TIMEOUT: Duration = Duration::from_secs(300);
/// `Ack.seq` used for the unsequenced `Shutdown` broadcast.
const SHUTDOWN_SEQ: u64 = 0;
/// How often the main thread looks at the SIGINT/SIGTERM latch while it
/// waits for shutdown (a signal handler may only store a flag, so nothing
/// can wake the wait for it).
const SIGNAL_POLL: Duration = Duration::from_millis(20);

/// Configuration of one `dss serve` process.
#[derive(Debug, Clone)]
pub struct PeerOptions {
    pub spec: ServeSpec,
    /// Which super-peer this process serves (e.g. `SP0`).
    pub peer: String,
    /// Bounded mailbox capacity per hosted node.
    pub mailbox_capacity: usize,
    /// Where to write the final telemetry snapshot on shutdown.
    pub metrics_out: Option<PathBuf>,
    /// Write-ahead-log directory for this process. When set, the process
    /// is *durable*: control-plane decisions (deploys, run starts) are
    /// logged before they are acked, outbound data batches are retained
    /// in memory for recovery resends, and a restart with the same
    /// directory replays the log and rejoins an in-flight run instead of
    /// starting from scratch.
    pub wal_dir: Option<PathBuf>,
    /// Pause between source items (0 = replay flat out). Lets fault
    /// tests keep a run in flight long enough to kill a peer mid-stream.
    pub source_delay: Duration,
}

impl PeerOptions {
    pub fn new(spec: ServeSpec, peer: impl Into<String>) -> PeerOptions {
        PeerOptions {
            spec,
            peer: peer.into(),
            mailbox_capacity: 1024,
            metrics_out: None,
            wal_dir: None,
            source_delay: Duration::ZERO,
        }
    }
}

/// Coordinator-side bookkeeping of the active run.
struct ActiveRun {
    id: u64,
    /// Client connection that sent `StartRun` (gets the `RunDone`).
    requester: Option<u64>,
    /// Queries whose delivery flow has not reported end-of-stream yet.
    pending: BTreeSet<String>,
    delivered: u64,
    /// Per query: the delivery stream's contiguity mark. Recovery resends
    /// from a restarted delivery peer replay the whole sequence; the mark
    /// admits exactly the unseen tail, so the subscriber observes each
    /// result item exactly once.
    recv: BTreeMap<String, Contiguity>,
}

#[derive(Clone, Copy)]
enum ConnCtx {
    Peer,
    Client(u64),
}

struct Server {
    spec: ServeSpec,
    map: NetMap,
    topo: Topology,
    me: usize,
    my_name: String,
    globe: Mutex<StreamGlobe>,
    /// The next control sequence number (coordinator only). Held while a
    /// control step is sequenced and broadcast, so every peer connection
    /// sees control messages in seq order.
    control: Mutex<u64>,
    peer_conns: Mutex<Vec<Option<Arc<Conn>>>>,
    acks: Mutex<BTreeMap<u64, usize>>,
    acks_cv: Condvar,
    clients: Mutex<BTreeMap<u64, Arc<Conn>>>,
    next_client: AtomicU64,
    /// query id -> subscribing client connection (coordinator only).
    subs: Mutex<BTreeMap<String, u64>>,
    plane: Mutex<Option<Arc<Plane>>>,
    run: Mutex<Option<ActiveRun>>,
    run_cv: Condvar,
    shutting_down: AtomicBool,
    /// Set (and `done_cv` notified) when shutdown has completed: `serve`
    /// waits on it.
    done: Mutex<bool>,
    done_cv: Condvar,
    mailbox_capacity: usize,
    metrics_out: Option<PathBuf>,
    /// Control-plane write-ahead log (None = not durable).
    wal: Option<Mutex<WalWriter>>,
    source_delay: Duration,
}

/// What a WAL replay reconstructed about this process's previous life.
struct Recovered {
    /// Control-plane records to re-apply, in log order.
    records: Vec<WalRecord>,
    /// A `RunStart` without a matching `RunDone`: the process died with
    /// this run in flight and must rejoin it.
    active_run: Option<u64>,
}

/// Replays a peer's WAL directory. Corruption beyond a torn tail
/// degrades gracefully: the process starts from scratch (the coordinator
/// still holds the authoritative control log; it just cannot rejoin a
/// run it no longer remembers).
fn recover_from_wal(dir: &PathBuf, peer: &str) -> Recovered {
    match dss_wal::replay(dir) {
        Ok(replay) => {
            if let Some(detail) = &replay.torn_tail {
                eprintln!("dss serve: {peer} wal has a torn tail (tolerated): {detail}");
            }
            let mut active_run = None;
            for rec in &replay.records {
                match rec {
                    WalRecord::RunStart { run } => active_run = Some(*run),
                    WalRecord::RunDone { run } if active_run == Some(*run) => active_run = None,
                    _ => {}
                }
            }
            Recovered {
                records: replay.records,
                active_run,
            }
        }
        Err(e) => {
            eprintln!("dss serve: {peer} wal unusable ({e}); starting from scratch");
            Recovered {
                records: Vec::new(),
                active_run: None,
            }
        }
    }
}

/// How a logged control record changes a replica — the one place that
/// decides it. Returns the registration a `Deploy` installed; a record
/// outside the registration log leaves the replica as it is.
fn apply(globe: &mut StreamGlobe, record: &WalRecord) -> Result<Option<Registration>, String> {
    match record {
        WalRecord::Deploy {
            id,
            at_peer,
            strategy,
            text,
            ..
        } => {
            let strategy = WireStrategy::from_u8(*strategy).map_err(|e| e.to_string())?;
            globe
                .register_query(id.clone(), text, at_peer, to_core_strategy(strategy))
                .map(Some)
                .map_err(|e| e.to_string())
        }
        WalRecord::Undeploy { id, .. } => globe
            .unregister_query(id)
            .map(|()| None)
            .map_err(|e| e.to_string()),
        WalRecord::Checkpoint { .. } | WalRecord::RunStart { .. } | WalRecord::RunDone { .. } => {
            Ok(None)
        }
    }
}

/// The coordinator's sequenced control messages as the log keeps them:
/// the sequence number the fleet acks and the record every process
/// writes. `None` for a message outside the log.
fn sequenced(msg: &Message) -> Option<(u64, WalRecord)> {
    match msg {
        Message::Deploy {
            seq,
            id,
            at_peer,
            strategy,
            text,
        } => Some((
            *seq,
            WalRecord::Deploy {
                seq: *seq,
                id: id.clone(),
                at_peer: at_peer.clone(),
                strategy: strategy.to_u8(),
                text: text.clone(),
            },
        )),
        Message::Undeploy { seq, id } => Some((
            *seq,
            WalRecord::Undeploy {
                seq: *seq,
                id: id.clone(),
            },
        )),
        Message::StartRun { run } => Some((*run, WalRecord::RunStart { run: *run })),
        _ => None,
    }
}

/// Re-applies the logged control-plane records to a fresh replica, so the
/// deterministic planner re-derives the exact pre-crash deployment.
/// Returns how many records could not be re-applied (each is reported).
fn replay_control(globe: &mut StreamGlobe, records: &[WalRecord]) -> usize {
    let mut diverged = 0;
    for record in records {
        if let Err(e) = apply(globe, record) {
            eprintln!("dss serve: WAL REPLAY DIVERGENCE applying {record:?}: {e}");
            diverged += 1;
        }
    }
    diverged
}

/// Answers a request with a typed `Fault`.
fn fault(conn: &Conn, context: &str, message: impl Into<String>) {
    let _ = conn.send(&Message::Fault {
        context: context.into(),
        message: message.into(),
    });
}

/// Runs one peer process until a clean shutdown (wire message or signal).
pub fn serve(opts: PeerOptions) -> Result<(), ServerError> {
    dss_telemetry::set_enabled(true);
    let mut globe = opts.spec.build_globe();

    // Durable restart: replay the log and rebuild the registration
    // replica *before* anything can connect, so the deterministic
    // planner re-derives the exact pre-crash deployment (resume, not
    // replan — the coordinator is never asked to re-deploy anything).
    let recovered = opts
        .wal_dir
        .as_ref()
        .map(|dir| recover_from_wal(dir, &opts.peer));
    if let Some(rec) = &recovered {
        replay_control(&mut globe, &rec.records);
        if !rec.records.is_empty() {
            eprintln!(
                "dss serve: {} recovered {} wal records{}",
                opts.peer,
                rec.records.len(),
                match rec.active_run {
                    Some(run) => format!(", rejoining run {run}"),
                    None => String::new(),
                }
            );
        }
    }
    let wal = match &opts.wal_dir {
        Some(dir) => Some(Mutex::new(
            WalWriter::open(
                dir,
                WalOptions {
                    // Control records are rare and each one gates an ack;
                    // sync every append so a SIGKILL never loses one.
                    fsync_every: 1,
                    ..WalOptions::default()
                },
            )
            .map_err(|e| ServerError::Config(format!("cannot open wal at {dir:?}: {e}")))?,
        )),
        None => None,
    };

    let topo = globe.topology().clone();
    let map = NetMap::new(&topo);
    let me = map.index_of_name(&topo, &opts.peer).ok_or_else(|| {
        ServerError::Config(format!(
            "{:?} is not a super-peer of topology {:?}",
            opts.peer, opts.spec.topology
        ))
    })?;
    let addr = map.addr(&opts.spec, me);
    let listener = TcpListener::bind(&addr).map_err(ServerError::Io)?;
    let n = map.process_count();
    let server = Arc::new(Server {
        spec: opts.spec,
        map,
        topo,
        me,
        my_name: opts.peer.clone(),
        globe: Mutex::new(globe),
        control: Mutex::new(1),
        peer_conns: Mutex::new(vec![None; n]),
        acks: Mutex::new(BTreeMap::new()),
        acks_cv: Condvar::new(),
        clients: Mutex::new(BTreeMap::new()),
        next_client: AtomicU64::new(1),
        subs: Mutex::new(BTreeMap::new()),
        plane: Mutex::new(None),
        run: Mutex::new(None),
        run_cv: Condvar::new(),
        shutting_down: AtomicBool::new(false),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
        mailbox_capacity: opts.mailbox_capacity,
        metrics_out: opts.metrics_out,
        wal,
        source_delay: opts.source_delay,
    });
    crate::signal::install();
    let role = if me == server.map.coordinator() {
        "coordinator"
    } else {
        "peer"
    };
    eprintln!("dss serve: {} listening on {addr} ({role})", opts.peer);

    // Rejoin an in-flight run: rebuild this process's share of the data
    // plane, ask every upstream for a resend of the inputs we relay or
    // consume, and re-replay hosted sources. Downstream contiguity
    // filters absorb everything they already saw.
    if let Some(run) = recovered.as_ref().and_then(|r| r.active_run) {
        let plane = server.build_plane(run);
        *server.plane.lock().unwrap() = Some(Arc::clone(&plane));
        let srv = Arc::clone(&server);
        std::thread::spawn(move || srv.rejoin_run(&plane));
    }

    // The acceptor blocks in `accept` and is never joined: `serve` is only
    // ever the body of `dss serve`, so returning from it ends the process
    // and the thread with it.
    let srv = Arc::clone(&server);
    std::thread::spawn(move || {
        wire::accept_loop(listener, move |stream| Arc::clone(&srv).inbound(stream))
    });

    // This thread does no I/O: it sleeps until a shutdown path reports
    // completion, waking otherwise only to look at the signal latch.
    let mut signal_handled = false;
    let mut done = server.done.lock().unwrap();
    while !*done {
        if crate::signal::triggered() && !signal_handled {
            signal_handled = true;
            let srv = Arc::clone(&server);
            std::thread::spawn(move || srv.on_signal());
        }
        done = server.done_cv.wait_timeout(done, SIGNAL_POLL).unwrap().0;
    }
    drop(done);

    // Kick every blocked reader so their threads unwind.
    for c in server.peer_conns.lock().unwrap().iter().flatten() {
        c.hangup();
    }
    for c in server.clients.lock().unwrap().values() {
        c.hangup();
    }
    eprintln!("dss serve: {} stopped", server.my_name);
    Ok(())
}

impl Server {
    fn is_coordinator(&self) -> bool {
        self.me == self.map.coordinator()
    }

    // ---- connection management -------------------------------------

    fn inbound(self: Arc<Self>, stream: TcpStream) {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let read_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut reader = BufReader::new(read_half);
        let hello = match read_message(&mut reader) {
            Ok(Some(m)) => m,
            _ => return,
        };
        let Message::Hello {
            min_version,
            max_version,
            role,
            name,
        } = hello
        else {
            return;
        };
        let conn = match Conn::new(stream, name) {
            Ok(c) => Arc::new(c),
            Err(_) => return,
        };
        match negotiate(min_version, max_version, VERSION_MIN, VERSION_MAX) {
            Some(version) => {
                if conn
                    .send(&Message::HelloAck {
                        version,
                        peer: self.my_name.clone(),
                    })
                    .is_err()
                {
                    return;
                }
            }
            None => {
                let message = format!(
                    "no mutual protocol version: you speak [{min_version}, {max_version}], \
                     this peer speaks [{VERSION_MIN}, {VERSION_MAX}]"
                );
                return fault(&conn, "hello", message);
            }
        }
        reader.get_ref().set_read_timeout(None).ok();
        let ctx = match role {
            Role::Client => {
                let id = self.next_client.fetch_add(1, Ordering::SeqCst);
                self.clients.lock().unwrap().insert(id, Arc::clone(&conn));
                ConnCtx::Client(id)
            }
            Role::Peer => ConnCtx::Peer,
        };
        let srv = Arc::clone(&self);
        let c = Arc::clone(&conn);
        let _ = wire::read_loop(reader, move |msg| srv.handle(msg, &c, &ctx));
        if let ConnCtx::Client(id) = ctx {
            self.clients.lock().unwrap().remove(&id);
        }
    }

    /// The (lazily dialed) outbound connection to process `i`.
    fn conn_to(self: &Arc<Self>, i: usize) -> Result<Arc<Conn>, ServerError> {
        if let Some(c) = self.peer_conns.lock().unwrap()[i].clone() {
            return Ok(c);
        }
        let addr = self.map.addr(&self.spec, i);
        let dialed = Instant::now();
        let (conn, reader) = wire::connect(&addr, Role::Peer, &self.my_name, ACK_TIMEOUT)?;
        // What a first contact cost, `connect()` call to `HelloAck` read.
        dss_telemetry::histogram_record(
            "server.dial_ms",
            || vec![("peer", self.my_name.clone())],
            dialed.elapsed().as_secs_f64() * 1e3,
        );
        let conn = Arc::new(conn);
        {
            let mut guard = self.peer_conns.lock().unwrap();
            if let Some(existing) = guard[i].clone() {
                // Lost a dial race; use the established connection.
                conn.hangup();
                return Ok(existing);
            }
            guard[i] = Some(Arc::clone(&conn));
        }
        let srv = Arc::clone(self);
        let c = Arc::clone(&conn);
        std::thread::spawn(move || {
            let _ = wire::read_loop(reader, move |msg| srv.handle(msg, &c, &ConnCtx::Peer));
        });
        Ok(conn)
    }

    /// Broadcasts to every process but this one, returning how many were
    /// reached (their acks are awaited by the caller).
    fn broadcast(self: &Arc<Self>, msg: &Message) -> usize {
        let mut reached = 0;
        for i in 0..self.map.process_count() {
            if i == self.me {
                continue;
            }
            // `send_to` (not a bare `conn.send`): a cached connection to a
            // peer that crashed and came back is a dead socket, and a
            // restarted durable peer must still receive `RunDone` and
            // `Shutdown` broadcasts.
            match self.send_to(i, msg) {
                Ok(()) => reached += 1,
                Err(e) => eprintln!("dss serve: send to process {i} failed: {e}"),
            }
        }
        reached
    }

    /// The coordinator's half of a control step, under the control lock:
    /// log `msg` and advance the sequence if `msg` is sequenced (its seq is
    /// the lock's), send it to every other process, release the lock and
    /// wait until each process reached has acked it; false when an ack is
    /// still missing after `ACK_TIMEOUT`. Logged before the broadcast, so
    /// a record is durable here before any ack can count.
    fn commit(self: &Arc<Self>, mut ctl: MutexGuard<'_, u64>, msg: &Message) -> bool {
        let seq = match sequenced(msg) {
            Some((seq, record)) => {
                debug_assert_eq!(seq, *ctl, "a control step carries the next seq");
                *ctl += 1;
                self.wal_log(&record);
                seq
            }
            None => SHUTDOWN_SEQ,
        };
        let reached = self.broadcast(msg);
        drop(ctl);
        self.wait_acks(seq, reached)
    }

    fn wait_acks(&self, seq: u64, n: usize) -> bool {
        let deadline = Instant::now() + ACK_TIMEOUT;
        let mut acks = self.acks.lock().unwrap();
        loop {
            if acks.get(&seq).copied().unwrap_or(0) >= n {
                acks.remove(&seq);
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self.acks_cv.wait_timeout(acks, deadline - now).unwrap();
            acks = guard;
        }
    }

    // ---- message dispatch ------------------------------------------

    fn handle(self: &Arc<Self>, incoming: Incoming<'_>, conn: &Arc<Conn>, ctx: &ConnCtx) -> bool {
        let msg = match incoming {
            Incoming::Batch(view) => {
                let Err(e) = self.on_batch(view) else {
                    return true;
                };
                // A malformed item, read at its first tap: the sender is
                // at fault, as for a frame that fails to decode.
                eprintln!("dss serve: malformed item from {}: {e}", conn.name);
                fault(conn, "stream item batch", format!("malformed item: {e}"));
                conn.hangup();
                return false;
            }
            Incoming::Message(msg) => msg,
        };
        match msg {
            Message::Subscribe {
                id,
                at_peer,
                strategy,
                text,
            } => self.on_subscribe(conn, ctx, id, at_peer, strategy, text),
            Message::Unsubscribe { id } => self.on_unsubscribe(conn, id),
            Message::StartRun { .. } if matches!(ctx, ConnCtx::Client(_)) => {
                self.on_start_run(conn, ctx)
            }
            Message::Ack { seq } => {
                *self.acks.lock().unwrap().entry(seq).or_insert(0) += 1;
                self.acks_cv.notify_all();
            }
            Message::RunGo { run } => {
                let plane = self.plane.lock().unwrap().clone();
                if let Some(p) = plane.filter(|p| p.run == run) {
                    p.start_sources();
                }
            }
            Message::RunDone { run, .. } => {
                // Coordinator says the run is globally complete: tear down.
                let srv = Arc::clone(self);
                std::thread::spawn(move || srv.teardown_plane(run));
            }
            Message::ResumeFrom {
                run,
                flow,
                hop,
                offset,
            } => {
                // A restarted peer asks for our retained output. Resend on
                // a dedicated thread: the resend dials the requester and
                // must not block this connection's reader.
                let plane = self.plane.lock().unwrap().clone();
                if let Some(p) = plane.filter(|p| p.run == run) {
                    let srv = Arc::clone(self);
                    std::thread::spawn(move || {
                        srv.resend(&p, flow as FlowId, hop as usize, offset)
                    });
                }
            }
            Message::MetricsPull => {
                let _ = conn.send(&Message::MetricsSnapshot {
                    json: dss_telemetry::snapshot_json(),
                });
            }
            Message::Shutdown => {
                if self.is_coordinator() {
                    self.coordinated_shutdown(Some(conn));
                } else {
                    // A directly-addressed peer drains and stops alone.
                    self.local_shutdown();
                    let _ = conn.send(&Message::Ack { seq: SHUTDOWN_SEQ });
                    self.finish();
                }
            }
            Message::Goodbye => return false,
            other => match sequenced(&other) {
                // The coordinator's log: `Deploy`, `Undeploy`, a run's phase 1.
                Some((seq, record)) => self.on_sequenced(conn, seq, record),
                None => fault(conn, "dispatch", format!("unexpected message {other:?}")),
            },
        }
        true
    }

    /// An item batch off the wire, still bytes: a `StreamItemBatch` takes
    /// its route step here, a `Deliver` goes to its subscriber. Fails if a
    /// tap here reads a malformed item.
    fn on_batch(self: &Arc<Self>, view: BatchView<'_>) -> Result<(), DecodeError> {
        let BatchView { header, items } = view;
        let mut items = Items::View(items);
        let (flow, hop) = match header.dest {
            BatchDest::Hop { flow, hop } => (flow as FlowId, hop as usize),
            BatchDest::Query(query) => {
                self.deliver_local(header.run, query, header.offset, items, header.eos);
                return Ok(());
            }
        };
        let plane = self.plane.lock().unwrap().clone();
        match plane {
            Some(p) if p.run == header.run => {
                // Admit only what this process has not seen: a restarted
                // upstream replays its whole output and the contiguity
                // filter keeps delivery exactly-once.
                let admitted = p.admit(flow, hop, header.offset, &mut items, header.eos);
                if let Some((offset, eos)) = admitted {
                    return p.advance(flow, hop, offset, items, eos, &self.egress());
                }
            }
            Some(p) => p.note_stale(),
            None => {}
        }
        Ok(())
    }

    // ---- control plane ---------------------------------------------

    fn on_subscribe(
        self: &Arc<Self>,
        conn: &Arc<Conn>,
        ctx: &ConnCtx,
        id: String,
        at_peer: String,
        strategy: dss_proto::WireStrategy,
        text: String,
    ) {
        let refuse = |message: String| fault(conn, "subscribe", message);
        let ConnCtx::Client(client_id) = *ctx else {
            return refuse("subscribe must come from a client connection".into());
        };
        if !self.is_coordinator() {
            return refuse(format!(
                "not the coordinator; dial {}",
                self.map.addr(&self.spec, self.map.coordinator())
            ));
        }
        if self.shutting_down.load(Ordering::SeqCst) {
            return refuse("shutting down".into());
        }
        let ctl = self.control.lock().unwrap();
        if self.run.lock().unwrap().is_some() {
            return refuse("a run is in progress; retry after it completes".into());
        }
        if self.subs.lock().unwrap().contains_key(&id) {
            return refuse(format!("query id {id:?} is already subscribed"));
        }
        let seq = *ctl;
        let deploy = Message::Deploy {
            seq,
            id: id.clone(),
            at_peer,
            strategy,
            text,
        };
        let (_, record) = sequenced(&deploy).expect("a Deploy is sequenced");
        let (reg, plan_text) = {
            let mut globe = self.globe.lock().unwrap();
            let reg = match apply(&mut globe, &record) {
                Ok(reg) => reg.expect("a Deploy installs a registration"),
                Err(e) => return refuse(e),
            };
            let plan_text = reg.plan.describe(globe.state());
            (reg, plan_text)
        };
        if !self.commit(ctl, &deploy) {
            eprintln!("dss serve: deploy {seq} not fully acked within {ACK_TIMEOUT:?}");
        }
        self.subs.lock().unwrap().insert(id.clone(), client_id);
        let _ = conn.send(&Message::SubscribeOk {
            id,
            delivery_flow: reg.delivery_flow as u64,
            reused: reg.reused_derived_stream,
            cost_bits: reg.plan.total_cost.to_bits(),
            plan: plan_text,
        });
    }

    fn on_unsubscribe(self: &Arc<Self>, conn: &Arc<Conn>, id: String) {
        let refuse = |message: String| fault(conn, "unsubscribe", message);
        if !self.is_coordinator() {
            return refuse("not the coordinator".into());
        }
        let ctl = self.control.lock().unwrap();
        if self.run.lock().unwrap().is_some() {
            return refuse("a run is in progress; retry after it completes".into());
        }
        let seq = *ctl;
        let undeploy = Message::Undeploy {
            seq,
            id: id.clone(),
        };
        let (_, record) = sequenced(&undeploy).expect("an Undeploy is sequenced");
        if let Err(e) = apply(&mut self.globe.lock().unwrap(), &record) {
            return refuse(e);
        }
        self.subs.lock().unwrap().remove(&id);
        if !self.commit(ctl, &undeploy) {
            eprintln!("dss serve: undeploy {seq} not fully acked within {ACK_TIMEOUT:?}");
        }
        let _ = conn.send(&Message::UnsubscribeOk { id });
    }

    /// A sequenced control record from the coordinator: apply it to this
    /// process, make it durable, then ack it — an ack promises the record
    /// survives this process's crashes.
    fn on_sequenced(self: &Arc<Self>, conn: &Arc<Conn>, seq: u64, record: WalRecord) {
        if let WalRecord::RunStart { run } = record {
            // Phase 1 of a run: instantiate this process's share of the
            // plane (the coordinator holds `RunGo` until every process has
            // acked). Tear down any previous plane defensively (normally
            // `RunDone` already did).
            if let Some(p) = self.plane.lock().unwrap().take() {
                p.drain();
            }
            *self.plane.lock().unwrap() = Some(self.build_plane(run));
        } else if let Err(e) = apply(&mut self.globe.lock().unwrap(), &record) {
            // Should be impossible: same base state, same planner.
            eprintln!("dss serve: REPLICA DIVERGENCE applying {record:?}: {e}");
        }
        self.wal_log(&record);
        let _ = conn.send(&Message::Ack { seq });
    }

    // ---- run lifecycle ---------------------------------------------

    fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Appends one record to the WAL (synced per append), if durable.
    fn wal_log(&self, record: &WalRecord) {
        if let Some(wal) = &self.wal {
            if let Err(e) = wal.lock().unwrap().append(record) {
                eprintln!("dss serve: wal append failed: {e}");
            }
        }
    }

    /// Where a batch goes when it leaves this process
    /// ([`Plane::advance`]): over the wire to the next hop's process, or —
    /// off the end of a delivery flow's route — to the coordinator, which
    /// hands it to the subscriber.
    fn egress(self: &Arc<Self>) -> impl Fn(&Plane, Exit<'_>, u64, Items<'_>, bool) + Clone {
        let srv = Arc::clone(self);
        move |plane: &Plane, exit, offset, items, eos| match exit {
            Exit::Hop { flow, hop } => srv.forward_wire(plane, flow, hop, offset, items, eos),
            Exit::Deliver { query } if srv.is_coordinator() => {
                srv.deliver_local(plane.run, query, offset, items, eos)
            }
            Exit::Deliver { .. } => {
                let header = exit.header(plane.run, offset, eos);
                srv.note_batch(&items);
                let to = srv.map.coordinator();
                if let Err(e) = srv.send_batch_to(to, &header, |buf| items.encode_into(buf)) {
                    eprintln!("dss serve: delivery relay failed: {e}");
                }
            }
        }
    }

    /// This process's share of the data plane for `run`.
    fn build_plane(self: &Arc<Self>, run: u64) -> Arc<Plane> {
        Plane::build(
            &self.globe.lock().unwrap(),
            &self.my_name,
            run,
            self.mailbox_capacity,
            self.is_durable(),
            self.source_delay,
            self.egress(),
        )
    }

    fn on_start_run(self: &Arc<Self>, conn: &Arc<Conn>, ctx: &ConnCtx) {
        if !self.is_coordinator() {
            return fault(conn, "run", "not the coordinator");
        }
        if self.shutting_down.load(Ordering::SeqCst) {
            return fault(conn, "run", "shutting down");
        }
        let ctl = self.control.lock().unwrap();
        if self.run.lock().unwrap().is_some() {
            return fault(conn, "run", "a run is already in progress");
        }
        let run_id = *ctl;
        let pending: BTreeSet<String> = {
            let globe = self.globe.lock().unwrap();
            let queries = globe.registered_queries();
            queries.map(|(q, _)| q.to_string()).collect()
        };
        let plane = self.build_plane(run_id);
        *self.plane.lock().unwrap() = Some(Arc::clone(&plane));
        let no_queries = pending.is_empty();
        let requester = match ctx {
            ConnCtx::Client(id) => Some(*id),
            ConnCtx::Peer => None,
        };
        *self.run.lock().unwrap() = Some(ActiveRun {
            id: run_id,
            requester,
            pending,
            delivered: 0,
            recv: BTreeMap::new(),
        });
        // Phase 1: every process instantiates its groups and acks.
        if !self.commit(ctl, &Message::StartRun { run: run_id }) {
            eprintln!("dss serve: run {run_id} plane not fully acked; aborting run");
            fault(conn, "run", "fleet did not come up for the run");
            let srv = Arc::clone(self);
            std::thread::spawn(move || srv.teardown_plane(run_id));
            return;
        }
        // Phase 2: all planes exist — release the sources.
        self.broadcast(&Message::RunGo { run: run_id });
        plane.start_sources();
        // A run with zero subscriptions completes immediately.
        if no_queries {
            self.finish_run(run_id, requester, 0);
        }
    }

    /// A batch of `query`'s results at the coordinator: admit what the
    /// query's delivery sequence has not seen, pass it to the subscriber.
    fn deliver_local(
        self: &Arc<Self>,
        run: u64,
        query: &str,
        offset: u64,
        mut items: Items<'_>,
        eos: bool,
    ) {
        let mut guard = self.run.lock().unwrap();
        let Some(active) = guard.as_mut() else {
            return;
        };
        if active.id != run {
            return;
        }
        // Same contiguity mark the data plane keeps per hop: a restarted
        // delivery peer re-derives and re-sends its whole output; the
        // subscriber must still see each item exactly once.
        let mark = active.recv.entry(query.to_string()).or_default();
        let Some((offset, eos)) = items.admit(mark, offset, eos) else {
            return;
        };
        if !items.is_empty() {
            dss_telemetry::counter_add(
                "runtime.delivered",
                || vec![("query", query.to_string())],
                items.len() as u64,
            );
        }
        active.delivered += items.len() as u64;
        // Results go to the subscriber's connection; if it is gone (the
        // CLI subscribes and disconnects), the run requester gets them.
        let client = {
            let subscriber = self.subs.lock().unwrap().get(query).copied();
            let clients = self.clients.lock().unwrap();
            subscriber
                .and_then(|id| clients.get(&id).cloned())
                .or_else(|| active.requester.and_then(|id| clients.get(&id).cloned()))
        };
        if let Some(c) = client {
            self.note_batch(&items);
            let header = Exit::Deliver { query }.header(run, offset, eos);
            let _ = c.send_batch(&header, |buf| items.encode_into(buf));
        }
        if eos {
            active.pending.remove(query);
            if active.pending.is_empty() {
                let (id, requester, delivered) = (active.id, active.requester, active.delivered);
                drop(guard);
                self.finish_run(id, requester, delivered);
            }
        }
    }

    /// Every query's delivery flow reached end-of-stream: tell the fleet
    /// to tear down, tear our share down, then notify the requester — who
    /// may answer `RunDone` with the next `StartRun` at once, so it must
    /// not hear it while this run still occupies the coordinator.
    fn finish_run(self: &Arc<Self>, run: u64, requester: Option<u64>, delivered: u64) {
        self.broadcast(&Message::RunDone { run, delivered });
        // Teardown joins the plane's workers — and this thread may *be*
        // one of them (local delivery chains run on worker threads).
        let srv = Arc::clone(self);
        std::thread::spawn(move || {
            srv.teardown_plane(run);
            let requester = requester.and_then(|id| srv.clients.lock().unwrap().get(&id).cloned());
            if let Some(c) = requester {
                let _ = c.send(&Message::RunDone { run, delivered });
            }
        });
    }

    /// Drains the current plane — of `run` only, if given — and flushes
    /// its mailbox metrics. The slot is cleared only if it still holds the
    /// drained plane: by then the next run's plane may have replaced it.
    fn drain_plane(&self, run: Option<u64>) {
        let plane = self.plane.lock().unwrap().clone();
        let Some(p) = plane.filter(|p| run.is_none_or(|r| p.run == r)) else {
            return;
        };
        p.drain();
        p.publish_mailbox_metrics(&self.topo);
        let mut slot = self.plane.lock().unwrap();
        if slot
            .as_ref()
            .is_some_and(|current| Arc::ptr_eq(current, &p))
        {
            *slot = None;
        }
    }

    fn teardown_plane(&self, run: u64) {
        self.drain_plane(Some(run));
        let mut guard = self.run.lock().unwrap();
        if guard.as_ref().is_some_and(|a| a.id == run) {
            *guard = None;
        }
        drop(guard);
        // Balanced against `RunStart`: a restart after this point must
        // not try to rejoin a completed run.
        self.wal_log(&WalRecord::RunDone { run });
        self.run_cv.notify_all();
    }

    // ---- data plane ------------------------------------------------

    /// Sends one batch across the wire to the process owning
    /// `route[hop]`. In durable mode the batch is appended to the
    /// `(flow, hop)` sent-log first — encoded, as it crosses — under the
    /// entry lock held across the send: a concurrent recovery resend for
    /// the same crossing takes the same lock, so the receiver's
    /// contiguity filter always observes resend-then-tail order, never an
    /// interleaving.
    fn forward_wire(
        self: &Arc<Self>,
        plane: &Plane,
        flow: FlowId,
        hop: usize,
        offset: u64,
        items: Items<'_>,
        eos: bool,
    ) {
        let dest = self.map.owner_of(plane.groups.flows()[flow].route[hop]);
        let header = Exit::Hop { flow, hop }.header(plane.run, offset, eos);
        let retained = plane.sent_entry(flow, hop);
        let mut entry = retained.as_ref().map(|e| e.lock().unwrap());
        self.note_batch(&items);
        let result = match entry.as_mut() {
            // What is retained is what is sent: encoded once.
            Some(entry) => {
                let batch = entry.push(offset, &items, eos);
                self.send_batch_to(dest, &header, |buf| buf.extend_from_slice(&batch.items))
            }
            None => self.send_batch_to(dest, &header, |buf| items.encode_into(buf)),
        };
        drop(entry);
        if let Err(e) = result {
            eprintln!("dss serve: batch forward to process {dest} failed: {e}");
            // Durable mode keeps the batch in the sent-log: the receiver
            // will ask for it again when it comes back. Without a log the
            // items are gone — record the staleness.
            if retained.is_none() {
                plane.note_stale();
            }
        }
    }

    /// Sends one batch frame to process `i`: `header`, then the item list
    /// as `items` writes it.
    fn send_batch_to(
        self: &Arc<Self>,
        i: usize,
        header: &BatchHeader<'_>,
        items: impl Fn(&mut Vec<u8>),
    ) -> Result<(), ServerError> {
        self.send_with(i, |conn| conn.send_batch(header, &items))
    }

    /// Records how many items one outgoing `StreamItemBatch`/`Deliver`
    /// frame carries — how well natural batching is working on this peer.
    fn note_frame(&self, items: usize) {
        dss_telemetry::histogram_record(
            "server.frame_items",
            || vec![("peer", self.my_name.clone())],
            items as f64,
        );
    }

    /// [`Self::note_frame`] for a live batch, which also counts the items
    /// that leave as the bytes they arrived as — beside
    /// `server.items_materialised`, how much of what this peer receives it
    /// merely passes on.
    fn note_batch(&self, items: &Items<'_>) {
        self.note_frame(items.len());
        if let Items::View(view) = items {
            dss_telemetry::counter_add(
                "server.items_relayed",
                || vec![("peer", self.my_name.clone())],
                view.len() as u64,
            );
        }
    }

    /// Sends `msg` to process `i`.
    fn send_to(self: &Arc<Self>, i: usize, msg: &Message) -> Result<(), ServerError> {
        self.send_with(i, |conn| conn.send(msg))
    }

    /// Runs `send` on the connection to process `i`, redialing once on
    /// failure. A cached connection to a peer that was SIGKILLed and
    /// restarted is a dead socket: drop it (if nobody else already
    /// replaced it) and let `conn_to` dial fresh — `wire::connect` keeps
    /// retrying until the restarted process listens again (up to
    /// `ACK_TIMEOUT`).
    fn send_with(
        self: &Arc<Self>,
        i: usize,
        send: impl Fn(&Conn) -> Result<(), ProtoError>,
    ) -> Result<(), ServerError> {
        let conn = self.conn_to(i)?;
        match send(&conn) {
            Ok(()) => Ok(()),
            Err(first) => {
                {
                    let mut guard = self.peer_conns.lock().unwrap();
                    if let Some(existing) = &guard[i] {
                        if Arc::ptr_eq(existing, &conn) {
                            existing.hangup();
                            guard[i] = None;
                        }
                    }
                }
                let fresh = self.conn_to(i).map_err(|_| ServerError::Proto(first))?;
                send(&fresh).map_err(ServerError::Proto)
            }
        }
    }

    /// Replays this process's retained output for wire-crossing
    /// `(flow, hop)` to a restarted downstream that asked for it via
    /// `ResumeFrom`: the batches it sent, as it sent them, from the one
    /// containing `offset` on. The entry lock is held across all the
    /// sends so live traffic for the same crossing queues behind the
    /// resend instead of racing it.
    fn resend(self: &Arc<Self>, plane: &Plane, flow: FlowId, hop: usize, offset: u64) {
        let Some(entry) = plane.sent_entry(flow, hop) else {
            return;
        };
        let dest = self.map.owner_of(plane.groups.flows()[flow].route[hop]);
        let e = entry.lock().unwrap();
        for batch in e.batches_from(offset) {
            self.note_frame(batch.len);
            let header = Exit::Hop { flow, hop }.header(plane.run, batch.offset, batch.eos);
            let sent = self.send_batch_to(dest, &header, |buf| buf.extend_from_slice(&batch.items));
            if let Err(err) = sent {
                eprintln!("dss serve: recovery resend of flow {flow} hop {hop} failed: {err}");
                return;
            }
        }
    }

    /// After a durable restart with a run still in flight: ask every
    /// wire-crossing upstream to replay its retained output from zero,
    /// then re-replay hosted sources. This process re-derives its whole
    /// pre-crash output; downstream contiguity filters absorb everything
    /// they already saw, so the net effect is exactly the missing tail.
    fn rejoin_run(self: &Arc<Self>, p: &Plane) {
        for (flow, pf) in p.groups.flows().iter().enumerate() {
            if !pf.active {
                continue;
            }
            for hop in 1..pf.route.len() {
                if self.map.owner_of(pf.route[hop]) != self.me
                    || self.map.owner_of(pf.route[hop - 1]) == self.me
                {
                    continue;
                }
                let upstream = self.map.owner_of(pf.route[hop - 1]);
                let msg = Message::ResumeFrom {
                    run: p.run,
                    flow: flow as u64,
                    hop: hop as u32,
                    offset: 0,
                };
                if let Err(e) = self.send_to(upstream, &msg) {
                    eprintln!("dss serve: resume request to process {upstream} failed: {e}");
                }
            }
        }
        p.start_sources();
    }

    // ---- shutdown --------------------------------------------------

    /// Client-requested fleet shutdown (coordinator): wait for the active
    /// run to drain, stop the fleet, flush metrics, ack, exit.
    fn coordinated_shutdown(self: &Arc<Self>, reply: Option<&Arc<Conn>>) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Drain: the in-flight run completes normally — nothing in a
        // mailbox is dropped.
        let deadline = Instant::now() + RUN_DRAIN_TIMEOUT;
        let mut guard = self.run.lock().unwrap();
        while guard.is_some() {
            let now = Instant::now();
            if now >= deadline {
                eprintln!("dss serve: shutdown proceeding with run still active (drain timeout)");
                break;
            }
            let (g, _) = self.run_cv.wait_timeout(guard, deadline - now).unwrap();
            guard = g;
        }
        drop(guard);
        if !self.commit(self.control.lock().unwrap(), &Message::Shutdown) {
            eprintln!("dss serve: fleet shutdown not fully acked within {ACK_TIMEOUT:?}");
        }
        self.local_shutdown();
        if let Some(conn) = reply {
            let _ = conn.send(&Message::Ack { seq: SHUTDOWN_SEQ });
        }
        self.finish();
    }

    /// Drains any local plane and flushes the final metrics snapshot.
    fn local_shutdown(&self) {
        self.drain_plane(None);
        if let Some(path) = &self.metrics_out {
            let json = dss_telemetry::snapshot_json();
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("dss serve: writing metrics snapshot {path:?} failed: {e}");
            }
        }
    }

    fn on_signal(self: &Arc<Self>) {
        eprintln!("dss serve: {} caught signal, shutting down", self.my_name);
        if self.is_coordinator() {
            self.coordinated_shutdown(None);
        } else {
            self.local_shutdown();
            self.finish();
        }
    }

    /// Shutdown has completed: wake `serve`, which returns.
    fn finish(&self) {
        *self.done.lock().unwrap() = true;
        self.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_rass::Scenario;

    /// A logged strategy byte no strategy owns must be reported as a
    /// divergence and skipped — not replayed as some other plan.
    #[test]
    fn wal_replay_reports_an_unknown_strategy_byte_instead_of_replanning() {
        let scenario = Scenario::scenario1(42);
        let deploy = |seq: u64, strategy: u8| {
            let q = &scenario.queries[seq as usize];
            WalRecord::Deploy {
                seq,
                id: q.id.clone(),
                at_peer: q.peer.clone(),
                strategy,
                text: q.text.clone(),
            }
        };
        let mut globe = scenario.build_system();
        let records = [
            deploy(0, WireStrategy::QueryShipping.to_u8()),
            deploy(1, 9),
            deploy(2, WireStrategy::StreamSharing.to_u8()),
        ];
        assert_eq!(replay_control(&mut globe, &records), 1);
        let replayed: Vec<&str> = globe.registered_queries().map(|(q, _)| q).collect();
        let (first, third) = (&scenario.queries[0].id, &scenario.queries[2].id);
        assert_eq!(replayed, [first, third], "the bad record alone is skipped");

        // The same log with the byte intact replays without a word.
        let mut globe = scenario.build_system();
        let records = [deploy(0, 1), deploy(1, 2), deploy(2, 2)];
        assert_eq!(replay_control(&mut globe, &records), 0);
        assert_eq!(globe.registered_queries().count(), 3);
    }

    /// Subscribes and unsubscribes in a seeded random order, one of them a
    /// deploy the planner rejects, applied as the coordinator applies
    /// them: what it logged replays into a fresh replica as the very
    /// deployment it built live.
    #[test]
    fn a_logged_control_sequence_replays_to_the_live_replica() {
        let spec = ServeSpec::new("scenario1").unwrap();
        let queries = Scenario::scenario1(42).queries;
        let mut rng = 42u64;
        let mut next = move |n: usize| {
            // xorshift64: a reproducible order without another dependency.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let mut live = spec.build_globe();
        let (mut log, mut seq, mut rejected) = (Vec::new(), 1, 0);
        let (mut pending, mut subscribed): (Vec<_>, Vec<_>) = (queries.iter().collect(), vec![]);
        let reject_at = 10 + next(20);
        for step in 0..60 {
            let unsubscribe = !subscribed.is_empty() && (pending.is_empty() || next(3) == 0);
            let msg = if step == reject_at {
                Message::Deploy {
                    seq,
                    id: "bad".into(),
                    at_peer: queries[0].peer.clone(),
                    strategy: WireStrategy::StreamSharing,
                    text: "for $p in stream(\"no-such-stream\")/photons/photon return $p".into(),
                }
            } else if unsubscribe {
                let q = subscribed.swap_remove(next(subscribed.len()));
                if next(2) == 0 {
                    pending.push(q); // subscribed again later
                }
                Message::Undeploy {
                    seq,
                    id: q.id.clone(),
                }
            } else {
                let q = pending.swap_remove(next(pending.len()));
                subscribed.push(q);
                Message::Deploy {
                    seq,
                    id: q.id.clone(),
                    at_peer: q.peer.clone(),
                    strategy: WireStrategy::StreamSharing,
                    text: q.text.clone(),
                }
            };
            // As the coordinator does: a refused record is neither
            // sequenced nor logged.
            let (_, record) = sequenced(&msg).unwrap();
            match apply(&mut live, &record) {
                Ok(_) => {
                    log.push(record);
                    seq += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert_eq!(
            rejected, 1,
            "only the deploy over an unknown stream is refused"
        );
        let undeploys = log
            .iter()
            .filter(|r| matches!(r, WalRecord::Undeploy { .. }))
            .count();
        assert!(undeploys > 0, "the log replays unsubscribes too");

        let mut replica = spec.build_globe();
        assert_eq!(replay_control(&mut replica, &log), 0);
        let registered = |g: &StreamGlobe| -> Vec<(String, FlowId)> {
            let queries = g.registered_queries();
            queries.map(|(q, f)| (q.to_string(), f)).collect()
        };
        assert!(!registered(&live).is_empty());
        assert_eq!(registered(&replica), registered(&live));
        let (live_flows, replayed) = (live.deployment().flows(), replica.deployment().flows());
        assert_eq!(live_flows.len(), replayed.len());
        for (flow, (a, b)) in live_flows.iter().zip(replayed).enumerate() {
            assert_eq!(a.input, b.input, "flow {flow}");
            assert_eq!(a.processing_node, b.processing_node, "flow {flow}");
            assert_eq!(a.ops, b.ops, "flow {flow}");
            assert_eq!(a.route, b.route, "flow {flow}");
            assert_eq!(a.retired, b.retired, "flow {flow}");
        }
    }
}
