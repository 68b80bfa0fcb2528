//! One super-peer server process (`dss serve <topology> --peer <id>`):
//! the threads and sockets around the control machine ([`Control`]) and
//! the data plane ([`Plane`]). Neither of those does I/O, and nothing
//! here decides what they decide: this module dials, accepts, reads and
//! writes, runs the machine's outputs, runs the plane's passes and source
//! replays on threads, and carries the frames the plane sends ([`Egress`]).
//!
//! ## Control plane
//!
//! `serve`'s main thread owns the process's [`Control`] and its write-ahead
//! log. It takes one [`Input`] at a time from its inbox — a control message
//! a reader thread posted, a query's end-of-stream from the data path, a
//! teardown that finished — and a tick that carries the signal latch,
//! with every input and at least every `SIGNAL_POLL`, and executes the
//! machine's outputs in order
//! (`Server::execute`). Executing them in order on one thread is what
//! orders the control plane: a record is logged before it is broadcast or
//! acked, and every connection sees control messages in seq order. A
//! restarted durable process executes the machine's first outputs — the
//! rejoin of a run it left in flight — before it accepts a connection.
//!
//! ## Connections
//!
//! One acceptor thread per process blocks in `accept`
//! ([`wire::accept_loop`]) and hands each connection to a reader thread
//! (`Server::inbound`: handshake, then [`wire::read_loop`]). A reader hands
//! item batches to the plane ([`Plane::receive`]), answers `ResumeFrom`
//! ([`Plane::resend`], on a thread of its own) and `MetricsPull` itself,
//! and posts every other message to the control thread. Outbound
//! connections are dialed on demand by `Server::conn_to`, one per directed
//! pair, and carry everything this process sends to that process — a
//! reply as well — redialed once if a send finds the socket dead.
//!
//! ## Data plane: batch replay runs
//!
//! `StartRun` is two-phase: every process builds its share of the data
//! plane ([`Plane`]) and acks before `RunGo` releases the sources, so no
//! item can reach a process whose groups don't exist yet. The control
//! thread starts one worker thread per hosted node when it builds the
//! plane and one replay thread per hosted source at `RunGo`, and a
//! teardown joins them. Items travel as `StreamItemBatch` frames along
//! each flow's planned route (see [`crate::data`]). A full mailbox blocks
//! the enqueuing reader thread, which stops reading the connection, fills
//! the kernel receive window, and stalls the sender — TCP backpressure
//! mapped onto the bounded-mailbox semantics. The coordinator hands each
//! query's results to its subscriber on the data path and posts the
//! query's end-of-stream to the control thread, which completes the run
//! when every query reported.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dss_network::Topology;
use dss_proto::{
    negotiate, read_message, BatchHeader, Message, ProtoError, Role, VERSION_MAX, VERSION_MIN,
};
use dss_wal::{WalOptions, WalRecord, WalWriter};

use crate::control::{Addr, Control, Input, Output, ACK_TIMEOUT};
use crate::data::{Egress, LastRead, Plane};
use crate::profile::Thread;
use crate::spec::{NetMap, ServeSpec};
use crate::wire::{self, Conn, Incoming};
use crate::ServerError;

/// Longest the control thread goes without a tick: the signal latch's
/// latency, and the granularity of the machine's deadlines.
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

struct Server {
    opts: PeerOptions,
    map: NetMap,
    topo: Topology,
    me: usize,
    /// The control thread's inbox ([`serve`]).
    inbox: Sender<Input>,
    peer_conns: Mutex<Vec<Option<Arc<Conn>>>>,
    clients: Mutex<BTreeMap<u64, Arc<Conn>>>,
    next_client: AtomicU64,
    plane: Mutex<Option<Arc<Plane>>>,
}

/// The current plane's node workers and source replays: the control
/// thread starts them, and whoever drains the plane joins them.
type Threads = Vec<JoinHandle<()>>;

/// Replays a peer's WAL directory: the control-plane records to re-apply,
/// in log order. Corruption beyond a torn tail degrades gracefully: the
/// process starts from scratch (the coordinator still holds the
/// authoritative control log; it just cannot rejoin a run it no longer
/// remembers).
fn recover_from_wal(dir: &PathBuf, peer: &str) -> Vec<WalRecord> {
    match dss_wal::replay(dir) {
        Ok(replay) => {
            if let Some(detail) = &replay.torn_tail {
                eprintln!("dss serve: {peer} wal has a torn tail (tolerated): {detail}");
            }
            replay.records
        }
        Err(e) => {
            eprintln!("dss serve: {peer} wal unusable ({e}); starting from scratch");
            Vec::new()
        }
    }
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
    let globe = opts.spec.build_globe();
    let topo = globe.topology().clone();
    let map = NetMap::new(&topo);
    let me = map.index_of_name(&topo, &opts.peer).ok_or_else(|| {
        ServerError::Config(format!(
            "{:?} is not a super-peer of topology {:?}",
            opts.peer, opts.spec.topology
        ))
    })?;

    // Durable restart: replay the log and rebuild the registration
    // replica *before* anything can connect, so the deterministic
    // planner re-derives the exact pre-crash deployment (resume, not
    // replan — the coordinator is never asked to re-deploy anything).
    let wal_dir = opts.wal_dir.as_ref();
    let records = wal_dir.map_or_else(Vec::new, |dir| recover_from_wal(dir, &opts.peer));
    if !records.is_empty() {
        let (peer, n) = (&opts.peer, records.len());
        eprintln!("dss serve: {peer} recovered {n} wal records");
    }
    let (mut control, rejoin) = Control::new(&opts.spec, globe, me, &records);
    // Control records are rare and each one gates an ack: sync every
    // append so a SIGKILL never loses one.
    let options = WalOptions {
        fsync_every: 1,
        ..WalOptions::default()
    };
    let wal = wal_dir.map(|dir| {
        let opened = WalWriter::open(dir, options);
        opened.map_err(|e| ServerError::Config(format!("cannot open wal at {dir:?}: {e}")))
    });
    let mut wal = wal.transpose()?;

    let addr = map.addr(&opts.spec, me);
    let listener = TcpListener::bind(&addr).map_err(ServerError::Io)?;
    let coordinator = me == map.coordinator();
    let role = if coordinator { "coordinator" } else { "peer" };
    eprintln!("dss serve: {} listening on {addr} ({role})", opts.peer);
    let (inbox, control_inbox) = mpsc::channel();
    let server = Arc::new(Server {
        peer_conns: Mutex::new(vec![None; map.process_count()]),
        opts,
        map,
        topo,
        me,
        inbox,
        clients: Mutex::new(BTreeMap::new()),
        next_client: AtomicU64::new(1),
        plane: Mutex::new(None),
    });
    crate::signal::install();
    crate::profile::arm_from_env();

    // Rejoin a run left in flight before accepting anything: the plane
    // exists before its first batch can arrive.
    let mut threads = Threads::new();
    for output in rejoin {
        server.execute(&control, &mut wal, &mut threads, output);
    }

    // The acceptor blocks in `accept` and is never joined: `serve` is only
    // ever the body of `dss serve`, so returning from it ends the process
    // and the thread with it.
    let srv = Arc::clone(&server);
    std::thread::spawn(move || {
        wire::accept_loop(listener, move |stream| Arc::clone(&srv).inbound(stream))
    });

    // This thread is the control plane: one input at a time through the
    // machine, its outputs executed in order. A tick with every input,
    // and at least every `SIGNAL_POLL`, carries the signal latch (a
    // handler may only store a flag) and the time the machine's deadlines
    // are measured in.
    let started = Instant::now();
    let mut stopping = false;
    while !stopping {
        let received = control_inbox.recv_timeout(SIGNAL_POLL).ok();
        let signal = crate::signal::triggered();
        for input in received.into_iter().chain([Input::Tick { signal }]) {
            for output in control.handle(started.elapsed(), input) {
                stopping |= server.execute(&control, &mut wal, &mut threads, output);
            }
        }
    }

    // Kick every blocked reader so their threads unwind.
    let (peers, clients) = (
        server.peer_conns.lock().unwrap(),
        server.clients.lock().unwrap(),
    );
    for c in peers.iter().flatten().chain(clients.values()) {
        c.hangup();
    }
    eprintln!("dss serve: {} stopped", server.opts.peer);
    Ok(())
}

impl Server {
    /// Executes one of the control machine's outputs; true for `Stop`.
    fn execute(
        self: &Arc<Self>,
        control: &Control,
        wal: &mut Option<WalWriter>,
        threads: &mut Threads,
        output: Output,
    ) -> bool {
        match output {
            Output::Send { to, msg } => {
                self.frame(to, |c| c.send(&msg));
            }
            Output::Broadcast(msg) => {
                for i in (0..self.map.process_count()).filter(|&i| i != self.me) {
                    self.frame(Addr::Process(i), |c| c.send(&msg));
                }
            }
            Output::Log(record) => {
                if let Some(Err(e)) = wal.as_mut().map(|w| w.append(&record)) {
                    eprintln!("dss serve: wal append failed: {e}");
                }
            }
            Output::BuildPlane(run) => {
                // A plane no teardown drained (an aborted run's) goes now.
                let _ = self.plane.lock().unwrap().take().inspect(|p| p.close());
                threads.drain(..).for_each(|t| drop(t.join()));
                let (cap, durable) = (self.opts.mailbox_capacity, self.opts.wal_dir.is_some());
                let (globe, deliveries) = (control.globe(), control.deliveries());
                let plane = Arc::new(Plane::build(globe, self.me, run, cap, durable, deliveries));
                for node in plane.nodes() {
                    let (plane, srv) = (Arc::clone(&plane), Arc::clone(self));
                    threads.push(std::thread::spawn(move || {
                        crate::profile::label(Thread::Worker);
                        let mut worker = plane.worker(node);
                        while plane.pass(&mut worker, &*srv) {}
                    }));
                }
                *self.plane.lock().unwrap() = Some(plane);
            }
            Output::Rejoin(run) => {
                for (to, msg) in self.current(run).iter().flat_map(|p| p.resume_requests()) {
                    self.frame(Addr::Process(to), |c| c.send(&msg));
                }
            }
            Output::StartSources(run) => {
                crate::profile::window(true);
                if let Some(p) = self.current(run) {
                    let delay = self.opts.source_delay;
                    threads.push(std::thread::spawn(move || {
                        crate::profile::label(Thread::Source);
                        p.replay(delay)
                    }));
                }
            }
            Output::Teardown(run) => {
                crate::profile::window(false);
                // A plane of another run is not drained here, nor its
                // threads taken from whoever will join them.
                let (srv, plane) = (Arc::clone(self), self.current(run));
                let threads = plane
                    .as_ref()
                    .map_or(Threads::new(), |_| std::mem::take(threads));
                std::thread::spawn(move || {
                    srv.drain(plane, threads);
                    let _ = srv.inbox.send(Input::TornDown { run });
                });
            }
            Output::Stop => {
                let plane = self.plane.lock().unwrap().clone();
                self.drain(plane, std::mem::take(threads));
                crate::profile::dump(&self.opts.peer);
                if let Some(path) = &self.opts.metrics_out {
                    if let Err(e) = std::fs::write(path, dss_telemetry::snapshot_json()) {
                        eprintln!("dss serve: writing metrics snapshot {path:?} failed: {e}");
                    }
                }
                return true;
            }
        }
        false
    }

    /// Sends one frame, which `send` writes on the connection to `to`. To
    /// a process through `send_with`: a cached connection to a peer that
    /// crashed and came back is a dead socket, and a restarted durable
    /// peer must still receive its batches and the `RunDone` and
    /// `Shutdown` broadcasts. To a client only while it is connected.
    /// False if the frame did not go out.
    fn frame(&self, to: Addr, send: impl Fn(&Conn) -> Result<(), ProtoError>) -> bool {
        let sent = match to {
            Addr::Process(i) => self.send_with(i, send),
            Addr::Client(id) => {
                let Some(c) = self.clients.lock().unwrap().get(&id).cloned() else {
                    return false;
                };
                send(&c).map_err(ServerError::Proto)
            }
        };
        let failed = |e: ServerError| eprintln!("dss serve: send to {to:?} failed: {e}");
        sent.map_err(failed).is_ok()
    }

    // ---- connection management -------------------------------------

    fn inbound(self: Arc<Self>, stream: TcpStream) {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let Ok(Some(Message::Hello {
            min_version,
            max_version,
            role,
            name,
        })) = read_message(&mut reader)
        else {
            return;
        };
        let from = match role {
            Role::Client => Addr::Client(self.next_client.fetch_add(1, Ordering::SeqCst)),
            Role::Peer => match self.map.index_of_name(&self.topo, &name) {
                Some(i) => Addr::Process(i),
                None => return,
            },
        };
        let Ok(conn) = Conn::new(stream, name).map(Arc::new) else {
            return;
        };
        let Some(version) = negotiate(min_version, max_version, VERSION_MIN, VERSION_MAX) else {
            let message = format!(
                "no mutual protocol version: you speak [{min_version}, {max_version}], \
                 this peer speaks [{VERSION_MIN}, {VERSION_MAX}]"
            );
            return fault(&conn, "hello", message);
        };
        let peer = self.opts.peer.clone();
        if conn.send(&Message::HelloAck { version, peer }).is_err() {
            return;
        }
        reader.get_ref().set_read_timeout(None).ok();
        if let Addr::Client(id) = from {
            self.clients.lock().unwrap().insert(id, Arc::clone(&conn));
        }
        crate::profile::label(Thread::Reader);
        let srv = Arc::clone(&self);
        let c = Arc::clone(&conn);
        // What this connection's reader last read for a tap.
        let mut read = LastRead::default();
        let _ = wire::read_loop(reader, move |msg| srv.handle(msg, &c, from, &mut read));
        if let Addr::Client(id) = from {
            self.clients.lock().unwrap().remove(&id);
        }
    }

    /// The (lazily dialed) outbound connection to process `i`. Nothing
    /// arrives on it: process `i` sends on a connection of its own.
    fn conn_to(&self, i: usize) -> Result<Arc<Conn>, ServerError> {
        if let Some(c) = self.peer_conns.lock().unwrap()[i].clone() {
            return Ok(c);
        }
        let (addr, me) = (self.map.addr(&self.opts.spec, i), &self.opts.peer);
        let dialed = Instant::now();
        let (conn, _) = wire::connect(&addr, Role::Peer, me, ACK_TIMEOUT)?;
        // What a first contact cost, `connect()` call to `HelloAck` read.
        dss_telemetry::histogram_record(
            "server.dial_ms",
            || vec![("peer", me.clone())],
            dialed.elapsed().as_secs_f64() * 1e3,
        );
        let conn = Arc::new(conn);
        let mut guard = self.peer_conns.lock().unwrap();
        if let Some(existing) = guard[i].clone() {
            // Lost a dial race; use the established connection.
            conn.hangup();
            return Ok(existing);
        }
        guard[i] = Some(Arc::clone(&conn));
        Ok(conn)
    }

    // ---- message dispatch ------------------------------------------

    /// One frame off connection `conn` to `from`: item batches and the
    /// data plane's requests go to the plane on this reader thread, every
    /// control message goes to the control thread's inbox. `read` is the
    /// connection's last read ([`LastRead`]).
    fn handle(
        self: &Arc<Self>,
        incoming: Incoming<'_>,
        conn: &Arc<Conn>,
        from: Addr,
        read: &mut LastRead,
    ) -> bool {
        let plane = || self.plane.lock().unwrap().clone();
        let msg = match incoming {
            Incoming::Batch(view) => {
                let Some(Err(refused)) = plane().map(|p| p.receive(view, read, &**self)) else {
                    return true;
                };
                // The sender is at fault, as for a frame that fails to
                // decode: this connection ends, the others carry on.
                eprintln!("dss serve: batch from {} refused: {refused}", conn.name);
                fault(conn, "stream item batch", refused.to_string());
                conn.hangup();
                return false;
            }
            Incoming::Message(msg) => msg,
        };
        match msg {
            Message::ResumeFrom {
                run,
                flow,
                hop,
                offset,
            } => {
                // A restarted peer asks for our retained output. Resend on
                // a dedicated thread: the resend dials the requester and
                // must not block this connection's reader.
                if let Some(p) = plane() {
                    let srv = Arc::clone(self);
                    std::thread::spawn(move || p.resend(run, flow, hop, offset, &*srv));
                }
            }
            Message::MetricsPull => {
                let json = dss_telemetry::snapshot_json();
                let _ = conn.send(&Message::MetricsSnapshot { json });
            }
            Message::Goodbye => return false,
            msg => {
                let _ = self.inbox.send(Input::Msg { from, msg });
            }
        }
        true
    }

    // ---- run lifecycle ---------------------------------------------

    /// The plane in the slot, if it is run `run`'s.
    fn current(&self, run: u64) -> Option<Arc<Plane>> {
        self.plane.lock().unwrap().clone().filter(|p| p.run == run)
    }

    /// Drains `plane`, if any: closes its mailboxes, joins its `threads`
    /// (what is queued is still processed) and flushes its mailbox
    /// metrics. The slot is cleared only if it still holds the drained
    /// plane: by then the next run's plane may have replaced it.
    fn drain(&self, plane: Option<Arc<Plane>>, threads: Threads) {
        let Some(p) = plane else {
            return;
        };
        p.close();
        threads.into_iter().for_each(|t| drop(t.join()));
        p.publish_mailbox_metrics();
        let mut slot = self.plane.lock().unwrap();
        if slot.as_ref().is_some_and(|c| Arc::ptr_eq(c, &p)) {
            *slot = None;
        }
    }

    /// Runs `send` on the connection to process `i`, redialing once on
    /// failure. A cached connection to a peer that was SIGKILLed and
    /// restarted is a dead socket: drop it (if nobody else already
    /// replaced it) and let `conn_to` dial fresh — `wire::connect` keeps
    /// retrying until the restarted process listens again (up to
    /// `ACK_TIMEOUT`).
    fn send_with(
        &self,
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
}

/// The plane's frames leave on this process's connections, and a query's
/// end of stream goes to the control thread.
impl Egress for Server {
    fn send(&self, to: Addr, header: &BatchHeader<'_>, items: impl Fn(&mut Vec<u8>)) -> bool {
        self.frame(to, |c| c.send_batch(header, &items))
    }

    fn post(&self, input: Input) {
        let _ = self.inbox.send(input);
    }
}
