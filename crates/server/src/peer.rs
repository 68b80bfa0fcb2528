//! One super-peer server process (`dss serve <topology> --peer <id>`):
//! the threads and sockets around the control machine ([`Control`]) and
//! the data plane ([`Plane`]).
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
//! acked, and every connection sees control messages in seq order.
//!
//! ## Connections
//!
//! One acceptor thread per process blocks in `accept`
//! ([`wire::accept_loop`]) and hands each connection to a reader thread
//! (`Server::inbound`: handshake, then [`wire::read_loop`]). A reader serves
//! item batches, `ResumeFrom` and `MetricsPull` itself and posts every
//! other message to the control thread. Outbound connections are dialed on
//! demand by `Server::conn_to`, one per directed pair, and carry everything
//! this process sends to that process — a reply as well — redialed once if
//! a send finds the socket dead.
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
//! bounded-mailbox semantics. The coordinator hands each query's results to
//! its subscriber on the data path and posts the query's end-of-stream to
//! the control thread, which completes the run when every query reported.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dss_network::{FlowId, Topology};
use dss_proto::{
    negotiate, read_message, BatchDest, BatchView, DecodeError, Message, ProtoError, Role,
    VERSION_MAX, VERSION_MIN,
};
use dss_wal::{WalOptions, WalRecord, WalWriter};

use crate::control::{Addr, Control, Input, Output, ACK_TIMEOUT};
use crate::data::{Deliveries, Exit, Items, Plane};
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
    // A `RunStart` without a matching `RunDone`: the process died with
    // that run in flight and must rejoin it.
    let wal_dir = opts.wal_dir.as_ref();
    let records = wal_dir.map_or_else(Vec::new, |dir| recover_from_wal(dir, &opts.peer));
    let active_run = records.iter().fold(None, |active, record| match record {
        WalRecord::RunStart { run } => Some(*run),
        WalRecord::RunDone { run } if active == Some(*run) => None,
        _ => active,
    });
    if !records.is_empty() {
        let rejoining = active_run.map_or(String::new(), |run| format!(", rejoining run {run}"));
        let (peer, n) = (&opts.peer, records.len());
        eprintln!("dss serve: {peer} recovered {n} wal records{rejoining}");
    }
    let mut control = Control::new(&opts.spec, globe, me, &records);
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

    // Rejoin an in-flight run: rebuild this process's share of the data
    // plane, ask every upstream for a resend of the inputs we relay or
    // consume, and re-replay hosted sources. Downstream contiguity
    // filters absorb everything they already saw.
    if let Some(run) = active_run {
        let plane = server.build_plane(&control, run);
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
                stopping |= server.execute(&control, &mut wal, output);
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
        output: Output,
    ) -> bool {
        match output {
            Output::Send { to, msg } => self.send(to, &msg),
            Output::Broadcast(msg) => {
                for i in (0..self.map.process_count()).filter(|&i| i != self.me) {
                    self.send(Addr::Process(i), &msg);
                }
            }
            Output::Log(record) => {
                if let Some(Err(e)) = wal.as_mut().map(|w| w.append(&record)) {
                    eprintln!("dss serve: wal append failed: {e}");
                }
            }
            Output::BuildPlane(run) => {
                // Tear down any previous plane defensively (normally
                // `RunDone` already did).
                if let Some(p) = self.plane.lock().unwrap().take() {
                    p.drain();
                }
                self.build_plane(control, run);
            }
            Output::StartSources(run) => {
                let plane = self.plane.lock().unwrap().clone();
                if let Some(p) = plane.filter(|p| p.run == run) {
                    p.start_sources();
                }
            }
            Output::Teardown(run) => {
                let srv = Arc::clone(self);
                std::thread::spawn(move || {
                    srv.drain_plane(Some(run));
                    let _ = srv.inbox.send(Input::TornDown { run });
                });
            }
            Output::Stop => {
                self.drain_plane(None);
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

    /// Sends a control message. To a process through `send_with` (not a
    /// bare `conn.send`): a cached connection to a peer that crashed and
    /// came back is a dead socket, and a restarted durable peer must still
    /// receive `RunDone` and `Shutdown` broadcasts.
    fn send(self: &Arc<Self>, to: Addr, msg: &Message) {
        let sent = match to {
            Addr::Process(i) => self.send_with(i, |conn| conn.send(msg)),
            Addr::Client(id) => {
                let client = self.clients.lock().unwrap().get(&id).cloned();
                client.map_or(Ok(()), |c| c.send(msg).map_err(ServerError::Proto))
            }
        };
        if let Err(e) = sent {
            eprintln!("dss serve: send to {to:?} failed: {e}");
        }
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
        let srv = Arc::clone(&self);
        let c = Arc::clone(&conn);
        let _ = wire::read_loop(reader, move |msg| srv.handle(msg, &c, from));
        if let Addr::Client(id) = from {
            self.clients.lock().unwrap().remove(&id);
        }
    }

    /// The (lazily dialed) outbound connection to process `i`. Nothing
    /// arrives on it: process `i` sends on a connection of its own.
    fn conn_to(self: &Arc<Self>, i: usize) -> Result<Arc<Conn>, ServerError> {
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
    /// data plane's requests are served on this reader thread, every
    /// control message goes to the control thread's inbox.
    fn handle(self: &Arc<Self>, incoming: Incoming<'_>, conn: &Arc<Conn>, from: Addr) -> bool {
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

    /// An item batch off the wire, still bytes: a `StreamItemBatch` takes
    /// its route step here, a `Deliver` goes to its subscriber. Fails if a
    /// tap here reads a malformed item.
    fn on_batch(self: &Arc<Self>, view: BatchView<'_>) -> Result<(), DecodeError> {
        let BatchView { header, items } = view;
        let mut items = Items::View(items);
        let plane = self.plane.lock().unwrap().clone();
        let (flow, hop) = match header.dest {
            BatchDest::Hop { flow, hop } => (flow as FlowId, hop as usize),
            BatchDest::Query(query) => {
                if let Some(p) = plane.filter(|p| p.run == header.run) {
                    self.deliver_local(&p, query, header.offset, items, header.eos);
                }
                return Ok(());
            }
        };
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

    // ---- run lifecycle ---------------------------------------------

    /// Where a batch goes when it leaves this process
    /// ([`Plane::advance`]): over the wire to the next hop's process, or —
    /// off the end of a delivery flow's route — to the coordinator, which
    /// hands it to the subscriber.
    fn egress(self: &Arc<Self>) -> impl Fn(&Plane, Exit<'_>, u64, Items<'_>, bool) + Clone {
        let srv = Arc::clone(self);
        move |plane: &Plane, exit, offset, items, eos| match exit {
            Exit::Hop { flow, hop } => srv.forward_wire(plane, flow, hop, offset, items, eos),
            Exit::Deliver { query } if srv.me == srv.map.coordinator() => {
                srv.deliver_local(plane, query, offset, items, eos)
            }
            Exit::Deliver { .. } => {
                let header = exit.header(plane.run, offset, eos);
                srv.note_batch(&items);
                let to = srv.map.coordinator();
                if let Err(e) =
                    srv.send_with(to, |c| c.send_batch(&header, |buf| items.encode_into(buf)))
                {
                    eprintln!("dss serve: delivery relay failed: {e}");
                }
            }
        }
    }

    /// Builds this process's share of the data plane for `run` from the
    /// control machine's replica and puts it in the plane slot.
    fn build_plane(self: &Arc<Self>, control: &Control, run: u64) -> Arc<Plane> {
        let opts = &self.opts;
        let durable = opts.wal_dir.is_some();
        let (mailbox, delay) = (opts.mailbox_capacity, opts.source_delay);
        let plane = Plane::build(
            control.globe(),
            &opts.peer,
            run,
            mailbox,
            durable,
            delay,
            self.egress(),
        );
        let (subscribers, requester) = control.subscribers();
        let subscribers = subscribers.clone();
        let marks = Mutex::default();
        let _ = plane.deliveries.set(Deliveries {
            subscribers,
            requester,
            marks,
        });
        *self.plane.lock().unwrap() = Some(Arc::clone(&plane));
        plane
    }

    /// A batch of `query`'s results at the coordinator: admit what the
    /// query's delivery sequence has not seen, pass it to the subscriber,
    /// and tell the control thread when the query's stream has ended.
    fn deliver_local(&self, p: &Plane, query: &str, offset: u64, mut items: Items<'_>, eos: bool) {
        let Some(to) = p.deliveries.get() else {
            return;
        };
        let mut marks = to.marks.lock().unwrap();
        let mark = marks.entry(query.to_string()).or_default();
        let Some((offset, eos)) = items.admit(mark, offset, eos) else {
            return;
        };
        drop(marks);
        if !items.is_empty() {
            dss_telemetry::counter_add(
                "runtime.delivered",
                || vec![("query", query.to_string())],
                items.len() as u64,
            );
        }
        // Results go to the subscriber's connection; if it is gone (the
        // CLI subscribes and disconnects), the run requester gets them.
        let client = {
            let clients = self.clients.lock().unwrap();
            let mut ids = to.subscribers.get(query).into_iter().chain(&to.requester);
            ids.find_map(|id| clients.get(id).cloned())
        };
        if let Some(c) = client {
            self.note_batch(&items);
            let header = Exit::Deliver { query }.header(p.run, offset, eos);
            let _ = c.send_batch(&header, |buf| items.encode_into(buf));
        }
        if eos {
            // Contiguous from 0: the end of the last batch counts them all.
            let delivered = offset + items.len() as u64;
            let (run, query) = (p.run, query.to_string());
            let _ = self.inbox.send(Input::QueryDone {
                run,
                query,
                delivered,
            });
        }
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
        if slot.as_ref().is_some_and(|c| Arc::ptr_eq(c, &p)) {
            *slot = None;
        }
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
                self.send_with(dest, |c| {
                    c.send_batch(&header, |buf| buf.extend_from_slice(&batch.items))
                })
            }
            None => self.send_with(dest, |c| {
                c.send_batch(&header, |buf| items.encode_into(buf))
            }),
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

    /// Records how many items one outgoing `StreamItemBatch`/`Deliver`
    /// frame carries — how well natural batching is working on this peer.
    fn note_frame(&self, items: usize) {
        dss_telemetry::histogram_record(
            "server.frame_items",
            || vec![("peer", self.opts.peer.clone())],
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
                || vec![("peer", self.opts.peer.clone())],
                view.len() as u64,
            );
        }
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
            let sent = self.send_with(dest, |c| {
                c.send_batch(&header, |buf| buf.extend_from_slice(&batch.items))
            });
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
                let upstream = self.map.owner_of(pf.route[hop - 1]);
                if self.map.owner_of(pf.route[hop]) != self.me || upstream == self.me {
                    continue;
                }
                let msg = Message::ResumeFrom {
                    run: p.run,
                    flow: flow as u64,
                    hop: hop as u32,
                    offset: 0,
                };
                if let Err(e) = self.send_with(upstream, |conn| conn.send(&msg)) {
                    eprintln!("dss serve: resume request to process {upstream} failed: {e}");
                }
            }
        }
        p.start_sources();
    }
}
