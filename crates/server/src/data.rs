//! The per-run data plane of one peer process: [`dss_network::peer`]'s
//! core, plus everything a process decides around it. It opens no socket,
//! starts no thread and reads no clock (a paced source replay only sleeps
//! between items): `serve` runs it on threads over TCP (`crate::peer`),
//! and `tests/fleet_sim.rs` runs it on one thread over an in-memory
//! network; every frame leaves through the driver's [`Egress`].
//!
//! For each run, every process snapshots its replica's deployment into the
//! core's [`GroupTable`], restricted to the nodes it hosts. The table
//! (flows, routes, groups, deliveries) is shared read-only by every thread;
//! each worker builds and owns the DAGs it runs. What this module adds: one
//! bounded [`SyncMailbox`] per hosted node and the passes that drain it
//! ([`Plane::pass`]), source replay ([`Plane::replay`]), the walk of a batch
//! along the hops this process hosts ([`Plane::advance`]), and the run's
//! recovery rules, each in one place:
//!
//! - which arriving batch is admitted: the per-crossing receive marks
//!   ([`Contiguity`]), and a refusal for a hop this process does not host
//!   ([`Plane::receive`]);
//! - what a crossing retains, in durable mode (`Plane::cross`);
//! - what a restarted process asks its upstreams for
//!   ([`Plane::resume_requests`]) and what answers one such request
//!   ([`Plane::resend`]);
//! - which delivery the coordinator admits, the client it goes to, and
//!   the query's end of stream (`Plane::deliver`).
//!
//! **Bytes, not trees; read once per connection per distinct batch.** A
//! batch exists here in one of two forms ([`Items`]): the trees a hosted
//! `FlowDag` emitted, or the framed bytes of a batch that arrived over the
//! wire. A wire batch stays bytes for as long as this process only passes
//! it on — trimmed by item boundary, re-headed, copied into the next frame
//! — and is read in exactly one place: where a hosted group taps it,
//! through the connection's [`LastRead`], straight into that group's
//! mailbox entries. That read checks every item and builds its tree; a
//! malformed one is the batch's error ([`Plane::advance`]). The tap feeds
//! its group every tree: the group's DAG decides its own σs. The sent-log
//! retains what was sent, encoded. Trees a worker sends down several flows
//! in a row — a stream's copies to the members without operators — are
//! encoded once (`LastSent`).
//!
//! A flow without operators carries its input unchanged, so a stream's
//! copies — under data shipping, one raw copy per subscriber hosted here —
//! arrive frame after frame on one connection, each under its own flow's
//! header but with the same item bytes. The [`LastRead`] builds every item
//! of such a batch once and hands each tap that follows clones of the
//! trees; a batch of other bytes is read anew.
//!
//! **Natural batching.** Every hop moves what is already queued, never
//! one item at a time and never waiting to fill a batch. A worker *pass*
//! takes whatever its mailbox holds (at least one entry, at most
//! [`BATCH_CAP`]), runs each entry through its group's DAG, collects the
//! outputs per flow across the whole pass and forwards one batch per flow
//! per pass. Relays and the coordinator forward the items of a batch as
//! they received them, so a batch formed at a flow's origin survives every
//! later hop. There is no timer and no knob: a backlogged worker finds
//! full passes and sends few, large frames; an idle one (a paced source,
//! a trickle) finds one entry and sends it at once, so batching never adds
//! latency. [`BATCH_CAP`] only bounds how much one pass — and therefore
//! one frame — may hold.
//!
//! **Why the outputs are byte-exact.** The batch oracle processes each
//! group's full input in order, then flushes once. Here, each group's
//! input is a single upstream sequence (one source stream, or one parent
//! flow), delivered in order: a pass takes mailbox entries in FIFO order
//! and feeds each group's DAG in that order, a flow's outputs are produced
//! by one worker and appended to the flow's pending batch in emission
//! order, batches leave in the order they were formed (offsets are
//! stamped per batch by that worker, `offset + len` contiguous), travel
//! the route over per-connection FIFO links, and are appended to each
//! consumer mailbox by a single reader, all-or-nothing per batch.
//! How the input happens to be split into passes changes only where the
//! batch boundaries fall, never the per-flow sequence. The end-of-stream
//! marker still travels *behind* the last item of its flow: a worker that
//! meets a group's marker mid-pass flushes the DAG, sends everything
//! pending, and only then the markers. So each DAG flushes exactly once,
//! after exactly the oracle's input — same items, same order, same flush
//! point ⇒ same bytes per flow.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dss_core::StreamGlobe;
use dss_network::{
    Contiguity, FlowDag, FlowId, FlowOutputs, Group, GroupKey, GroupTable, MailboxEntry, Next,
    NodeId, SyncMailbox,
};
use dss_proto::wire::put_items;
use dss_proto::{BatchDest, BatchHeader, BatchView, DecodeError, ItemsView, Message};
use dss_xml::Node;

use crate::control::{Addr, Input};
use crate::spec::NetMap;

/// Mailbox origin-tag for a payload item.
const TAG_ITEM: u64 = 0;
/// Mailbox origin-tag for a group's end-of-stream marker.
const TAG_EOS: u64 = 1;

/// Most entries one worker pass takes from its mailbox, and most items one
/// forwarded batch (live, end-of-stream flush or recovery resend) carries.
/// Measured, not tuned per deployment: on the loopback fleet 64 buys 1.7x
/// the one-item-per-frame throughput for 6 % more peak memory; 256 buys at
/// most a few percent on top (inside the run-to-run spread) for 15 %. It
/// also keeps every frame far below `dss_proto::MAX_FRAME_LEN`.
pub const BATCH_CAP: usize = 64;

struct SourceJob {
    group: usize,
    node: NodeId,
    items: Vec<Node>,
}

/// How the plane's frames leave, and how it tells the control machine
/// that a query's stream ended: sockets under `dss serve`, an in-memory
/// network in tests.
pub trait Egress {
    /// Sends `to` one batch frame: `header`, then the item list `items`
    /// writes. False if it did not go out (a client that is gone, a
    /// process that cannot be reached).
    fn send(&self, to: Addr, header: &BatchHeader<'_>, items: impl Fn(&mut Vec<u8>)) -> bool;
    /// Hands the control machine an input.
    fn post(&self, input: Input);
}

/// Why an arriving batch was refused ([`Plane::receive`]): the sender is
/// at fault.
#[derive(Debug, PartialEq)]
pub enum Refused {
    /// It names a hop, or a delivery, this process does not host.
    NotHere,
    /// A tap here read a malformed item.
    Malformed(DecodeError),
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refused::NotHere => write!(f, "no hop of this batch is hosted here"),
            Refused::Malformed(e) => write!(f, "malformed item: {e}"),
        }
    }
}

/// A batch's items as this process holds them.
#[derive(Debug)]
pub enum Items<'a> {
    /// Out of a hosted `FlowDag`: trees, encoded where they leave. The
    /// cell, if any, keeps that encoding for every other flow its worker
    /// sends the same trees down (`LastSent`).
    Trees(Vec<Node>, Option<&'a OnceCell<Vec<u8>>>),
    /// Off the wire: framed bytes over the connection's read buffer, and
    /// that connection's last read, which a tap here reads them through.
    View(ItemsView<'a>, &'a mut LastRead),
}

impl Items<'_> {
    pub fn len(&self) -> usize {
        match self {
            Items::Trees(trees, _) => trees.len(),
            Items::View(view, _) => view.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Receive filter: trims the batch — these items at `offset`, marker
    /// `eos` — to the tail `mark` has not seen ([`Contiguity::admit`]) and
    /// returns that tail's offset and whether it carries the first
    /// marker; `None` if nothing in the batch is new. Trimming is by item
    /// boundary: trees are dropped, a view just starts later.
    pub fn admit(&mut self, mark: &mut Contiguity, offset: u64, eos: bool) -> Option<(u64, bool)> {
        let admitted = mark.admit(offset, self.len(), eos)?;
        match self {
            Items::Trees(trees, wire) => {
                trees.drain(..admitted.skip);
                *wire = None; // it holds the whole list
            }
            Items::View(view, _) => view.skip(admitted.skip),
        }
        Some((offset + admitted.skip as u64, admitted.eos))
    }

    /// Appends the item list as it goes on the wire (count, then the
    /// items): copied as received from a view; from trees, encoded now —
    /// or copied, if another flow already encoded the same trees into the
    /// batch's cell.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Items::Trees(trees, wire) => match wire.and_then(OnceCell::get) {
                Some(list) => out.extend_from_slice(list),
                None => {
                    let at = out.len();
                    put_items(out, trees);
                    // The cell is empty, so `set` cannot fail.
                    wire.map(|wire| wire.set(out[at..].to_vec()));
                }
            },
            Items::View(view, _) => view.encode_into(out),
        }
    }

    /// The items as trees for a consumer on this process, and how many
    /// trees were built for them. The `last` consumer takes the trees there
    /// are instead of a copy. A view is read through its connection's
    /// [`LastRead`].
    fn trees(&mut self, last: bool) -> Result<(Vec<Node>, usize), DecodeError> {
        Ok(match self {
            Items::Trees(trees, _) if last => (std::mem::take(trees), 0),
            Items::Trees(trees, _) => (trees.clone(), 0),
            Items::View(view, read) => read.trees(view)?,
        })
    }
}

/// Where a batch leaves this process ([`Plane::advance`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit<'a> {
    /// Over the wire, to the process hosting `route[hop]` of `flow`.
    Hop { flow: FlowId, hop: usize },
    /// Off the end of the route of `query`'s delivery flow.
    Deliver { query: &'a str },
}

impl<'a> Exit<'a> {
    /// The header a batch leaves under: a `StreamItemBatch` for the next
    /// hop, a `Deliver` for the subscriber.
    pub fn header(self, run: u64, offset: u64, eos: bool) -> BatchHeader<'a> {
        let dest = match self {
            Exit::Hop { flow, hop } => BatchDest::Hop {
                flow: flow as u64,
                hop: hop as u32,
            },
            Exit::Deliver { query } => BatchDest::Query(query),
        };
        BatchHeader {
            run,
            dest,
            offset,
            eos,
        }
    }
}

/// One batch as it crossed the wire, retained encoded.
#[derive(Debug)]
pub struct SentBatch {
    /// Offset of the batch's first item in the flow's output.
    pub offset: u64,
    /// How many items it holds (at most [`BATCH_CAP`], as sent).
    pub len: usize,
    pub eos: bool,
    /// Its item list in wire form ([`Items::encode_into`]).
    pub items: Vec<u8>,
}

/// Everything one wire-crossing `(flow, dest hop)` ever sent, batch by
/// batch, retained in memory for the run so a restarted receiver can ask
/// for it again ([`Plane::resend`]). Only populated when the process runs
/// with a WAL directory — plain deployments retain nothing.
#[derive(Debug, Default)]
pub struct SentEntry {
    /// In offset order, contiguous from offset 0.
    batches: Vec<SentBatch>,
}

impl SentEntry {
    /// Retains the batch about to cross and hands it back, encoded, for
    /// the send.
    pub fn push(&mut self, offset: u64, items: &Items<'_>, eos: bool) -> &SentBatch {
        debug_assert_eq!(
            offset,
            self.batches.last().map_or(0, |b| b.offset + b.len as u64)
        );
        let mut encoded = Vec::new();
        items.encode_into(&mut encoded);
        self.batches.push(SentBatch {
            offset,
            len: items.len(),
            eos,
            items: encoded,
        });
        self.batches.last().expect("just pushed")
    }

    /// The retained batches a receiver standing at `offset` still needs,
    /// as they were sent: from the batch *containing* `offset` on (the
    /// receiver's [`Contiguity`] mark trims the overlap), or just the
    /// end-of-stream marker if that is all it lacks. Nothing for an
    /// offset beyond what was ever sent.
    fn batches_from(&self, offset: u64) -> &[SentBatch] {
        let needed = |b: &SentBatch| {
            let end = b.offset + b.len as u64;
            end > offset || (b.eos && end == offset)
        };
        let first = self.batches.partition_point(|b| !needed(b));
        &self.batches[first..]
    }
}

/// Who gets a run's results at the coordinator: each query's subscriber
/// (a client id), or the run's requester where that client is gone.
#[derive(Debug, Default)]
pub struct Deliveries {
    pub subscribers: BTreeMap<String, u64>,
    pub requester: Option<u64>,
}

/// Sender-side retention map: one shared [`SentEntry`] per wire-crossing
/// `(flow, dest hop)`.
type SentLog = BTreeMap<(FlowId, usize), Arc<Mutex<SentEntry>>>;

/// One run's executable state on one process.
pub struct Plane {
    pub run: u64,
    /// This process's name, the `peer` label of its counters.
    peer: String,
    map: NetMap,
    /// This process's index in `map`.
    me: usize,
    /// Every flow's route and delivery, and the groups of the hosted
    /// nodes: fixed for the run's lifetime, read by every thread.
    pub groups: GroupTable,
    /// Per hosted node with groups: its name and its mailbox.
    mailboxes: BTreeMap<NodeId, (String, SyncMailbox)>,
    sources: Vec<SourceJob>,
    /// Batches that arrived after teardown began (must all belong to
    /// side-branches that feed no delivery — see `Control`'s
    /// `finish_run`), or for another run.
    stale: AtomicU64,
    /// Retain sent batches for crash-recovery resends (WAL mode only).
    durable: bool,
    /// Sender side: everything sent per wire-crossing `(flow, dest hop)`.
    /// The per-entry lock serializes the live sender with a recovery
    /// resend *without* coupling unrelated flows.
    sent: Mutex<SentLog>,
    /// Receiver side: contiguous high-water mark per `(flow, dest hop)`.
    recv: Mutex<BTreeMap<(FlowId, usize), Contiguity>>,
    /// Where results leave at the coordinator (nobody subscribes
    /// elsewhere), past each query's delivery mark: the mark admits
    /// exactly the unseen tail of a restarted delivery peer's output.
    deliveries: Deliveries,
    marks: Mutex<BTreeMap<String, Contiguity>>,
}

/// One hosted node's worker: the node's DAGs and what its passes keep
/// between them. It belongs to whoever runs its passes ([`Plane::pass`]).
pub struct Worker {
    node: NodeId,
    dags: NodeWorker,
    last: LastSent,
    /// The entries of the pass in progress.
    pass: Vec<MailboxEntry>,
}

impl Plane {
    /// Builds the share of the data plane for `run` that process `me`
    /// hosts: the sharing groups of its nodes and one mailbox per node
    /// that has any. Nothing runs until the driver runs the node workers'
    /// passes ([`Plane::pass`]) and, at the coordinator's `RunGo`, the
    /// source replays ([`Plane::replay`]) — by then every process has
    /// acked its plane, so no item can arrive anywhere before the
    /// receiving group exists.
    pub fn build(
        globe: &StreamGlobe,
        me: usize,
        run: u64,
        mailbox_capacity: usize,
        durable: bool,
        deliveries: Deliveries,
    ) -> Plane {
        let topo = globe.topology();
        let map = NetMap::new(topo);
        let mut table = GroupTable::build(globe.deployment(), |node| map.owner_of(node) == me);
        let queries = globe.registered_queries();
        table.set_deliveries(queries.map(|(q, f)| (f, q.to_string())).collect());

        let mut mailboxes = BTreeMap::new();
        let mut sources = Vec::new();
        for (g, group) in table.groups().iter().enumerate() {
            if let GroupKey::Source(stream) = &group.key {
                let items = globe.source_items(stream).expect("a registered source");
                let (node, items) = (group.node, items.to_vec());
                sources.push(SourceJob {
                    group: g,
                    node,
                    items,
                });
            }
            mailboxes.entry(group.node).or_insert_with(|| {
                let name = topo.peer(group.node).name.clone();
                (name, SyncMailbox::new(mailbox_capacity))
            });
        }
        Plane {
            run,
            peer: topo.peer(map.sp(me)).name.clone(),
            groups: table,
            map,
            me,
            mailboxes,
            sources,
            stale: AtomicU64::new(0),
            durable,
            sent: Mutex::new(BTreeMap::new()),
            recv: Mutex::new(BTreeMap::new()),
            deliveries,
            marks: Mutex::new(BTreeMap::new()),
        }
    }

    fn hosts(&self, node: NodeId) -> bool {
        self.map.owner_of(node) == self.me
    }

    /// The process hosting `route[hop]` of `flow`.
    fn owner(&self, flow: FlowId, hop: usize) -> Addr {
        Addr::Process(self.map.owner_of(self.groups.flows()[flow].route[hop]))
    }

    /// The hosted nodes with a mailbox: one worker each.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.mailboxes.keys().copied()
    }

    /// Node `node`'s worker, its DAGs built cold on the calling thread —
    /// the one that will run them.
    pub fn worker(&self, node: NodeId) -> Worker {
        Worker {
            node,
            dags: NodeWorker::new(&self.groups, |n| n == node),
            last: LastSent::default(),
            pass: Vec::with_capacity(BATCH_CAP),
        }
    }

    /// How many entries wait in `node`'s mailbox.
    pub fn queued(&self, node: NodeId) -> usize {
        self.mailboxes[&node].1.len()
    }

    /// Runs one pass of `worker`: takes what its mailbox holds — at least
    /// one entry, waiting while it is empty and open; at most
    /// [`BATCH_CAP`] — and sends each flow's outputs down its route. False
    /// once the mailbox is closed and drained.
    pub fn pass(&self, worker: &mut Worker, out: &impl Egress) -> bool {
        let (name, mailbox) = &self.mailboxes[&worker.node];
        if !mailbox.pop_batch(BATCH_CAP, &mut worker.pass) {
            return false;
        }
        // Same histogram the discrete-event runtime records at dispatch,
        // sampled once per pass here (not once per entry): the backlog
        // left behind the entries this pass took.
        dss_telemetry::histogram_record(
            "runtime.mailbox.depth",
            || vec![("peer", name.clone())],
            mailbox.len() as f64,
        );
        let (dags, last) = (&mut worker.dags, &mut worker.last);
        dags.run_pass(
            &self.groups,
            &mut worker.pass,
            &mut |flow, offset, items, eos| {
                // Only a flow without operators sends copies.
                let items = match self.groups.flows()[flow].ops.is_empty() {
                    true => last.items(items),
                    false => Items::Trees(items, None),
                };
                // Trees are never read, so never malformed.
                let _ = self.advance(flow, 0, offset, items, eos, out);
            },
        );
        true
    }

    /// Replays every hosted source into its group's mailbox, one after
    /// the other: its items in sample order, then the end-of-stream
    /// marker — the input sequence and flush point of
    /// `StreamGlobe::run_simulation`. With a `delay`, one entry at a time,
    /// `delay` apart, until a mailbox closes (shutdown).
    pub fn replay(&self, delay: Duration) {
        for SourceJob { group, node, items } in &self.sources {
            let mailbox = &self.mailboxes[node].1;
            let items = items.iter().map(|n| (*group, TAG_ITEM, n.clone()));
            let entries = items.chain([(*group, TAG_EOS, Node::empty("eos"))]);
            if delay.is_zero() {
                mailbox.push_batch(entries.collect());
                continue;
            }
            for (group, tag, item) in entries {
                if !mailbox.push(group, tag, item) {
                    return;
                }
                std::thread::sleep(delay);
            }
        }
    }

    /// The `ResumeFrom` requests of a process that restarted into this
    /// run, with the process each goes to: every wire-crossing upstream
    /// of a hop it hosts replays its retained output from offset 0
    /// ([`Self::resend`]). With its sources replayed too, the process
    /// re-derives its whole pre-crash output; downstream marks absorb
    /// what they already saw, so the net effect is exactly the missing
    /// tail.
    pub fn resume_requests(&self) -> impl Iterator<Item = (usize, Message)> + '_ {
        let flows = self.groups.flows().iter().enumerate();
        flows.filter(|(_, f)| f.active).flat_map(move |(flow, f)| {
            (1..f.route.len()).filter_map(move |hop| {
                let upstream = self.map.owner_of(f.route[hop - 1]);
                let msg = Message::ResumeFrom {
                    run: self.run,
                    flow: flow as u64,
                    hop: hop as u32,
                    offset: 0,
                };
                (self.hosts(f.route[hop]) && upstream != self.me).then_some((upstream, msg))
            })
        })
    }

    /// Answers one `ResumeFrom` of a restarted downstream: the batches
    /// retained for crossing `(flow, hop)` of `run`, as they were sent,
    /// from the one containing `offset` on. The entry lock is held across
    /// all the sends, so live traffic for the same crossing queues behind
    /// the resend instead of racing it.
    pub fn resend(&self, run: u64, flow: u64, hop: u32, offset: u64, out: &impl Egress) {
        let (flow, hop) = (flow as FlowId, hop as usize);
        let entry = self.sent.lock().unwrap().get(&(flow, hop)).cloned();
        let Some(entry) = entry.filter(|_| run == self.run) else {
            return;
        };
        // Retained, so sent: the crossing is this plane's.
        let (to, exit) = (self.owner(flow, hop), Exit::Hop { flow, hop });
        let entry = entry.lock().unwrap();
        for batch in entry.batches_from(offset) {
            self.note_frame(batch.len);
            let header = exit.header(self.run, batch.offset, batch.eos);
            if !out.send(to, &header, |buf| buf.extend_from_slice(&batch.items)) {
                return;
            }
        }
    }

    /// A batch off the wire, still bytes: a `StreamItemBatch` takes its
    /// route step here, a `Deliver` reaches the coordinator's client.
    /// Admitted past the receive mark is only what this process has not
    /// seen: a restarted upstream replays its whole output, and the mark
    /// keeps delivery exactly-once. A batch of another run is stale.
    /// Refused — before anything is admitted — is a batch for a hop this
    /// process does not host (or a delivery anywhere but the
    /// coordinator), and one a tap here reads a malformed item of. `read`
    /// is the last read of the connection the batch came on: a tap here
    /// reads the batch through it.
    pub fn receive(
        &self,
        view: BatchView<'_>,
        read: &mut LastRead,
        out: &impl Egress,
    ) -> Result<(), Refused> {
        let BatchView { header, items } = view;
        let (mut items, offset, eos) = (Items::View(items, read), header.offset, header.eos);
        if header.run != self.run {
            self.note_stale();
            return Ok(());
        }
        let (flow, hop) = match header.dest {
            BatchDest::Query(query) if self.me == self.map.coordinator() => {
                self.deliver(query, offset, items, eos, out);
                return Ok(());
            }
            BatchDest::Query(_) => return Err(Refused::NotHere),
            BatchDest::Hop { flow, hop } => (flow as FlowId, hop as usize),
        };
        let node = self.groups.flows().get(flow).and_then(|f| f.route.get(hop));
        if !node.is_some_and(|&n| self.hosts(n)) {
            return Err(Refused::NotHere);
        }
        let mut recv = self.recv.lock().unwrap();
        let admitted = items.admit(recv.entry((flow, hop)).or_default(), offset, eos);
        drop(recv);
        let Some((offset, eos)) = admitted else {
            return Ok(());
        };
        self.advance(flow, hop, offset, items, eos, out)
            .map_err(Refused::Malformed)
    }

    /// A batch of `flow`'s output (offsets `offset..`) standing at
    /// `route[hop]`, a node of this process: walks it down the route for
    /// as long as this process hosts the next hop — at each hop feeding the
    /// group that taps the flow there, if any — and sends it on where it
    /// crosses to another process or reaches the end of a delivery flow's
    /// route. The offset is stamped once at the flow's origin and rides
    /// along unchanged — every hop of a flow sees the identical item
    /// sequence, so one numbering fits all of them.
    ///
    /// This is the one place a wire batch is read: a hosted tap consumes
    /// items, everything else only moves them. A tap reads a view through
    /// its connection's [`LastRead`] and feeds its group every tree; the
    /// group's DAG decides its σs itself. A malformed item is found there
    /// and is the error; the batch then goes no further.
    pub fn advance(
        &self,
        flow: FlowId,
        mut hop: usize,
        offset: u64,
        mut items: Items<'_>,
        eos: bool,
        out: &impl Egress,
    ) -> Result<(), DecodeError> {
        if items.is_empty() && !eos {
            return Ok(());
        }
        loop {
            let step = self.groups.step(flow, hop);
            debug_assert!(self.hosts(step.node));
            if let Some(group) = step.tap {
                let (trees, built) = items.trees(step.next == Next::End)?;
                if let Items::View(..) = &items {
                    dss_telemetry::counter_add(
                        "server.items_materialised",
                        || vec![("peer", self.peer.clone())],
                        built as u64,
                    );
                }
                self.feed(group, trees, eos);
            }
            let exit = match step.next {
                Next::Forward { to, hop: next } if self.hosts(to) => {
                    hop = next;
                    continue;
                }
                Next::Forward { hop, .. } => Exit::Hop { flow, hop },
                Next::Deliver { query } if self.me == self.map.coordinator() => {
                    self.deliver(query, offset, items, eos, out);
                    return Ok(());
                }
                Next::Deliver { query } => Exit::Deliver { query },
                Next::End => return Ok(()),
            };
            self.cross(exit, offset, items, eos, out);
            return Ok(());
        }
    }

    /// Sends a batch across the wire: to the process owning `route[hop]`,
    /// or — off the end of a delivery flow's route — to the coordinator.
    /// In durable mode a hop's batch is appended to the `(flow, hop)`
    /// sent-log first — encoded, as it crosses — under the entry lock held
    /// across the send: a concurrent resend for the same crossing takes
    /// the same lock, so the receiver's mark always observes
    /// resend-then-tail order, never an interleaving. A durable batch that
    /// does not go out waits in the log for the receiver's `ResumeFrom`;
    /// without a log it is gone, which is recorded as staleness.
    fn cross(&self, exit: Exit<'_>, offset: u64, items: Items<'_>, eos: bool, out: &impl Egress) {
        let header = exit.header(self.run, offset, eos);
        self.note_batch(&items);
        let sent = |key| Arc::clone(self.sent.lock().unwrap().entry(key).or_default());
        let (to, retained) = match exit {
            Exit::Hop { flow, hop } => (
                self.owner(flow, hop),
                self.durable.then(|| sent((flow, hop))),
            ),
            Exit::Deliver { .. } => (Addr::Process(self.map.coordinator()), None),
        };
        match retained {
            // What is retained is what is sent: encoded once.
            Some(entry) => {
                let mut entry = entry.lock().unwrap();
                let batch = entry.push(offset, &items, eos);
                out.send(to, &header, |buf| buf.extend_from_slice(&batch.items));
            }
            None if !out.send(to, &header, |buf| items.encode_into(buf)) => self.note_stale(),
            None => {}
        }
    }

    /// A batch of `query`'s results at the coordinator: admits what the
    /// query's delivery mark has not seen, hands it to the query's
    /// subscriber — or, where that client is gone (the CLI subscribes and
    /// disconnects), to the run's requester — and tells the control
    /// machine when the query's stream has ended.
    fn deliver(&self, query: &str, offset: u64, mut items: Items, eos: bool, out: &impl Egress) {
        let mut marks = self.marks.lock().unwrap();
        let admitted = items.admit(marks.entry(query.to_string()).or_default(), offset, eos);
        drop(marks);
        let Some((offset, eos)) = admitted else {
            return;
        };
        if !items.is_empty() {
            dss_telemetry::counter_add(
                "runtime.delivered",
                || vec![("query", query.to_string())],
                items.len() as u64,
            );
        }
        self.note_batch(&items);
        let header = Exit::Deliver { query }.header(self.run, offset, eos);
        let to = &self.deliveries;
        let mut clients = to.subscribers.get(query).into_iter().chain(&to.requester);
        clients.any(|&id| out.send(Addr::Client(id), &header, |buf| items.encode_into(buf)));
        if eos {
            // Contiguous from 0: the end of the last batch counts them all.
            let delivered = offset + items.len() as u64;
            let (run, query) = (self.run, query.to_string());
            out.post(Input::QueryDone {
                run,
                query,
                delivered,
            });
        }
    }

    /// Feeds tap group `group` with a batch of its parent flow's output
    /// passing its node — the trees move into the mailbox entries, in one
    /// `push_batch`, so the batch enters the mailbox whole and in order.
    /// Blocks when the group's mailbox is full — that stall propagates to
    /// the caller (a reader thread stops reading, another node's worker
    /// stops draining its queue), which is exactly the backpressure
    /// chain. The one caller that never blocks is the node's own worker:
    /// it is the only thread that could make room (see [`SyncMailbox`]).
    fn feed(&self, group: usize, items: Vec<Node>, eos: bool) {
        if items.is_empty() && !eos {
            return;
        }
        let mut entries: Vec<MailboxEntry> =
            items.into_iter().map(|n| (group, TAG_ITEM, n)).collect();
        if eos {
            entries.push((group, TAG_EOS, Node::empty("eos")));
        }
        let node = self.groups.groups()[group].node;
        if !self.mailboxes[&node].1.push_batch(entries) {
            self.note_stale();
        }
    }

    fn note_stale(&self) {
        self.stale.fetch_add(1, Ordering::Relaxed);
    }

    /// Records how many items one outgoing `StreamItemBatch`/`Deliver`
    /// frame carries — how well natural batching is working on this peer.
    fn note_frame(&self, items: usize) {
        dss_telemetry::histogram_record(
            "server.frame_items",
            || vec![("peer", self.peer.clone())],
            items as f64,
        );
    }

    /// [`Self::note_frame`] for a live batch, which also counts the items
    /// that leave as the bytes they arrived as — beside
    /// `server.items_materialised`, how much of what this peer receives it
    /// merely passes on.
    fn note_batch(&self, items: &Items<'_>) {
        self.note_frame(items.len());
        if let Items::View(view, _) = items {
            dss_telemetry::counter_add(
                "server.items_relayed",
                || vec![("peer", self.peer.clone())],
                view.len() as u64,
            );
        }
    }

    /// Closes every mailbox: pushes give up, and a pass returns false once
    /// its mailbox is drained — items already enqueued are still
    /// processed ([`SyncMailbox::pop_batch`]), so nothing accepted is lost.
    pub fn close(&self) {
        for (_, mailbox) in self.mailboxes.values() {
            mailbox.close();
        }
    }

    /// Publishes end-of-run mailbox accounting through the same metric
    /// names the simulated runtime uses.
    pub fn publish_mailbox_metrics(&self) {
        for (name, m) in self.mailboxes.values() {
            let high_water = m.high_water();
            if high_water > 0 {
                dss_telemetry::gauge_set(
                    "runtime.queue_high_water",
                    || vec![("peer", name.clone())],
                    high_water as f64,
                );
            }
        }
        let stale = self.stale.load(Ordering::Relaxed);
        if stale > 0 {
            dss_telemetry::counter_add("server.stale_batches", Vec::new, stale);
        }
    }
}

/// One hosted node's DAGs, the outputs of the pass in progress, and the
/// output offsets of the flows it originates.
struct NodeWorker {
    /// Indexed by group; `None` for the groups of other nodes.
    dags: Vec<Option<FlowDag>>,
    /// Outputs not yet forwarded, in the DAGs' emission order — the only
    /// order the oracle pins. One collector for the worker's lifetime.
    outputs: FlowOutputs,
    /// Next output offset per flow. A flow's outputs are produced by
    /// exactly one worker, so the counter is its alone.
    emit_next: Vec<u64>,
}

impl NodeWorker {
    /// A worker for the groups of the nodes `mine` accepts, their DAGs
    /// built cold on the calling thread — the one that will run them.
    fn new(groups: &GroupTable, mine: impl Fn(NodeId) -> bool) -> NodeWorker {
        let dag = |(g, group): (usize, &Group)| mine(group.node).then(|| groups.cold_dag(g));
        NodeWorker {
            dags: groups.groups().iter().enumerate().map(dag).collect(),
            outputs: FlowOutputs::default(),
            emit_next: vec![0; groups.flows().len()],
        }
    }

    /// Runs one pass: every entry through its group's DAG, in mailbox
    /// order, then one batch per flow that produced anything, each handed
    /// to `emit` as `(flow, offset, items, eos)`. A group's end-of-stream
    /// marker flushes its DAG and sends everything pending first, so the
    /// marker rides behind the last item of each member.
    fn run_pass(
        &mut self,
        groups: &GroupTable,
        pass: &mut Vec<MailboxEntry>,
        emit: &mut dyn FnMut(FlowId, u64, Vec<Node>, bool),
    ) {
        for (group, tag, item) in pass.drain(..) {
            let dag = self.dags[group]
                .as_mut()
                .expect("mailbox entry addresses a hosted group");
            if tag == TAG_EOS {
                self.outputs.flush(dag);
                self.send_outputs(emit);
                for &f in &groups.groups()[group].members {
                    emit(f, self.emit_next[f], Vec::new(), true);
                }
            } else {
                self.outputs.feed(dag, &item);
            }
        }
        self.send_outputs(emit);
    }

    /// Sends every flow's pending outputs, in ascending flow order, at
    /// most [`BATCH_CAP`] items per batch.
    fn send_outputs(&mut self, emit: &mut dyn FnMut(FlowId, u64, Vec<Node>, bool)) {
        for (flow, mut items) in self.outputs.drain() {
            while !items.is_empty() {
                let rest = items.split_off(items.len().min(BATCH_CAP));
                let offset = self.emit_next[flow];
                self.emit_next[flow] += items.len() as u64;
                emit(flow, offset, std::mem::replace(&mut items, rest), false);
            }
        }
    }
}

/// The last batch a worker sent down a flow without operators, and its
/// wire form once a hop encoded it.
///
/// A worker encodes a batch once for every flow it sends the same trees
/// down in a row. That is a stream's fan-out: the members of a group that
/// pass its input on as is (every subscriber's raw flow under data
/// shipping) each emit a copy of the pass's input, one after another. The
/// trees compare cheaply, since copies share their children.
#[derive(Default)]
struct LastSent(Vec<Node>, OnceCell<Vec<u8>>);

impl LastSent {
    /// `trees` as the worker sends them: with the last batch's cell if
    /// they are the same trees, with a fresh one otherwise.
    fn items(&mut self, trees: Vec<Node>) -> Items<'_> {
        if trees != self.0 {
            *self = LastSent(trees.clone(), OnceCell::new());
        }
        Items::Trees(trees, Some(&self.1))
    }
}

/// The read side of [`LastSent`], and the one read of a wire batch: the
/// item bytes of the last batch a connection's reader read for a tap, and
/// that batch's trees. The driver owns one per connection and hands it to
/// [`Plane::receive`].
///
/// A process receives a stream's copies one frame after another on one
/// connection, each under its own flow's header but with the same item
/// bytes. The first tap to read a batch builds all of it; the taps of the
/// same bytes that follow take clones of those trees, which share their
/// children.
#[derive(Debug, Default)]
pub struct LastRead {
    bytes: Vec<u8>,
    trees: Vec<Node>,
}

impl LastRead {
    /// A tap's trees out of `view`, every item, and how many trees were
    /// built for them. Unless this holds exactly `view`'s bytes, the view
    /// is read first: one checked walk that builds every item, kept for
    /// the next tap.
    fn trees(&mut self, view: &ItemsView<'_>) -> Result<(Vec<Node>, usize), DecodeError> {
        let mut built = 0;
        if self.bytes != view.bytes() {
            self.trees = view.materialise()?;
            self.bytes.clear();
            self.bytes.extend_from_slice(view.bytes());
            built = self.trees.len();
        }
        Ok((self.trees.clone(), built))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use dss_core::Strategy;
    use dss_network::{Deployment, FlowInput, FlowOp, StreamFlow};
    use dss_proto::{BatchView, Message};
    use dss_rass::Scenario;

    fn item(i: usize) -> Node {
        Node::leaf("i", i.to_string())
    }

    /// Items with children, like the scenario streams carry.
    fn photons(range: std::ops::Range<usize>) -> Vec<Node> {
        let photon = |i: usize| {
            let (en, t) = (format!("1.{}", i % 10), i.to_string());
            Node::elem(
                "photon",
                vec![Node::leaf("en", en), Node::leaf("det_time", t)],
            )
        };
        range.map(photon).collect()
    }

    fn items(range: std::ops::Range<usize>) -> Vec<Node> {
        range.map(item).collect()
    }

    /// What a worker emitted for one flow: every batch's `(offset,
    /// length)`, the concatenated items, and the end-of-stream markers.
    #[derive(Default, Debug, PartialEq)]
    struct Seen {
        batches: Vec<(usize, usize)>,
        items: Vec<Node>,
        eos: usize,
    }

    /// Records one emitted batch, checking what every batch must satisfy:
    /// capped, non-empty unless a lone marker, offsets contiguous.
    fn record(
        all: &mut BTreeMap<FlowId, Seen>,
        flow: FlowId,
        offset: u64,
        items: Vec<Node>,
        eos: bool,
    ) {
        let seen = all.entry(flow).or_default();
        assert_eq!(seen.eos, 0, "flow {flow}: traffic behind end-of-stream");
        assert!(items.len() <= BATCH_CAP, "flow {flow}: oversized batch");
        assert_eq!(offset as usize, seen.items.len(), "flow {flow}: offset");
        if eos {
            assert!(items.is_empty(), "markers travel alone");
            seen.eos += 1;
        } else {
            assert!(!items.is_empty(), "flow {flow}: empty batch");
            seen.batches.push((seen.items.len(), items.len()));
            seen.items.extend(items);
        }
    }

    /// A worker owning every group of `deployment`, and the table it reads.
    fn worker_for(deployment: &Deployment) -> (NodeWorker, GroupTable) {
        let table = GroupTable::build(deployment, |_| true);
        (NodeWorker::new(&table, |_| true), table)
    }

    /// A resend replays the retained batches as they were sent, starting
    /// with the one that contains the requested offset: offsets stay
    /// contiguous, the marker goes last, and a request past the end of
    /// what was ever sent yields nothing.
    #[test]
    fn resend_is_cut_from_the_batch_containing_the_offset_marker_last() {
        let mut entry = SentEntry::default();
        for (at, len) in [(0, 64), (64, 64), (128, 22)] {
            entry.push(at as u64, &Items::Trees(items(at..at + len), None), false);
        }
        let cut = |e: &SentEntry, from: u64| -> Vec<(u64, usize, bool)> {
            let batches = e.batches_from(from);
            for pair in batches.windows(2) {
                assert_eq!(pair[0].offset + pair[0].len as u64, pair[1].offset);
                assert!(!pair[0].eos, "only the last batch carries the marker");
            }
            for b in batches {
                // Every batch holds the items its offset says it does.
                let (at, mut wire) = (b.offset as usize, Vec::new());
                Items::Trees(items(at..at + b.len), None).encode_into(&mut wire);
                assert_eq!(b.items, wire);
            }
            batches.iter().map(|b| (b.offset, b.len, b.eos)).collect()
        };
        let sent = [(0, 64, false), (64, 64, false), (128, 22, false)];
        assert_eq!(cut(&entry, 0), sent);
        assert_eq!(
            cut(&entry, 63),
            sent,
            "the overlap is the receiver's to trim"
        );
        assert_eq!(cut(&entry, 64), sent[1..]);
        assert_eq!(cut(&entry, 100), sent[1..]);
        assert_eq!(cut(&entry, 149), sent[2..]);
        assert_eq!(cut(&entry, 150), [], "nothing sent past the mark yet");

        entry.push(150, &Items::Trees(Vec::new(), None), true);
        let marker = (150, 0, true);
        assert_eq!(cut(&entry, 0), [sent[0], sent[1], sent[2], marker]);
        assert_eq!(cut(&entry, 128), [sent[2], marker]);
        assert_eq!(cut(&entry, 150), [marker], "marker only");
        assert_eq!(cut(&entry, 151), [], "beyond what was ever sent");

        // A receiver trims what it already holds by item boundary and
        // ends up with exactly the items from its mark on.
        let mut mark = Contiguity::default();
        mark.admit(0, 100, false).unwrap();
        let mut got = Vec::new();
        for b in entry.batches_from(100) {
            let exit = Exit::Hop { flow: 0, hop: 1 };
            let mut payload = Vec::new();
            exit.header(1, b.offset, b.eos).encode_into(&mut payload);
            payload.extend_from_slice(&b.items);
            let mut read = LastRead::default();
            let view = BatchView::parse(&payload).unwrap().items;
            let mut received = Items::View(view, &mut read);
            let (at, eos) = received.admit(&mut mark, b.offset, b.eos).unwrap();
            assert_eq!((at as usize, eos), (100 + got.len(), b.eos));
            got.extend(received.trees(true).unwrap().0);
        }
        assert_eq!(got, items(100..150));
    }

    /// Outputs pending at end-of-stream that exceed the cap leave as
    /// several batches, contiguous and in order, and the marker still goes
    /// last.
    #[test]
    fn oversized_flush_is_cut_into_capped_batches_before_the_marker() {
        let mut deployment = Deployment::new();
        let flow = deployment.add_flow(StreamFlow {
            label: "relay".into(),
            input: FlowInput::Source { stream: "s".into() },
            processing_node: 0,
            ops: Vec::new(),
            route: vec![0],
            properties: None,
            retired: false,
        });
        let (mut worker, table) = worker_for(&deployment);
        let mut pass: Vec<MailboxEntry> = items(0..150)
            .into_iter()
            .map(|n| (0, TAG_ITEM, n))
            .collect();
        pass.push((0, TAG_EOS, Node::empty("eos")));
        let mut all = BTreeMap::new();
        worker.run_pass(&table, &mut pass, &mut |f, at, items, eos| {
            record(&mut all, f, at, items, eos)
        });
        let seen = &all[&flow];
        assert_eq!(seen.batches, [(0, 64), (64, 64), (128, 22)]);
        assert_eq!(seen.items, items(0..150));
        assert_eq!(seen.eos, 1);
    }

    /// The scenario-1 deployment under `strategy`, every sharing group of
    /// every node with its full input (source replay, or the parent flow's
    /// reference output), and the reference outputs per flow.
    struct Reference {
        globe: StreamGlobe,
        /// Indexed by group.
        inputs: Vec<Vec<Node>>,
        deployment: Deployment,
        outputs: Vec<Vec<Node>>,
    }

    fn scenario1_reference(strategy: Strategy) -> Reference {
        let scenario = Scenario::scenario1(42);
        let mut globe = scenario.build_system();
        for q in &scenario.queries {
            globe
                .register_query(q.id.clone(), &q.text, &q.peer, strategy)
                .unwrap_or_else(|e| panic!("registering {}: {e}", q.id));
        }
        let outputs = globe.run_simulation(Default::default()).flow_outputs;
        let inputs = GroupTable::build(globe.deployment(), |_| true)
            .groups()
            .iter()
            .map(|group| match &group.key {
                GroupKey::Source(stream) => globe.source_items(stream).unwrap().to_vec(),
                GroupKey::Tap(parent) => outputs[*parent].clone(),
            })
            .collect();
        Reference {
            inputs,
            deployment: globe.deployment().clone(),
            outputs,
            globe,
        }
    }

    /// One mailbox history holding every group's input and marker: the
    /// groups take turns, `stride(g)` entries at a time, so their entries
    /// interleave and the markers fall at unrelated places.
    fn interleaved_mailbox(reference: &Reference) -> Vec<MailboxEntry> {
        let mut feeds: Vec<_> = reference
            .inputs
            .iter()
            .enumerate()
            .map(|(g, input)| {
                let eos = (g, TAG_EOS, Node::empty("eos"));
                input
                    .iter()
                    .map(move |n| (g, TAG_ITEM, n.clone()))
                    .chain([eos])
                    .peekable()
            })
            .collect();
        let mut mailbox = Vec::new();
        while feeds.iter_mut().any(|f| f.peek().is_some()) {
            for (g, feed) in feeds.iter_mut().enumerate() {
                mailbox.extend(feed.take(1 + (g * 7) % 5));
            }
        }
        mailbox
    }

    /// Per-flow output is the same for any split of one mailbox history
    /// into passes — one entry at a time (the old worker), the capped
    /// passes the real worker takes, ragged ones, everything at once — and
    /// equals the batch simulator's: batching moves the batch boundaries,
    /// never an item.
    #[test]
    fn outputs_do_not_depend_on_how_the_mailbox_splits_into_passes() {
        let reference = scenario1_reference(Strategy::StreamSharing);
        let mailbox = interleaved_mailbox(&reference);
        assert!(reference.inputs.len() >= 2, "needs interleaved groups");
        let run = |pass_len: &dyn Fn(usize) -> usize| {
            let (mut worker, table) = worker_for(&reference.deployment);
            let mut all = BTreeMap::new();
            let mut rest = mailbox.clone();
            let mut passes = 0;
            while !rest.is_empty() {
                let n = pass_len(passes).clamp(1, rest.len());
                let tail = rest.split_off(n);
                worker.run_pass(&table, &mut rest, &mut |f, at, items, eos| {
                    record(&mut all, f, at, items, eos)
                });
                rest = tail;
                passes += 1;
            }
            all.into_iter()
                .map(|(f, seen)| (f, (seen.items, seen.eos)))
                .collect::<BTreeMap<_, _>>()
        };

        let one_by_one = run(&|_| 1);
        let members: Vec<FlowId> = (0..reference.deployment.len())
            .filter(|&f| !reference.deployment.flow(f).retired)
            .collect();
        for &f in &members {
            let (got, eos) = &one_by_one[&f];
            assert_eq!(got, &reference.outputs[f], "flow {f} vs the simulator");
            assert_eq!(*eos, 1, "flow {f}: exactly one end-of-stream");
        }
        assert_eq!(one_by_one.len(), members.len());
        assert_eq!(run(&|_| BATCH_CAP), one_by_one, "capped passes");
        assert_eq!(run(&|i| [3, 64, 1, 17, 40][i % 5]), one_by_one, "ragged");
        assert_eq!(run(&|_| usize::MAX), one_by_one, "one big pass");
    }

    /// Every batch a worker sends encodes to its own trees' item list,
    /// and the fan-out of scenario 1's source stream to the subscribers'
    /// raw flows under data shipping is encoded once per batch, not once
    /// per flow.
    #[test]
    fn a_batch_sent_down_several_flows_is_encoded_once() {
        let reference = scenario1_reference(Strategy::DataShipping);
        let (mut worker, table) = worker_for(&reference.deployment);
        // The group the raw flows tap: the source flow at its super-peer.
        let (source, group) = (table.groups().iter().enumerate())
            .max_by_key(|(_, g)| g.members.len())
            .expect("scenario 1 has groups");
        let raw = group.members.len();
        assert!(raw >= 10, "the fan-out to test: {raw} members");
        assert!(group
            .members
            .iter()
            .all(|&f| table.flows()[f].ops.is_empty()));
        let mut mailbox: Vec<MailboxEntry> = reference.inputs[source]
            .iter()
            .map(|n| (source, TAG_ITEM, n.clone()))
            .chain([(source, TAG_EOS, Node::empty("eos"))])
            .collect();
        let mut last = LastSent::default();
        let (mut encoded, mut copied) = (0, 0);
        while !mailbox.is_empty() {
            let rest = mailbox.split_off(mailbox.len().min(BATCH_CAP));
            worker.run_pass(&table, &mut mailbox, &mut |_, _, trees, _| {
                let mut want = Vec::new();
                put_items(&mut want, &trees);
                let items = last.items(trees);
                let Items::Trees(_, Some(wire)) = &items else {
                    unreachable!("a worker's batch carries a cell")
                };
                match wire.get() {
                    Some(_) => copied += 1,
                    None => encoded += 1,
                }
                let mut got = Vec::new();
                items.encode_into(&mut got);
                assert_eq!(got, want);
            });
            mailbox = rest;
        }
        // Each pass's batch (and the markers) once, then copied 24 times.
        assert!(encoded > reference.inputs[source].len() / BATCH_CAP);
        assert_eq!(copied, (raw - 1) * encoded);
    }

    /// The payload a batch leaves under: what `Conn::send_batch` frames.
    fn payload_of(exit: Exit<'_>, run: u64, offset: u64, items: &Items<'_>, eos: bool) -> Vec<u8> {
        let mut payload = Vec::new();
        exit.header(run, offset, eos).encode_into(&mut payload);
        items.encode_into(&mut payload);
        payload
    }

    /// A relayed batch is byte-equal to encoding the materialised batch
    /// under the new header — for every way a batch passes through a
    /// process, trimmed by the receive mark or not: hop to hop, last hop to
    /// the coordinator, and through the coordinator to the client.
    #[test]
    fn relayed_bytes_equal_the_encoding_of_the_materialised_batch() {
        let received = [
            Message::StreamItemBatch {
                run: 5,
                flow: 3,
                hop: 1,
                offset: 64,
                eos: false,
                items: photons(64..90),
            },
            Message::Deliver {
                run: 5,
                query: "q7".into(),
                offset: 64,
                eos: true,
                items: photons(64..90),
            },
        ];
        let exits = [Exit::Hop { flow: 3, hop: 2 }, Exit::Deliver { query: "q7" }];
        for (received, exit) in received.iter().zip(exits).chain([(&received[0], exits[1])]) {
            let payload = received.encode();
            let view = BatchView::parse(&payload).unwrap();
            let eos = view.header.eos;
            // The receive mark stands before, at, inside and at the end of
            // the batch (a gap never forwards anything).
            for seen in [64, 70, 89, 90] {
                let mut mark = Contiguity::default();
                mark.admit(0, seen, false).unwrap();
                let mut read = LastRead::default();
                let mut items = Items::View(view.items.clone(), &mut read);
                let Some((offset, eos)) = items.admit(&mut mark, 64, eos) else {
                    assert!(
                        seen == 90 && !eos,
                        "only a fully seen, unmarked batch is dropped"
                    );
                    continue;
                };
                assert_eq!(offset as usize, seen);
                let kept = photons(seen..90);
                let want = match exit {
                    Exit::Hop { flow, hop } => Message::StreamItemBatch {
                        run: 5,
                        flow: flow as u64,
                        hop: hop as u32,
                        offset,
                        eos,
                        items: kept,
                    },
                    Exit::Deliver { query } => Message::Deliver {
                        run: 5,
                        query: query.into(),
                        offset,
                        eos,
                        items: kept,
                    },
                };
                assert_eq!(payload_of(exit, 5, offset, &items, eos), want.encode());
                // Trees leave as the same bytes the view does.
                let trees = Items::Trees(items.trees(false).unwrap().0, None);
                assert_eq!(payload_of(exit, 5, offset, &trees, eos), want.encode());
            }
        }
    }

    /// An egress that keeps every frame the plane sends, with where it
    /// goes, and every input the plane posts.
    #[derive(Default)]
    struct Capture {
        frames: Mutex<Vec<(Addr, Vec<u8>)>>,
        posted: Mutex<Vec<Input>>,
    }

    impl Egress for Capture {
        fn send(&self, to: Addr, header: &BatchHeader<'_>, items: impl Fn(&mut Vec<u8>)) -> bool {
            let mut payload = Vec::new();
            header.encode_into(&mut payload);
            items(&mut payload);
            self.frames.lock().unwrap().push((to, payload));
            true
        }

        fn post(&self, input: Input) {
            self.posted.lock().unwrap().push(input);
        }
    }

    /// Runs `workers`' passes on this thread until no mailbox holds
    /// anything: the markers have cascaded through every local tap.
    fn run_passes(plane: &Plane, workers: &mut [Worker], out: &Capture) {
        while let Some(w) = workers.iter_mut().find(|w| plane.queued(w.node) > 0) {
            assert!(plane.pass(w, out));
        }
    }

    /// A hop with a tap *and* a forward, on a real plane: the batch that
    /// arrived over the wire is forwarded as the bytes it came as, under
    /// the next hop's header, and the tap's operators see the same items
    /// in the same order — their outputs equal the simulator's.
    #[test]
    fn a_tapped_relay_hop_forwards_the_received_bytes_and_feeds_the_tap_in_order() {
        let reference = scenario1_reference(Strategy::StreamSharing);
        let topo = reference.globe.topology();
        let map = NetMap::new(topo);
        let all = GroupTable::build(&reference.deployment, |_| true);
        // A flow arriving over the wire at a hop where a group taps it and
        // from where it travels on to another process.
        let owner = |f: FlowId, h: usize| map.owner_of(all.flows()[f].route[h]);
        let (flow, hop) = (0..all.flows().len())
            .flat_map(|f| (1..all.flows()[f].route.len() - 1).map(move |h| (f, h)))
            .find(|&(f, h)| {
                let here = owner(f, h);
                all.step(f, h).tap.is_some() && owner(f, h - 1) != here && owner(f, h + 1) != here
            })
            .expect("scenario 1 shares a stream at a relay hop");
        // Results that end here go to a client, and leave the process too.
        let deliveries = Deliveries {
            requester: Some(1),
            ..Deliveries::default()
        };
        let plane = Plane::build(
            &reference.globe,
            owner(flow, hop),
            9,
            1024,
            false,
            deliveries,
        );
        let mut workers: Vec<Worker> = plane.nodes().map(|n| plane.worker(n)).collect();
        let out = Capture::default();

        // The flow's reference output arrives in capped batches, then the
        // marker, each as a frame payload parsed into a view; the workers
        // run between arrivals.
        let output = &reference.outputs[flow];
        let mut arrivals: Vec<Message> = output
            .chunks(BATCH_CAP)
            .enumerate()
            .map(|(i, chunk)| Message::StreamItemBatch {
                run: 9,
                flow: flow as u64,
                hop: hop as u32,
                offset: (i * BATCH_CAP) as u64,
                eos: false,
                items: chunk.to_vec(),
            })
            .collect();
        arrivals.push(Message::StreamItemBatch {
            run: 9,
            flow: flow as u64,
            hop: hop as u32,
            offset: output.len() as u64,
            eos: true,
            items: Vec::new(),
        });
        assert!(arrivals.len() > 2, "the flow carries more than one batch");
        for arrival in &arrivals {
            let payload = arrival.encode();
            let received = plane.receive(
                BatchView::parse(&payload).unwrap(),
                &mut LastRead::default(),
                &out,
            );
            assert_eq!(received, Ok(()));
            run_passes(&plane, &mut workers, &out);
        }

        // Everything that left the process, by the flow it carries.
        let delivered: BTreeMap<String, FlowId> = reference
            .globe
            .registered_queries()
            .map(|(query, f)| (query.to_string(), f))
            .collect();
        let left: Vec<(FlowId, Vec<u8>)> = (out.frames.into_inner().unwrap().into_iter())
            .map(|(_, payload)| {
                let f = match BatchView::parse(&payload).unwrap().header.dest {
                    BatchDest::Hop { flow, .. } => flow as FlowId,
                    BatchDest::Query(query) => delivered[query],
                };
                (f, payload)
            })
            .collect();
        let of = |f: FlowId| left.iter().filter(move |(flow, _)| *flow == f);
        // Forwarded: the arrivals' bytes under the next hop's header.
        let forwarded: Vec<&Vec<u8>> = of(flow).map(|(_, payload)| payload).collect();
        let want: Vec<Vec<u8>> = arrivals
            .iter()
            .map(|arrival| {
                let mut next = arrival.clone();
                if let Message::StreamItemBatch { hop, .. } = &mut next {
                    *hop += 1;
                }
                next.encode()
            })
            .collect();
        assert_eq!(forwarded, want.iter().collect::<Vec<_>>());
        // Fed: nothing else entered this plane, so whatever other flow left
        // it descends from the tap — and is, item for item, what the
        // simulator's run of the same operators emits.
        let mut fed = BTreeSet::new();
        downstream(&plane, flow, hop, &mut fed);
        let exits = |f: FlowId| {
            let route = &plane.groups.flows()[f].route;
            let delivers = matches!(
                plane.groups.step(f, route.len() - 1).next,
                Next::Deliver { .. }
            );
            delivers || route.iter().any(|&n| !plane.hosts(n))
        };
        let awaited: BTreeSet<FlowId> = fed.into_iter().filter(|&f| exits(f)).collect();
        assert!(!awaited.is_empty(), "the tap's results leave the process");
        let derived: BTreeSet<FlowId> = left
            .iter()
            .map(|(f, _)| *f)
            .filter(|&f| f != flow)
            .collect();
        assert_eq!(derived, awaited);
        for f in derived {
            let mut got = Vec::new();
            for (_, payload) in of(f) {
                got.extend(
                    BatchView::parse(payload)
                        .unwrap()
                        .items
                        .materialise()
                        .unwrap(),
                );
            }
            assert_eq!(got, reference.outputs[f], "flow {f}, downstream of the tap");
        }
    }

    /// A tap fed its input as received bytes emits exactly what it emits
    /// fed the trees, whatever leads its chain: a σ, a Π or a Φ. The chains
    /// are the data-shipping taps of scenarios 1 and 2 — each query's
    /// operators over raw photons — and each of them without its leading
    /// σ, plus one group whose two members lead with different σs; the
    /// input is scenario 1's photons. Every batch is read through one
    /// [`LastRead`], which builds it in full and hands the group every
    /// tree: the group's DAG decides its σs itself.
    #[test]
    fn a_tap_fed_bytes_emits_what_it_emits_fed_trees() {
        let mut chains: Vec<Vec<FlowOp>> = Vec::new();
        for scenario in [Scenario::scenario1(42), Scenario::scenario2(42)] {
            let mut globe = scenario.build_system();
            for q in &scenario.queries {
                globe
                    .register_query(q.id.clone(), &q.text, &q.peer, Strategy::DataShipping)
                    .unwrap_or_else(|e| panic!("registering {}: {e}", q.id));
            }
            for flow in globe.deployment().flows() {
                let ops = flow.ops.as_slice();
                let unled = match ops {
                    [FlowOp::Standard(sigma), rest @ ..] if sigma.to_string().starts_with('σ') => {
                        rest
                    }
                    _ => &[],
                };
                for chain in [ops, unled] {
                    if !chain.is_empty() && !chains.iter().any(|c| c == chain) {
                        chains.push(chain.to_vec());
                    }
                }
            }
        }
        // Two chains of scenario 1 that lead with different σs.
        let sigma_led = (chains.iter())
            .filter(|c| matches!(&c[0], FlowOp::Standard(op) if op.to_string().starts_with('σ')));
        let first = sigma_led.clone().next().expect("σ-led chains").clone();
        let second = (sigma_led.clone().find(|c| c[0] != first[0]))
            .expect("two distinct leading σs")
            .clone();
        // One group per chain: each tap sits at a node of its own, on the
        // route of the photons; the two-σ group at the last node.
        let mut deployment = Deployment::new();
        let flow = |input, node: NodeId, ops, route| StreamFlow {
            label: format!("at {node}"),
            input,
            processing_node: node,
            ops,
            route,
            properties: None,
            retired: false,
        };
        let photons = FlowInput::Source {
            stream: "photons".into(),
        };
        let both = chains.len() + 1;
        let route = (0..=both).collect();
        let parent = deployment.add_flow(flow(photons, 0, Vec::new(), route));
        let tap = || FlowInput::Tap { parent };
        for (i, chain) in chains.into_iter().enumerate() {
            deployment.add_flow(flow(tap(), i + 1, chain, vec![i + 1]));
        }
        for chain in [first, second] {
            deployment.add_flow(flow(tap(), both, chain, vec![both]));
        }
        let table = GroupTable::build(&deployment, |_| true);
        let pairs = table.groups().iter().filter(|g| g.members.len() == 2);
        assert_eq!(pairs.count(), 1, "one group of two members");
        let input = &Scenario::scenario1(42).streams[0].items;

        let mut led_by = BTreeSet::new();
        for (g, group) in table.groups().iter().enumerate().skip(1) {
            let run = |as_bytes: bool| {
                let (mut dag, mut outputs) = (table.cold_dag(g), FlowOutputs::default());
                let mut read = LastRead::default();
                for chunk in input.chunks(BATCH_CAP) {
                    let trees = match as_bytes {
                        true => {
                            let batch = Items::Trees(chunk.to_vec(), None);
                            let payload =
                                payload_of(Exit::Hop { flow: 0, hop: 0 }, 1, 0, &batch, false);
                            let view = BatchView::parse(&payload).unwrap().items;
                            let (trees, built) = Items::View(view, &mut read).trees(true).unwrap();
                            assert_eq!(built, chunk.len(), "a new batch is built in full");
                            assert_eq!(trees, chunk, "the group is fed every tree");
                            trees
                        }
                        false => chunk.to_vec(),
                    };
                    outputs.feed_slice(&mut dag, &trees);
                }
                outputs.flush(&mut dag);
                outputs.drain().collect::<Vec<_>>()
            };
            let from_trees = run(false);
            assert_eq!(
                run(true),
                from_trees,
                "the tap of flows {:?}",
                group.members
            );
            if group.members.len() == 2 {
                let emitted = |f: FlowId| {
                    from_trees
                        .iter()
                        .any(|(flow, out)| *flow == f && !out.is_empty())
                };
                assert!(
                    group.members.iter().all(|&f| emitted(f)),
                    "both σs pass items"
                );
            }
            if let FlowOp::Standard(first) = &table.flows()[group.members[0]].ops[0] {
                led_by.insert(format!("{:?}", first.kind()));
            }
        }
        assert_eq!(
            led_by.into_iter().collect::<Vec<_>>(),
            ["Aggregation", "Projection", "Selection"]
        );
    }

    /// Taps that read through one connection's [`LastRead`] in turn, batch
    /// after batch, each get exactly the trees of the batch they read, and
    /// every item is built once per batch. Under data shipping the
    /// connection carries two copies of one stream: each batch arrives
    /// twice, and each is as long as the one before but holds other items.
    /// Under stream sharing it alternates batches of two different flows,
    /// so every read misses.
    #[test]
    fn taps_on_one_connection_get_their_own_trees_and_each_batch_is_built_once() {
        let photons = &Scenario::scenario1(42).streams[0].items;
        let others = &Scenario::scenario2(42).streams[0].items;
        // What the connection carries, in order: per turn, one batch per tap.
        let copies: Vec<&[Node]> = (photons.chunks(BATCH_CAP))
            .flat_map(|batch| [batch, batch])
            .collect();
        let flows: Vec<&[Node]> = (photons.chunks(BATCH_CAP))
            .zip(others.chunks(BATCH_CAP))
            .flat_map(|(a, b)| [a, b])
            .collect();
        assert!(
            flows.windows(2).all(|pair| pair[0] != pair[1]),
            "two flows: every batch holds other items than the one before"
        );
        let read_in_turns = |batches: &[&[Node]]| {
            let mut read = LastRead::default();
            let mut built = 0;
            for (i, &batch) in batches.iter().enumerate() {
                let (tap, items) = (i % 2, Items::Trees(batch.to_vec(), None));
                let exit = Exit::Hop { flow: tap, hop: 1 };
                let payload = payload_of(exit, 1, 0, &items, false);
                let view = BatchView::parse(&payload).unwrap().items;
                let (trees, n) = Items::View(view, &mut read).trees(false).unwrap();
                assert_eq!(trees, batch, "batch {i}: tap {tap} got other trees");
                built += n;
            }
            built
        };
        assert_eq!(
            read_in_turns(&copies),
            photons.len(),
            "two copies: each batch built once for both taps"
        );
        let read: usize = flows.iter().map(|batch| batch.len()).sum();
        assert_eq!(
            read_in_turns(&flows),
            read,
            "two flows: every item built once"
        );
    }

    /// An item list of a good photon, then an item whose has-text byte is
    /// 7 — well framed, malformed inside — then another good photon.
    fn list_with_a_malformed_item() -> Vec<u8> {
        let mut list = Vec::new();
        put_items(&mut list, &photons(0..3));
        // The count, the item's length, the name's length, the name.
        let has_text = 3 + "photon".len();
        assert_eq!(list[has_text], 0);
        list[has_text] = 7;
        list
    }

    /// The payload of `list` on its way to hop `hop` of `flow`.
    fn batch_of(flow: FlowId, hop: usize, list: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        Exit::Hop { flow, hop }
            .header(9, 0, false)
            .encode_into(&mut payload);
        payload.extend_from_slice(list);
        payload
    }

    /// A malformed item inside a well-framed batch travels as far as its
    /// first reader: a pure relay hop forwards it byte for byte, and a
    /// tapped hop returns the typed error and sends nothing on.
    #[test]
    fn a_malformed_item_is_relayed_as_is_and_fails_at_the_first_tap() {
        let reference = scenario1_reference(Strategy::DataShipping);
        let topo = reference.globe.topology();
        let map = NetMap::new(topo);
        let all = GroupTable::build(&reference.deployment, |_| true);
        let owner = |f: FlowId, h: usize| map.owner_of(all.flows()[f].route[h]);
        let hops = (0..all.flows().len())
            .flat_map(|f| (1..all.flows()[f].route.len()).map(move |h| (f, h)))
            .filter(|&(f, h)| owner(f, h - 1) != owner(f, h));
        let (mut relay, mut tap) = (None, None);
        for (f, h) in hops {
            let step = all.step(f, h);
            match (step.tap, step.next) {
                (None, Next::Forward { to, .. }) if map.owner_of(to) != owner(f, h) => {
                    relay.get_or_insert((f, h));
                }
                (Some(_), _) => {
                    tap.get_or_insert((f, h));
                }
                _ => {}
            }
        }
        let relay = relay.expect("data shipping relays the raw stream across processes");
        let tap = tap.expect("data shipping taps a raw copy over the wire");

        for (flow, hop) in [relay, tap] {
            let me = owner(flow, hop);
            let plane = Plane::build(&reference.globe, me, 9, 1024, false, Deliveries::default());
            let out = Capture::default();
            let list = list_with_a_malformed_item();
            let payload = batch_of(flow, hop, &list);
            let received = plane.receive(
                BatchView::parse(&payload).unwrap(),
                &mut LastRead::default(),
                &out,
            );
            let left: Vec<Vec<u8>> = (out.frames.into_inner().unwrap().into_iter())
                .map(|(_, payload)| payload)
                .collect();
            if (flow, hop) == relay {
                assert_eq!(received, Ok(()));
                assert_eq!(left, [batch_of(flow, hop + 1, &list)]);
            } else {
                assert_eq!(
                    received,
                    Err(Refused::Malformed(DecodeError::BadBool(7))),
                    "flow {flow} at hop {hop}"
                );
                assert!(left.is_empty(), "nothing read is sent on");
            }
        }
    }

    /// A batch naming a flow the plane does not have, a hop past its
    /// route, or a hop another process hosts is refused before anything
    /// is admitted, and so is a delivery anywhere but at the coordinator.
    /// The refused batches leave no mark: the hosted crossing still takes
    /// the flow from offset 0.
    #[test]
    fn a_batch_for_a_hop_not_hosted_here_is_refused() {
        let reference = scenario1_reference(Strategy::StreamSharing);
        let map = NetMap::new(reference.globe.topology());
        let all = GroupTable::build(&reference.deployment, |_| true);
        let owner = |f: FlowId, h: usize| map.owner_of(all.flows()[f].route[h]);
        let crossings = (0..all.flows().len())
            .flat_map(|f| (1..all.flows()[f].route.len()).map(move |h| (f, h)))
            .filter(|&(f, h)| owner(f, h - 1) != owner(f, h));
        let (flow, hop) = crossings
            .filter(|&(f, h)| owner(f, h) != map.coordinator())
            .find(|&(f, _)| all.flows()[f].active)
            .expect("a crossing into a process other than the coordinator");
        let me = owner(flow, hop);
        let elsewhere = (0..all.flows().len())
            .flat_map(|f| (0..all.flows()[f].route.len()).map(move |h| (f, h)))
            .find(|&(f, h)| owner(f, h) != me)
            .expect("a hop another process hosts");
        let plane = Plane::build(&reference.globe, me, 9, 1024, true, Deliveries::default());
        let out = Capture::default();
        let mut list = Vec::new();
        put_items(&mut list, &photons(0..3));
        let route_len = all.flows()[flow].route.len();
        for (f, h) in [(all.flows().len(), 1), (flow, route_len), elsewhere] {
            let payload = batch_of(f, h, &list);
            let received = plane.receive(
                BatchView::parse(&payload).unwrap(),
                &mut LastRead::default(),
                &out,
            );
            assert_eq!(received, Err(Refused::NotHere), "flow {f} hop {h}");
        }
        let hosted = batch_of(flow, hop, &list);
        let mut read = LastRead::default();
        let delivery = payload_of(
            Exit::Deliver { query: "q1" },
            9,
            0,
            &Items::View(BatchView::parse(&hosted).unwrap().items, &mut read),
            true,
        );
        let received = plane.receive(
            BatchView::parse(&delivery).unwrap(),
            &mut LastRead::default(),
            &out,
        );
        assert_eq!(
            received,
            Err(Refused::NotHere),
            "a delivery off the coordinator"
        );
        assert!(
            plane.recv.lock().unwrap().is_empty(),
            "nothing was admitted"
        );
        assert!(out.frames.lock().unwrap().is_empty(), "nothing was sent");

        let received = plane.receive(
            BatchView::parse(&batch_of(flow, hop, &list)).unwrap(),
            &mut LastRead::default(),
            &out,
        );
        assert_eq!(received, Ok(()));
        let mut recv = plane.recv.lock().unwrap();
        let mark = recv
            .get_mut(&(flow, hop))
            .expect("the hosted crossing has a mark");
        assert!(mark.admit(3, 1, false).is_some(), "admitted from offset 0");
    }

    /// The flows fed — directly or through further hosted taps — by
    /// `flow`'s output walking its route on this plane from `hop`.
    fn downstream(plane: &Plane, flow: FlowId, hop: usize, fed: &mut BTreeSet<FlowId>) {
        let route = &plane.groups.flows()[flow].route;
        for h in (hop..route.len()).take_while(|&h| plane.hosts(route[h])) {
            let members = plane
                .groups
                .step(flow, h)
                .tap
                .map(|g| &plane.groups.groups()[g].members);
            for &m in members.into_iter().flatten() {
                if fed.insert(m) {
                    downstream(plane, m, 0, fed);
                }
            }
        }
    }
}
