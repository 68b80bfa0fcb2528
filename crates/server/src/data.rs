//! The per-run data plane of one peer process — the threads-and-sockets
//! driver of [`dss_network::peer`].
//!
//! For each run, every process snapshots its replica's deployment into the
//! core's [`GroupTable`], restricted to the nodes it hosts. The table
//! (flows, routes, groups, deliveries) is shared read-only by every thread;
//! each worker builds and owns the DAGs it runs. What this driver adds: one
//! bounded [`SyncMailbox`] and one worker thread per hosted node, source
//! replay threads, the walk of a batch along the hops this process hosts
//! ([`Plane::advance`]), the per-crossing receive marks ([`Contiguity`])
//! and — in durable mode — the sent-log recovery resends are replayed
//! from.
//!
//! **Bytes, not trees.** A batch exists here in one of two forms
//! ([`Items`]): the trees a hosted `FlowDag` emitted, or the validated
//! bytes of a batch that arrived over the wire. A wire batch stays bytes
//! for as long as this process only passes it on — trimmed by item
//! boundary, re-headed, copied into the next frame — and becomes trees in
//! exactly one place: where a hosted group taps it, straight into that
//! group's mailbox entries. The sent-log retains what was sent, encoded.
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
//! by one worker thread and appended to the flow's pending batch in
//! emission order, batches leave in the order they were formed (offsets
//! are stamped per batch by that worker, `offset + len` contiguous), travel
//! the route over per-connection FIFO links, and are appended to each
//! consumer mailbox by a single reader thread, all-or-nothing per batch.
//! How the input happens to be split into passes changes only where the
//! batch boundaries fall, never the per-flow sequence. The end-of-stream
//! marker still travels *behind* the last item of its flow: a worker that
//! meets a group's marker mid-pass flushes the DAG, sends everything
//! pending, and only then the markers. So each DAG flushes exactly once,
//! after exactly the oracle's input — same items, same order, same flush
//! point ⇒ same bytes per flow.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dss_core::StreamGlobe;
use dss_network::{
    Contiguity, FlowDag, FlowId, FlowOutputs, Group, GroupKey, GroupTable, MailboxEntry, Next,
    NodeId, SyncMailbox,
};
use dss_proto::wire::put_nodes;
use dss_proto::{BatchDest, BatchHeader, ItemsView};
use dss_xml::Node;

use crate::spec::NetMap;

/// Mailbox origin-tag for a payload item.
pub const TAG_ITEM: u64 = 0;
/// Mailbox origin-tag for a group's end-of-stream marker.
pub const TAG_EOS: u64 = 1;

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

/// A batch's items as this process holds them.
#[derive(Debug)]
pub enum Items<'a> {
    /// Out of a hosted `FlowDag`: trees, encoded where they leave.
    Trees(Vec<Node>),
    /// Off the wire: validated bytes over the connection's read buffer.
    View(ItemsView<'a>),
}

impl Items<'_> {
    pub fn len(&self) -> usize {
        match self {
            Items::Trees(trees) => trees.len(),
            Items::View(view) => view.len(),
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
            Items::Trees(trees) => drop(trees.drain(..admitted.skip)),
            Items::View(view) => view.skip(admitted.skip),
        }
        Some((offset + admitted.skip as u64, admitted.eos))
    }

    /// Appends the item list as it goes on the wire (count, then the
    /// items): encoded now from trees, copied as received from a view.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Items::Trees(trees) => put_nodes(out, trees),
            Items::View(view) => view.encode_into(out),
        }
    }

    /// The items as trees for a consumer on this process. The `last`
    /// consumer takes the trees there are instead of a copy.
    fn trees(&mut self, last: bool) -> Vec<Node> {
        match self {
            Items::Trees(trees) if last => std::mem::take(trees),
            Items::Trees(trees) => trees.clone(),
            Items::View(view) => view.materialise(),
        }
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
/// for it again ([`Message::ResumeFrom`]). Only populated when the process
/// runs with a WAL directory — plain deployments retain nothing.
///
/// [`Message::ResumeFrom`]: dss_proto::Message::ResumeFrom
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
    pub fn batches_from(&self, offset: u64) -> &[SentBatch] {
        let needed = |b: &SentBatch| {
            let end = b.offset + b.len as u64;
            end > offset || (b.eos && end == offset)
        };
        &self.batches[self.batches.partition_point(|b| !needed(b))..]
    }
}

/// Sender-side retention map: one shared [`SentEntry`] per wire-crossing
/// `(flow, dest hop)`.
type SentLog = BTreeMap<(FlowId, usize), Arc<Mutex<SentEntry>>>;

/// One run's executable state on one process.
pub struct Plane {
    pub run: u64,
    /// This process's name, the `peer` label of its counters.
    peer: String,
    /// Every flow's route and delivery, and the groups of the hosted
    /// nodes: fixed for the run's lifetime, read by every thread.
    pub groups: GroupTable,
    /// Indexed by node: whether this process hosts it.
    hosted: Vec<bool>,
    mailboxes: BTreeMap<NodeId, Arc<SyncMailbox>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    source_jobs: Mutex<Vec<SourceJob>>,
    /// Batches that arrived after teardown began (must all belong to
    /// side-branches that feed no delivery — see `finish_run`).
    pub stale: AtomicU64,
    /// Retain sent batches for crash-recovery resends (WAL mode only).
    durable: bool,
    /// Pause between source items, for runs that must stay observable
    /// long enough to inject faults (0 = replay flat out).
    source_delay: Duration,
    /// Sender side: everything sent per wire-crossing `(flow, dest hop)`.
    /// The per-entry lock serializes the live sender with a recovery
    /// resend *without* coupling unrelated flows.
    sent: Mutex<SentLog>,
    /// Receiver side: contiguous high-water mark per `(flow, dest hop)`.
    recv: Mutex<BTreeMap<(FlowId, usize), Contiguity>>,
}

impl Plane {
    /// Builds the share of the data plane for `run` that the process
    /// serving super-peer `peer` hosts: the sharing groups of its nodes,
    /// one mailbox + worker per node that has any. A worker sends each
    /// batch its flows originate, stamped with its offset in the flow's
    /// output, down the flow's route ([`Plane::advance`]); where a batch
    /// leaves the process it is handed to `egress`. Sources don't replay
    /// until [`start_sources`](Self::start_sources) (the coordinator's
    /// `RunGo`), by which point every process has acked its plane — so no
    /// item can arrive anywhere before the receiving group exists.
    pub fn build<E>(
        globe: &StreamGlobe,
        peer: &str,
        run: u64,
        mailbox_capacity: usize,
        durable: bool,
        source_delay: Duration,
        egress: E,
    ) -> Arc<Plane>
    where
        E: Fn(&Plane, Exit<'_>, u64, Items<'_>, bool) + Clone + Send + 'static,
    {
        let topo = globe.topology();
        let map = NetMap::new(topo);
        let me = map
            .index_of_name(topo, peer)
            .unwrap_or_else(|| panic!("{peer:?} is not a super-peer of the topology"));
        let hosted: Vec<bool> = (0..topo.peer_count())
            .map(|node| map.owner_of(node) == me)
            .collect();
        let mut table = GroupTable::build(globe.deployment(), |node| hosted[node]);
        let deliveries = globe.registered_queries();
        table.set_deliveries(deliveries.map(|(q, f)| (f, q.to_string())).collect());

        let mut mailboxes = BTreeMap::new();
        let mut source_jobs = Vec::new();
        for (g, group) in table.groups().iter().enumerate() {
            if let GroupKey::Source(stream) = &group.key {
                source_jobs.push(SourceJob {
                    group: g,
                    node: group.node,
                    items: globe
                        .source_items(stream)
                        .unwrap_or_else(|| panic!("group reads unknown source {stream:?}"))
                        .to_vec(),
                });
            }
            mailboxes
                .entry(group.node)
                .or_insert_with(|| Arc::new(SyncMailbox::new(mailbox_capacity)));
        }
        let plane = Arc::new(Plane {
            run,
            peer: peer.to_string(),
            groups: table,
            hosted,
            mailboxes,
            workers: Mutex::new(Vec::new()),
            source_jobs: Mutex::new(source_jobs),
            stale: AtomicU64::new(0),
            durable,
            source_delay,
            sent: Mutex::new(BTreeMap::new()),
            recv: Mutex::new(BTreeMap::new()),
        });

        let mut workers = Vec::new();
        for (&node, mailbox) in &plane.mailboxes {
            let mailbox = Arc::clone(mailbox);
            let peer_name = topo.peer(node).name.clone();
            let (plane, egress) = (Arc::clone(&plane), egress.clone());
            workers.push(std::thread::spawn(move || {
                let worker = NodeWorker::new(&plane.groups, |n| n == node);
                node_worker(peer_name, mailbox, worker, &plane, egress)
            }));
        }
        *plane.workers.lock().unwrap() = workers;
        plane
    }

    /// Spawns one replay thread per hosted source group: items in sample
    /// order, then the end-of-stream marker — the same input sequence and
    /// flush point as `StreamGlobe::run_simulation`.
    pub fn start_sources(&self) {
        let jobs = std::mem::take(&mut *self.source_jobs.lock().unwrap());
        let delay = self.source_delay;
        let mut threads = self.workers.lock().unwrap();
        for job in jobs {
            let mailbox = Arc::clone(&self.mailboxes[&job.node]);
            threads.push(std::thread::spawn(move || {
                let eos = Node::empty("eos");
                if delay.is_zero() {
                    let items = job.items.into_iter().map(|n| (job.group, TAG_ITEM, n));
                    mailbox.push_batch(items.chain([(job.group, TAG_EOS, eos)]).collect());
                    return;
                }
                for item in job.items {
                    if !mailbox.push(job.group, TAG_ITEM, item) {
                        return; // closed mid-replay (shutdown)
                    }
                    std::thread::sleep(delay);
                }
                mailbox.push(job.group, TAG_EOS, eos);
            }));
        }
    }

    /// The sent-log entry for wire-crossing `(flow, dest hop)`, if this
    /// plane retains batches (WAL mode). Lock it across the append *and*
    /// the send so live traffic and recovery resends serialize per flow.
    pub fn sent_entry(&self, flow: FlowId, hop: usize) -> Option<Arc<Mutex<SentEntry>>> {
        if !self.durable {
            return None;
        }
        Some(Arc::clone(
            self.sent.lock().unwrap().entry((flow, hop)).or_default(),
        ))
    }

    /// Receive filter for a wire-arrived batch at `(flow, dest hop)`: see
    /// [`Items::admit`].
    pub fn admit(
        &self,
        flow: FlowId,
        hop: usize,
        offset: u64,
        items: &mut Items<'_>,
        eos: bool,
    ) -> Option<(u64, bool)> {
        let mut recv = self.recv.lock().unwrap();
        items.admit(recv.entry((flow, hop)).or_default(), offset, eos)
    }

    /// A batch of `flow`'s output (offsets `offset..`) standing at
    /// `route[hop]`, a node of this process: walks it down the route for
    /// as long as this process hosts the next hop — at each hop feeding the
    /// group that taps the flow there, if any — and hands it to `leave`
    /// where it crosses to another process or reaches the end of a
    /// delivery flow's route. The offset is stamped once at the flow's
    /// origin and rides along unchanged — every hop of a flow sees the
    /// identical item sequence, so one numbering fits all of them.
    ///
    /// This is the one place a wire batch becomes trees: a hosted tap
    /// consumes items, everything else only moves them.
    pub fn advance(
        &self,
        flow: FlowId,
        mut hop: usize,
        offset: u64,
        mut items: Items<'_>,
        eos: bool,
        leave: &impl Fn(&Plane, Exit<'_>, u64, Items<'_>, bool),
    ) {
        if items.is_empty() && !eos {
            return;
        }
        loop {
            let step = self.groups.step(flow, hop);
            debug_assert!(self.hosted[step.node]);
            if let Some(group) = step.tap {
                if let Items::View(view) = &items {
                    dss_telemetry::counter_add(
                        "server.items_materialised",
                        || vec![("peer", self.peer.clone())],
                        view.len() as u64,
                    );
                }
                self.feed(group, items.trees(step.next == Next::End), eos);
            }
            match step.next {
                Next::Forward { to, hop: next } if self.hosted[to] => hop = next,
                Next::Forward { hop, .. } => {
                    return leave(self, Exit::Hop { flow, hop }, offset, items, eos)
                }
                Next::Deliver { query } => {
                    return leave(self, Exit::Deliver { query }, offset, items, eos)
                }
                Next::End => return,
            }
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
        let mut entries: Vec<MailboxEntry> =
            items.into_iter().map(|n| (group, TAG_ITEM, n)).collect();
        if eos {
            entries.push((group, TAG_EOS, Node::empty("eos")));
        }
        let node = self.groups.groups()[group].node;
        if !self.mailboxes[&node].push_batch(entries) {
            self.note_stale();
        }
    }

    pub fn note_stale(&self) {
        self.stale.fetch_add(1, Ordering::Relaxed);
    }

    /// Closes every mailbox and joins all workers and source threads.
    /// Items already enqueued are still processed ([`SyncMailbox::pop_batch`]
    /// drains before reporting closure) — nothing accepted is lost.
    pub fn drain(&self) {
        for m in self.mailboxes.values() {
            m.close();
        }
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for w in workers {
            let _ = w.join();
        }
    }

    /// Publishes end-of-run mailbox accounting through the same metric
    /// names the simulated runtime uses.
    pub fn publish_mailbox_metrics(&self, topo: &dss_network::Topology) {
        for (&node, m) in &self.mailboxes {
            let high_water = m.high_water();
            if high_water > 0 {
                dss_telemetry::gauge_set(
                    "runtime.queue_high_water",
                    || vec![("peer", topo.peer(node).name.clone())],
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

/// One hosted node's worker: the node's DAGs, the outputs of the pass in
/// progress, and the output offsets of the flows it originates.
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

/// Drains one hosted node's mailbox, a pass at a time, until it is closed
/// and empty.
fn node_worker(
    peer_name: String,
    mailbox: Arc<SyncMailbox>,
    mut worker: NodeWorker,
    plane: &Plane,
    egress: impl Fn(&Plane, Exit<'_>, u64, Items<'_>, bool),
) {
    let mut pass = Vec::with_capacity(BATCH_CAP);
    while mailbox.pop_batch(BATCH_CAP, &mut pass) {
        // Same histogram the discrete-event runtime records at dispatch,
        // sampled once per pass here (not once per entry): the backlog
        // left behind the entries this pass took.
        dss_telemetry::histogram_record(
            "runtime.mailbox.depth",
            || vec![("peer", peer_name.clone())],
            mailbox.len() as f64,
        );
        worker.run_pass(&plane.groups, &mut pass, &mut |flow, offset, items, eos| {
            plane.advance(flow, 0, offset, Items::Trees(items), eos, &egress)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use dss_core::Strategy;
    use dss_network::{Deployment, FlowInput, StreamFlow};
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
            entry.push(at as u64, &Items::Trees(items(at..at + len)), false);
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
                Items::Trees(items(at..at + b.len)).encode_into(&mut wire);
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

        entry.push(150, &Items::Trees(Vec::new()), true);
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
            let mut received = Items::View(BatchView::parse(&payload).unwrap().items);
            let (at, eos) = received.admit(&mut mark, b.offset, b.eos).unwrap();
            assert_eq!((at as usize, eos), (100 + got.len(), b.eos));
            got.extend(received.trees(true));
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

    /// The scenario-1 deployment under stream sharing, every sharing group
    /// of every node with its full input (source replay, or the parent
    /// flow's reference output), and the reference outputs per flow.
    struct Reference {
        globe: StreamGlobe,
        /// Indexed by group.
        inputs: Vec<Vec<Node>>,
        deployment: Deployment,
        outputs: Vec<Vec<Node>>,
    }

    fn scenario1_reference() -> Reference {
        let scenario = Scenario::scenario1(42);
        let mut globe = scenario.build_system();
        for q in &scenario.queries {
            globe
                .register_query(q.id.clone(), &q.text, &q.peer, Strategy::StreamSharing)
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
        let reference = scenario1_reference();
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
                let mut items = Items::View(view.items.clone());
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
                let trees = Items::Trees(items.trees(false));
                assert_eq!(payload_of(exit, 5, offset, &trees, eos), want.encode());
            }
        }
    }

    /// A hop with a tap *and* a forward, on a real plane: the batch that
    /// arrived over the wire is forwarded as the bytes it came as, under
    /// the next hop's header, and the tap's operators see the same items
    /// in the same order — their outputs equal the simulator's.
    #[test]
    fn a_tapped_relay_hop_forwards_the_received_bytes_and_feeds_the_tap_in_order() {
        let reference = scenario1_reference();
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
        let peer = &topo.peer(map.sp(owner(flow, hop))).name;

        // Everything that leaves the process, as the payload it leaves as.
        let delivered: BTreeMap<String, FlowId> = reference
            .globe
            .registered_queries()
            .map(|(query, f)| (query.to_string(), f))
            .collect();
        type Left = Vec<(FlowId, Vec<u8>)>;
        let left: Arc<Mutex<Left>> = Arc::default();
        let capture = {
            let left = Arc::clone(&left);
            move |plane: &Plane, exit: Exit<'_>, offset: u64, items: Items<'_>, eos: bool| {
                let flow = match exit {
                    Exit::Hop { flow, .. } => flow,
                    Exit::Deliver { query } => delivered[query],
                };
                let payload = payload_of(exit, plane.run, offset, &items, eos);
                left.lock().unwrap().push((flow, payload));
            }
        };
        let (capacity, delay) = (1024, Duration::ZERO);
        let plane = Plane::build(
            &reference.globe,
            peer,
            9,
            capacity,
            false,
            delay,
            capture.clone(),
        );

        // The flow's reference output arrives in capped batches, then the
        // marker, each as a frame payload parsed into a view.
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
            let BatchView { header, items } = BatchView::parse(&payload).unwrap();
            let mut items = Items::View(items);
            let (offset, eos) = plane
                .admit(flow, hop, header.offset, &mut items, header.eos)
                .expect("contiguous arrivals are admitted whole");
            plane.advance(flow, hop, offset, items, eos, &capture);
        }
        // Teardown must not overtake the markers still cascading through
        // the local taps (the server tears down on the last delivery).
        let mut fed = BTreeSet::new();
        downstream(&plane, flow, hop, &mut fed);
        let exits = |f: FlowId| {
            let route = &plane.groups.flows()[f].route;
            let delivers = matches!(
                plane.groups.step(f, route.len() - 1).next,
                Next::Deliver { .. }
            );
            delivers || route.iter().any(|&n| !plane.hosted[n])
        };
        let awaited: BTreeSet<FlowId> = fed.into_iter().filter(|&f| exits(f)).collect();
        assert!(!awaited.is_empty(), "the tap's results leave the process");
        let ended = |f: FlowId| {
            let left = left.lock().unwrap();
            let eos = |p: &[u8]| BatchView::parse(p).unwrap().header.eos;
            left.iter()
                .any(|(flow, payload)| *flow == f && eos(payload))
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !awaited.iter().all(|&f| ended(f)) {
            assert!(
                std::time::Instant::now() < deadline,
                "markers never arrived"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        plane.drain();

        let left = left.lock().unwrap();
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
        let derived: BTreeSet<FlowId> = left
            .iter()
            .map(|(f, _)| *f)
            .filter(|&f| f != flow)
            .collect();
        assert_eq!(derived, awaited);
        for f in derived {
            let mut got = Vec::new();
            for (_, payload) in of(f) {
                got.extend(BatchView::parse(payload).unwrap().items.materialise());
            }
            assert_eq!(got, reference.outputs[f], "flow {f}, downstream of the tap");
        }
    }

    /// The flows fed — directly or through further hosted taps — by
    /// `flow`'s output walking its route on this plane from `hop`.
    fn downstream(plane: &Plane, flow: FlowId, hop: usize, fed: &mut BTreeSet<FlowId>) {
        let route = &plane.groups.flows()[flow].route;
        for h in (hop..route.len()).take_while(|&h| plane.hosted[route[h]]) {
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
