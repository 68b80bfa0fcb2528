//! The per-run data plane of one peer process — the threads-and-sockets
//! driver of [`dss_network::peer`].
//!
//! For each run, every process snapshots its replica's deployment into the
//! core's [`GroupTable`], restricted to the nodes it hosts. The table
//! (flows, routes, groups, deliveries) is shared read-only by every thread;
//! each worker builds and owns the DAGs it runs. What this driver adds: one
//! bounded [`SyncMailbox`] and one worker thread per hosted node, source
//! replay threads, the per-crossing receive marks ([`Contiguity`]) and —
//! in durable mode — the sent-log recovery resends are cut from.
//!
//! **Natural batching.** Every hop moves what is already queued, never
//! one item at a time and never waiting to fill a batch. A worker *pass*
//! takes whatever its mailbox holds (at least one entry, at most
//! [`BATCH_CAP`]), runs each entry through its group's DAG, collects the
//! outputs per flow across the whole pass and forwards one batch per flow
//! per pass. Relays, the coordinator and the client forward a batch as
//! they received it, so a batch formed at a flow's origin survives every
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
    Accepted, Contiguity, FlowDag, FlowId, FlowOutputs, Group, GroupKey, GroupTable, MailboxEntry,
    NodeId, SyncMailbox,
};
use dss_xml::Node;

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

/// Everything one wire-crossing `(flow, dest hop)` ever sent, retained in
/// memory for the run so a restarted receiver can ask for it again
/// ([`Message::ResumeFrom`]). Only populated when the process runs with a
/// WAL directory — plain deployments keep the zero-copy fast path.
#[derive(Debug, Default)]
pub struct SentEntry {
    /// Every item sent, in offset order (`items[i]` has offset `i`).
    pub items: Vec<Node>,
    /// Whether the flow's end-of-stream marker was already sent.
    pub eos: bool,
}

impl SentEntry {
    /// The retained output from `offset` on, cut into batches of at most
    /// [`BATCH_CAP`] items: `(offset of the batch, its items, eos)`. Only
    /// the last batch carries the end-of-stream marker; an entry whose
    /// items are all before `offset` yields one empty batch for a marker
    /// already sent, and nothing otherwise.
    pub fn batches_from(&self, offset: usize) -> impl Iterator<Item = (u64, &[Node], bool)> {
        let tail = self.items.get(offset..).unwrap_or_default();
        let marker_only = tail.is_empty() && self.eos && offset <= self.items.len();
        let batches = tail.len().div_ceil(BATCH_CAP);
        let chunks = tail.chunks(BATCH_CAP).enumerate().map(move |(i, chunk)| {
            let at = (offset + i * BATCH_CAP) as u64;
            (at, chunk, self.eos && i + 1 == batches)
        });
        let marker: &[Node] = &[];
        chunks.chain(marker_only.then_some((offset as u64, marker, true)))
    }
}

/// Sender-side retention map: one shared [`SentEntry`] per wire-crossing
/// `(flow, dest hop)`.
type SentLog = BTreeMap<(FlowId, usize), Arc<Mutex<SentEntry>>>;

/// One run's executable state on one process.
pub struct Plane {
    pub run: u64,
    /// Every flow's route and delivery, and the groups of the hosted
    /// nodes: fixed for the run's lifetime, read by every thread.
    pub groups: GroupTable,
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
    /// Builds this process's share of the data plane for `run`: the
    /// sharing groups of every node `hosted` accepts, one mailbox + worker
    /// per hosted node. A worker hands each batch its flows originate to
    /// `egress`, stamped with its offset in the flow's output. Sources
    /// don't replay until [`start_sources`](Self::start_sources) (the
    /// coordinator's `RunGo`), by which point every process has acked its
    /// plane — so no item can arrive anywhere before the receiving group
    /// exists.
    pub fn build<E>(
        globe: &StreamGlobe,
        hosted: impl Fn(NodeId) -> bool,
        run: u64,
        mailbox_capacity: usize,
        durable: bool,
        source_delay: Duration,
        egress: E,
    ) -> Arc<Plane>
    where
        E: Fn(&Plane, FlowId, u64, Vec<Node>, bool) + Clone + Send + 'static,
    {
        let mut table = GroupTable::build(globe.deployment(), hosted);
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
            groups: table,
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
            let peer_name = globe.topology().peer(node).name.clone();
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
    /// [`Contiguity::admit`].
    pub fn admit(
        &self,
        flow: FlowId,
        hop: usize,
        offset: u64,
        items: Vec<Node>,
        eos: bool,
    ) -> Option<Accepted> {
        let mut recv = self.recv.lock().unwrap();
        recv.entry((flow, hop))
            .or_default()
            .admit(offset, items, eos)
    }

    /// Feeds tap group `group` with a batch of its parent flow's output
    /// passing its node — one `push_batch`, so the batch enters the
    /// mailbox whole and in order.
    /// Blocks when the group's mailbox is full — that stall propagates to
    /// the caller (a reader thread stops reading, another node's worker
    /// stops draining its queue), which is exactly the backpressure
    /// chain. The one caller that never blocks is the node's own worker:
    /// it is the only thread that could make room (see [`SyncMailbox`]).
    pub fn feed(&self, group: usize, items: &[Node], eos: bool) {
        let mut entries: Vec<MailboxEntry> =
            items.iter().map(|n| (group, TAG_ITEM, n.clone())).collect();
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
    egress: impl Fn(&Plane, FlowId, u64, Vec<Node>, bool),
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
            egress(plane, flow, offset, items, eos)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_core::Strategy;
    use dss_network::{Deployment, FlowInput, StreamFlow};
    use dss_rass::Scenario;

    fn item(i: usize) -> Node {
        Node::leaf("i", i.to_string())
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

    #[test]
    fn resend_is_cut_into_capped_batches_with_contiguous_offsets() {
        let mut entry = SentEntry {
            items: items(0..150),
            eos: true,
        };
        let cut = |e: &SentEntry, from: usize| -> Vec<(usize, usize, bool)> {
            e.batches_from(from)
                .map(|(at, chunk, eos)| {
                    // Every batch holds the items its offset says it does.
                    let at = at as usize;
                    assert_eq!(chunk, &e.items[at..at + chunk.len()]);
                    (at, chunk.len(), eos)
                })
                .collect()
        };
        assert_eq!(
            cut(&entry, 0),
            [(0, 64, false), (64, 64, false), (128, 22, true)]
        );
        assert_eq!(cut(&entry, 100), [(100, 50, true)]);
        assert_eq!(cut(&entry, 150), [(150, 0, true)], "marker only");
        assert_eq!(cut(&entry, 151), [], "beyond what was ever sent");
        entry.eos = false;
        assert_eq!(cut(&entry, 86), [(86, 64, false)]);
        assert_eq!(cut(&entry, 150), [], "nothing sent past the mark yet");
        entry.items.truncate(128);
        entry.eos = true;
        assert_eq!(cut(&entry, 0), [(0, 64, false), (64, 64, true)]);
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
}
