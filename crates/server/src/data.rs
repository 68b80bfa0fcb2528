//! The per-run data plane of one peer process.
//!
//! For each run, every process snapshots its replica's deployment and
//! instantiates, for each *hosted* node, the same sharing groups the batch
//! simulator forms — `(processing node, GroupKey)`, members in ascending
//! `FlowId` order, executed by one [`FlowDag`] per group. Each hosted node
//! gets one bounded [`SyncMailbox`] and one worker thread draining it.
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
//! are stamped per batch at the origin, `offset + len` contiguous), travel
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
use dss_network::{Deployment, FlowDag, FlowId, GroupKey, MailboxEntry, NodeId, SyncMailbox};
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

/// A flow's output advancing to `route[hop]`: feed the taps there, then
/// forward to the next hop or deliver. Implemented by the peer server
/// (which owns the connections); invoked from worker and reader threads.
pub type Forwarder = Arc<dyn Fn(FlowId, usize, Vec<Node>, bool) + Send + Sync>;

/// Deployment snapshot of one flow, fixed for the run's lifetime.
#[derive(Debug, Clone)]
pub struct PlaneFlow {
    pub route: Vec<NodeId>,
    /// `Some(query_id)` if this is the query's delivery flow.
    pub delivery_for: Option<String>,
    /// Retired flows keep their id slot but never run.
    pub retired: bool,
}

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

/// Receiver-side contiguity mark for one `(flow, dest hop)` input.
#[derive(Debug, Default, Clone, Copy)]
struct RecvMark {
    /// Next offset this receiver will accept.
    next: u64,
    /// End-of-stream already processed (duplicate markers are dropped).
    eos_seen: bool,
}

/// What a receive filter admitted from one incoming batch.
pub struct Accepted {
    /// Offset of the first admitted item.
    pub offset: u64,
    /// The admitted (not-yet-seen) tail of the batch.
    pub items: Vec<Node>,
    /// `true` if this batch carries the first end-of-stream marker.
    pub eos: bool,
}

/// One run's executable state on one process.
pub struct Plane {
    pub run: u64,
    pub flows: Vec<PlaneFlow>,
    /// Hosted groups: `(node, key) -> index`; used to feed taps.
    group_at: BTreeMap<(NodeId, GroupKey), usize>,
    mailboxes: BTreeMap<NodeId, Arc<SyncMailbox>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    source_jobs: Mutex<Vec<SourceJob>>,
    /// Batches that arrived after teardown began (must all belong to
    /// side-branches that feed no delivery — see `finish_run`).
    pub stale: AtomicU64,
    /// Next output offset per flow, bumped at the flow's origin. A flow's
    /// outputs are produced by exactly one worker thread, so the counter
    /// is only ever advanced sequentially; it exists as an atomic so a
    /// `&Plane` suffices to stamp offsets.
    emit_next: Vec<AtomicU64>,
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
    recv: Mutex<BTreeMap<(FlowId, usize), RecvMark>>,
}

impl Plane {
    /// Builds this process's share of the data plane for `run`: the
    /// sharing groups of every node `map` assigns to process `me`, one
    /// mailbox + worker per hosted node. Sources don't replay until
    /// [`start_sources`](Self::start_sources) (the coordinator's `RunGo`),
    /// by which point every process has acked its plane — so no item can
    /// arrive anywhere before the receiving group exists.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        globe: &StreamGlobe,
        map: &NetMap,
        me: usize,
        run: u64,
        mailbox_capacity: usize,
        durable: bool,
        source_delay: Duration,
        forward: Forwarder,
    ) -> Arc<Plane> {
        let deployment = globe.deployment();
        let delivery_of: BTreeMap<FlowId, String> = globe
            .registered_queries()
            .map(|(q, f)| (f, q.to_string()))
            .collect();
        let flows: Vec<PlaneFlow> = deployment
            .flows()
            .iter()
            .enumerate()
            .map(|(id, f)| PlaneFlow {
                route: f.route.clone(),
                delivery_for: delivery_of.get(&id).cloned(),
                retired: f.retired,
            })
            .collect();

        let groups = hosted_groups(deployment, |node| map.owner_of(node) == me);

        let mut group_at = BTreeMap::new();
        let mut per_node: BTreeMap<NodeId, Vec<(usize, FlowDag, Vec<FlowId>)>> = BTreeMap::new();
        let mut source_jobs = Vec::new();
        for (idx, ((node, key), members)) in groups.into_iter().enumerate() {
            let dag = group_dag(deployment, &members);
            if let GroupKey::Source(stream) = &key {
                source_jobs.push(SourceJob {
                    group: idx,
                    node,
                    items: globe
                        .source_items(stream)
                        .unwrap_or_else(|| panic!("group reads unknown source {stream:?}"))
                        .to_vec(),
                });
            }
            group_at.insert((node, key), idx);
            per_node.entry(node).or_default().push((idx, dag, members));
        }

        let mailboxes: BTreeMap<NodeId, Arc<SyncMailbox>> = per_node
            .keys()
            .map(|&n| (n, Arc::new(SyncMailbox::new(mailbox_capacity))))
            .collect();

        let emit_next = (0..deployment.flows().len())
            .map(|_| AtomicU64::new(0))
            .collect();
        let plane = Arc::new(Plane {
            run,
            flows,
            group_at,
            mailboxes: mailboxes.clone(),
            workers: Mutex::new(Vec::new()),
            source_jobs: Mutex::new(source_jobs),
            stale: AtomicU64::new(0),
            emit_next,
            durable,
            source_delay,
            sent: Mutex::new(BTreeMap::new()),
            recv: Mutex::new(BTreeMap::new()),
        });

        let mut workers = Vec::new();
        for (node, dags) in per_node {
            let mailbox = Arc::clone(&mailboxes[&node]);
            let worker = NodeWorker {
                dags,
                pending: BTreeMap::new(),
                forward: Arc::clone(&forward),
            };
            let peer_name = globe.topology().peer(node).name.clone();
            workers.push(std::thread::spawn(move || {
                node_worker(peer_name, mailbox, worker)
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

    /// Stamps `n` new output items of `flow`, returning the offset of the
    /// first. Called only from the flow's single origin worker thread.
    pub fn bump_emit(&self, flow: FlowId, n: usize) -> u64 {
        self.emit_next[flow].fetch_add(n as u64, Ordering::SeqCst)
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

    /// Receive filter for a wire-arrived batch: admits exactly the tail
    /// past this receiver's contiguous high-water mark. A batch starting
    /// *beyond* the mark is a gap — dropped entirely, because the only
    /// way gaps arise is a sender that kept emitting while this process
    /// was down, and the recovery `ResumeFrom` resend covers that range.
    /// Returns `None` when nothing in the batch is new.
    pub fn accept(
        &self,
        flow: FlowId,
        hop: usize,
        offset: u64,
        items: Vec<Node>,
        eos: bool,
    ) -> Option<Accepted> {
        let mut recv = self.recv.lock().unwrap();
        let mark = recv.entry((flow, hop)).or_default();
        if offset > mark.next {
            return None; // gap: covered later by the recovery resend
        }
        let end = offset + items.len() as u64;
        let fresh_eos = eos && !mark.eos_seen;
        if end <= mark.next {
            // Entirely re-seen items; only a first eos marker may remain.
            if fresh_eos {
                mark.eos_seen = true;
                return Some(Accepted {
                    offset: mark.next,
                    items: Vec::new(),
                    eos: true,
                });
            }
            return None;
        }
        let skip = (mark.next - offset) as usize;
        let accepted_offset = mark.next;
        mark.next = end;
        if fresh_eos {
            mark.eos_seen = true;
        }
        let mut items = items;
        items.drain(..skip);
        Some(Accepted {
            offset: accepted_offset,
            items,
            eos: fresh_eos,
        })
    }

    /// Feeds the tap group `(node, Tap(parent))`, if this process hosts
    /// one, with a batch of the parent flow's output passing `node` — one
    /// `push_batch`, so the batch enters the mailbox whole and in order.
    /// Blocks when the group's mailbox is full — that stall propagates to
    /// the caller (a reader thread stops reading, another node's worker
    /// stops draining its queue), which is exactly the backpressure
    /// chain. The one caller that never blocks is `node`'s own worker: it
    /// is the only thread that could make room (see [`SyncMailbox`]).
    pub fn feed_taps(&self, node: NodeId, parent: FlowId, items: &[Node], eos: bool) {
        let Some(&g) = self.group_at.get(&(node, GroupKey::Tap(parent))) else {
            return;
        };
        let mut entries: Vec<MailboxEntry> =
            items.iter().map(|n| (g, TAG_ITEM, n.clone())).collect();
        if eos {
            entries.push((g, TAG_EOS, Node::empty("eos")));
        }
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
            let stats = m.stats();
            if stats.high_water > 0 {
                dss_telemetry::gauge_set(
                    "runtime.queue_high_water",
                    || vec![("peer", topo.peer(node).name.clone())],
                    stats.high_water as f64,
                );
            }
        }
        let stale = self.stale.load(Ordering::Relaxed);
        if stale > 0 {
            dss_telemetry::counter_add("server.stale_batches", Vec::new, stale);
        }
    }
}

/// The oracle's grouping, restricted to the nodes `hosted` accepts:
/// members ascend by FlowId (`flows()` is id-ordered), matching the
/// registration order `sim::run_shared` uses.
fn hosted_groups(
    deployment: &Deployment,
    hosted: impl Fn(NodeId) -> bool,
) -> BTreeMap<(NodeId, GroupKey), Vec<FlowId>> {
    let mut groups: BTreeMap<(NodeId, GroupKey), Vec<FlowId>> = BTreeMap::new();
    for (id, f) in deployment.flows().iter().enumerate() {
        if f.retired || !hosted(f.processing_node) {
            continue;
        }
        groups
            .entry((f.processing_node, GroupKey::of(&f.input)))
            .or_default()
            .push(id);
    }
    groups
}

/// The shared operator DAG of one sharing group.
fn group_dag(deployment: &Deployment, members: &[FlowId]) -> FlowDag {
    let mut dag = FlowDag::new();
    for &id in members {
        dag.register(id, &deployment.flow(id).ops);
    }
    dag
}

/// One hosted node's worker: the node's sharing groups, the outputs of
/// the pass in progress, and the way out.
struct NodeWorker {
    dags: Vec<(usize, FlowDag, Vec<FlowId>)>,
    /// Outputs not yet forwarded, per flow, in the DAGs' emission order —
    /// the only order the oracle pins. One map for the worker's lifetime:
    /// a flushed flow keeps its (empty) slot.
    pending: BTreeMap<FlowId, Vec<Node>>,
    forward: Forwarder,
}

impl NodeWorker {
    /// Runs one pass: every entry through its group's DAG, in mailbox
    /// order, then one batch per flow that produced anything. A group's
    /// end-of-stream marker flushes its DAG and sends everything pending
    /// first, so the marker rides behind the last item of each member.
    fn run_pass(&mut self, pass: &mut Vec<MailboxEntry>) {
        for (group, tag, item) in pass.drain(..) {
            let (_, dag, members) = self
                .dags
                .iter_mut()
                .find(|(g, _, _)| *g == group)
                .expect("mailbox entry addresses a hosted group");
            let pending = &mut self.pending;
            let mut collect = |f: FlowId, n: &Node| pending.entry(f).or_default().push(n.clone());
            if tag == TAG_EOS {
                dag.flush_into(&mut collect);
                forward_pending(&mut self.pending, &self.forward);
                for &f in members.iter() {
                    (self.forward)(f, 0, Vec::new(), true);
                }
            } else {
                dag.process_into(&item, &mut collect);
            }
        }
        forward_pending(&mut self.pending, &self.forward);
    }
}

/// Forwards every flow's pending outputs from route hop 0, in ascending
/// flow order, at most [`BATCH_CAP`] items per batch.
fn forward_pending(pending: &mut BTreeMap<FlowId, Vec<Node>>, forward: &Forwarder) {
    for (&flow, items) in pending.iter_mut() {
        let mut items = std::mem::take(items);
        while items.len() > BATCH_CAP {
            let rest = items.split_off(BATCH_CAP);
            forward(flow, 0, std::mem::replace(&mut items, rest), false);
        }
        if !items.is_empty() {
            forward(flow, 0, items, false);
        }
    }
}

/// Drains one hosted node's mailbox, a pass at a time, until it is closed
/// and empty.
fn node_worker(peer_name: String, mailbox: Arc<SyncMailbox>, mut worker: NodeWorker) {
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
        worker.run_pass(&mut pass);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_core::Strategy;
    use dss_rass::Scenario;

    fn item(i: usize) -> Node {
        Node::leaf("i", i.to_string())
    }

    fn items(range: std::ops::Range<usize>) -> Vec<Node> {
        range.map(item).collect()
    }

    /// What a forwarder saw of one flow: every batch's `(offset, length)`
    /// as the real forwarder stamps it (`Plane::bump_emit`: a running
    /// count), the concatenated items, and the end-of-stream markers.
    #[derive(Default, Debug, PartialEq)]
    struct Seen {
        batches: Vec<(usize, usize)>,
        items: Vec<Node>,
        eos: usize,
    }

    type Record = Arc<Mutex<BTreeMap<FlowId, Seen>>>;

    fn recording_forwarder() -> (Forwarder, Record) {
        let record: Record = Arc::default();
        let sink = Arc::clone(&record);
        let forward: Forwarder = Arc::new(move |flow, hop, items, eos| {
            assert_eq!(hop, 0, "a worker forwards from the flow's origin");
            let mut all = sink.lock().unwrap();
            let seen = all.entry(flow).or_default();
            assert_eq!(seen.eos, 0, "flow {flow}: traffic behind end-of-stream");
            assert!(items.len() <= BATCH_CAP, "flow {flow}: oversized batch");
            if eos {
                assert!(items.is_empty(), "markers travel alone");
                seen.eos += 1;
            } else {
                assert!(!items.is_empty(), "flow {flow}: empty batch");
                seen.batches.push((seen.items.len(), items.len()));
                seen.items.extend(items);
            }
        });
        (forward, record)
    }

    fn idle_plane() -> Arc<Plane> {
        let globe = dss_rass::example_network();
        let map = NetMap::new(globe.topology());
        Plane::build(
            &globe,
            &map,
            0,
            1,
            8,
            false,
            Duration::ZERO,
            Arc::new(|_, _, _, _| {}),
        )
    }

    #[test]
    fn accept_admits_contiguous_batches_and_drops_gaps() {
        let plane = idle_plane();
        let a = plane.accept(3, 1, 0, items(0..4), false).unwrap();
        assert_eq!((a.offset, a.items, a.eos), (0, items(0..4), false));
        // A batch starting beyond the mark is a gap: dropped whole, and the
        // mark does not move — the batch that closes the gap is admitted.
        assert!(plane.accept(3, 1, 6, items(6..9), false).is_none());
        let a = plane.accept(3, 1, 4, items(4..6), false).unwrap();
        assert_eq!((a.offset, a.items), (4, items(4..6)));
        // Marks are per (flow, hop).
        assert!(plane.accept(3, 2, 4, items(4..6), false).is_none());
        assert!(plane.accept(4, 1, 0, items(0..1), false).is_some());
    }

    #[test]
    fn accept_admits_exactly_the_unseen_tail_of_an_overlap() {
        let plane = idle_plane();
        plane.accept(0, 1, 0, items(0..5), false).unwrap();
        let a = plane.accept(0, 1, 2, items(2..9), false).unwrap();
        assert_eq!((a.offset, a.items, a.eos), (5, items(5..9), false));
        // Entirely re-seen: nothing new, nothing admitted.
        assert!(plane.accept(0, 1, 0, items(0..9), false).is_none());
        assert!(plane.accept(0, 1, 8, items(8..9), false).is_none());
    }

    #[test]
    fn accept_takes_end_of_stream_once() {
        let plane = idle_plane();
        // An EOS-only batch on a flow that never carried an item.
        let a = plane.accept(1, 1, 0, Vec::new(), true).unwrap();
        assert_eq!((a.offset, a.items.len(), a.eos), (0, 0, true));
        assert!(plane.accept(1, 1, 0, Vec::new(), true).is_none());

        // Items and marker in one batch; a resend of it is dropped, and a
        // resend whose items are all seen still delivers a first marker.
        let a = plane.accept(2, 1, 0, items(0..3), false).unwrap();
        assert!(!a.eos);
        let a = plane.accept(2, 1, 0, items(0..3), true).unwrap();
        assert_eq!((a.offset, a.items.len(), a.eos), (3, 0, true));
        assert!(plane.accept(2, 1, 0, items(0..3), true).is_none());
        assert!(plane.accept(2, 1, 3, Vec::new(), true).is_none());
        // A marker beyond the mark is a gap like any other batch.
        assert!(plane.accept(5, 1, 2, Vec::new(), true).is_none());
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

    /// An end-of-stream flush larger than the cap leaves as several
    /// batches, contiguous and in order, and the marker still goes last.
    #[test]
    fn oversized_flush_is_cut_into_capped_batches_before_the_marker() {
        let (forward, record) = recording_forwarder();
        let mut worker = NodeWorker {
            dags: vec![(0, FlowDag::new(), vec![7])],
            pending: BTreeMap::from([(7, items(0..150))]),
            forward,
        };
        worker.run_pass(&mut vec![(0, TAG_EOS, Node::empty("eos"))]);
        let record = record.lock().unwrap();
        let seen = &record[&7];
        assert_eq!(seen.batches, [(0, 64), (64, 64), (128, 22)]);
        assert_eq!(seen.items, items(0..150));
        assert_eq!(seen.eos, 1);
    }

    /// The scenario-1 deployment under stream sharing, every sharing group
    /// of every node with its full input (source replay, or the parent
    /// flow's reference output), and the reference outputs per flow.
    struct Reference {
        groups: Vec<(Vec<FlowId>, Vec<Node>)>,
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
        let groups = hosted_groups(globe.deployment(), |_| true)
            .into_iter()
            .map(|((_, key), members)| {
                let input = match &key {
                    GroupKey::Source(stream) => globe.source_items(stream).unwrap().to_vec(),
                    GroupKey::Tap(parent) => outputs[*parent].clone(),
                };
                (members, input)
            })
            .collect();
        Reference {
            groups,
            deployment: globe.deployment().clone(),
            outputs,
        }
    }

    /// One mailbox history holding every group's input and marker: the
    /// groups take turns, `stride(g)` entries at a time, so their entries
    /// interleave and the markers fall at unrelated places.
    fn interleaved_mailbox(reference: &Reference) -> Vec<MailboxEntry> {
        let mut feeds: Vec<_> = reference
            .groups
            .iter()
            .enumerate()
            .map(|(g, (_, input))| {
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
        assert!(reference.groups.len() >= 2, "needs interleaved groups");
        let run = |pass_len: &dyn Fn(usize) -> usize| {
            let (forward, record) = recording_forwarder();
            let mut worker = NodeWorker {
                dags: reference
                    .groups
                    .iter()
                    .enumerate()
                    .map(|(g, (members, _))| {
                        let dag = group_dag(&reference.deployment, members);
                        (g, dag, members.clone())
                    })
                    .collect(),
                pending: BTreeMap::new(),
                forward,
            };
            let mut rest = mailbox.clone();
            let mut passes = 0;
            while !rest.is_empty() {
                let n = pass_len(passes).clamp(1, rest.len());
                let tail = rest.split_off(n);
                worker.run_pass(&mut rest);
                rest = tail;
                passes += 1;
            }
            drop(worker);
            let flows = Arc::try_unwrap(record).unwrap().into_inner().unwrap();
            flows
                .into_iter()
                .map(|(f, seen)| (f, (seen.items, seen.eos)))
                .collect::<BTreeMap<_, _>>()
        };

        let one_by_one = run(&|_| 1);
        let members: Vec<FlowId> = reference
            .groups
            .iter()
            .flat_map(|(m, _)| m.iter().copied())
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
