//! Bounded per-peer input queues.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::thread::ThreadId;

use dss_xml::Node;

/// A peer's bounded input queue. Every item addressed to a sharing group
/// whose operator DAG runs at this peer waits here until the peer's
/// (single) server picks it up — one entry serves *all* flows of the
/// group. When the queue is full, new arrivals are dropped (drop-newest),
/// which is what a saturated StreamGlobe peer does once its buffers fill.
#[derive(Debug)]
pub(crate) struct Mailbox {
    queue: VecDeque<(usize, u64, Node)>,
    capacity: usize,
    /// Highest queue depth ever observed (reported in `RuntimeMetrics`).
    pub high_water: usize,
    /// Items dropped because the queue was full. (The runtime attributes
    /// each drop to the member flows of the refused group itself.)
    pub dropped: u64,
}

impl Mailbox {
    pub fn new(capacity: usize) -> Mailbox {
        Mailbox {
            queue: VecDeque::new(),
            capacity,
            high_water: 0,
            dropped: 0,
        }
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues an item for sharing group `group`, stamped with its
    /// source-emission time. Returns `false` (and counts a drop) when the
    /// mailbox is full.
    pub fn push(&mut self, group: usize, origin: u64, item: Node) -> bool {
        if self.queue.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.force_push(group, origin, item);
        true
    }

    /// Enqueues past the capacity check (see [`SyncMailbox`]: blocking
    /// pushers wait for room first, and the consumer's own pushes are
    /// exempt), still tracking the high-water mark.
    fn force_push(&mut self, group: usize, origin: u64, item: Node) {
        self.queue.push_back((group, origin, item));
        self.high_water = self.high_water.max(self.queue.len());
    }

    pub fn pop(&mut self) -> Option<(usize, u64, Node)> {
        self.queue.pop_front()
    }

    /// `true` when any queued entry is addressed to `group` — the
    /// re-balancer's quiescence probe before migrating the group's flows.
    pub fn contains_group(&self, group: usize) -> bool {
        self.queue.iter().any(|(g, _, _)| *g == group)
    }

    /// Empties the queue (peer crash), returning the lost entries so the
    /// caller can count the per-group fan-out they would have served.
    pub fn drain_all(&mut self) -> Vec<(usize, u64, Node)> {
        self.queue.drain(..).collect()
    }
}

/// One queued mailbox entry: `(sharing group, origin tag, item)`.
pub type MailboxEntry = (usize, u64, Node);

/// Thread-safe bounded mailbox for *networked* deployments (`dss serve`).
///
/// Wraps the simulator's [`Mailbox`] in a mutex + condvars so a real
/// TCP-fed peer process gets the very same bounded-queue semantics with a
/// different overload response: where the discrete-event runtime models a
/// saturated peer by dropping the newest item, a server thread **blocks**
/// in [`push`](SyncMailbox::push) until the worker drains the queue.
/// Since the pushing thread is a connection's read loop, a full mailbox
/// stops reads, the kernel's receive window fills, and the sender stalls —
/// per-connection backpressure mapped onto the existing bounded-mailbox
/// accounting (`high_water` is tracked by the same code path; nothing is
/// ever discarded).
///
/// One thread is exempt from the bound: the mailbox's own consumer (the
/// thread that last called [`pop_batch`](SyncMailbox::pop_batch)). A
/// worker feeding a tap group on its own node pushes into the queue only
/// it drains; blocking there could never be relieved. Its pushes always
/// go through, overshooting the capacity by at most what one pass of the
/// worker produces, and still count towards `high_water`.
#[derive(Debug)]
pub struct SyncMailbox {
    inner: Mutex<SyncInner>,
    not_full: Condvar,
    not_empty: Condvar,
}

#[derive(Debug)]
struct SyncInner {
    queue: Mailbox,
    closed: bool,
    /// The thread draining this mailbox, as of its last `pop_batch`.
    consumer: Option<ThreadId>,
}

impl SyncMailbox {
    pub fn new(capacity: usize) -> SyncMailbox {
        SyncMailbox {
            inner: Mutex::new(SyncInner {
                queue: Mailbox::new(capacity),
                closed: false,
                consumer: None,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Blocking enqueue: waits while the mailbox is full (read-side
    /// backpressure). Returns `false` — without enqueuing — once the
    /// mailbox is closed.
    pub fn push(&self, group: usize, origin: u64, item: Node) -> bool {
        self.push_all(std::iter::once((group, origin, item)))
    }

    /// Blocking enqueue of several entries, in order, under one lock
    /// acquisition per wait instead of one per entry: everything that
    /// fits goes in at once, and a full mailbox parks the caller exactly
    /// like [`push`](Self::push). Returns `false` once the mailbox is
    /// closed; entries enqueued before that are still handed out.
    pub fn push_batch(&self, entries: Vec<MailboxEntry>) -> bool {
        self.push_all(entries.into_iter())
    }

    fn push_all(&self, entries: impl Iterator<Item = MailboxEntry>) -> bool {
        let mut inner = self.inner.lock().unwrap();
        // Resolved lazily: only a pusher that finds the queue full pays
        // for asking who it is.
        let mut is_consumer = None;
        for (group, origin, item) in entries {
            while !inner.closed
                && inner.queue.len() >= inner.queue.capacity
                && !*is_consumer
                    .get_or_insert_with(|| inner.consumer == Some(std::thread::current().id()))
            {
                // Whatever this call already enqueued must be visible to
                // a consumer parked on an empty queue before we park too.
                self.not_empty.notify_one();
                inner = self.not_full.wait(inner).unwrap();
            }
            if inner.closed {
                return false;
            }
            inner.queue.force_push(group, origin, item);
        }
        self.not_empty.notify_one();
        !inner.closed
    }

    /// Blocking dequeue. Returns `None` only when the mailbox is closed
    /// *and* drained — items enqueued before [`close`](Self::close) are
    /// always handed out, which is what makes a drain-on-shutdown
    /// guarantee possible.
    pub fn pop(&self) -> Option<MailboxEntry> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(entry) = inner.queue.pop() {
                self.not_full.notify_one();
                return Some(entry);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Blocking batch dequeue: waits for the first entry, then appends to
    /// `out` whatever else is already queued, up to `max` entries — it
    /// never waits to fill a batch. Returns `false` only when the mailbox
    /// is closed *and* drained (same guarantee as [`pop`](Self::pop)).
    /// The caller becomes the mailbox's consumer (see the type docs).
    pub fn pop_batch(&self, max: usize, out: &mut Vec<MailboxEntry>) -> bool {
        let mut inner = self.inner.lock().unwrap();
        inner.consumer = Some(std::thread::current().id());
        loop {
            if inner.queue.len() > 0 {
                let n = inner.queue.len().min(max);
                out.extend(inner.queue.queue.drain(..n));
                self.not_full.notify_all();
                return true;
            }
            if inner.closed {
                return false;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Closes the mailbox: pending pushes return `false`, and `pop`
    /// returns `None` once the remaining entries are drained.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest queue depth ever observed (survives close and drain) — the
    /// number `RuntimeMetrics` reports for simulated peers.
    pub fn high_water(&self) -> usize {
        self.inner.lock().unwrap().queue.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_drop_newest_and_high_water() {
        let mut m = Mailbox::new(2);
        let item = Node::leaf("x", "1");
        assert!(m.push(0, 10, item.clone()));
        assert!(m.push(1, 20, item.clone()));
        assert!(!m.push(2, 30, item.clone()), "third push must be dropped");
        assert_eq!(m.dropped, 1);
        assert_eq!(m.high_water, 2);
        assert_eq!(m.len(), 2);
        assert_eq!(m.pop().map(|(g, t, _)| (g, t)), Some((0, 10)));
        assert!(m.push(2, 30, item));
        assert_eq!(m.drain_all().len(), 2);
        assert!(m.pop().is_none());
        assert_eq!(m.high_water, 2, "high water survives draining");
    }

    /// A full `SyncMailbox` blocks the pusher until the consumer drains —
    /// the backpressure mapping `dss serve` relies on — and the blocking
    /// path never drops while still tracking the high-water mark.
    #[test]
    fn sync_mailbox_blocks_instead_of_dropping() {
        use std::sync::Arc;

        let m = Arc::new(SyncMailbox::new(2));
        let item = Node::leaf("x", "1");
        assert!(m.push(0, 0, item.clone()));
        assert!(m.push(0, 1, item.clone()));
        let producer = {
            let m = Arc::clone(&m);
            let item = item.clone();
            std::thread::spawn(move || m.push(0, 2, item))
        };
        // The producer must be parked on the full queue; give it a moment
        // and confirm nothing was dropped or enqueued past capacity.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(m.len(), 2);
        assert_eq!(m.pop().map(|(_, t, _)| t), Some(0));
        assert!(producer.join().unwrap(), "unblocked push succeeds");
        assert_eq!(m.high_water(), 2);
    }

    /// Closing hands out every already-enqueued item before `pop` reports
    /// end-of-stream, so shutdown can drain without losing deliveries.
    #[test]
    fn sync_mailbox_drains_after_close() {
        let m = SyncMailbox::new(4);
        let item = Node::leaf("x", "1");
        assert!(m.push(0, 0, item.clone()));
        assert!(m.push(1, 1, item.clone()));
        m.close();
        assert!(!m.push(2, 2, item.clone()), "push after close refused");
        assert_eq!(m.pop().map(|(g, _, _)| g), Some(0));
        assert_eq!(m.pop().map(|(g, _, _)| g), Some(1));
        assert!(m.pop().is_none(), "closed and drained");
    }

    fn entries(range: std::ops::Range<u64>) -> Vec<MailboxEntry> {
        range
            .map(|t| ((t % 3) as usize, t, Node::leaf("x", t.to_string())))
            .collect()
    }

    fn tags(batch: &[MailboxEntry]) -> Vec<u64> {
        batch.iter().map(|(_, t, _)| *t).collect()
    }

    /// `pop_batch` takes what is queued, never more than the cap, and
    /// order is FIFO across batch boundaries however pushes and pops were
    /// grouped.
    #[test]
    fn batches_are_fifo_and_capped() {
        let m = SyncMailbox::new(100);
        assert!(m.push_batch(entries(0..5)));
        assert!(m.push(9, 5, Node::leaf("x", "5")));
        assert!(m.push_batch(entries(6..10)));
        let mut seen = Vec::new();
        let mut pass = Vec::new();
        for want in [4, 4, 2] {
            assert!(m.pop_batch(4, &mut pass));
            assert_eq!(pass.len(), want, "a pass holds min(queued, cap)");
            seen.extend(tags(&pass));
            pass.clear();
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(m.is_empty());
        assert_eq!(m.high_water(), 10);
        // `pop_batch` appends: what the caller left in `out` stays.
        assert!(m.push_batch(entries(10..12)));
        pass.push((0, 99, Node::leaf("x", "kept")));
        assert!(m.pop_batch(4, &mut pass));
        assert_eq!(tags(&pass), [99, 10, 11]);
    }

    /// A batch larger than the free room goes in piecewise: the pusher
    /// parks at capacity and resumes as the consumer drains, nothing is
    /// dropped or reordered, and the queue never exceeds its bound.
    #[test]
    fn push_batch_blocks_at_capacity_and_resumes() {
        use std::sync::Arc;

        let m = Arc::new(SyncMailbox::new(4));
        let producer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || m.push_batch(entries(0..50)))
        };
        let mut seen = Vec::new();
        let mut pass = Vec::new();
        while seen.len() < 50 {
            assert!(m.pop_batch(3, &mut pass));
            assert!(pass.len() <= 3);
            seen.extend(tags(&pass));
            pass.clear();
        }
        assert!(producer.join().unwrap(), "whole batch enqueued");
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        assert!(m.high_water() <= 4, "bound held: {}", m.high_water());
    }

    /// Closing releases a parked `push_batch` with `false`, and everything
    /// enqueued before the close is still handed out, in order.
    #[test]
    fn close_then_drain_hands_out_everything_enqueued() {
        use std::sync::Arc;

        let m = Arc::new(SyncMailbox::new(4));
        let producer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || m.push_batch(entries(0..10)))
        };
        while m.len() < 4 {
            std::thread::yield_now();
        }
        m.close();
        assert!(!producer.join().unwrap(), "cut short by the close");
        assert!(!m.push_batch(entries(10..11)), "refused after close");
        let mut pass = Vec::new();
        assert!(m.pop_batch(3, &mut pass));
        assert!(m.pop_batch(3, &mut pass));
        assert_eq!(tags(&pass), [0, 1, 2, 3]);
        assert!(!m.pop_batch(3, &mut pass), "closed and drained");
    }

    /// The thread that drains a mailbox never blocks pushing into it (a
    /// worker feeding a tap group on its own node): it overshoots the
    /// bound instead, and the overshoot shows in `high_water`. Every other
    /// thread still parks at capacity.
    #[test]
    fn the_consumer_never_blocks_on_its_own_mailbox() {
        use std::sync::Arc;

        let m = Arc::new(SyncMailbox::new(2));
        assert!(m.push_batch(entries(0..2)));
        let mut pass = Vec::new();
        assert!(m.pop_batch(1, &mut pass)); // this thread is the consumer
        assert!(m.push_batch(entries(2..7)), "would deadlock if it parked");
        assert!(m.push(0, 7, Node::leaf("x", "7")));
        assert_eq!(m.len(), 7);
        assert_eq!(m.high_water(), 7);

        let other = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || m.push(0, 8, Node::leaf("x", "8")))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(m.len(), 7, "a foreign pusher waits for room");
        while m.len() >= 2 {
            assert!(m.pop_batch(64, &mut pass));
        }
        assert!(other.join().unwrap());
        assert!(m.pop_batch(64, &mut pass));
        assert_eq!(tags(&pass), (0..9).collect::<Vec<_>>());
    }
}
