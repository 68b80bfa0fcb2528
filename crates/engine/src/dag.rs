//! A prefix-sharing operator DAG: many operator chains fused into one
//! executable trie. It is the one way an operator chain runs: a lone
//! chain is a one-sink DAG ([`OpDag::chain`]).
//!
//! Several continuous queries consuming the same input stream at one peer
//! frequently start with the *same* leading operators (the common
//! selection/projection prefix of a query template). Executing each chain
//! on its own re-runs that prefix once per chain and per item. An
//! [`OpDag`] instead merges equal prefixes into single trie nodes: each
//! input item runs through every shared node exactly once, and a fan-out
//! routes node outputs to the per-chain *sinks* — so per-item work grows
//! with the number of *distinct* operators, not the number of chains. The
//! nodes live in a [`PrefixTrie`], the structure the planner's sharing
//! book charges through too; each node's payload is its operator and its
//! counters.
//!
//! Two operators share a node when a `mergeable` predicate over the
//! caller's operator keys (`K`) accepts them. Every product caller that
//! shares passes `==`: a `FlowOp` key includes its window spec, so equal
//! keys are the paper's `MatchAggregations` rule. The predicate stays a
//! parameter only for `bench/`'s unfused ablation
//! (`engine.opdag_work_ratio_f16`), which refuses every merge
//! ([`OpDag::chain`] has a single sink and nothing to merge).
//!
//! Chains register and retire dynamically. [`OpDag::reregister`] replaces
//! a sink's chain while keeping the nodes of the unchanged leading prefix
//! alive — including their buffered window state — and rebuilding only the
//! suffix below the first changed operator.
//!
//! What a sink receives is its chain's output, whatever else is
//! registered: each operator consumes its predecessor's output in order,
//! an operator whose predecessor emitted nothing is not consulted, and at
//! end of stream each operator first processes what upstream flushed and
//! then drains its own state.
//!
//! There is one traversal, `run_node`, and it runs each node over a whole
//! input slice before its children: [`OpDag::process_slice`] hands it a
//! stream at once, [`OpDag::process_into`] a slice of one item. A sink
//! receives its node's output buffer once per slice ([`SinkBatch`]), and
//! may move the items out when it is the buffer's last reader. Operators
//! share no state, so a sink sees the same items in the same order
//! however the input is cut.

use dss_xml::Node;

use crate::migrate::{MigrationReport, OpState};
use crate::op::{Emit, StreamOperator};
use crate::trie::{PrefixTrie, SinkId};

/// One keyed operator chain, as passed to [`OpDag::register`] and the
/// re-registration entry points.
pub type KeyedChain<K> = Vec<(K, Box<dyn StreamOperator + Send>)>;

/// One node's output as [`OpDag::process_slice`] hands it to a sink.
#[derive(Debug)]
pub enum SinkBatch<'a> {
    /// Other sinks or child nodes read these items too.
    Shared(&'a [Node]),
    /// The sink is the buffer's last reader: it may move the items out
    /// instead of cloning them.
    Movable(&'a mut Emit),
}

impl SinkBatch<'_> {
    /// The items, whoever owns them.
    pub fn as_slice(&self) -> &[Node] {
        match self {
            SinkBatch::Shared(items) => items,
            SinkBatch::Movable(buf) => buf.as_slice(),
        }
    }
}

/// A batch callback that reports each item of a batch to `out`.
fn per_item(out: &mut dyn FnMut(SinkId, &Node)) -> impl FnMut(SinkId, SinkBatch<'_>) + '_ {
    move |sink, batch| {
        for item in batch.as_slice() {
            out(sink, item);
        }
    }
}

/// Execution counters of one DAG node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    /// Operator name.
    pub name: &'static str,
    /// Items fed into the operator.
    pub items_in: u64,
    /// Items the operator emitted.
    pub items_out: u64,
    /// Accumulated work: `items_in × base_load`.
    pub work: f64,
}

impl OpStats {
    /// Folds another operator's counters into this one, keeping `self`'s
    /// name. Used to aggregate the counters of pruned DAG nodes, whose
    /// per-node identity is gone but whose executed work still happened.
    pub fn absorb(&mut self, other: &OpStats) {
        self.items_in += other.items_in;
        self.items_out += other.items_out;
        self.work += other.work;
    }
}

/// Snapshot of one DAG node's identity and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNodeStats {
    /// Depth in the trie (0 = reads the input stream directly).
    pub depth: usize,
    /// Number of registered chains currently sharing this node.
    pub sharers: usize,
    /// Execution counters.
    pub stats: OpStats,
}

/// A trie node's payload: the operator and its counters.
#[derive(Debug)]
struct DagNode<K> {
    key: K,
    op: Box<dyn StreamOperator + Send>,
    /// Cached `op.base_load()`.
    load: f64,
    stats: OpStats,
}

impl<K> DagNode<K> {
    fn new((key, op): (K, Box<dyn StreamOperator + Send>)) -> DagNode<K> {
        DagNode {
            load: op.base_load(),
            stats: OpStats {
                name: op.name(),
                ..OpStats::default()
            },
            key,
            op,
        }
    }
}

/// The prefix-sharing operator trie. See the module docs.
#[derive(Debug)]
pub struct OpDag<K> {
    trie: PrefixTrie<DagNode<K>>,
    /// Per-depth scratch output buffers, reused across items.
    scratch: Vec<Emit>,
    /// Aggregated counters of pruned nodes: their work was executed, so it
    /// must not vanish from the books when the last sharer retires.
    retired: OpStats,
}

impl<K> Default for OpDag<K> {
    fn default() -> OpDag<K> {
        OpDag {
            trie: PrefixTrie::default(),
            scratch: Vec::new(),
            retired: OpStats {
                name: "retired",
                ..OpStats::default()
            },
        }
    }
}

impl OpDag<()> {
    /// A lone chain: `ops` in order, registered as sink 0, whose output is
    /// what the last operator emits (the input itself when `ops` is empty).
    pub fn chain(ops: impl IntoIterator<Item = Box<dyn StreamOperator + Send>>) -> OpDag<()> {
        let mut dag = OpDag::new();
        let keyed = ops.into_iter().map(|op| ((), op)).collect();
        dag.register(0, keyed, |_, _| false);
        dag
    }
}

impl<K> OpDag<K> {
    /// An empty DAG.
    pub fn new() -> OpDag<K> {
        OpDag::default()
    }

    /// Registers a chain under `sink`, merging its leading operators into
    /// existing nodes wherever `mergeable` allows. The boxed operators of
    /// merged prefix ops are dropped unused.
    ///
    /// # Panics
    /// Panics if `sink` is already registered.
    pub fn register<F>(&mut self, sink: SinkId, ops: KeyedChain<K>, mergeable: F)
    where
        F: Fn(&K, &K) -> bool,
    {
        let matches = |n: &DagNode<K>, (k, _): &(K, _)| mergeable(&n.key, k);
        self.trie.insert(sink, ops, matches, DagNode::new);
    }

    /// Drops `sink`'s chain, pruning nodes it was the last sharer of.
    ///
    /// # Panics
    /// Panics if `sink` is not registered.
    pub fn retire(&mut self, sink: SinkId) {
        let retired = &mut self.retired;
        let known = self.trie.remove(sink, |n| retired.absorb(&n.stats));
        assert!(known, "sink not registered");
    }

    /// Replaces `sink`'s chain: the longest leading run of operators that
    /// `mergeable` matches against the old path keeps its existing nodes
    /// (and their state); only the diverging suffix is released and
    /// rebuilt. Registers from scratch when `sink` is unknown.
    pub fn reregister<F>(&mut self, sink: SinkId, ops: KeyedChain<K>, mergeable: F)
    where
        F: Fn(&K, &K) -> bool,
    {
        match self.release_diverging(sink, &ops, &mergeable, None) {
            Some(kept) => self.rebuild(sink, kept, ops, &mergeable, None),
            None => self.register(sink, ops, mergeable),
        }
    }

    /// [`Self::reregister`] over several sinks as one atomic handoff,
    /// carrying open window state across the rebuild where doing so is
    /// exact: stateful operators pruned from an old suffix export their
    /// state ([`StreamOperator::snapshot_state`]), and freshly built
    /// operators on the new suffixes adopt the snapshots they can
    /// ([`StreamOperator::import_state`]) — moving O(open state) items
    /// instead of losing the windows and replaying O(window extent).
    ///
    /// Every old suffix is released *before* any new chain is built. This
    /// is what makes migration work for sinks that share stateful nodes —
    /// released one at a time, a shared node is still referenced by the
    /// not-yet-rebuilt sinks when the first one lets go, so its state would
    /// neither export nor survive.
    ///
    /// State is only ever imported into nodes *created by this call*
    /// (merging into an existing shared node would inject foreign history
    /// into its other sharers' output). Exported snapshots are tagged with
    /// the releasing sink, and a fresh node only adopts snapshots from sinks
    /// whose new path runs through it. Two sinks with *equal specs but
    /// different upstream chains* can therefore never exchange state, while
    /// a node the rebuilt sinks merge back into adopts the one shared
    /// snapshot they previously co-owned. Snapshots nothing adopts are
    /// dropped, exactly as a plain [`Self::reregister`] would.
    pub fn reregister_migrating_batch<F>(
        &mut self,
        batch: Vec<(SinkId, KeyedChain<K>)>,
        mergeable: F,
    ) -> MigrationReport
    where
        F: Fn(&K, &K) -> bool,
    {
        let mut pool: Vec<(SinkId, OpState)> = Vec::new();
        let mut staged = Vec::with_capacity(batch.len());
        // Phase 1: detach every sink and release its diverging suffix,
        // pooling whatever state the pruned operators export.
        for (sink, ops) in batch {
            let mut exported = Vec::new();
            let kept = self.release_diverging(sink, &ops, &mergeable, Some(&mut exported));
            // Pruning collects bottom-up; match snapshots to the new path
            // top-down so chains with repeated specs pair up in stream
            // order.
            pool.extend(exported.into_iter().rev().map(|st| (sink, st)));
            staged.push((sink, kept, ops));
        }
        // Phase 2: rebuild every chain, recording freshly created nodes. An
        // unknown sink is a plain registration, never a migration target
        // (its fresh nodes stay off the import list, though another batch
        // member may still merge into them).
        let mut fresh = Vec::new();
        let mut migrating = Vec::new();
        for (sink, kept, ops) in staged {
            if kept.is_some() {
                migrating.push(sink);
            }
            let record = kept.is_some().then_some(&mut fresh);
            self.rebuild(sink, kept.unwrap_or_default(), ops, &mergeable, record);
        }
        // Phase 3: first-fit import, gated on path ownership.
        let nodes = fresh.into_iter().map(|idx| {
            debug_assert_eq!(
                self.trie.node(idx).value.stats.items_in,
                0,
                "state imported into a node that already processed items"
            );
            (idx, self.owners(idx, &migrating))
        });
        let nodes = nodes.collect();
        self.import_first_fit(nodes, pool)
    }

    /// Detaches `sink` and releases its path below the longest prefix that
    /// `ops` still matches; pruned operators export their open window
    /// state into `exported` when given (bottom-up order). Returns the kept
    /// prefix, or `None` when `sink` is not registered.
    fn release_diverging(
        &mut self,
        sink: SinkId,
        ops: &[(K, Box<dyn StreamOperator + Send>)],
        mergeable: &impl Fn(&K, &K) -> bool,
        mut exported: Option<&mut Vec<OpState>>,
    ) -> Option<Vec<usize>> {
        let mut path = self.trie.detach(sink)?;
        let matches = |n: &DagNode<K>, (k, _): &(K, _)| mergeable(&n.key, k);
        let keep = self.trie.common_prefix(&path, ops, matches);
        let retired = &mut self.retired;
        self.trie.release(&path, keep, |n| {
            if let Some(pool) = exported.as_deref_mut() {
                pool.extend(n.op.snapshot_state());
            }
            retired.absorb(&n.stats);
        });
        path.truncate(keep);
        Some(path)
    }

    /// Extends the kept prefix `path` with the rest of `ops` and registers
    /// `sink` at its end; created nodes are appended to `fresh` when given.
    fn rebuild(
        &mut self,
        sink: SinkId,
        mut path: Vec<usize>,
        ops: KeyedChain<K>,
        mergeable: &impl Fn(&K, &K) -> bool,
        fresh: Option<&mut Vec<usize>>,
    ) {
        let rest = ops.into_iter().skip(path.len());
        let matches = |n: &DagNode<K>, (k, _): &(K, _)| mergeable(&n.key, k);
        self.trie
            .extend(&mut path, rest, matches, DagNode::new, fresh);
        self.trie.attach(sink, path);
    }

    /// Captures a durability checkpoint of every stateful node's open
    /// window state, without disturbing the DAG
    /// ([`StreamOperator::snapshot_state`]). Each live node is snapshotted
    /// once — shared prefixes included — and tagged with the smallest sink
    /// whose path runs through it, in deterministic sink order, so
    /// [`Self::adopt_states_for`] with every sink as a target pairs every
    /// snapshot back to its node on an identically rebuilt DAG.
    pub fn snapshot_states(&self) -> Vec<(SinkId, OpState)> {
        let mut seen: Vec<usize> = Vec::new();
        let mut out = Vec::new();
        for (sink, path) in self.trie.paths() {
            for &idx in path {
                if seen.contains(&idx) {
                    continue;
                }
                seen.push(idx);
                if let Some(st) = self.trie.node(idx).value.op.snapshot_state() {
                    out.push((sink, st));
                }
            }
        }
        out
    }

    /// Restores snapshots into the freshly registered `targets` of a
    /// possibly *warm* DAG: first-fit import gated on path ownership, as in
    /// a migrating re-registration, scoped to the target sinks' paths, so
    /// migrated chains can land in a shared group that is already
    /// processing other sinks' items. A node imports only when it has
    /// processed no input yet **and** every sink whose path runs through it
    /// is itself a target — adopted window state must never become visible
    /// to a sink that already consumed items (its outputs would diverge
    /// from the items it actually saw). Snapshots nothing adopts are
    /// dropped; those windows restart empty. On a freshly rebuilt DAG with
    /// every sink a target, this restores a [`Self::snapshot_states`]
    /// checkpoint.
    pub fn adopt_states_for(
        &mut self,
        targets: &[SinkId],
        pool: Vec<(SinkId, OpState)>,
    ) -> MigrationReport {
        let sinks: Vec<SinkId> = self.trie.paths().map(|(s, _)| s).collect();
        let mut seen: Vec<usize> = Vec::new();
        let mut nodes = Vec::new();
        for &t in targets {
            for &idx in self.trie.path(t).unwrap_or_default() {
                if seen.contains(&idx) {
                    continue;
                }
                seen.push(idx);
                if self.trie.node(idx).value.stats.items_in != 0 {
                    continue;
                }
                let owners = self.owners(idx, &sinks);
                if owners.iter().all(|s| targets.contains(s)) {
                    nodes.push((idx, owners));
                }
            }
        }
        self.import_first_fit(nodes, pool)
    }

    /// The sinks among `sinks` whose path runs through node `idx`.
    fn owners(&self, idx: usize, sinks: &[SinkId]) -> Vec<SinkId> {
        (sinks.iter().copied())
            .filter(|&s| self.trie.path(s).is_some_and(|p| p.contains(&idx)))
            .collect()
    }

    /// First-fit import into each `(node, owners)` in turn: the first
    /// pooled snapshot tagged with one of the owners that the node's
    /// operator adopts exactly leaves the pool and is counted in the
    /// report. What nothing adopts is dropped.
    fn import_first_fit(
        &mut self,
        nodes: Vec<(usize, Vec<SinkId>)>,
        mut pool: Vec<(SinkId, OpState)>,
    ) -> MigrationReport {
        let mut report = MigrationReport {
            ops_exported: pool.len() as u64,
            ..MigrationReport::default()
        };
        for (idx, owners) in nodes {
            let op = &mut self.trie.node_mut(idx).value.op;
            let hit = pool
                .iter()
                .enumerate()
                .filter(|(_, (tag, _))| owners.contains(tag))
                .find_map(|(pos, (_, st))| Some((pos, op.import_state(st)?)));
            if let Some((pos, items)) = hit {
                pool.remove(pos);
                report.ops_migrated += 1;
                report.items_moved += items;
            }
        }
        report.ops_dropped = pool.len() as u64;
        report
    }

    /// Pushes one item through the DAG. Every (sink, output item) pair is
    /// reported through `out`; a sink's call sequence is byte-identical to
    /// what its chain would emit alone.
    pub fn process_into(&mut self, item: &Node, out: &mut dyn FnMut(SinkId, &Node)) {
        self.process_slice(std::slice::from_ref(item), &mut per_item(out));
    }

    /// Pushes `items` through the DAG, each node over its whole input at
    /// once: a node's output is handed to each of its sinks as one batch,
    /// then runs through its children. Per sink, the items and their order
    /// are those of [`Self::process_into`] called item by item, and so are
    /// the node counters.
    pub fn process_slice(&mut self, items: &[Node], out: &mut dyn FnMut(SinkId, SinkBatch<'_>)) {
        if items.is_empty() {
            return;
        }
        for i in 0..self.trie.root_sinks.len() {
            out(self.trie.root_sinks[i], SinkBatch::Shared(items));
        }
        for i in 0..self.trie.roots.len() {
            let r = self.trie.roots[i];
            self.run_node(r, items, 0, false, out);
        }
    }

    /// End-of-stream flush: carried upstream items run through each node
    /// *before* the node drains its own buffered state.
    pub fn flush_into(&mut self, out: &mut dyn FnMut(SinkId, &Node)) {
        for i in 0..self.trie.roots.len() {
            let r = self.trie.roots[i];
            self.run_node(r, &[], 0, true, &mut per_item(out));
        }
    }

    /// Runs node `idx` over `inputs` (draining its own state after them
    /// when `flush`), hands the output to its sinks and then to its
    /// children, depth-first.
    fn run_node(
        &mut self,
        idx: usize,
        inputs: &[Node],
        depth: usize,
        flush: bool,
        out: &mut dyn FnMut(SinkId, SinkBatch<'_>),
    ) {
        if depth == self.scratch.len() {
            self.scratch.push(Emit::new());
        }
        let mut buf = std::mem::take(&mut self.scratch[depth]);
        debug_assert!(buf.is_empty());
        let node = self.trie.node_mut(idx);
        let n = &mut node.value;
        for item in inputs {
            n.stats.items_in += 1;
            n.stats.work += n.load;
            n.op.process_into(item, &mut buf);
        }
        if flush {
            n.op.flush_into(&mut buf);
        }
        n.stats.items_out += buf.len() as u64;
        let (sinks, children) = (node.sinks.len(), node.children.len());
        if !buf.is_empty() {
            for si in 0..sinks {
                let sink = self.trie.node(idx).sinks[si];
                // Children read the buffer after the sinks: without any,
                // the last sink is its last reader and may take the items.
                if si + 1 == sinks && children == 0 {
                    out(sink, SinkBatch::Movable(&mut buf));
                } else {
                    out(sink, SinkBatch::Shared(buf.as_slice()));
                }
            }
        }
        // Short-circuit on empty output — except in a flush, where children
        // may hold buffered state of their own that must drain even when
        // this node flushed nothing.
        if !buf.is_empty() || flush {
            for ci in 0..children {
                let c = self.trie.node(idx).children[ci];
                self.run_node(c, buf.as_slice(), depth + 1, flush, out);
            }
        }
        buf.clear();
        self.scratch[depth] = buf;
    }

    /// Number of registered sinks.
    pub fn sink_count(&self) -> usize {
        self.trie.sink_count()
    }

    /// `true` when no chain is registered.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// `true` when `sink` has a registered chain.
    pub fn contains(&self, sink: SinkId) -> bool {
        self.trie.path(sink).is_some()
    }

    /// Number of live operator nodes (shared prefixes count once).
    pub fn node_count(&self) -> usize {
        self.trie.node_count()
    }

    /// Total accumulated work across live nodes — each shared node's work
    /// counted once, however many sinks ride it.
    pub fn total_work(&self) -> f64 {
        self.trie.values().map(|n| n.stats.work).sum()
    }

    /// Aggregated counters of every node pruned so far (named "retired").
    /// [`Self::node_stats`] reports live nodes only; without this, the
    /// counters of a fully-retired chain would silently disappear.
    pub fn retired_stats(&self) -> &OpStats {
        &self.retired
    }

    /// Per-node counters in deterministic DFS (pre-)order.
    pub fn node_stats(&self) -> Vec<DagNodeStats> {
        let stats = self.trie.preorder().into_iter().map(|(idx, depth)| {
            let node = self.trie.node(idx);
            DagNodeStats {
                depth,
                sharers: node.sharers(),
                stats: node.value.stats.clone(),
            }
        });
        stats.collect()
    }
}

/// Runs `ops` as one chain over `items`, end-of-stream flush included.
#[cfg(test)]
pub(crate) fn run_chain(ops: Vec<Box<dyn StreamOperator + Send>>, items: &[Node]) -> Vec<Node> {
    let mut dag = OpDag::chain(ops);
    let mut out = Vec::new();
    dag.process_slice(items, &mut |_, batch| {
        out.extend_from_slice(batch.as_slice())
    });
    dag.flush_into(&mut |_, n| out.push(n.clone()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Emits each input `n` times — stateless test operator.
    #[derive(Debug)]
    struct Echo(u32);

    impl StreamOperator for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn process_into(&mut self, item: &Node, out: &mut Emit) {
            for _ in 0..self.0 {
                out.push(item.clone());
            }
        }
        fn base_load(&self) -> f64 {
            1.0
        }
    }

    /// Buffers items, emitting them on flush — stateful test operator.
    #[derive(Debug, Default)]
    struct Hold(Vec<Node>);

    impl StreamOperator for Hold {
        fn name(&self) -> &'static str {
            "hold"
        }
        fn process_into(&mut self, item: &Node, _out: &mut Emit) {
            self.0.push(item.clone());
        }
        fn flush_into(&mut self, out: &mut Emit) {
            for item in self.0.drain(..) {
                out.push(item);
            }
        }
        fn base_load(&self) -> f64 {
            2.0
        }
    }

    fn op(key: &'static str) -> (&'static str, Box<dyn StreamOperator + Send>) {
        match key {
            "hold" => (key, Box::new(Hold::default())),
            "drop" => (key, Box::new(Echo(0))),
            "dup" => (key, Box::new(Echo(2))),
            _ => (key, Box::new(Echo(1))),
        }
    }

    fn chain(keys: &[&'static str]) -> Vec<(&'static str, Box<dyn StreamOperator + Send>)> {
        keys.iter().map(|&k| op(k)).collect()
    }

    fn eq(a: &&'static str, b: &&'static str) -> bool {
        a == b
    }

    fn collect<K>(dag: &mut OpDag<K>, items: &[Node]) -> BTreeMap<SinkId, Vec<Node>> {
        let mut out: BTreeMap<SinkId, Vec<Node>> = BTreeMap::new();
        for item in items {
            dag.process_into(item, &mut |s, n| out.entry(s).or_default().push(n.clone()));
        }
        dag.flush_into(&mut |s, n| out.entry(s).or_default().push(n.clone()));
        out
    }

    fn items(n: usize) -> Vec<Node> {
        (0..n).map(|i| Node::leaf("x", i.to_string())).collect()
    }

    #[test]
    fn shared_prefix_merges_into_one_node() {
        let mut dag = OpDag::new();
        dag.register(0, chain(&["a", "b"]), eq);
        dag.register(1, chain(&["a", "c"]), eq);
        dag.register(2, chain(&["a", "b"]), eq);
        // "a" once, "b" once (sinks 0 and 2 share it), "c" once.
        assert_eq!(dag.node_count(), 3);
        let stats = dag.node_stats();
        assert_eq!(stats[0].sharers, 3, "the 'a' prefix is shared by all");
        let out = collect(&mut dag, &items(4));
        assert_eq!(out[&0].len(), 4);
        assert_eq!(out[&0], out[&2]);
        assert_eq!(out[&1].len(), 4);
        // The shared "a" node ran each item once, not three times.
        assert_eq!(dag.node_stats()[0].stats.items_in, 4);
    }

    /// What a chain emits, computed the plainest way: each operator over
    /// the whole output of the one before it, then its own flush.
    fn stage_at_a_time(keys: &[&'static str], input: &[Node]) -> Vec<Node> {
        let mut items = input.to_vec();
        for &k in keys {
            let mut op = op(k).1;
            let mut next = Emit::new();
            for item in &items {
                op.process_into(item, &mut next);
            }
            op.flush_into(&mut next);
            items = next.into_vec();
        }
        items
    }

    #[test]
    fn every_sink_gets_its_chain_run_stage_at_a_time() {
        let chains: Vec<Vec<&'static str>> = vec![
            vec![],
            vec!["dup"],
            vec!["dup", "hold"],
            vec!["dup", "drop", "dup"],
            vec!["hold", "dup"],
            vec!["dup", "hold"],
        ];
        let input = items(7);
        let mut dag = OpDag::new();
        for (sink, keys) in chains.iter().enumerate() {
            dag.register(sink, chain(keys), eq);
        }
        let fused = collect(&mut dag, &input);
        for (sink, keys) in chains.iter().enumerate() {
            let expect = stage_at_a_time(keys, &input);
            let got = |out: &BTreeMap<SinkId, Vec<Node>>, sink| out.get(&sink).cloned();
            assert_eq!(
                got(&fused, sink).unwrap_or_default(),
                expect,
                "chain {keys:?} diverged inside the fused DAG"
            );
            let mut alone = OpDag::chain(chain(keys).into_iter().map(|(_, op)| op));
            assert_eq!(
                got(&collect(&mut alone, &input), 0).unwrap_or_default(),
                expect,
                "chain {keys:?} diverged on its own"
            );
        }
    }

    /// Panics if it ever runs: an operator whose predecessor emitted
    /// nothing must not be consulted.
    #[derive(Debug)]
    struct Bomb;

    impl StreamOperator for Bomb {
        fn name(&self) -> &'static str {
            "bomb"
        }
        fn process_into(&mut self, _item: &Node, _out: &mut Emit) {
            panic!("downstream stage must not run on empty input");
        }
        fn base_load(&self) -> f64 {
            1.0
        }
    }

    fn lone(ops: [Box<dyn StreamOperator + Send>; 2]) -> OpDag<()> {
        OpDag::chain(ops)
    }

    #[test]
    fn lone_empty_chain_is_the_identity() {
        let mut dag = OpDag::chain(Vec::new());
        let input = items(3);
        assert_eq!(collect(&mut dag, &input)[&0], input);
        assert_eq!(dag.node_count(), 0);
    }

    #[test]
    fn lone_chain_counts_each_stage() {
        let mut dag = lone([Box::new(Echo(2)), Box::new(Echo(3))]);
        assert_eq!(collect(&mut dag, &items(1))[&0].len(), 6);
        let stats: Vec<(u64, u64)> = (dag.node_stats().iter())
            .map(|n| (n.stats.items_in, n.stats.items_out))
            .collect();
        assert_eq!(stats, vec![(1, 2), (2, 6)]);
        assert!(
            dag.scratch.iter().all(Emit::is_empty),
            "buffers empty between calls"
        );
    }

    #[test]
    fn lone_chain_flush_cascades_downstream() {
        let mut dag = lone([Box::new(Hold::default()), Box::new(Echo(2))]);
        let mut n = 0;
        for item in items(2) {
            dag.process_into(&item, &mut |_, _| n += 1);
        }
        assert_eq!(n, 0, "hold buffers everything until flush");
        dag.flush_into(&mut |_, _| n += 1);
        assert_eq!(n, 4, "2 held items × echo 2");
        // The echo saw the flushed items as ordinary input.
        assert_eq!(dag.node_stats()[1].stats.items_in, 2);
        assert_eq!(dag.total_work(), 2.0 * 2.0 + 2.0 * 1.0);
    }

    #[test]
    fn lone_chain_short_circuits_on_empty_output() {
        let mut dag = lone([Box::new(Echo(0)), Box::new(Bomb)]);
        assert!(collect(&mut dag, &items(3)).is_empty());
        assert_eq!(dag.node_stats()[1].stats.items_in, 0);
    }

    #[test]
    fn retire_prunes_exclusive_suffix_only() {
        let mut dag = OpDag::new();
        dag.register(0, chain(&["a", "b", "c"]), eq);
        dag.register(1, chain(&["a", "b", "d"]), eq);
        assert_eq!(dag.node_count(), 4);
        dag.retire(0);
        // "c" was exclusive to sink 0; "a"/"b" survive for sink 1.
        assert_eq!(dag.node_count(), 3);
        assert!(!dag.contains(0));
        let out = collect(&mut dag, &items(3));
        assert_eq!(out[&1].len(), 3);
        dag.retire(1);
        assert!(dag.is_empty());
        assert_eq!(dag.node_count(), 0);
    }

    #[test]
    fn retired_counters_survive_pruning() {
        let mut dag = OpDag::new();
        dag.register(0, chain(&["a", "b"]), eq);
        let _ = collect(&mut dag, &items(3));
        let live = dag.node_stats();
        let executed: f64 = live.iter().map(|s| s.stats.work).sum();
        let fed: u64 = live.iter().map(|s| s.stats.items_in).sum();
        assert!(executed > 0.0);
        dag.retire(0);
        assert_eq!(dag.node_count(), 0, "both nodes pruned");
        let retired = dag.retired_stats();
        assert_eq!(retired.name, "retired");
        assert_eq!(
            retired.work, executed,
            "pruned nodes' executed work must not vanish from the books"
        );
        assert_eq!(retired.items_in, fed);
    }

    #[test]
    fn reregister_keeps_prefix_state() {
        let mut dag = OpDag::new();
        dag.register(0, chain(&["hold", "a"]), eq);
        let mut sunk = Vec::new();
        for item in items(3) {
            dag.process_into(&item, &mut |_, n| sunk.push(n.clone()));
        }
        assert!(sunk.is_empty(), "hold buffers everything until flush");
        // Change only the suffix below the stateful prefix.
        dag.reregister(0, chain(&["hold", "dup"]), eq);
        let mut out = Vec::new();
        dag.flush_into(&mut |_, n| out.push(n.clone()));
        // The 3 held items survived the re-registration and now pass the
        // new "dup" suffix: 6 outputs. A full rebuild would emit 0.
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn reregister_rebuilds_below_first_change() {
        let mut dag = OpDag::new();
        dag.register(0, chain(&["a", "hold"]), eq);
        for item in items(2) {
            dag.process_into(&item, &mut |_, _| {});
        }
        // The first operator changes: the whole chain (and its held state)
        // must be rebuilt — the stream content feeding "hold" changed.
        dag.reregister(0, chain(&["dup", "hold"]), eq);
        let mut out = Vec::new();
        dag.flush_into(&mut |_, n| out.push(n.clone()));
        assert!(out.is_empty(), "state below a changed operator is dropped");
        assert_eq!(dag.node_count(), 2);
    }

    #[test]
    fn work_counts_shared_nodes_once() {
        let input = items(10);
        let mut dag = OpDag::new();
        for sink in 0..4 {
            dag.register(sink, chain(&["a", "b"]), eq);
        }
        let _ = collect(&mut dag, &input);
        // 2 nodes × 10 items × load 1.0, regardless of 4 sinks.
        assert_eq!(dag.total_work(), 20.0);
    }

    #[test]
    fn empty_chain_is_identity_fanout() {
        let mut dag = OpDag::new();
        dag.register(7, Vec::new(), eq);
        dag.register(9, Vec::new(), eq);
        let input = items(2);
        let out = collect(&mut dag, &input);
        assert_eq!(out[&7], input);
        assert_eq!(out[&9], input);
        dag.retire(7);
        let out = collect(&mut dag, &input);
        assert!(!out.contains_key(&7));
        assert_eq!(out[&9], input);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_sink_rejected() {
        let mut dag = OpDag::new();
        dag.register(0, chain(&["a"]), eq);
        dag.register(0, chain(&["b"]), eq);
    }

    mod migrating {
        use super::*;
        use crate::aggregate::AggregateOp;
        use dss_predicate::PredicateGraph;
        use dss_properties::{AggOp, AggregationSpec, ResultFilter, WindowSpec};
        use dss_xml::Decimal;

        fn d(s: &str) -> Decimal {
            s.parse().unwrap()
        }

        fn agg_spec(size: &str, step: Option<&str>) -> AggregationSpec {
            AggregationSpec {
                op: AggOp::Sum,
                element: "en".parse().unwrap(),
                window: WindowSpec::diff("t".parse().unwrap(), d(size), step.map(d)).unwrap(),
                pre_selection: PredicateGraph::new(),
                result_filter: ResultFilter::none(),
            }
        }

        fn agg_op(
            key: &'static str,
            size: &str,
            step: Option<&str>,
        ) -> (&'static str, Box<dyn StreamOperator + Send>) {
            (key, Box::new(AggregateOp::new(agg_spec(size, step))))
        }

        fn photon(t: u32) -> Node {
            Node::elem(
                "photon",
                vec![Node::leaf("t", t.to_string()), Node::leaf("en", "1.0")],
            )
        }

        fn drain(dag: &mut OpDag<&'static str>, items: &[Node]) -> Vec<Node> {
            let mut out = Vec::new();
            for item in items {
                dag.process_into(item, &mut |_, n| out.push(n.clone()));
            }
            out
        }

        /// Sink 0 alone, re-registered as a migrating batch of one.
        fn migrate_one(
            dag: &mut OpDag<&'static str>,
            chain: KeyedChain<&'static str>,
        ) -> MigrationReport {
            dag.reregister_migrating_batch(vec![(0, chain)], eq)
        }

        /// A widening child patch: the leading operator changes (keep = 0)
        /// but the windowed suffix keeps its exact spec, so its open
        /// windows migrate and the output equals an uninterrupted run.
        #[test]
        fn migrating_reregister_is_loss_free() {
            let early: Vec<Node> = (0..5).map(|i| photon(i * 7)).collect();
            let late: Vec<Node> = (5..10).map(|i| photon(i * 7)).collect();

            // Continuous reference: the same windowed chain, never rebuilt.
            let mut cont = OpDag::new();
            cont.register(0, vec![op("a"), agg_op("phi", "20", Some("10"))], eq);
            let mut expect = drain(&mut cont, &early);
            expect.extend(drain(&mut cont, &late));
            cont.flush_into(&mut |_, n| expect.push(n.clone()));

            let mut dag = OpDag::new();
            dag.register(0, vec![op("a"), agg_op("phi", "20", Some("10"))], eq);
            let mut got = drain(&mut dag, &early);
            // Leading operator changes (a → b): keep = 0, whole chain
            // rebuilt — but the Φ state is carried across.
            let report = migrate_one(&mut dag, vec![op("b"), agg_op("phi", "20", Some("10"))]);
            assert_eq!(report.ops_exported, 1);
            assert_eq!(report.ops_migrated, 1);
            assert_eq!(report.ops_dropped, 0);
            assert!(report.items_moved > 0, "open windows moved");
            got.extend(drain(&mut dag, &late));
            dag.flush_into(&mut |_, n| got.push(n.clone()));
            // "a" and "b" are both Echo(1), so the stream content is
            // unchanged and a loss-free handoff reproduces the continuous
            // run byte-for-byte. A plain reregister drops the open windows.
            assert_eq!(got, expect);
        }

        #[test]
        fn plain_reregister_still_drops_state() {
            let early: Vec<Node> = (0..5).map(|i| photon(i * 7)).collect();
            let mut dag = OpDag::new();
            dag.register(0, vec![op("a"), agg_op("phi", "20", Some("10"))], eq);
            let with_state = drain(&mut dag, &early);
            assert!(!with_state.is_empty(), "sanity: windows closed pre-switch");
            dag.reregister(0, vec![op("b"), agg_op("phi", "20", Some("10"))], eq);
            let mut flushed = Vec::new();
            dag.flush_into(&mut |_, n| flushed.push(n.clone()));
            assert!(
                flushed.is_empty(),
                "the non-migrating path must keep dropping rebuilt state"
            );
        }

        #[test]
        fn step_coarsening_migrates_filtered_windows() {
            let early: Vec<Node> = (0..6).map(|i| photon(i * 6)).collect();
            let late: Vec<Node> = (6..12).map(|i| photon(i * 6)).collect();

            let mut cont = OpDag::new();
            cont.register(0, vec![agg_op("phi20", "20", Some("20"))], eq);
            let mut expect = drain(&mut cont, &early);
            expect.extend(drain(&mut cont, &late));
            cont.flush_into(&mut |_, n| expect.push(n.clone()));

            // Start with step 10, widen the step to 20 mid-stream. Windows
            // on the coarser grid survive; off-grid ones are discarded.
            let mut dag = OpDag::new();
            dag.register(0, vec![agg_op("phi10", "20", Some("10"))], eq);
            for item in &early {
                dag.process_into(item, &mut |_, _| {});
            }
            let report = migrate_one(&mut dag, vec![agg_op("phi20", "20", Some("20"))]);
            assert_eq!(report.ops_migrated, 1);
            let mut got = drain(&mut dag, &late);
            dag.flush_into(&mut |_, n| got.push(n.clone()));
            // Only compare windows still open at the switch (start ≥ 20):
            // earlier ones closed pre-switch, where the fine chain also
            // emits off-grid starts by design.
            let tail = |v: &[Node]| -> Vec<Node> {
                v.iter()
                    .filter(|n| {
                        crate::AggItem::from_node(n)
                            .map(|a| a.start >= d("20"))
                            .unwrap_or(false)
                    })
                    .cloned()
                    .collect()
            };
            assert_eq!(tail(&got), tail(&expect));
        }

        #[test]
        fn incompatible_window_state_is_dropped() {
            let early: Vec<Node> = (0..5).map(|i| photon(i * 7)).collect();
            let mut dag = OpDag::new();
            dag.register(0, vec![agg_op("phi", "20", Some("10"))], eq);
            for item in &early {
                dag.process_into(item, &mut |_, _| {});
            }
            // Size coarsening is off the exact lattice: state must drop.
            let report = migrate_one(&mut dag, vec![agg_op("phi40", "40", Some("10"))]);
            assert_eq!(report.ops_exported, 1);
            assert_eq!(report.ops_migrated, 0);
            assert_eq!(report.ops_dropped, 1);
        }

        #[test]
        fn migration_never_touches_shared_nodes() {
            let early: Vec<Node> = (0..5).map(|i| photon(i * 7)).collect();
            let mut dag = OpDag::new();
            dag.register(0, vec![op("a"), agg_op("phi", "20", Some("10"))], eq);
            dag.register(1, vec![op("b"), agg_op("phi", "20", Some("10"))], eq);
            for item in &early {
                dag.process_into(item, &mut |_, _| {});
            }
            // Sink 0 moves under the "b" prefix. The Φ there already has
            // sharers *and* processed items, so the exported state must
            // not be injected into it.
            let report = migrate_one(&mut dag, vec![op("b"), agg_op("phi", "20", Some("10"))]);
            assert_eq!(report.ops_exported, 1);
            assert_eq!(report.ops_migrated, 0, "merged node must not adopt");
            assert_eq!(report.ops_dropped, 1);
        }

        /// Two sinks sharing one windowed node are rebuilt as a batch: the
        /// shared snapshot exports when the *last* sharer releases it and
        /// lands in the merged replacement node, so both outputs match a
        /// continuous run. (Rebuilt one at a time, the first rebuild finds
        /// the node still shared and the state never exports.)
        #[test]
        fn batch_migrates_state_shared_between_sinks() {
            let early: Vec<Node> = (0..5).map(|i| photon(i * 7)).collect();
            let late: Vec<Node> = (5..10).map(|i| photon(i * 7)).collect();
            let chain = |k| vec![op(k), agg_op("phi", "20", Some("10"))];

            let mut cont = OpDag::new();
            cont.register(0, chain("a"), eq);
            cont.register(1, chain("a"), eq);
            let mut expect: BTreeMap<SinkId, Vec<Node>> = BTreeMap::new();
            for item in early.iter().chain(&late) {
                cont.process_into(item, &mut |s, n| {
                    expect.entry(s).or_default().push(n.clone())
                });
            }
            cont.flush_into(&mut |s, n| expect.entry(s).or_default().push(n.clone()));

            let mut dag = OpDag::new();
            dag.register(0, chain("a"), eq);
            dag.register(1, chain("a"), eq);
            let mut got: BTreeMap<SinkId, Vec<Node>> = BTreeMap::new();
            for item in &early {
                dag.process_into(item, &mut |s, n| got.entry(s).or_default().push(n.clone()));
            }
            let report = dag.reregister_migrating_batch(vec![(0, chain("b")), (1, chain("b"))], eq);
            assert_eq!(report.ops_exported, 1, "one shared snapshot");
            assert_eq!(report.ops_migrated, 1);
            assert_eq!(report.ops_dropped, 0);
            assert!(report.items_moved > 0);
            for item in &late {
                dag.process_into(item, &mut |s, n| got.entry(s).or_default().push(n.clone()));
            }
            dag.flush_into(&mut |s, n| got.entry(s).or_default().push(n.clone()));
            assert_eq!(got, expect);
        }

        /// Ownership gating: two sinks with *equal specs* but separate
        /// nodes (different histories) rebuilt as one batch must never
        /// exchange state, even when first-fit pool order would pair them
        /// up wrong.
        #[test]
        fn batch_never_exchanges_state_across_sinks() {
            let early: Vec<Node> = (0..5).map(|i| photon(i * 7)).collect();
            let mid: Vec<Node> = (5..8).map(|i| photon(i * 7)).collect();
            let late: Vec<Node> = (8..12).map(|i| photon(i * 7)).collect();

            let mut cont = OpDag::new();
            cont.register(0, vec![op("a"), agg_op("phi", "20", Some("10"))], eq);
            for item in &early {
                cont.process_into(item, &mut |_, _| {});
            }
            cont.register(1, vec![op("c"), agg_op("phi", "20", Some("10"))], eq);
            let mut expect = Vec::new();
            let keep1 = |s: SinkId, n: &Node, out: &mut Vec<Node>| {
                if s == 1 {
                    out.push(n.clone());
                }
            };
            for item in mid.iter().chain(&late) {
                cont.process_into(item, &mut |s, n| keep1(s, n, &mut expect));
            }
            cont.flush_into(&mut |s, n| keep1(s, n, &mut expect));

            let mut dag = OpDag::new();
            dag.register(0, vec![op("a"), agg_op("phi", "20", Some("10"))], eq);
            for item in &early {
                dag.process_into(item, &mut |_, _| {});
            }
            dag.register(1, vec![op("c"), agg_op("phi", "20", Some("10"))], eq);
            let mut got = Vec::new();
            for item in &mid {
                dag.process_into(item, &mut |s, n| keep1(s, n, &mut got));
            }
            // Sink 0 drops its aggregation; sink 1 keeps its spec. Sink 0's
            // older snapshot sits first in the pool and is spec-compatible
            // with sink 1's fresh node — but it carries windows from before
            // sink 1 existed, so it must drop rather than leak across.
            let report = dag.reregister_migrating_batch(
                vec![
                    (0, vec![op("b")]),
                    (1, vec![op("d"), agg_op("phi", "20", Some("10"))]),
                ],
                eq,
            );
            assert_eq!(report.ops_exported, 2);
            assert_eq!(report.ops_migrated, 1, "sink 1 adopts only its own state");
            assert_eq!(report.ops_dropped, 1, "sink 0's orphaned snapshot drops");
            for item in &late {
                dag.process_into(item, &mut |s, n| keep1(s, n, &mut got));
            }
            dag.flush_into(&mut |s, n| keep1(s, n, &mut got));
            assert_eq!(got, expect);
        }

        /// A checkpoint/restore cycle across a fresh identically-built DAG
        /// (the crash-recovery path): snapshots are non-destructive, and
        /// the restored DAG continues byte-identically to an uninterrupted
        /// run — including a shared windowed node, snapshotted once.
        #[test]
        fn snapshot_adopt_round_trip_is_loss_free() {
            let early: Vec<Node> = (0..5).map(|i| photon(i * 7)).collect();
            let late: Vec<Node> = (5..10).map(|i| photon(i * 7)).collect();
            let build = |dag: &mut OpDag<&'static str>| {
                dag.register(0, vec![op("a"), agg_op("phi", "20", Some("10"))], eq);
                dag.register(1, vec![op("a"), agg_op("phi", "20", Some("10"))], eq);
                dag.register(2, vec![op("c"), agg_op("phi2", "20", Some("20"))], eq);
            };

            let mut cont = OpDag::new();
            build(&mut cont);
            let mut expect: BTreeMap<SinkId, Vec<Node>> = BTreeMap::new();
            for item in early.iter().chain(&late) {
                cont.process_into(item, &mut |s, n| {
                    expect.entry(s).or_default().push(n.clone())
                });
            }
            cont.flush_into(&mut |s, n| expect.entry(s).or_default().push(n.clone()));

            let mut dag = OpDag::new();
            build(&mut dag);
            let mut got: BTreeMap<SinkId, Vec<Node>> = BTreeMap::new();
            for item in &early {
                dag.process_into(item, &mut |s, n| got.entry(s).or_default().push(n.clone()));
            }
            let snap = dag.snapshot_states();
            // The shared Φ node is captured once, Φ' once: two snapshots.
            assert_eq!(snap.len(), 2);
            // The snapshot did not disturb the running DAG: continuing it
            // still matches (checked via a clone of the snapshot below).
            let mut restored = OpDag::new();
            build(&mut restored);
            let report = restored.adopt_states_for(&[0, 1, 2], snap);
            assert_eq!(report.ops_exported, 2);
            assert_eq!(report.ops_migrated, 2);
            assert_eq!(report.ops_dropped, 0);
            assert!(report.items_moved > 0);
            for item in &late {
                restored.process_into(item, &mut |s, n| got.entry(s).or_default().push(n.clone()));
            }
            restored.flush_into(&mut |s, n| got.entry(s).or_default().push(n.clone()));
            assert_eq!(got, expect);
        }

        /// The tile buffers of Φ↺ and ω↺ move like open windows do: both
        /// chains are rebuilt from their leading operator down, the pruned
        /// suffixes hold a tracker and an assembler each, and the outputs
        /// equal an uninterrupted run.
        #[test]
        fn tile_state_migrates_with_its_chain() {
            use crate::{ReAggregateOp, ReWindowOp, WindowContentsOp};
            use dss_properties::WindowOutputSpec;
            let contents = |size: &str, step: &str| WindowOutputSpec {
                window: agg_spec(size, Some(step)).window,
                pre_selection: PredicateGraph::new(),
            };
            let (fine, coarse) = (agg_spec("20", Some("10")), agg_spec("60", Some("40")));
            let chains = |lead: &'static str| -> Vec<(SinkId, KeyedChain<&'static str>)> {
                let re_agg = ReAggregateOp::new(fine.clone(), coarse.clone());
                let windows = WindowContentsOp::new(contents("20", "10"));
                let re_window = ReWindowOp::new(contents("20", "10"), contents("60", "40"));
                vec![
                    (
                        0,
                        vec![
                            op(lead),
                            agg_op("phi", "20", Some("10")),
                            ("re-phi", Box::new(re_agg)),
                        ],
                    ),
                    (
                        1,
                        vec![
                            op(lead),
                            ("omega", Box::new(windows)),
                            ("re-omega", Box::new(re_window)),
                        ],
                    ),
                ]
            };
            let early: Vec<Node> = (0..12).map(|i| photon(i * 7)).collect();
            let late: Vec<Node> = (12..30).map(|i| photon(i * 7)).collect();
            let feed = |dag: &mut OpDag<&'static str>, items: &[Node], out: &mut Vec<_>| {
                for item in items {
                    dag.process_into(item, &mut |s, n| out.push((s, n.clone())));
                }
            };

            let mut cont = OpDag::new();
            for (sink, chain) in chains("a") {
                cont.register(sink, chain, eq);
            }
            let mut expect = Vec::new();
            feed(&mut cont, &early, &mut expect);
            feed(&mut cont, &late, &mut expect);
            cont.flush_into(&mut |s, n| expect.push((s, n.clone())));

            let mut dag = OpDag::new();
            for (sink, chain) in chains("a") {
                dag.register(sink, chain, eq);
            }
            let mut got = Vec::new();
            feed(&mut dag, &early, &mut got);
            let tiles: Vec<u64> = dag
                .snapshot_states()
                .iter()
                .filter(|(_, st)| matches!(st, OpState::ReAgg { .. } | OpState::ReWindow { .. }))
                .map(|(_, st)| st.items())
                .collect();
            assert!(
                tiles.len() == 2 && tiles.iter().all(|&n| n > 0),
                "sanity: both assemblers hold tiles at the cut: {tiles:?}"
            );
            let report = dag.reregister_migrating_batch(chains("b"), eq);
            assert_eq!(report.ops_exported, 4, "Φ, Φ↺, ω and ω↺");
            assert_eq!(report.ops_migrated, 4);
            assert_eq!(report.ops_dropped, 0);
            assert!(
                report.items_moved > tiles.iter().sum(),
                "tiles and windows moved"
            );
            feed(&mut dag, &late, &mut got);
            dag.flush_into(&mut |s, n| got.push((s, n.clone())));
            assert!(got.iter().any(|(s, _)| *s == 0) && got.iter().any(|(s, _)| *s == 1));
            assert_eq!(got, expect);
        }

        #[cfg(debug_assertions)]
        #[test]
        #[should_panic(expected = "bad lattice step")]
        fn off_grid_migrated_start_fails_loudly() {
            use crate::migrate::OpState;
            use crate::AggItem;
            // A snapshot whose open-window start is off its own µ-grid —
            // the footgun a silent migration would turn into mis-tiled
            // windows. The import must debug-assert instead.
            let bad = OpState::Agg {
                spec: agg_spec("20", Some("10")),
                open: vec![(d("15"), AggItem::empty(d("15"), d("20")))],
                youngest_start: Some(d("15")),
                items_seen: 1,
            };
            let mut fresh = AggregateOp::new(agg_spec("20", Some("10")));
            let _ = fresh.import_state(&bad);
        }
    }
}
