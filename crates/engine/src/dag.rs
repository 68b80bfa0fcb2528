//! A prefix-sharing operator DAG: many operator chains fused into one
//! executable trie.
//!
//! Several continuous queries consuming the same input stream at one peer
//! frequently start with the *same* leading operators (the common
//! selection/projection prefix of a query template). Executing each
//! chain as its own [`Pipeline`](crate::Pipeline) re-runs that prefix once
//! per chain and per item. An [`OpDag`] instead merges equal prefixes into
//! single trie nodes: each input item runs through every shared node
//! exactly once, and a fan-out routes node outputs to the per-chain
//! *sinks* — so per-item work grows with the number of *distinct*
//! operators, not the number of chains.
//!
//! Merging is controlled by a caller-supplied `mergeable` predicate over
//! the caller's operator keys (`K`), because only the caller knows when
//! two operator descriptions may share one instance (stateless operators:
//! structural equality; windowed operators: only when their window specs
//! match — the paper's `MatchAggregations` rule).
//!
//! Chains register and retire dynamically. [`OpDag::reregister`] replaces
//! a sink's chain while keeping the nodes of the unchanged leading prefix
//! alive — including their buffered window state — and rebuilding only the
//! suffix below the first changed operator.
//!
//! Output semantics are item-for-item identical to running each chain as
//! its own `Pipeline`: per-node short-circuiting on empty output, and
//! flushes that cascade upstream-drained items through downstream
//! operators before those drain their own state.

use std::collections::BTreeMap;

use dss_xml::Node;

use crate::migrate::{MigrationReport, OpState};
use crate::op::{Emit, OpStats, StreamOperator};

/// Identifies one registered chain's output (the caller's routing handle —
/// a flow id, typically).
pub type SinkId = usize;

/// One keyed operator chain, as passed to [`OpDag::register`] and the
/// re-registration entry points.
pub type KeyedChain<K> = Vec<(K, Box<dyn StreamOperator + Send>)>;

/// Snapshot of one DAG node's identity and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNodeStats {
    /// Depth in the trie (0 = reads the input stream directly).
    pub depth: usize,
    /// Number of registered chains currently sharing this node.
    pub sharers: usize,
    /// Execution counters, same meaning as a pipeline stage's.
    pub stats: OpStats,
}

#[derive(Debug)]
struct DagNode<K> {
    key: K,
    op: Box<dyn StreamOperator + Send>,
    /// Cached `op.base_load()`.
    load: f64,
    /// Registered chains whose path passes through this node.
    sharers: usize,
    children: Vec<usize>,
    /// Chains terminating here: their output is this node's output.
    sinks: Vec<SinkId>,
    stats: OpStats,
}

/// The prefix-sharing operator trie. See the module docs.
#[derive(Debug)]
pub struct OpDag<K> {
    /// Arena; freed slots are `None` and recycled via `free`.
    nodes: Vec<Option<DagNode<K>>>,
    free: Vec<usize>,
    /// Top-level nodes (consume the input stream directly).
    roots: Vec<usize>,
    /// Sinks of empty chains: they receive every input item verbatim.
    root_sinks: Vec<SinkId>,
    /// Each sink's node path from root to terminal (empty for root sinks).
    paths: BTreeMap<SinkId, Vec<usize>>,
    /// Per-depth scratch output buffers, reused across items.
    scratch: Vec<Emit>,
    /// Aggregated counters of pruned nodes: their work was executed, so it
    /// must not vanish from the books when the last sharer retires.
    retired: OpStats,
}

impl<K> Default for OpDag<K> {
    fn default() -> OpDag<K> {
        OpDag {
            nodes: Vec::new(),
            free: Vec::new(),
            roots: Vec::new(),
            root_sinks: Vec::new(),
            paths: BTreeMap::new(),
            scratch: Vec::new(),
            retired: OpStats {
                name: "retired",
                ..OpStats::default()
            },
        }
    }
}

impl<K> OpDag<K> {
    /// An empty DAG.
    pub fn new() -> OpDag<K> {
        OpDag::default()
    }

    fn node(&self, idx: usize) -> &DagNode<K> {
        self.nodes[idx].as_ref().expect("live DAG node")
    }

    fn node_mut(&mut self, idx: usize) -> &mut DagNode<K> {
        self.nodes[idx].as_mut().expect("live DAG node")
    }

    fn alloc(&mut self, node: DagNode<K>) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = Some(node);
                idx
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        }
    }

    /// Registers a chain under `sink`, merging its leading operators into
    /// existing nodes wherever `mergeable` allows. The boxed operators of
    /// merged prefix ops are dropped unused.
    ///
    /// # Panics
    /// Panics if `sink` is already registered.
    pub fn register<F>(
        &mut self,
        sink: SinkId,
        ops: Vec<(K, Box<dyn StreamOperator + Send>)>,
        mergeable: F,
    ) where
        F: Fn(&K, &K) -> bool,
    {
        assert!(
            !self.paths.contains_key(&sink),
            "sink {sink} registered twice"
        );
        let mut path = Vec::with_capacity(ops.len());
        self.extend_path(&mut path, ops.into_iter(), &mergeable, None);
        self.set_terminal(sink, &path);
    }

    /// Drops `sink`'s chain, pruning nodes it was the last sharer of.
    ///
    /// # Panics
    /// Panics if `sink` is not registered.
    pub fn retire(&mut self, sink: SinkId) {
        let path = self.paths.remove(&sink).expect("sink not registered");
        self.clear_terminal(sink, &path);
        self.release_suffix(&path, 0, None);
    }

    /// Replaces `sink`'s chain: the longest leading run of operators that
    /// `mergeable` matches against the old path keeps its existing nodes
    /// (and their state); only the diverging suffix is released and
    /// rebuilt. Registers from scratch when `sink` is unknown.
    pub fn reregister<F>(
        &mut self,
        sink: SinkId,
        ops: Vec<(K, Box<dyn StreamOperator + Send>)>,
        mergeable: F,
    ) where
        F: Fn(&K, &K) -> bool,
    {
        let Some(old_path) = self.paths.remove(&sink) else {
            self.register(sink, ops, mergeable);
            return;
        };
        self.clear_terminal(sink, &old_path);
        let mut keep = 0;
        while keep < old_path.len()
            && keep < ops.len()
            && mergeable(&self.node(old_path[keep]).key, &ops[keep].0)
        {
            keep += 1;
        }
        self.release_suffix(&old_path, keep, None);
        let mut path = old_path[..keep].to_vec();
        self.extend_path(&mut path, ops.into_iter().skip(keep), &mergeable, None);
        self.set_terminal(sink, &path);
    }

    /// [`Self::reregister`], but carrying open window state across the
    /// rebuild where doing so is exact: stateful operators pruned from the
    /// old suffix export their state ([`StreamOperator::snapshot_state`]),
    /// and freshly built operators on the new suffix adopt the snapshots
    /// they can ([`StreamOperator::import_state`]) — moving O(open state)
    /// items instead of losing the windows and replaying O(window extent).
    ///
    /// State is only ever imported into nodes *created by this call*
    /// (merging into an existing shared node would inject foreign history
    /// into its other sharers' output). Snapshots nothing adopts are
    /// dropped, exactly as a plain [`Self::reregister`] would.
    pub fn reregister_migrating<F>(
        &mut self,
        sink: SinkId,
        ops: Vec<(K, Box<dyn StreamOperator + Send>)>,
        mergeable: F,
    ) -> MigrationReport
    where
        F: Fn(&K, &K) -> bool,
    {
        self.reregister_migrating_batch(vec![(sink, ops)], mergeable)
    }

    /// [`Self::reregister_migrating`] over several sinks as one atomic
    /// handoff: every old suffix is released (exporting state) *before* any
    /// new chain is built. This is what makes migration work for sinks that
    /// share stateful nodes — released one at a time, a shared node is
    /// still referenced by the not-yet-rebuilt sinks when the first one
    /// lets go, so its state would neither export nor survive.
    ///
    /// Exported snapshots are tagged with the releasing sink, and a fresh
    /// node only adopts snapshots from sinks whose new path runs through
    /// it. Two sinks with *equal specs but different upstream chains* can
    /// therefore never exchange state, while a node the rebuilt sinks merge
    /// back into adopts the one shared snapshot they previously co-owned.
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
            let Some(old_path) = self.paths.remove(&sink) else {
                // Unknown sink: plain registration, never a migration
                // target (its fresh nodes stay off the import list, though
                // another batch member may still merge into them).
                staged.push((sink, Vec::new(), ops, 0, false));
                continue;
            };
            self.clear_terminal(sink, &old_path);
            let mut keep = 0;
            while keep < old_path.len()
                && keep < ops.len()
                && mergeable(&self.node(old_path[keep]).key, &ops[keep].0)
            {
                keep += 1;
            }
            let mut exported = Vec::new();
            self.release_suffix(&old_path, keep, Some(&mut exported));
            // Pruning collects bottom-up; match snapshots to the new path
            // top-down so chains with repeated specs pair up in stream
            // order.
            exported.reverse();
            pool.extend(exported.into_iter().map(|st| (sink, st)));
            staged.push((sink, old_path[..keep].to_vec(), ops, keep, true));
        }
        // Phase 2: rebuild every chain, recording freshly created nodes.
        let mut fresh = Vec::new();
        let mut migrating_sinks = Vec::new();
        for (sink, mut path, ops, keep, migrates) in staged {
            self.extend_path(
                &mut path,
                ops.into_iter().skip(keep),
                &mergeable,
                migrates.then_some(&mut fresh),
            );
            self.set_terminal(sink, &path);
            if migrates {
                migrating_sinks.push(sink);
            }
        }
        // Phase 3: first-fit import, gated on path ownership.
        let mut report = MigrationReport {
            ops_exported: pool.len() as u64,
            ..MigrationReport::default()
        };
        for idx in fresh {
            debug_assert_eq!(
                self.node(idx).stats.items_in,
                0,
                "state imported into a node that already processed items"
            );
            let owners: Vec<SinkId> = migrating_sinks
                .iter()
                .copied()
                .filter(|s| self.paths[s].contains(&idx))
                .collect();
            self.import_first_fit(idx, &owners, &mut pool, &mut report);
        }
        report.ops_dropped = pool.len() as u64;
        report
    }

    /// Captures a durability checkpoint of every stateful node's open
    /// window state, without disturbing the DAG
    /// ([`StreamOperator::snapshot_state`]). Each live node is snapshotted
    /// once — shared prefixes included — and tagged with the smallest sink
    /// whose path runs through it, in deterministic sink order, so
    /// [`Self::adopt_states`] on an identically rebuilt DAG pairs every
    /// snapshot back to its node.
    pub fn snapshot_states(&self) -> Vec<(SinkId, OpState)> {
        let mut seen: Vec<usize> = Vec::new();
        let mut out = Vec::new();
        for (&sink, path) in &self.paths {
            for &idx in path {
                if seen.contains(&idx) {
                    continue;
                }
                seen.push(idx);
                if let Some(st) = self.node(idx).op.snapshot_state() {
                    out.push((sink, st));
                }
            }
        }
        out
    }

    /// True iff no live node has processed any input yet — the
    /// precondition for [`Self::adopt_states`]. A freshly rebuilt DAG is
    /// cold; one that merged a chain into an already-running shared prefix
    /// is not, and migrated state must not be imported into it.
    pub fn is_cold(&self) -> bool {
        self.nodes
            .iter()
            .flatten()
            .all(|node| node.stats.items_in == 0)
    }

    /// Restores a [`Self::snapshot_states`] checkpoint into a freshly
    /// rebuilt DAG: first-fit import gated on path ownership, exactly as a
    /// migrating re-registration's phase 3 — a node only adopts snapshots
    /// tagged with a sink whose current path runs through it, and a
    /// snapshot nothing adopts is dropped (the caller falls back to cold
    /// replay for that operator). Must be called before the DAG has
    /// processed any input.
    pub fn adopt_states(&mut self, mut pool: Vec<(SinkId, OpState)>) -> MigrationReport {
        let mut report = MigrationReport {
            ops_exported: pool.len() as u64,
            ..MigrationReport::default()
        };
        let mut seen: Vec<usize> = Vec::new();
        let sinks: Vec<SinkId> = self.paths.keys().copied().collect();
        let paths: Vec<Vec<usize>> = self.paths.values().cloned().collect();
        for path in &paths {
            for &idx in path {
                if seen.contains(&idx) {
                    continue;
                }
                seen.push(idx);
                debug_assert_eq!(
                    self.node(idx).stats.items_in,
                    0,
                    "state adopted into a node that already processed items"
                );
                let owners: Vec<SinkId> = sinks
                    .iter()
                    .copied()
                    .filter(|s| self.paths[s].contains(&idx))
                    .collect();
                self.import_first_fit(idx, &owners, &mut pool, &mut report);
            }
        }
        report.ops_dropped = pool.len() as u64;
        report
    }

    /// Restores snapshots into the freshly registered `targets` of a
    /// possibly *warm* DAG: like [`Self::adopt_states`], but scoped to the
    /// target sinks' paths, so migrated chains can land in a shared group
    /// that is already processing other sinks' items. A node imports only
    /// when it has processed no input yet **and** every sink whose path
    /// runs through it is itself a target — adopted window state must never
    /// become visible to a sink that already consumed items (its outputs
    /// would diverge from the items it actually saw). Snapshots nothing
    /// adopts are dropped; those windows restart empty.
    pub fn adopt_states_for(
        &mut self,
        targets: &[SinkId],
        mut pool: Vec<(SinkId, OpState)>,
    ) -> MigrationReport {
        let mut report = MigrationReport {
            ops_exported: pool.len() as u64,
            ..MigrationReport::default()
        };
        let mut seen: Vec<usize> = Vec::new();
        let sinks: Vec<SinkId> = self.paths.keys().copied().collect();
        for t in targets {
            let Some(path) = self.paths.get(t).cloned() else {
                continue;
            };
            for idx in path {
                if seen.contains(&idx) {
                    continue;
                }
                seen.push(idx);
                if self.node(idx).stats.items_in != 0 {
                    continue;
                }
                let owners: Vec<SinkId> = sinks
                    .iter()
                    .copied()
                    .filter(|s| self.paths[s].contains(&idx))
                    .collect();
                if !owners.iter().all(|s| targets.contains(s)) {
                    continue;
                }
                self.import_first_fit(idx, &owners, &mut pool, &mut report);
            }
        }
        report.ops_dropped = pool.len() as u64;
        report
    }

    /// First-fit import into node `idx`: the first pooled snapshot tagged
    /// with one of `owners` that the node's operator adopts exactly leaves
    /// the pool and is counted in `report`.
    fn import_first_fit(
        &mut self,
        idx: usize,
        owners: &[SinkId],
        pool: &mut Vec<(SinkId, OpState)>,
        report: &mut MigrationReport,
    ) {
        let op = &mut self.node_mut(idx).op;
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

    /// Walks/creates nodes for `ops` below the last node of `path`,
    /// appending the visited node indices to `path`. Indices of nodes
    /// *created* (not merged into) are also appended to `fresh` when given
    /// — only those may adopt migrated state.
    fn extend_path<F>(
        &mut self,
        path: &mut Vec<usize>,
        ops: impl Iterator<Item = (K, Box<dyn StreamOperator + Send>)>,
        mergeable: &F,
        mut fresh: Option<&mut Vec<usize>>,
    ) where
        F: Fn(&K, &K) -> bool,
    {
        let mut parent = path.last().copied();
        for (key, op) in ops {
            let siblings = match parent {
                None => &self.roots,
                Some(p) => &self.node(p).children,
            };
            let found = siblings
                .iter()
                .copied()
                .find(|&c| mergeable(&self.node(c).key, &key));
            let idx = match found {
                Some(c) => {
                    self.node_mut(c).sharers += 1;
                    c
                }
                None => {
                    let idx = self.alloc(DagNode {
                        load: op.base_load(),
                        stats: OpStats {
                            name: op.name(),
                            ..OpStats::default()
                        },
                        key,
                        op,
                        sharers: 1,
                        children: Vec::new(),
                        sinks: Vec::new(),
                    });
                    match parent {
                        None => self.roots.push(idx),
                        Some(p) => self.node_mut(p).children.push(idx),
                    }
                    if let Some(fresh) = fresh.as_deref_mut() {
                        fresh.push(idx);
                    }
                    idx
                }
            };
            path.push(idx);
            parent = Some(idx);
        }
    }

    fn set_terminal(&mut self, sink: SinkId, path: &[usize]) {
        match path.last() {
            None => self.root_sinks.push(sink),
            Some(&t) => self.node_mut(t).sinks.push(sink),
        }
        self.paths.insert(sink, path.to_vec());
    }

    fn clear_terminal(&mut self, sink: SinkId, path: &[usize]) {
        match path.last() {
            None => self.root_sinks.retain(|&s| s != sink),
            Some(&t) => self.node_mut(t).sinks.retain(|&s| s != sink),
        }
    }

    /// Decrements sharer counts on `path[from..]` and prunes the nodes
    /// that dropped to zero, bottom-up. Sharer counts never increase with
    /// depth, so pruning stops at the first still-shared node. When
    /// `exported` is given, pruned operators export their open window
    /// state into it (bottom-up order) instead of dropping it.
    fn release_suffix(
        &mut self,
        path: &[usize],
        from: usize,
        mut exported: Option<&mut Vec<OpState>>,
    ) {
        for &idx in &path[from..] {
            self.node_mut(idx).sharers -= 1;
        }
        for i in (from..path.len()).rev() {
            let idx = path[i];
            if self.node(idx).sharers > 0 {
                break;
            }
            debug_assert!(
                self.node(idx).children.is_empty() && self.node(idx).sinks.is_empty(),
                "pruned DAG node still referenced"
            );
            if let Some(pool) = exported.as_deref_mut() {
                if let Some(st) = self.node(idx).op.snapshot_state() {
                    pool.push(st);
                }
            }
            match i.checked_sub(1) {
                None => self.roots.retain(|&r| r != idx),
                Some(pi) => {
                    let p = path[pi];
                    self.node_mut(p).children.retain(|&c| c != idx);
                }
            }
            let stats = self.node(idx).stats.clone();
            self.retired.absorb(&stats);
            self.nodes[idx] = None;
            self.free.push(idx);
        }
    }

    /// Pushes one item through the DAG. Every (sink, output item) pair is
    /// reported through `out`; a sink's call sequence is byte-identical to
    /// what its chain would emit as a standalone pipeline.
    pub fn process_into(&mut self, item: &Node, out: &mut dyn FnMut(SinkId, &Node)) {
        for i in 0..self.root_sinks.len() {
            out(self.root_sinks[i], item);
        }
        for i in 0..self.roots.len() {
            let r = self.roots[i];
            self.run_node(r, std::slice::from_ref(item), 0, out);
        }
    }

    fn run_node(
        &mut self,
        idx: usize,
        inputs: &[Node],
        depth: usize,
        out: &mut dyn FnMut(SinkId, &Node),
    ) {
        if depth == self.scratch.len() {
            self.scratch.push(Emit::new());
        }
        let mut buf = std::mem::take(&mut self.scratch[depth]);
        debug_assert!(buf.is_empty());
        {
            let node = self.node_mut(idx);
            for item in inputs {
                node.stats.items_in += 1;
                node.stats.work += node.load;
                node.op.process_into(item, &mut buf);
            }
            node.stats.items_out += buf.len() as u64;
        }
        // Short-circuit on empty output, exactly like a pipeline stage.
        if !buf.is_empty() {
            for si in 0..self.node(idx).sinks.len() {
                let sink = self.node(idx).sinks[si];
                for item in buf.as_slice() {
                    out(sink, item);
                }
            }
            for ci in 0..self.node(idx).children.len() {
                let c = self.node(idx).children[ci];
                self.run_node(c, buf.as_slice(), depth + 1, out);
            }
        }
        buf.clear();
        self.scratch[depth] = buf;
    }

    /// End-of-stream flush: carried upstream items run through each node
    /// *before* the node drains its own buffered state, matching
    /// `Pipeline::flush_into` ordering per chain.
    pub fn flush_into(&mut self, out: &mut dyn FnMut(SinkId, &Node)) {
        for i in 0..self.roots.len() {
            let r = self.roots[i];
            self.flush_node(r, &[], 0, out);
        }
    }

    fn flush_node(
        &mut self,
        idx: usize,
        carried: &[Node],
        depth: usize,
        out: &mut dyn FnMut(SinkId, &Node),
    ) {
        if depth == self.scratch.len() {
            self.scratch.push(Emit::new());
        }
        let mut buf = std::mem::take(&mut self.scratch[depth]);
        debug_assert!(buf.is_empty());
        {
            let node = self.node_mut(idx);
            for item in carried {
                node.stats.items_in += 1;
                node.stats.work += node.load;
                node.op.process_into(item, &mut buf);
            }
            node.op.flush_into(&mut buf);
            node.stats.items_out += buf.len() as u64;
        }
        for si in 0..self.node(idx).sinks.len() {
            let sink = self.node(idx).sinks[si];
            for item in buf.as_slice() {
                out(sink, item);
            }
        }
        // No short-circuit here: children may hold buffered state of their
        // own that must drain even when this node flushed nothing.
        for ci in 0..self.node(idx).children.len() {
            let c = self.node(idx).children[ci];
            self.flush_node(c, buf.as_slice(), depth + 1, out);
        }
        buf.clear();
        self.scratch[depth] = buf;
    }

    /// Number of registered sinks.
    pub fn sink_count(&self) -> usize {
        self.paths.len()
    }

    /// `true` when no chain is registered.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// `true` when `sink` has a registered chain.
    pub fn contains(&self, sink: SinkId) -> bool {
        self.paths.contains_key(&sink)
    }

    /// Number of live operator nodes (shared prefixes count once).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Total accumulated work across live nodes — each shared node's work
    /// counted once, however many sinks ride it.
    pub fn total_work(&self) -> f64 {
        self.nodes.iter().flatten().map(|n| n.stats.work).sum()
    }

    /// Aggregated counters of every node pruned so far (named "retired").
    /// [`Self::node_stats`] reports live nodes only; without this, the
    /// counters of a fully-retired chain would silently disappear.
    pub fn retired_stats(&self) -> &OpStats {
        &self.retired
    }

    /// Per-node counters in deterministic DFS (pre-)order.
    pub fn node_stats(&self) -> Vec<DagNodeStats> {
        let mut acc = Vec::with_capacity(self.node_count());
        let mut stack: Vec<(usize, usize)> = self.roots.iter().rev().map(|&r| (r, 0)).collect();
        while let Some((idx, depth)) = stack.pop() {
            let n = self.node(idx);
            acc.push(DagNodeStats {
                depth,
                sharers: n.sharers,
                stats: n.stats.clone(),
            });
            for &c in n.children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Pipeline;

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

    fn collect(dag: &mut OpDag<&'static str>, items: &[Node]) -> BTreeMap<SinkId, Vec<Node>> {
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

    #[test]
    fn matches_standalone_pipelines() {
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
            let mut p = Pipeline::new();
            for &k in keys {
                p.push(op(k).1);
            }
            let mut expect = Vec::new();
            let mut sinkbuf = Emit::new();
            for item in &input {
                p.process_into(item, &mut sinkbuf);
            }
            p.flush_into(&mut sinkbuf);
            expect.extend(sinkbuf.into_vec());
            assert_eq!(
                fused.get(&sink).cloned().unwrap_or_default(),
                expect,
                "chain {keys:?} diverged from its standalone pipeline"
            );
        }
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
            let report =
                dag.reregister_migrating(0, vec![op("b"), agg_op("phi", "20", Some("10"))], eq);
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
            let report = dag.reregister_migrating(0, vec![agg_op("phi20", "20", Some("20"))], eq);
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
            let report = dag.reregister_migrating(0, vec![agg_op("phi40", "40", Some("10"))], eq);
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
            let report =
                dag.reregister_migrating(0, vec![op("b"), agg_op("phi", "20", Some("10"))], eq);
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
            let report = restored.adopt_states(snap);
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
