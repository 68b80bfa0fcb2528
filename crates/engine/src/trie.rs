//! A refcounted prefix trie of chains, each registered under a sink.
//!
//! Chains that start alike share the nodes of their common prefix: a node
//! counts the chains whose path runs through it (its *sharers*) and is
//! pruned when the last of them lets go. The payload `V` is the caller's:
//! [`OpDag`](crate::OpDag) stores an executing operator per node, the
//! planner's sharing book the work it charged for one. Both use this one
//! arena, merge walk and pruning rule, so what the planner charges is what
//! the executor runs.
//!
//! Insertion walks a node's children in order and merges into the first
//! one a caller-given `matches` accepts; only unmatched items are turned
//! into payloads. Release decrements the sharer counts of a path's suffix
//! and prunes the nodes that reached zero bottom-up, handing each pruned
//! payload back. Pruned slots are reused, so the arena never exceeds the
//! peak number of live nodes.

use std::collections::BTreeMap;

/// Identifies one registered chain (the caller's routing handle — a flow
/// id, typically).
pub type SinkId = usize;

/// One trie node: the caller's payload plus its place in the trie.
#[derive(Debug, Clone)]
pub struct TrieNode<V> {
    /// The caller's payload.
    pub value: V,
    /// Registered chains whose path passes through this node.
    pub(crate) sharers: usize,
    pub(crate) children: Vec<usize>,
    /// Chains terminating here.
    pub(crate) sinks: Vec<SinkId>,
}

impl<V> TrieNode<V> {
    /// Number of registered chains sharing this node.
    pub fn sharers(&self) -> usize {
        self.sharers
    }
}

/// The refcounted prefix trie. See the module docs.
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    /// Arena; freed slots are `None` and recycled via `free`.
    nodes: Vec<Option<TrieNode<V>>>,
    free: Vec<usize>,
    /// Top-level nodes.
    pub(crate) roots: Vec<usize>,
    /// Sinks of empty chains.
    pub(crate) root_sinks: Vec<SinkId>,
    /// Each sink's node path from root to terminal (empty for root sinks).
    paths: BTreeMap<SinkId, Vec<usize>>,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> PrefixTrie<V> {
        PrefixTrie {
            nodes: Vec::new(),
            free: Vec::new(),
            roots: Vec::new(),
            root_sinks: Vec::new(),
            paths: BTreeMap::new(),
        }
    }
}

impl<V> PrefixTrie<V> {
    /// The live node at arena index `idx`.
    pub fn node(&self, idx: usize) -> &TrieNode<V> {
        self.nodes[idx].as_ref().expect("live trie node")
    }

    pub(crate) fn node_mut(&mut self, idx: usize) -> &mut TrieNode<V> {
        self.nodes[idx].as_mut().expect("live trie node")
    }

    /// Registers `sink`'s chain from the roots ([`Self::extend`]).
    ///
    /// # Panics
    /// Panics if `sink` is already registered.
    pub fn insert<T>(
        &mut self,
        sink: SinkId,
        items: impl IntoIterator<Item = T>,
        matches: impl Fn(&V, &T) -> bool,
        make: impl FnMut(T) -> V,
    ) {
        assert!(
            !self.paths.contains_key(&sink),
            "sink {sink} registered twice"
        );
        let mut path = Vec::new();
        self.extend(&mut path, items, matches, make, None);
        self.attach(sink, path);
    }

    /// Drops `sink`'s chain, handing every pruned payload to `pruned`
    /// bottom-up. `false` when `sink` is not registered.
    pub fn remove(&mut self, sink: SinkId, pruned: impl FnMut(V)) -> bool {
        let Some(path) = self.detach(sink) else {
            return false;
        };
        self.release(&path, 0, pruned);
        true
    }

    /// Unregisters `sink` and returns its path, whose nodes stay counted
    /// until [`Self::release`]d. `None` when `sink` is not registered.
    pub fn detach(&mut self, sink: SinkId) -> Option<Vec<usize>> {
        let path = self.paths.remove(&sink)?;
        match path.last() {
            None => self.root_sinks.retain(|&s| s != sink),
            Some(&t) => self.node_mut(t).sinks.retain(|&s| s != sink),
        }
        Some(path)
    }

    /// Registers `sink` as ending at the last node of `path`, whose nodes
    /// already count it ([`Self::extend`]).
    pub fn attach(&mut self, sink: SinkId, path: Vec<usize>) {
        match path.last() {
            None => self.root_sinks.push(sink),
            Some(&t) => self.node_mut(t).sinks.push(sink),
        }
        self.paths.insert(sink, path);
    }

    /// Length of the longest leading run of `items` that `matches` accepts
    /// against the nodes of `path`, position by position.
    pub fn common_prefix<T>(
        &self,
        path: &[usize],
        items: &[T],
        matches: impl Fn(&V, &T) -> bool,
    ) -> usize {
        path.iter()
            .zip(items)
            .take_while(|(&idx, item)| matches(&self.node(idx).value, item))
            .count()
    }

    /// Walks `items` down from the last node of `path`: each item merges
    /// into the first child `matches` accepts, or becomes a new node
    /// holding `make(item)`. Appends every node visited to `path`, and the
    /// nodes created to `fresh` when given. `make` runs for created nodes
    /// only.
    pub fn extend<T>(
        &mut self,
        path: &mut Vec<usize>,
        items: impl IntoIterator<Item = T>,
        matches: impl Fn(&V, &T) -> bool,
        mut make: impl FnMut(T) -> V,
        mut fresh: Option<&mut Vec<usize>>,
    ) {
        let mut parent = path.last().copied();
        for item in items {
            let siblings = match parent {
                None => &self.roots,
                Some(p) => &self.node(p).children,
            };
            let found = siblings
                .iter()
                .copied()
                .find(|&c| matches(&self.node(c).value, &item));
            let idx = match found {
                Some(c) => {
                    self.node_mut(c).sharers += 1;
                    c
                }
                None => {
                    let idx = self.alloc(TrieNode {
                        value: make(item),
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

    fn alloc(&mut self, node: TrieNode<V>) -> usize {
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

    /// Decrements the sharer counts on `path[from..]` and prunes the nodes
    /// that dropped to zero, bottom-up, handing each payload to `pruned`.
    /// Sharer counts never increase with depth, so pruning stops at the
    /// first still-shared node.
    pub fn release(&mut self, path: &[usize], from: usize, mut pruned: impl FnMut(V)) {
        for &idx in &path[from..] {
            self.node_mut(idx).sharers -= 1;
        }
        for i in (from..path.len()).rev() {
            let idx = path[i];
            if self.node(idx).sharers > 0 {
                break;
            }
            match i.checked_sub(1) {
                None => self.roots.retain(|&r| r != idx),
                Some(pi) => self.node_mut(path[pi]).children.retain(|&c| c != idx),
            }
            let node = self.nodes[idx].take().expect("live trie node");
            debug_assert!(
                node.children.is_empty() && node.sinks.is_empty(),
                "pruned trie node still referenced"
            );
            self.free.push(idx);
            pruned(node.value);
        }
    }

    /// `sink`'s node path, root first.
    pub fn path(&self, sink: SinkId) -> Option<&[usize]> {
        self.paths.get(&sink).map(Vec::as_slice)
    }

    /// Every registered sink and its path, in ascending sink order.
    pub fn paths(&self) -> impl Iterator<Item = (SinkId, &[usize])> {
        self.paths.iter().map(|(&s, p)| (s, p.as_slice()))
    }

    /// Number of registered sinks.
    pub fn sink_count(&self) -> usize {
        self.paths.len()
    }

    /// `true` when no chain is registered.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Arena slots, live or free: the most nodes ever live at once.
    pub fn slots(&self) -> usize {
        self.nodes.len()
    }

    /// Live payloads in arena order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.nodes.iter().flatten().map(|n| &n.value)
    }

    /// Live nodes as `(arena index, depth)` in deterministic DFS
    /// (pre-)order, children in insertion order.
    pub fn preorder(&self) -> Vec<(usize, usize)> {
        let mut acc = Vec::with_capacity(self.node_count());
        let mut stack: Vec<(usize, usize)> = self.roots.iter().rev().map(|&r| (r, 0)).collect();
        while let Some((idx, depth)) = stack.pop() {
            acc.push((idx, depth));
            for &c in self.node(idx).children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert(trie: &mut PrefixTrie<char>, sink: SinkId, chain: &str, made: &mut String) {
        let make = |c| {
            made.push(c);
            c
        };
        trie.insert(sink, chain.chars(), |v, c| v == c, make);
    }

    #[test]
    fn equal_prefixes_merge_and_make_runs_for_new_nodes_only() {
        let mut trie = PrefixTrie::default();
        let mut made = String::new();
        insert(&mut trie, 0, "ab", &mut made);
        insert(&mut trie, 1, "ac", &mut made);
        insert(&mut trie, 2, "", &mut made);
        assert_eq!(made, "abc");
        assert_eq!(trie.node_count(), 3);
        let shape: Vec<(char, usize, usize)> = (trie.preorder().into_iter())
            .map(|(i, d)| (trie.node(i).value, d, trie.node(i).sharers()))
            .collect();
        assert_eq!(shape, [('a', 0, 2), ('b', 1, 1), ('c', 1, 1)]);
        assert_eq!(trie.root_sinks, [2]);
    }

    #[test]
    fn release_prunes_bottom_up_and_reuses_slots() {
        let mut trie = PrefixTrie::default();
        let mut made = String::new();
        insert(&mut trie, 0, "abc", &mut made);
        insert(&mut trie, 1, "abd", &mut made);
        let mut pruned = String::new();
        assert!(trie.remove(0, |c| pruned.push(c)));
        assert_eq!(pruned, "c", "a and b still carry sink 1");
        assert!(!trie.remove(0, |_| unreachable!()));
        for _ in 0..10 {
            insert(&mut trie, 2, "xyz", &mut made);
            assert!(trie.remove(2, |_| {}));
        }
        assert_eq!(trie.slots(), 6, "pruned slots are reused");
        pruned.clear();
        assert!(trie.remove(1, |c| pruned.push(c)));
        assert_eq!(pruned, "dba");
        assert!(trie.is_empty() && trie.node_count() == 0);
    }

    #[test]
    fn detach_keeps_the_common_prefix_counted() {
        let mut trie = PrefixTrie::default();
        let mut made = String::new();
        insert(&mut trie, 0, "abc", &mut made);
        let mut path = trie.detach(0).unwrap();
        let next: Vec<char> = "abx".chars().collect();
        let keep = trie.common_prefix(&path, &next, |v, c| v == c);
        assert_eq!(keep, 2);
        trie.release(&path, keep, |_| {});
        path.truncate(keep);
        let mut fresh = Vec::new();
        let rest = next[keep..].iter().copied();
        trie.extend(&mut path, rest, |v, c| v == c, |c| c, Some(&mut fresh));
        trie.attach(0, path);
        assert_eq!(fresh.len(), 1);
        let chain: String = (trie.path(0).unwrap().iter())
            .map(|&i| trie.node(i).value)
            .collect();
        assert_eq!(chain, "abx");
        assert_eq!(trie.slots(), 3, "x took c's slot");
    }
}
