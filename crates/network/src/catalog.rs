//! The stream catalog: per-peer indexes over shareable flows.
//!
//! Algorithm 1 visits peers and asks which of the streams passing each peer
//! could serve the new subscription. A deployment accumulates flows forever
//! (every registration adds at least a non-shareable delivery flow, and
//! retired flows keep their ids), so answering by scanning `Deployment`'s
//! flow list makes registration cost grow with the *total number of
//! registrations ever made* rather than with the streams actually flowing
//! past the peer. The catalog maintains, incrementally on
//! install/retire/widen:
//!
//! * per peer, the sorted list of shareable flows available there
//!   ([`Catalog::shareable_at`] — the full, unpruned candidate set);
//! * per (peer, origin stream), the same list restricted to variants of
//!   that stream ([`Catalog::variants_at`] — what widening enumerates);
//! * per (peer, origin stream, operator-kind signature), candidate flows
//!   grouped by their *interned* [`ChainSummary`]: flows carrying the
//!   identical operator chain are interchangeable for the match
//!   pre-filters, so the per-subscription lens verdict is computed once
//!   per distinct chain (cached in [`LensVerdicts`] across every peer the
//!   search visits) and whole groups are emitted or pruned wholesale.
//!   Windowed chains are further keyed by their [`WindowKey`] in a sorted
//!   map so a subscription only probes window sizes that could divide its
//!   own ([`Catalog::candidates_into`]).
//!
//! The distinction matters for scale: the number of *flows* grows without
//! bound (every uncovered registration installs another residual chain),
//! but the number of *distinct chains* saturates with the finite space of
//! operator combinations actually subscribed to. Grouping makes candidate
//! lookup proportional to distinct chains plus emitted candidates, not to
//! installed flows — the difference between near-flat and linearly
//! degrading registration latency at large subscription counts.
//!
//! Lookups return flow ids in ascending order — the same order the full
//! scan produced — so the plan search's strict `<` cost comparison picks
//! the identical winner with or without the index.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use dss_properties::{ChainSummary, QueryLens, Signature, WindowKey};

use crate::flow::{FlowId, StreamFlow};
use crate::topology::NodeId;

/// Index of an interned operator chain in the catalog's chain table.
/// Flows share a `ChainId` exactly when their input properties for the
/// stream are identical — so any pure function of those properties (the
/// lens pre-filter verdict, the full `match_input_properties` result) may
/// be memoized per chain id.
pub type ChainId = usize;

/// Inserts into a sorted id vector (ids re-enter out of order after widen
/// re-indexing, so plain `push` is not enough).
fn insert_sorted(ids: &mut Vec<usize>, id: usize) {
    if let Err(pos) = ids.binary_search(&id) {
        ids.insert(pos, id);
    }
}

fn remove_sorted(ids: &mut Vec<usize>, id: usize) {
    if let Ok(pos) = ids.binary_search(&id) {
        ids.remove(pos);
    }
}

/// Interner for operator chains. Chains are keyed by the canonical
/// `Debug` form of the flow's full `InputProperties` (plain data, so the
/// rendering is faithful) — *not* by the coarser [`ChainSummary`] — so
/// two flows share an id only when their properties are identical. The
/// table only ever grows, bounded by the number of distinct operator
/// chains ever deployed — not by flow count.
#[derive(Clone, Default)]
struct ChainInterner {
    summaries: Vec<ChainSummary>,
    ids: HashMap<String, ChainId>,
}

impl ChainInterner {
    fn intern(&mut self, key: String, summary: &ChainSummary) -> ChainId {
        *self.ids.entry(key).or_insert_with(|| {
            self.summaries.push(summary.clone());
            self.summaries.len() - 1
        })
    }
}

/// Memoized per-subscription lens verdicts, one slot per interned chain
/// summary. A chain that flows past many peers is judged once per search,
/// not once per (peer, flow).
#[derive(Debug, Default)]
pub struct LensVerdicts(Vec<Option<bool>>);

impl LensVerdicts {
    fn allows(&mut self, lens: &QueryLens, summaries: &[ChainSummary], sid: ChainId) -> bool {
        if self.0.len() <= sid {
            self.0.resize(sid + 1, None);
        }
        *self.0[sid].get_or_insert_with(|| lens.may_be_served_by(&summaries[sid]))
    }
}

/// One signature bucket of a per-(peer, stream) index: flow groups keyed
/// by interned chain summary; windowless groups in a flat sorted list,
/// windowed groups in the window-size lattice.
#[derive(Clone, Default)]
struct SigBucket {
    /// Per distinct chain: the sorted flows carrying it here.
    groups: HashMap<ChainId, Vec<FlowId>>,
    /// Groups whose chains carry no window key.
    plain: Vec<ChainId>,
    /// Windowed groups, ordered by the factor-multiple window lattice.
    by_window: BTreeMap<WindowKey, Vec<ChainId>>,
}

impl SigBucket {
    fn insert(&mut self, id: FlowId, sid: ChainId, key: Option<&WindowKey>) {
        let SigBucket {
            groups,
            plain,
            by_window,
        } = self;
        let group = groups.entry(sid).or_insert_with(|| {
            match key {
                None => insert_sorted(plain, sid),
                Some(k) => insert_sorted(by_window.entry(k.clone()).or_default(), sid),
            }
            Vec::new()
        });
        insert_sorted(group, id);
    }

    fn remove(&mut self, id: FlowId, sid: ChainId, key: Option<&WindowKey>) {
        let Some(group) = self.groups.get_mut(&sid) else {
            return;
        };
        remove_sorted(group, id);
        if !group.is_empty() {
            return;
        }
        self.groups.remove(&sid);
        match key {
            None => remove_sorted(&mut self.plain, sid),
            Some(k) => {
                if let Some(sids) = self.by_window.get_mut(k) {
                    remove_sorted(sids, sid);
                    if sids.is_empty() {
                        self.by_window.remove(k);
                    }
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Index over the variants of one origin stream available at one peer.
#[derive(Clone, Default)]
struct StreamIndex {
    /// Every variant, ascending — the widening path must see non-matching
    /// streams too, so this list is never pruned.
    all: Vec<FlowId>,
    /// Variants whose chain is widenable (selection/projection only),
    /// ascending — the only flows `widen_input` can loosen, so the
    /// widening search probes this list instead of `all`.
    widenable: Vec<FlowId>,
    by_sig: HashMap<Signature, SigBucket>,
}

/// What was indexed for one flow — kept so retire/widen can unindex the
/// exact entries even after the flow's fields changed.
#[derive(Clone)]
struct Membership {
    nodes: Vec<NodeId>,
    inputs: Vec<IndexedInput>,
}

#[derive(Clone)]
struct IndexedInput {
    stream: String,
    signature: Signature,
    window_key: Option<WindowKey>,
    summary: ChainId,
}

/// The per-peer stream-catalog index of a [`crate::flow::Deployment`].
#[derive(Clone, Default)]
pub struct Catalog {
    /// Per peer: all shareable flows available there, ascending.
    per_node: Vec<Vec<FlowId>>,
    /// Per origin stream, per peer: the signature-bucketed index.
    streams: HashMap<String, Vec<StreamIndex>>,
    members: HashMap<FlowId, Membership>,
    interner: ChainInterner,
}

impl Catalog {
    /// Indexes a flow. Retired flows and flows without shareable properties
    /// (delivery flows) are ignored.
    pub fn insert(&mut self, id: FlowId, flow: &StreamFlow) {
        debug_assert!(!self.members.contains_key(&id), "flow {id} double-indexed");
        if flow.retired {
            return;
        }
        let Some(props) = &flow.properties else {
            return;
        };
        let mut nodes: Vec<NodeId> = flow.route.clone();
        nodes.sort_unstable();
        nodes.dedup();
        let mut inputs = Vec::with_capacity(props.inputs().len());
        for input in props.inputs() {
            if inputs
                .iter()
                .any(|i: &IndexedInput| i.stream == input.stream())
            {
                continue;
            }
            let summary = ChainSummary::of(input);
            inputs.push(IndexedInput {
                stream: input.stream().to_string(),
                signature: summary.signature().clone(),
                window_key: summary.window_key(),
                summary: self.interner.intern(format!("{input:?}"), &summary),
            });
        }
        for &node in &nodes {
            if self.per_node.len() <= node {
                self.per_node.resize_with(node + 1, Vec::new);
            }
            insert_sorted(&mut self.per_node[node], id);
        }
        for input in &inputs {
            let per_node = self.streams.entry(input.stream.clone()).or_default();
            for &node in &nodes {
                if per_node.len() <= node {
                    per_node.resize_with(node + 1, StreamIndex::default);
                }
                let idx = &mut per_node[node];
                insert_sorted(&mut idx.all, id);
                if input.signature.is_widenable() {
                    insert_sorted(&mut idx.widenable, id);
                }
                idx.by_sig
                    .entry(input.signature.clone())
                    .or_default()
                    .insert(id, input.summary, input.window_key.as_ref());
            }
        }
        self.members.insert(id, Membership { nodes, inputs });
    }

    /// Unindexes a flow (no-op if it was never indexed).
    pub fn remove(&mut self, id: FlowId) {
        let Some(member) = self.members.remove(&id) else {
            return;
        };
        for &node in &member.nodes {
            if let Some(ids) = self.per_node.get_mut(node) {
                remove_sorted(ids, id);
            }
        }
        for input in &member.inputs {
            let Some(per_node) = self.streams.get_mut(&input.stream) else {
                continue;
            };
            for &node in &member.nodes {
                let Some(idx) = per_node.get_mut(node) else {
                    continue;
                };
                remove_sorted(&mut idx.all, id);
                if input.signature.is_widenable() {
                    remove_sorted(&mut idx.widenable, id);
                }
                if let Some(bucket) = idx.by_sig.get_mut(&input.signature) {
                    bucket.remove(id, input.summary, input.window_key.as_ref());
                    if bucket.is_empty() {
                        idx.by_sig.remove(&input.signature);
                    }
                }
            }
        }
    }

    /// Re-indexes a flow after in-place mutation (widening rewrites ops,
    /// properties, and label; narrowing rolls them back).
    pub fn reindex(&mut self, id: FlowId, flow: &StreamFlow) {
        self.remove(id);
        self.insert(id, flow);
    }

    /// All shareable flows available at `node`, ascending.
    pub fn shareable_at(&self, node: NodeId) -> &[FlowId] {
        self.per_node.get(node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All variants of `stream` available at `node`, ascending — the
    /// unpruned candidate set the widening search enumerates.
    pub fn variants_at(&self, node: NodeId, stream: &str) -> &[FlowId] {
        self.streams
            .get(stream)
            .and_then(|per_node| per_node.get(node))
            .map(|idx| idx.all.as_slice())
            .unwrap_or(&[])
    }

    /// The widenable variants of `stream` at `node`, ascending: flows
    /// whose chain for the stream is selection/projection only. The
    /// widening search unions this list with the lens-matched candidates
    /// instead of enumerating every variant — a non-widenable chain can
    /// never yield a widening plan ([`dss_properties::widen_input`]
    /// rejects it), so pruning the rest loses no matches and no plans.
    pub fn widenable_at(&self, node: NodeId, stream: &str) -> &[FlowId] {
        self.streams
            .get(stream)
            .and_then(|per_node| per_node.get(node))
            .map(|idx| idx.widenable.as_slice())
            .unwrap_or(&[])
    }

    /// Collects into `out` the variants of `stream` at `node` that pass the
    /// lens's pre-filters, ascending by flow id, each with the interned
    /// chain id of its input for `stream` (what [`Self::chain_of`] would
    /// look up — the buckets are keyed by it, so it comes for free). A flow
    /// is emitted only if a full `match_input_properties` against the
    /// lens's subscription *could* succeed; every true match is always
    /// emitted. `verdicts` memoizes per-chain judgements across the calls
    /// of one search and must not be reused with a different lens.
    pub fn candidates_into(
        &self,
        node: NodeId,
        stream: &str,
        lens: &QueryLens,
        verdicts: &mut LensVerdicts,
        out: &mut Vec<(FlowId, ChainId)>,
    ) {
        out.clear();
        let Some(idx) = self
            .streams
            .get(stream)
            .and_then(|per_node| per_node.get(node))
        else {
            return;
        };
        let summaries = &self.interner.summaries;
        for (sig, bucket) in &idx.by_sig {
            if !sig.is_subset_of(lens.kinds()) {
                continue;
            }
            let mut emit = |sid: ChainId| {
                if verdicts.allows(lens, summaries, sid) {
                    out.extend(bucket.groups[&sid].iter().map(|&id| (id, sid)));
                }
            };
            bucket.plain.iter().copied().for_each(&mut emit);
            if !bucket.by_window.is_empty() {
                for (lo, hi) in lens.window_ranges() {
                    for (_, sids) in bucket.by_window.range::<WindowKey, _>(lo..=hi) {
                        sids.iter().copied().for_each(&mut emit);
                    }
                }
            }
        }
        // Bucket iteration order is arbitrary (HashMap); the search's strict
        // `<` tie-break depends on candidate order, so restore id order.
        out.sort_unstable();
    }

    /// Number of indexed (shareable) flows.
    pub fn indexed_len(&self) -> usize {
        self.members.len()
    }

    /// The interned chain id of `id`'s input for `stream`, if indexed.
    /// Two flows with the same chain id have byte-identical input
    /// properties for the stream, so property-only computations (like the
    /// full property match) can be memoized per chain id.
    pub fn chain_of(&self, id: FlowId, stream: &str) -> Option<ChainId> {
        self.members
            .get(&id)?
            .inputs
            .iter()
            .find(|i| i.stream == stream)
            .map(|i| i.summary)
    }

    /// Number of distinct chain summaries ever interned.
    pub fn distinct_chains(&self) -> usize {
        self.interner.summaries.len()
    }
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // HashMap iteration order is nondeterministic; print stable totals
        // only so `Deployment`'s Debug output stays reproducible.
        f.debug_struct("Catalog")
            .field("indexed_flows", &self.members.len())
            .field("peers", &self.per_node.len())
            .field("streams", &self.streams.len())
            .field("distinct_chains", &self.interner.summaries.len())
            .finish()
    }
}
