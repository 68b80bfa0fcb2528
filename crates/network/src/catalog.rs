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
use std::ops::{Deref, DerefMut};

use dss_properties::{ChainSummary, InputProperties, QueryLens, Signature, WindowKey};

use crate::flow::{FlowId, StreamFlow};
use crate::memo::Memo;
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

/// Interner for operator chains. Chains are keyed by the flow's full
/// `InputProperties` — *not* by the coarser [`ChainSummary`] — so two
/// flows share an id exactly when their properties are equal. The table
/// only ever grows, bounded by the number of distinct operator chains ever
/// deployed — not by flow count.
#[derive(Clone, Default)]
struct ChainInterner {
    summaries: Vec<ChainSummary>,
    ids: HashMap<InputProperties, ChainId>,
}

impl ChainInterner {
    fn intern(&mut self, chain: &InputProperties, summary: &ChainSummary) -> ChainId {
        if let Some(&id) = self.ids.get(chain) {
            return id;
        }
        self.summaries.push(summary.clone());
        self.ids.insert(chain.clone(), self.summaries.len() - 1);
        self.summaries.len() - 1
    }
}

/// One subscription chain's `judge` verdicts, a slot per candidate chain
/// (see [`VerdictLoan`]).
type VerdictRow = Vec<Option<Option<f64>>>;

/// A subscription chain's verdict row, on loan to one input's search
/// ([`Catalog::verdicts_for`]): per candidate [`ChainId`] interned so far,
/// `Some(Some(load))` when a stream carrying that chain can serve the
/// subscription with residual operators of summed base load `load`,
/// `Some(None)` when it cannot, `None` while no search for this
/// subscription chain has judged the pair. Dropping the loan hands the row
/// back with whatever this search added — however the search ends.
pub struct VerdictLoan<'a> {
    catalog: &'a Catalog,
    /// `None`: the subscription's chain is not interned (yet), so the row
    /// is this search's alone.
    wanted: Option<ChainId>,
    row: VerdictRow,
}

impl Deref for VerdictLoan<'_> {
    type Target = [Option<Option<f64>>];

    fn deref(&self) -> &Self::Target {
        &self.row
    }
}

impl DerefMut for VerdictLoan<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.row
    }
}

impl Drop for VerdictLoan<'_> {
    fn drop(&mut self) {
        if let Some(wanted) = self.wanted {
            self.catalog.verdicts.lock()[wanted] = std::mem::take(&mut self.row);
        }
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
    /// Per interned chain, as a *subscription's* chain: its verdict row,
    /// empty until a search for it ends. Chain ids only grow and a verdict
    /// is a pure function of the two chains, so a row never goes stale —
    /// nothing here is ever invalidated. At most `distinct_chains()²`
    /// slots: a chain no flow carries has no id and so no row.
    verdicts: Memo<Vec<VerdictRow>>,
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
                summary: self.interner.intern(input, &summary),
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

    /// Lends out what earlier searches remembered about the subscription
    /// chain `wanted` (see [`VerdictLoan`]). Two concurrent searches for
    /// one chain each get a valid row — the second an empty one — and the
    /// last to end is the one kept.
    pub fn verdicts_for(&self, wanted: &InputProperties) -> VerdictLoan<'_> {
        let wanted = self.interner.ids.get(wanted).copied();
        let chains = self.interner.summaries.len();
        let mut row = match wanted {
            Some(id) => {
                let mut rows = self.verdicts.lock();
                if rows.len() <= id {
                    rows.resize_with(id + 1, Vec::new);
                }
                std::mem::take(&mut rows[id])
            }
            None => Vec::new(),
        };
        row.resize(chains, None);
        VerdictLoan {
            catalog: self,
            wanted,
            row,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowInput;
    use dss_properties::{Operator, Properties};

    /// The chain of a subscription nobody else has: one UDF named `name`.
    fn chain(name: &str) -> InputProperties {
        let udf = Operator::Udf {
            name: name.into(),
            params: Vec::new(),
        };
        InputProperties::new("photons", vec![udf]).expect("a UDF chain is valid")
    }

    fn flow_carrying(chain: &InputProperties) -> StreamFlow {
        StreamFlow {
            label: "f".into(),
            input: FlowInput::Source {
                stream: "photons".into(),
            },
            processing_node: 0,
            ops: Vec::new(),
            route: vec![0],
            properties: Some(Properties::single(chain.clone())),
            retired: false,
        }
    }

    /// What a search does with its loan: judges the chains it has no
    /// verdict for yet. Returns how many it had to judge.
    fn judge_all(loan: &mut VerdictLoan<'_>) -> usize {
        let unknown = loan.iter().filter(|slot| slot.is_none()).count();
        for (id, slot) in loan.iter_mut().enumerate() {
            slot.get_or_insert(Some(id as f64));
        }
        unknown
    }

    #[test]
    fn a_row_is_lent_grown_and_handed_back() {
        let mut catalog = Catalog::default();
        let (a, b) = (chain("a"), chain("b"));
        catalog.insert(0, &flow_carrying(&a));
        {
            let mut loan = catalog.verdicts_for(&a);
            assert_eq!(loan.len(), 1, "a slot per chain interned so far");
            assert_eq!(judge_all(&mut loan), 1);
        }
        // Chain ids only grow: what was judged stays, the new chain's slot
        // arrives unjudged.
        catalog.insert(1, &flow_carrying(&b));
        {
            let mut loan = catalog.verdicts_for(&a);
            assert_eq!(&loan[..], &[Some(Some(0.0)), None]);
            assert_eq!(judge_all(&mut loan), 1);
        }
        assert_eq!(judge_all(&mut catalog.verdicts_for(&a)), 0);
        // Rows are per subscription chain…
        assert_eq!(judge_all(&mut catalog.verdicts_for(&b)), 2);
        // …survive retirement (the interner never forgets a chain)…
        catalog.remove(0);
        assert_eq!(judge_all(&mut catalog.verdicts_for(&a)), 0);
        // …and are not copied: a clone judges for itself.
        assert_eq!(judge_all(&mut catalog.clone().verdicts_for(&a)), 2);
    }

    #[test]
    fn one_off_subscriptions_leave_no_more_rows_than_chains() {
        let mut catalog = Catalog::default();
        for i in 0..1_000 {
            // Registration: search (the chain is not interned yet, so the
            // row is the search's own and is dropped with it), then install.
            let wanted = chain(&format!("u{i}"));
            assert_eq!(judge_all(&mut catalog.verdicts_for(&wanted)), i);
            catalog.insert(i, &flow_carrying(&wanted));
        }
        assert_eq!(catalog.distinct_chains(), 1_000);
        let rows = catalog.verdicts.lock();
        assert!(rows.len() <= 1_000, "{} rows", rows.len());
        assert!(rows.iter().all(Vec::is_empty), "nothing was searched twice");
    }

    #[test]
    fn an_abandoned_search_keeps_what_it_learned() {
        let mut catalog = Catalog::default();
        let (a, b) = (chain("a"), chain("b"));
        catalog.insert(0, &flow_carrying(&a));
        catalog.insert(1, &flow_carrying(&b));
        // A search that ends early (its caller returns `Err` for a later
        // input) drops its loan like any other.
        let abandoned = || -> Result<(), ()> {
            let mut loan = catalog.verdicts_for(&a);
            loan[1] = Some(None);
            Err(())
        };
        assert!(abandoned().is_err());
        assert_eq!(&catalog.verdicts_for(&a)[..], &[None, Some(None)]);
        assert_eq!(&catalog.verdicts_for(&b)[..], &[None, None]);
    }
}
