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
//!   that stream ([`Catalog::variants_at`]), its widenable part
//!   ([`Catalog::widenable_at`]), and the same flows grouped by their
//!   *interned* operator chain ([`ChainId`]).
//!
//! Flows carrying the identical chain are interchangeable for
//! `MatchProperties`, so the plan search judges a chain once and remembers
//! the verdict in a row per subscription chain ([`Catalog::verdicts_for`]).
//! [`Catalog::candidates_into`] emits every chain group except the ones
//! that row has already rejected. The number of *flows* grows without bound
//! (every uncovered registration installs another residual chain), but the
//! number of *distinct chains* saturates with the finite space of operator
//! combinations actually subscribed to, and so do the rows.
//!
//! Lookups return flow ids in ascending order — the same order the full
//! scan produced — so the plan search's strict `<` cost comparison picks
//! the identical winner with or without the index.

use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};

use dss_properties::{InputProperties, MatchFailure};

use crate::flow::{FlowId, StreamFlow};
use crate::memo::Memo;
use crate::topology::NodeId;

/// Index of an interned operator chain. Flows share a `ChainId` exactly
/// when their input properties for the stream are identical — so any pure
/// function of those properties (the `MatchProperties` verdict, the
/// residual operators' load) may be memoized per chain id.
pub type ChainId = usize;

/// The plan search's verdict on one (candidate chain, subscription chain)
/// pair: the summed base load of the residual operators a stream carrying
/// the candidate still needs to serve the subscription, or the check that
/// rejected it.
pub type Verdict = Result<f64, MatchFailure>;

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

/// One subscription chain's verdicts, a slot per candidate chain (see
/// [`VerdictLoan`]).
type VerdictRow = Vec<Option<Verdict>>;

/// A subscription chain's verdict row, on loan to one input's search
/// ([`Catalog::verdicts_for`]): per candidate [`ChainId`] interned so far,
/// `Some(verdict)` once a search for this subscription chain has judged the
/// pair, `None` before. Dropping the loan hands the row back with whatever
/// this search added — however the search ends.
pub struct VerdictLoan<'a> {
    catalog: &'a Catalog,
    /// `None`: the subscription's chain is not interned (yet), so the row
    /// is this search's alone.
    wanted: Option<ChainId>,
    row: VerdictRow,
}

impl Deref for VerdictLoan<'_> {
    type Target = [Option<Verdict>];

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
    /// Per distinct chain: the sorted flows carrying it here.
    groups: HashMap<ChainId, Vec<FlowId>>,
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
    chain: ChainId,
    widenable: bool,
}

/// The per-peer stream-catalog index of a [`crate::flow::Deployment`].
#[derive(Clone, Default)]
pub struct Catalog {
    /// Per peer: all shareable flows available there, ascending.
    per_node: Vec<Vec<FlowId>>,
    /// Per origin stream, per peer: the variant index.
    streams: HashMap<String, Vec<StreamIndex>>,
    members: HashMap<FlowId, Membership>,
    /// Interner for operator chains, keyed by the flow's full
    /// `InputProperties`: two flows share an id exactly when their
    /// properties are equal. Only ever grows, bounded by the number of
    /// distinct operator chains ever deployed — not by flow count.
    chains: HashMap<InputProperties, ChainId>,
    /// Per interned chain, as a *subscription's* chain: its verdict row,
    /// empty until a search for it ends. Chain ids only grow and a verdict
    /// is a pure function of the two chains, so a row never goes stale —
    /// nothing here is ever invalidated. At most `distinct_chains()²`
    /// slots: a chain no flow carries has no id and so no row.
    verdicts: Memo<Vec<VerdictRow>>,
}

impl Catalog {
    fn intern(&mut self, chain: &InputProperties) -> ChainId {
        if let Some(&id) = self.chains.get(chain) {
            return id;
        }
        let id = self.chains.len();
        self.chains.insert(chain.clone(), id);
        id
    }

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
            inputs.push(IndexedInput {
                stream: input.stream().to_string(),
                chain: self.intern(input),
                widenable: input.is_widenable(),
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
                if input.widenable {
                    insert_sorted(&mut idx.widenable, id);
                }
                insert_sorted(idx.groups.entry(input.chain).or_default(), id);
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
                if input.widenable {
                    remove_sorted(&mut idx.widenable, id);
                }
                if let Some(group) = idx.groups.get_mut(&input.chain) {
                    remove_sorted(group, id);
                    if group.is_empty() {
                        idx.groups.remove(&input.chain);
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

    fn index_at(&self, node: NodeId, stream: &str) -> Option<&StreamIndex> {
        self.streams.get(stream)?.get(node)
    }

    /// All variants of `stream` available at `node`, ascending — the
    /// unpruned candidate set.
    pub fn variants_at(&self, node: NodeId, stream: &str) -> &[FlowId] {
        self.index_at(node, stream)
            .map(|idx| idx.all.as_slice())
            .unwrap_or(&[])
    }

    /// The widenable variants of `stream` at `node`, ascending: flows
    /// whose chain for the stream is selection/projection only. The
    /// widening search unions this list with [`Self::candidates_into`]'s
    /// instead of enumerating every variant — a non-widenable chain can
    /// never yield a widening plan ([`dss_properties::widen_input`]
    /// rejects it), so skipping the rest loses no plans.
    pub fn widenable_at(&self, node: NodeId, stream: &str) -> &[FlowId] {
        self.index_at(node, stream)
            .map(|idx| idx.widenable.as_slice())
            .unwrap_or(&[])
    }

    /// Collects into `out` the variants of `stream` at `node`, ascending by
    /// flow id, each with the interned chain id of its input for `stream`
    /// (what [`Self::chain_of`] would look up). Whole chain groups are
    /// left out when `known` — a verdict row lent by
    /// [`Self::verdicts_for`] — already holds a rejection for the chain:
    /// such a stream cannot serve the subscription at any peer. Every chain
    /// the row accepted or has not judged yet is emitted.
    pub fn candidates_into(
        &self,
        node: NodeId,
        stream: &str,
        known: &[Option<Verdict>],
        out: &mut Vec<(FlowId, ChainId)>,
    ) {
        out.clear();
        let Some(idx) = self.index_at(node, stream) else {
            return;
        };
        for (&chain, flows) in &idx.groups {
            if !matches!(known.get(chain), Some(Some(Err(_)))) {
                out.extend(flows.iter().map(|&id| (id, chain)));
            }
        }
        // Group iteration order is arbitrary (HashMap); the search's strict
        // `<` tie-break depends on candidate order, so restore id order.
        out.sort_unstable();
    }

    /// Lends out what earlier searches remembered about the subscription
    /// chain `wanted` (see [`VerdictLoan`]). Two concurrent searches for
    /// one chain each get a valid row — the second an empty one — and the
    /// last to end is the one kept.
    pub fn verdicts_for(&self, wanted: &InputProperties) -> VerdictLoan<'_> {
        let wanted = self.chains.get(wanted).copied();
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
        row.resize(self.chains.len(), None);
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
            .map(|i| i.chain)
    }

    /// Number of distinct operator chains ever interned.
    pub fn distinct_chains(&self) -> usize {
        self.chains.len()
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
            .field("distinct_chains", &self.chains.len())
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
            slot.get_or_insert(Ok(id as f64));
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
            assert_eq!(&loan[..], &[Some(Ok(0.0)), None]);
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
            loan[1] = Some(Err(MatchFailure::Origin));
            Err(())
        };
        assert!(abandoned().is_err());
        assert_eq!(
            &catalog.verdicts_for(&a)[..],
            &[None, Some(Err(MatchFailure::Origin))]
        );
        assert_eq!(&catalog.verdicts_for(&b)[..], &[None, None]);
    }

    #[test]
    fn candidates_skip_only_the_chains_the_row_rejected() {
        let mut catalog = Catalog::default();
        let (a, b, c) = (chain("a"), chain("b"), chain("c"));
        // Three chains over two peers; `b` is carried by two flows.
        let on = |chain: &InputProperties, route: Vec<NodeId>| StreamFlow {
            route,
            ..flow_carrying(chain)
        };
        catalog.insert(0, &on(&a, vec![0, 1]));
        catalog.insert(1, &on(&b, vec![0, 1]));
        catalog.insert(2, &on(&c, vec![0, 1]));
        catalog.insert(3, &on(&b, vec![1]));
        let mut out = Vec::new();
        let ids = |out: &[(FlowId, ChainId)]| out.iter().map(|&(id, _)| id).collect::<Vec<_>>();
        let mut loan = catalog.verdicts_for(&a);
        // Nothing judged yet: every variant, ascending, with its chain.
        catalog.candidates_into(0, "photons", &loan, &mut out);
        assert_eq!(out, [(0, 0), (1, 1), (2, 2)]);
        // The search at peer 0 accepts `a`, rejects `b`, leaves `c` unjudged.
        loan[0] = Some(Ok(1.0));
        loan[1] = Some(Err(MatchFailure::CheckFailed {
            kind: "udf",
            check: "MatchProperties",
        }));
        // At a later peer both of `b`'s flows are skipped; `a` and `c` stay.
        catalog.candidates_into(1, "photons", &loan, &mut out);
        assert_eq!(ids(&out), [0, 2]);
        // Another stream's variants and an unknown peer yield nothing.
        catalog.candidates_into(1, "spectra", &loan, &mut out);
        assert!(out.is_empty());
        catalog.candidates_into(7, "photons", &loan, &mut out);
        assert!(out.is_empty());
        // The row outlives the search: the next one skips `b` at once.
        drop(loan);
        catalog.candidates_into(1, "photons", &catalog.verdicts_for(&a), &mut out);
        assert_eq!(ids(&out), [0, 2]);
        // Rows are per subscription chain: `b`'s own row rejects nothing.
        catalog.candidates_into(1, "photons", &catalog.verdicts_for(&b), &mut out);
        assert_eq!(ids(&out), [0, 1, 2, 3]);
        // `all` and `widenable` are never filtered (UDF chains are not
        // widenable).
        assert_eq!(catalog.variants_at(1, "photons"), [0, 1, 2, 3]);
        assert!(catalog.widenable_at(1, "photons").is_empty());
    }
}
