//! The `Subscribe` algorithm (Algorithm 1).
//!
//! For each input stream of a newly registered continuous query the
//! algorithm performs a breadth-first search over the network graph,
//! starting at the super-peer where the original input stream is
//! registered. At every visited peer it inspects the data streams available
//! there that are variants of the input, matches their properties against
//! the subscription's (Algorithm 2), generates a candidate plan for every
//! match, and keeps the cheapest according to the cost function `C`.
//! Non-matching streams do not extend the search frontier — only the target
//! nodes of matched streams are enqueued — which prunes the traversal to
//! the relevant part of the network.

use std::collections::VecDeque;
use std::fmt;

use dss_network::{ChainId, FlowId, NodeId};
use dss_properties::{
    explain_match_input_properties, match_input_properties, InputProperties, QueryLens,
};
use dss_telemetry::Value;
use dss_wxquery::CompiledQuery;

use crate::plan::{
    assemble_plan, cost_part, flow_op_base_load, generate_plan_part, generate_widening_part,
    residual_flow_ops, PartCost, Plan, PlanPart, RouteCost,
};
use crate::state::NetworkState;

/// Frontier discipline of the search. The paper uses FIFO (breadth-first)
/// and notes that LIFO (depth-first) "would be equally possible".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchOrder {
    #[default]
    Bfs,
    Dfs,
}

/// Errors raised during subscription planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscribeError {
    /// The query references a stream that is not registered ("provided that
    /// q refers to existing inputs").
    UnknownStream(String),
    /// Admission control: every candidate plan would overload a peer or a
    /// connection.
    Overload,
    /// The stream exists but cannot currently be planned: its source flow
    /// is retired, or no route survives the current peer/link failures.
    Unreachable(String),
}

impl fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscribeError::UnknownStream(s) => {
                write!(f, "query references unregistered stream {s:?}")
            }
            SubscribeError::Overload => {
                write!(f, "no evaluation plan avoids overloading the network")
            }
            SubscribeError::Unreachable(s) => {
                write!(f, "stream {s:?} is unreachable in the current network")
            }
        }
    }
}

impl std::error::Error for SubscribeError {}

/// Statistics of one `Subscribe` run (used by the evaluation section's
/// registration-time analysis and by the benches).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Peers dequeued from `L_V`.
    pub nodes_visited: usize,
    /// Candidate streams whose properties were matched.
    pub candidates_matched: usize,
    /// Successful matches.
    pub matches: usize,
    /// Candidate plans generated — costed and compared against the best so
    /// far.
    pub plans_generated: usize,
    /// [`PlanPart`]s actually built: per input the initial source plan,
    /// the matched candidate that won in the end (if one did), and every
    /// widening candidate (that path builds before it compares). Never
    /// more than `plans_generated`.
    pub parts_built: usize,
    /// Calls to `judge` (MatchProperties plus the residual operators'
    /// load) actually executed: one per candidate chain whose verdict no
    /// earlier search for the same subscription chain left with the
    /// catalog — and one per candidate in the full-scan reference, which
    /// remembers nothing. The one count that depends on what was planned
    /// before.
    pub judged: usize,
}

/// Runs Algorithm 1 for a compiled query to be answered at super-peer
/// `v_q`, delivering to `subscriber`.
///
/// With `require_feasible`, candidate plans that would overload the network
/// lose against feasible ones regardless of cost, and planning fails with
/// [`SubscribeError::Overload`] when no feasible plan exists (the paper's
/// admission-control experiment).
pub fn subscribe(
    state: &NetworkState,
    query: &CompiledQuery,
    v_q: NodeId,
    subscriber: NodeId,
    order: SearchOrder,
    require_feasible: bool,
) -> Result<(Plan, SearchStats), SubscribeError> {
    subscribe_with(
        state,
        query,
        v_q,
        subscriber,
        order,
        require_feasible,
        false,
    )
}

/// [`subscribe`] with stream *widening* enabled: when a candidate stream
/// does not match, the search additionally considers loosening that
/// stream's operators (predicate hull / projection union) so it covers both
/// its current consumers and the new subscription — the paper's ongoing
/// work ("widen data streams … by changing some operators in the network").
#[allow(clippy::too_many_arguments)]
pub fn subscribe_with(
    state: &NetworkState,
    query: &CompiledQuery,
    v_q: NodeId,
    subscriber: NodeId,
    order: SearchOrder,
    require_feasible: bool,
    widening: bool,
) -> Result<(Plan, SearchStats), SubscribeError> {
    search(
        state,
        query,
        v_q,
        subscriber,
        order,
        require_feasible,
        widening,
        CandidateSource::Indexed,
    )
}

/// [`subscribe_with`], but enumerating candidate streams by scanning the
/// full flow table at every visited peer — the pre-index reference search.
/// Kept as the differential oracle for the catalog: for any deployment and
/// query it must produce the same matches, the same number of generated
/// plans, and a byte-identical winning plan as the indexed search (whose
/// candidate counts may only be *smaller*).
#[allow(clippy::too_many_arguments)]
pub fn subscribe_full_scan(
    state: &NetworkState,
    query: &CompiledQuery,
    v_q: NodeId,
    subscriber: NodeId,
    order: SearchOrder,
    require_feasible: bool,
    widening: bool,
) -> Result<(Plan, SearchStats), SubscribeError> {
    search(
        state,
        query,
        v_q,
        subscriber,
        order,
        require_feasible,
        widening,
        CandidateSource::FullScan,
    )
}

/// How the search enumerates candidate streams at a visited peer.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CandidateSource {
    /// The deployment's stream catalog: per-peer per-stream buckets with
    /// signature/bound/window pre-filters (sublinear in installed flows).
    Indexed,
    /// Scan every installed flow (linear in all registrations ever made).
    FullScan,
}

/// Line 14 (MatchProperties) and the operator half of the cost in one
/// verdict: `Some(bload)` when a stream carrying `candidate` can serve
/// `wanted`, with `bload` the summed base load of the residual operators it
/// still needs — all the cost function reads of them; `None` when it
/// cannot. A pure function of the two property chains.
fn judge(candidate: &InputProperties, wanted: &InputProperties) -> Option<f64> {
    match_input_properties(candidate, wanted).then(|| {
        let ops = residual_flow_ops(candidate, wanted);
        ops.iter().map(flow_op_base_load).sum()
    })
}

/// Lines 19–22's comparison: a candidate replaces `best` when it is
/// strictly cheaper — or, under admission control, when exactly one of the
/// two is feasible and it is the candidate.
fn beats(candidate: PartCost, best: PartCost, require_feasible: bool) -> bool {
    if require_feasible && candidate.feasible != best.feasible {
        candidate.feasible
    } else {
        candidate.cost < best.cost
    }
}

#[allow(clippy::too_many_arguments)]
fn search(
    state: &NetworkState,
    query: &CompiledQuery,
    v_q: NodeId,
    subscriber: NodeId,
    order: SearchOrder,
    require_feasible: bool,
    widening: bool,
    source: CandidateSource,
) -> Result<(Plan, SearchStats), SubscribeError> {
    let mut stats = SearchStats::default();
    let mut parts: Vec<PlanPart> = Vec::new();
    let peers = state.topo.peer_count();
    // Scratch buffers, reused across peers and inputs: the candidates at
    // the visited peer, which chains this input's search has looked up,
    // and the graph search's marks and frontier.
    let mut scratch: Vec<(FlowId, ChainId)> = Vec::new();
    let mut consulted: Vec<bool> = Vec::new();
    let mut marked = vec![false; peers];
    let mut queued = vec![false; peers];
    let mut frontier: VecDeque<NodeId> = VecDeque::new();

    // Line 2: iterate over the properties of all input data streams of q.
    for wanted in query.properties.inputs() {
        let stream = wanted.stream();
        // Lines 3–6: initialization. The initial plan reuses the original
        // registered stream at the super-peer it is registered at.
        let &source_flow = state
            .source_flows
            .get(stream)
            .ok_or_else(|| SubscribeError::UnknownStream(stream.to_string()))?;
        if state.deployment.flow(source_flow).retired {
            return Err(SubscribeError::Unreachable(stream.to_string()));
        }
        let v_b = state.deployment.flow(source_flow).target_node();
        // One trace span per input stream's graph search. Every recording
        // call below is a no-op branch unless tracing is enabled.
        let _search_span = dss_telemetry::span("subscribe_input", || {
            [
                ("stream", Value::from(stream)),
                ("v_b", state.topo.peer(v_b).name.as_str().into()),
                ("v_q", state.topo.peer(v_q).name.as_str().into()),
            ]
        });
        let (built_before, judged_before) = (stats.parts_built, stats.judged);
        let mut best = generate_plan_part(state, wanted, source_flow, v_b, v_q)
            .ok_or_else(|| SubscribeError::Unreachable(stream.to_string()))?;
        stats.plans_generated += 1;
        stats.parts_built += 1;
        dss_telemetry::event("candidate", || {
            [
                (
                    "flow",
                    state.deployment.flow(source_flow).label.as_str().into(),
                ),
                ("peer", state.topo.peer(v_b).name.as_str().into()),
                ("outcome", Value::from("initial")),
                ("cost", best.cost.into()),
                ("traffic", best.traffic.into()),
                ("load", best.load.into()),
                ("feasible", best.feasible.into()),
            ]
        });
        // What there is to beat, and the matched candidate that set it, if
        // one did: lines 19–22 keep one number per candidate, so the
        // leader is remembered as what it takes to build it and built
        // once, after the loop.
        let mut best_cost = best.part_cost();
        let mut leader: Option<(FlowId, NodeId)> = None;
        // Fixed per search: the subscription's own chain estimate — what
        // every candidate part transports, whatever it taps.
        let wanted_estimate = best.estimate;
        let rate_kbps = wanted_estimate.kbps();
        // Pre-digested match pre-filters for the indexed lookup. Widening
        // must see some *non-matching* variants too — but only the
        // widenable (selection/projection-only) ones can ever yield a
        // widening plan, so the indexed path unions the lens-matched
        // candidates with the catalog's widenable-chain index instead of
        // enumerating every variant.
        let lens = match source {
            CandidateSource::Indexed => Some(QueryLens::of(wanted)),
            CandidateSource::FullScan => None,
        };
        // Per-chain lens verdicts, memoized across every peer this input's
        // search visits (a chain flowing past many peers is judged once).
        let mut verdicts = dss_network::LensVerdicts::default();
        // `judge` per interned chain: flows with the same chain id carry
        // byte-identical input properties, so the match and the residual
        // operators' load are pure functions of the two chains and need
        // only run once per pair — ever: the catalog keeps the row between
        // searches. Outer `None` = not judged yet. The reference search
        // remembers nothing and borrows nothing.
        let mut chain_memo = match source {
            CandidateSource::Indexed => Some(state.deployment.verdicts_for(wanted)),
            CandidateSource::FullScan => None,
        };
        let mut remembered = 0;
        consulted.clear();
        consulted.resize(state.deployment.distinct_chains(), false);

        marked.fill(false);
        queued.fill(false);
        frontier.push_back(v_b);
        queued[v_b] = true;

        // Lines 7–25: the pruned graph search.
        while let Some(v) = match order {
            SearchOrder::Bfs => frontier.pop_front(),
            SearchOrder::Dfs => frontier.pop_back(),
        } {
            if marked[v] {
                continue;
            }
            marked[v] = true;
            stats.nodes_visited += 1;
            dss_telemetry::event("visit", || {
                [("peer", Value::from(state.topo.peer(v).name.as_str()))]
            });
            // Fixed per tap node: with the transported rate fixed per
            // input, the route's half of every candidate's cost at this
            // peer (the topology remembers the route itself).
            let route_to_vq = state
                .topo
                .route(v, v_q)
                .map(|route| RouteCost::of(state, &route, rate_kbps));
            // Lines 9–11: streams available at v that are variants of the
            // input stream.
            match source {
                CandidateSource::Indexed => {
                    let lens = lens.as_ref().expect("indexed search builds a lens");
                    state
                        .deployment
                        .candidates_into(v, stream, lens, &mut verdicts, &mut scratch);
                    if widening {
                        // Sorted-dedup union: a widenable chain may also be
                        // a lens match (both lists are ascending and short).
                        scratch.extend(state.deployment.widenable_at(v, stream).iter().map(
                            |&id| {
                                let chain = state.deployment.chain_of(id, stream);
                                (id, chain.expect("indexed flows have an interned chain"))
                            },
                        ));
                        scratch.sort_unstable();
                        scratch.dedup();
                    }
                }
                CandidateSource::FullScan => {
                    // The reference judges every candidate directly and
                    // never reads the chain id.
                    scratch.clear();
                    scratch.extend(
                        (0..state.deployment.len())
                            .filter(|&i| {
                                let f = state.deployment.flow(i);
                                !f.retired && f.properties.is_some() && f.available_at(v)
                            })
                            .map(|i| (i, ChainId::MAX)),
                    );
                }
            }
            for &(flow_id, chain) in &scratch {
                let flow = state.deployment.flow(flow_id);
                let Some(candidate) = flow.properties.as_ref().and_then(|p| p.input_for(stream))
                else {
                    continue;
                };
                stats.candidates_matched += 1;
                let verdict = match &mut chain_memo {
                    Some(memo) => {
                        let first_look = !std::mem::replace(&mut consulted[chain], true);
                        match memo[chain] {
                            Some(known) => {
                                remembered += usize::from(first_look);
                                known
                            }
                            None => {
                                stats.judged += 1;
                                *memo[chain].insert(judge(candidate, wanted))
                            }
                        }
                    }
                    None => {
                        stats.judged += 1;
                        judge(candidate, wanted)
                    }
                };
                let Some(bload) = verdict else {
                    // The losing check is only diagnosed when someone is
                    // recording: the hot path keeps the boolean match.
                    dss_telemetry::event("candidate", || {
                        let reason = match explain_match_input_properties(candidate, wanted) {
                            Err(failure) => failure.check_name(),
                            Ok(()) => "MatchProperties",
                        };
                        [
                            ("flow", Value::from(flow.label.as_str())),
                            ("peer", state.topo.peer(v).name.as_str().into()),
                            ("outcome", Value::from("rejected")),
                            ("reason", reason.into()),
                        ]
                    });
                    // Widening extension: a non-matching stream may still be
                    // usable after loosening its operators in place. That
                    // path builds its part eagerly.
                    if widening {
                        if let Some(plan) = generate_widening_part(state, wanted, flow_id, v, v_q) {
                            // A widenable stream can be tapped anywhere on
                            // its route, so the route's peers join the
                            // frontier just like a matched stream's.
                            for &n in &flow.route {
                                if !marked[n] && !queued[n] {
                                    frontier.push_back(n);
                                    queued[n] = true;
                                }
                            }
                            stats.plans_generated += 1;
                            stats.parts_built += 1;
                            let better = beats(plan.part_cost(), best_cost, require_feasible);
                            dss_telemetry::event("candidate", || {
                                [
                                    ("flow", Value::from(flow.label.as_str())),
                                    ("peer", state.topo.peer(v).name.as_str().into()),
                                    ("outcome", Value::from("widened")),
                                    ("cost", plan.cost.into()),
                                    ("traffic", plan.traffic.into()),
                                    ("load", plan.load.into()),
                                    ("feasible", plan.feasible.into()),
                                    ("chosen", better.into()),
                                ]
                            });
                            if better {
                                best_cost = plan.part_cost();
                                leader = None;
                                best = plan;
                            }
                        }
                    }
                    continue;
                };
                stats.matches += 1;
                // Lines 15–18 extend the frontier with the matched stream's
                // target node `getTNode(p)`. We additionally enqueue every
                // peer on the stream's route: the stream is available (and
                // can be duplicated) at each of them, and the paper's own
                // motivating example reuses Query 1's stream at SP5 —
                // mid-route, not at its target SP1. This matches the
                // paper's remark that the search only follows connections
                // carrying (matching) streams.
                for &n in &flow.route {
                    if !marked[n] && !queued[n] {
                        frontier.push_back(n);
                        queued[n] = true;
                    }
                }
                // Lines 19–22: cost the plan reusing the stream at v and
                // compare.
                let Some(route_cost) = route_to_vq else {
                    continue;
                };
                let cost = cost_part(state, route_cost, flow_id, v, bload);
                stats.plans_generated += 1;
                let better = beats(cost, best_cost, require_feasible);
                dss_telemetry::event("candidate", || {
                    [
                        ("flow", Value::from(flow.label.as_str())),
                        ("peer", state.topo.peer(v).name.as_str().into()),
                        ("outcome", Value::from("matched")),
                        ("cost", cost.cost.into()),
                        ("traffic", cost.traffic.into()),
                        ("load", cost.load.into()),
                        ("feasible", cost.feasible.into()),
                        ("chosen", better.into()),
                    ]
                });
                if better {
                    best_cost = cost;
                    leader = Some((flow_id, v));
                }
            }
        }
        if let Some((flow_id, v)) = leader {
            let flow = state.deployment.flow(flow_id);
            let candidate = flow.properties.as_ref().and_then(|p| p.input_for(stream));
            let route = state.topo.route(v, v_q);
            best = PlanPart::build(
                stream,
                flow_id,
                v,
                residual_flow_ops(candidate.expect("the leader was judged"), wanted),
                route.expect("the leader was costed over a route").to_vec(),
                wanted_estimate,
                best_cost,
            );
            stats.parts_built += 1;
        }
        dss_telemetry::event("best", || {
            [
                (
                    "flow",
                    Value::from(state.deployment.flow(best.tap_flow).label.as_str()),
                ),
                ("peer", state.topo.peer(best.tap_node).name.as_str().into()),
                ("cost", best.cost.into()),
                ("traffic", best.traffic.into()),
                ("load", best.load.into()),
                ("feasible", best.feasible.into()),
            ]
        });
        dss_telemetry::add_field("parts_built", || (stats.parts_built - built_before).into());
        let judged = stats.judged - judged_before;
        dss_telemetry::add_field("judged", || judged.into());
        dss_telemetry::counter_add("core.verdicts.judged", Vec::new, judged as u64);
        dss_telemetry::counter_add("core.verdicts.remembered", Vec::new, remembered as u64);
        parts.push(best);
    }

    let plan = assemble_plan(state, query, parts, Vec::new(), v_q, subscriber);
    if require_feasible && !plan.feasible {
        return Err(SubscribeError::Overload);
    }
    Ok((plan, stats))
}
