//! The three registration strategies compared in the paper's evaluation
//! (Section 4).
//!
//! * **Data shipping** — "simply transmits the whole input data stream for
//!   each query from the data source to the target super-peer using a
//!   shortest path in the network. The whole query evaluation takes place
//!   at the target super-peer."
//! * **Query shipping** — "evaluates each query completely at the
//!   super-peer that the data source is registered at. The query result is
//!   transmitted to the target peer again using a shortest path."
//! * **Stream sharing** — the paper's optimization: Algorithm 1.

use std::fmt;

use dss_network::NodeId;
use dss_wxquery::CompiledQuery;

use crate::cost::StreamEstimate;
use crate::plan::{assemble_plan, full_chain_ops, Plan, PlanPart};
use crate::state::NetworkState;
use crate::subscribe::{subscribe_with, SearchOrder, SubscribeError};

/// Registration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    DataShipping,
    QueryShipping,
    StreamSharing,
}

impl Strategy {
    /// All strategies in the paper's presentation order.
    pub const ALL: [Strategy; 3] = [
        Strategy::DataShipping,
        Strategy::QueryShipping,
        Strategy::StreamSharing,
    ];
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::DataShipping => "data shipping",
            Strategy::QueryShipping => "query shipping",
            Strategy::StreamSharing => "stream sharing",
        };
        write!(f, "{s}")
    }
}

/// Plans a query under the chosen strategy. `v_q` is the subscriber's
/// super-peer, `subscriber` the registering peer itself.
pub fn plan_query(
    state: &NetworkState,
    query: &CompiledQuery,
    v_q: NodeId,
    subscriber: NodeId,
    strategy: Strategy,
    require_feasible: bool,
) -> Result<Plan, SubscribeError> {
    plan_query_with(
        state,
        query,
        v_q,
        subscriber,
        strategy,
        require_feasible,
        false,
    )
}

/// [`plan_query`] with stream widening enabled for the sharing strategy.
#[allow(clippy::too_many_arguments)]
pub fn plan_query_with(
    state: &NetworkState,
    query: &CompiledQuery,
    v_q: NodeId,
    subscriber: NodeId,
    strategy: Strategy,
    require_feasible: bool,
    widening: bool,
) -> Result<Plan, SubscribeError> {
    match strategy {
        Strategy::StreamSharing => subscribe_with(
            state,
            query,
            v_q,
            subscriber,
            SearchOrder::Bfs,
            require_feasible,
            widening,
        )
        .map(|(plan, _)| plan),
        Strategy::DataShipping => fixed_plan(
            state,
            query,
            v_q,
            subscriber,
            Placement::AtSubscriber,
            require_feasible,
        ),
        Strategy::QueryShipping => fixed_plan(
            state,
            query,
            v_q,
            subscriber,
            Placement::AtSource,
            require_feasible,
        ),
    }
}

enum Placement {
    /// Data shipping: raw stream to `v_q`, evaluate there.
    AtSubscriber,
    /// Query shipping: evaluate at the source's super-peer, ship the result.
    AtSource,
}

fn fixed_plan(
    state: &NetworkState,
    query: &CompiledQuery,
    v_q: NodeId,
    subscriber: NodeId,
    placement: Placement,
    require_feasible: bool,
) -> Result<Plan, SubscribeError> {
    let mut parts = Vec::new();
    let mut extra_post_ops = Vec::new();
    for wanted in query.properties.inputs() {
        let stream = wanted.stream();
        let &source_flow = state
            .source_flows
            .get(stream)
            .ok_or_else(|| SubscribeError::UnknownStream(stream.to_string()))?;
        let v_b = state.deployment.flow(source_flow).target_node();
        let stats = state
            .stats(stream)
            .ok_or_else(|| SubscribeError::UnknownStream(stream.to_string()))?;
        // The stream exists but no live route reaches it: that is
        // `Unreachable`, not `UnknownStream`.
        let route = state
            .topo
            .route(v_b, v_q)
            .ok_or_else(|| SubscribeError::Unreachable(stream.to_string()))?
            .to_vec();
        let (ops, estimate) = match placement {
            Placement::AtSubscriber => {
                // Ship the raw stream; evaluate in post-processing.
                extra_post_ops.extend(full_chain_ops(query));
                (
                    Vec::new(),
                    StreamEstimate {
                        item_size: stats.item_size,
                        frequency: stats.frequency,
                    },
                )
            }
            Placement::AtSource => (
                full_chain_ops(query),
                crate::cost::estimate_chain(stats, wanted.operators()),
            ),
        };
        parts.push(PlanPart::cost_and_build(
            state,
            stream,
            source_flow,
            v_b,
            ops,
            route,
            estimate,
        ));
    }
    let plan = assemble_plan(state, query, parts, extra_post_ops, v_q, subscriber);
    if require_feasible && !plan.feasible {
        return Err(SubscribeError::Overload);
    }
    Ok(plan)
}
