//! The super-peer P2P network substrate and simulator.
//!
//! The paper evaluates StreamGlobe on a blade cluster; this crate replaces
//! that testbed with a faithful discrete simulator (see DESIGN.md's
//! substitution table): [`topology`] models super-peer backbones with
//! bandwidths and peer capacities, [`routing`] provides shortest paths,
//! [`flow`] describes the deployed streams (with *taps* modeling stream
//! duplication for sharing), and [`sim`] executes the very same operator
//! pipelines over the very same XML items, charging connections by exact
//! serialized bytes and peers by operator plus forwarding work.

//! The live counterpart lives in [`runtime`]: a deterministic
//! discrete-event scheduler with timestamped items, bounded per-peer
//! mailboxes, link latencies, and scripted fault injection.
//!
//! Both — and the TCP data plane of `dss serve` — are drivers of one
//! sans-IO core, [`peer`]: the sharing groups, their DAG execution and
//! output collection, and the route step.

pub mod catalog;
pub mod flow;
mod memo;
pub mod metrics;
pub mod peer;
pub mod pool;
pub mod routing;
pub mod runtime;
pub mod shared;
pub mod sim;
pub mod topology;

pub use catalog::{Catalog, ChainId, Verdict, VerdictLoan};
pub use flow::{Deployment, FlowId, FlowInput, FlowMut, FlowOp, StreamFlow};
pub use metrics::NetworkMetrics;
pub use peer::{Accepted, Contiguity, FlowOutputs, Group, GroupTable, Next, SharingGroups, Step};
pub use pool::{max_parallelism, run_forest};
pub use routing::{distance, path_edges, shortest_path};
pub use runtime::{
    FaultEvent, FaultKind, FaultScript, LiveConfig, LiveRuntime, LoadObservation, MailboxEntry,
    MigrationOutcome, QueryMetrics, RuntimeMetrics, SourceModel, SyncMailbox, WalConfig,
};
pub use shared::{build_flow_op, op_is_stateful, FlowDag, GroupKey};
pub use sim::{run, try_run, ConfigError, SimConfig, SimOutcome};
pub use topology::{
    example_topology, grid_topology, hierarchical_topology, Edge, EdgeId, NodeId, Peer, PeerKind,
    Topology,
};
