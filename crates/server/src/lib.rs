//! `dss-server`: the real networked deployment mode.
//!
//! One OS process per super-peer ([`serve`]), speaking the `dss-proto`
//! binary wire protocol over TCP. The process map is a pure function of
//! the topology name ([`spec::NetMap`]), the control plane is a replicated
//! registration log (every process replays the coordinator's deterministic
//! planner decisions), and the data plane replays each source stream
//! through the same sharing groups the batch simulator forms — which is
//! why a loopback deployment reproduces `StreamGlobe::run_simulation`'s
//! per-query outputs byte for byte.

mod client;
mod cluster;
mod data;
mod peer;
mod signal;
pub mod spec;
mod wire;

pub use client::{Client, ClientEvent, RunOutput, SubscribeReply};
pub use cluster::{ClusterOptions, LocalCluster};
pub use peer::{serve, PeerOptions};
pub use spec::{NetMap, ServeSpec, DEFAULT_PORT_BASE};
pub use wire::Conn;

use dss_proto::{ProtoError, WireStrategy};

/// Errors from serving, dialing, or driving a deployment.
#[derive(Debug)]
pub enum ServerError {
    Io(std::io::Error),
    Proto(ProtoError),
    /// The remote spoke, but not the expected message.
    Handshake(String),
    Timeout(String),
    /// The remote rejected a request with a typed `Fault`.
    Fault {
        context: String,
        message: String,
    },
    /// Bad deployment configuration (unknown topology/peer, ...).
    Config(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
            ServerError::Proto(e) => write!(f, "protocol error: {e}"),
            ServerError::Handshake(m) => write!(f, "handshake failed: {m}"),
            ServerError::Timeout(m) => write!(f, "timed out {m}"),
            ServerError::Fault { context, message } => {
                write!(f, "remote fault in {context}: {message}")
            }
            ServerError::Config(m) => write!(f, "configuration error: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

impl From<ProtoError> for ServerError {
    fn from(e: ProtoError) -> ServerError {
        ServerError::Proto(e)
    }
}

/// Wire strategy -> planner strategy.
pub fn to_core_strategy(s: WireStrategy) -> dss_core::Strategy {
    match s {
        WireStrategy::DataShipping => dss_core::Strategy::DataShipping,
        WireStrategy::QueryShipping => dss_core::Strategy::QueryShipping,
        WireStrategy::StreamSharing => dss_core::Strategy::StreamSharing,
    }
}

/// Planner strategy -> wire strategy.
pub fn to_wire_strategy(s: dss_core::Strategy) -> WireStrategy {
    match s {
        dss_core::Strategy::DataShipping => WireStrategy::DataShipping,
        dss_core::Strategy::QueryShipping => WireStrategy::QueryShipping,
        dss_core::Strategy::StreamSharing => WireStrategy::StreamSharing,
    }
}
