//! Executable continuous-query operators over XML data streams.
//!
//! This crate turns the *descriptions* stored in properties
//! ([`dss_properties`]) into running operators: selection, projection,
//! window-based aggregation, re-aggregation of shared partial aggregates
//! (Figure 5 of the paper), and the restructuring post-processing step that
//! materializes each query's `return` clause.
//!
//! Operators implement [`op::StreamOperator`] and run in an [`OpDag`] —
//! many chains sharing their common prefixes, or one chain alone
//! ([`OpDag::chain`]) — which also accounts for the per-operator work that
//! feeds the cost model's peer-load estimates.

pub mod agg_item;
pub mod aggregate;
pub mod build;
pub mod dag;
pub mod migrate;
pub mod op;
pub mod project;
pub mod reaggregate;
pub mod restructure;
pub mod retile;
pub mod select;
pub mod trie;
pub mod window_contents;
pub mod window_track;

pub use agg_item::AggItem;
pub use aggregate::AggregateOp;
pub use build::{build_operator, UdfOp};
pub use dag::{DagNodeStats, OpDag, OpStats, SinkBatch};
pub use migrate::{MigrationReport, OpState};
pub use op::{Emit, StreamOperator};
pub use project::ProjectOp;
pub use reaggregate::ReAggregateOp;
pub use restructure::{RestructureOp, Template};
pub use select::SelectOp;
pub use trie::{PrefixTrie, SinkId, TrieNode};
pub use window_contents::{ReWindowOp, WindowContentsOp, WindowItem};
pub use window_track::WindowTracker;
