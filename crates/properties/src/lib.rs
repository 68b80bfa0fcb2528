//! Properties of subscriptions and data streams (paper Section 3.1) and the
//! matching algorithms `MatchProperties` (Algorithm 2) and
//! `MatchAggregations` (Section 3.3).
//!
//! Subscriptions and data streams are represented *symmetrically*: a
//! subscription produces a result stream, and every stream is the result of
//! some subscription. Both are described by [`properties::Properties`]: per
//! original input data stream, a chain of [`operator::Operator`]s with their
//! conditions (selection predicate graphs, projection element sets, window
//! specifications, aggregation operators).
//!
//! Matching a new subscription's properties against the properties of a
//! stream already flowing in the network decides whether that stream can be
//! *shared* to answer the subscription.

pub mod matching;
pub mod operator;
pub mod properties;
pub mod window;

pub use matching::{match_input_properties, residual_operators, widen_input, MatchFailure, Wanted};
pub use operator::{
    AggOp, AggregationSpec, Operator, ProjectionSpec, ResultFilter, WindowOutputSpec,
};
pub use properties::{InputProperties, Properties, PropertiesError};
pub use window::{WindowError, WindowKind, WindowSpec};
