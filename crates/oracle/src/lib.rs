//! Reference oracle for WXQuery evaluation.
//!
//! The whole premise of data stream sharing (Kuntschke & Kemper, EDBT
//! 2006) is that a reused, pre-processed stream is *semantically
//! equivalent* to evaluating the new subscription from scratch. After the
//! engine grew fused operator DAGs, three planning strategies, and a live
//! runtime with failover, that equivalence deserves a machine-checked
//! witness: this crate provides it.
//!
//! - [`interpreter`] is a deliberately naive, tree-at-a-time WXQuery
//!   interpreter working directly on the parsed AST over a materialized
//!   stream. It shares **zero execution code** with `dss_engine`: windows,
//!   aggregates, predicate evaluation, and `return`-clause instantiation
//!   are all re-derived from the paper's definitions. Anything the engine
//!   and the oracle both get wrong must be wrong *independently*.
//! - [`harness`] is the differential test harness: random streams,
//!   queries, topologies, and fault scripts, plus the four end-to-end
//!   equivalences (pipeline ≡ oracle, fused DAGs ≡ each query alone, all
//!   strategies agree, live post-recovery ≡ oracle on the suffix) and the
//!   metamorphic checks of the matching layer. Failing cases shrink to
//!   minimal readable queries before they are reported.

pub mod harness;
pub mod interpreter;

pub use interpreter::{evaluate, Oracle, OracleError, OracleResult};
