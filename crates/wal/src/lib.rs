//! # dss-wal — per-peer write-ahead log
//!
//! A hand-rolled, std-only durability log for StreamGlobe peers. Every
//! record travels as one CRC-32 frame (the same `[len u32 LE][crc u32 LE]
//! [payload]` layout as the `dss_proto` wire, same LEB128 varint payload
//! discipline), appended to size-rotated segment files with batched
//! fsyncs. Replay tolerates a torn tail: a broken record in the *final*
//! segment ends the log at the last good record (the unsynced tail a
//! crash legitimately loses), while a broken record in any earlier
//! segment — or a gap in the segment numbering — is typed corruption the
//! caller must treat as "no usable log" (fall back to replan-from-
//! scratch). Nothing in this crate panics on hostile bytes.
//!
//! Record kinds ([`WalRecord`]) are exactly what a recovery path reads:
//!
//! * **Checkpoints** — sink-tagged [`OpState`](dss_engine::OpState)
//!   snapshots of a sharing group's operator DAG plus the input offset
//!   they are consistent with and the group's per-flow emit counters.
//!   Restoring the snapshot and re-fetching only the input tail past the
//!   offset reproduces the exact pre-crash stream, byte for byte.
//! * **Control-plane records** (`Deploy`/`Undeploy`/`RunStart`/`RunGo`/`RunDone`)
//!   — a restarted `dss serve` process replays them through the planner
//!   to rebuild its deterministic registration replica (admission state
//!   included: it is a function of the registration sequence) and rejoin
//!   an in-flight run.

mod log;
mod record;
pub mod state_codec;

pub use crate::log::{
    replay, truncate_to_records, Replay, WalOptions, WalWriter, SEGMENT_PREFIX, SEGMENT_SUFFIX,
};
pub use crate::record::WalRecord;

use dss_proto::DecodeError;

/// Why one record payload failed to decode (frame CRC was fine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The payload's primitive structure is malformed.
    Decode(DecodeError),
    /// The payload decoded but violates a semantic invariant (bad tag,
    /// out-of-range decimal scale, invalid window spec, bad path step).
    Invalid(&'static str),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Decode(e) => write!(f, "malformed record payload: {e}"),
            RecordError::Invalid(what) => write!(f, "invalid record field: {what}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<DecodeError> for RecordError {
    fn from(e: DecodeError) -> RecordError {
        RecordError::Decode(e)
    }
}

/// Anything that can go wrong writing or replaying a log.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Structural corruption replay cannot attribute to a torn tail: a
    /// broken record before the final segment's end, a gap in the segment
    /// numbering, or an unparsable segment file name. The log is not
    /// trustworthy; recovery must fall back to replan-from-scratch.
    Corrupt {
        /// Segment file name (or `"<dir>"` for directory-level issues).
        segment: String,
        /// Human-readable cause.
        detail: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { segment, detail } => {
                write!(f, "wal corrupt in {segment}: {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}
