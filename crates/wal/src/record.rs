//! The WAL record vocabulary and its payload codec. Each record is the
//! payload of one CRC frame in a segment file (see [`crate::log`]).

use dss_engine::OpState;
use dss_proto::wire::{put_str, put_u64, Reader};

use crate::state_codec::{get_op_state, put_op_state};
use crate::RecordError;

const TAG_CHECKPOINT: u8 = 1;
// Tags 2–5 (forwarding/delivery marks, admission charges) are retired:
// nothing ever replayed them. They stay unassigned so a tag keeps one
// meaning across every log on disk.
const TAG_DEPLOY: u8 = 6;
const TAG_UNDEPLOY: u8 = 7;
const TAG_RUN_START: u8 = 8;
const TAG_RUN_DONE: u8 = 9;

/// One durable event in a peer's write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Consistent snapshot of one sharing group's operator DAG.
    ///
    /// `consumed` is the number of group input items folded into the
    /// snapshot; `emits` holds the per-member-flow output counters as of
    /// the snapshot (`(flow, next_output_index)`), so a recovering peer
    /// re-assigns the *same* output indices to replayed items and
    /// downstream consumers can deduplicate exactly. `states` carries the
    /// sink-tagged [`OpState`] snapshots of every stateful operator, in
    /// the DAG's deterministic export order.
    Checkpoint {
        /// Stable group key at the logging peer.
        group: u64,
        /// Input items consumed by the snapshot state.
        consumed: u64,
        /// `(flow, next output index)` per member flow.
        emits: Vec<(u64, u64)>,
        /// Sink-tagged operator state snapshots.
        states: Vec<(u64, OpState)>,
    },
    /// Control-plane replication: one registration, in coordinator
    /// sequence order (mirrors `dss_proto::Message::Deploy`).
    Deploy {
        seq: u64,
        id: String,
        at_peer: String,
        strategy: u8,
        text: String,
    },
    /// Control-plane replication: one unregistration.
    Undeploy { seq: u64, id: String },
    /// A run began replaying sources through the deployed flows.
    RunStart { run: u64 },
    /// The run drained; its data-plane records are obsolete.
    RunDone { run: u64 },
}

impl WalRecord {
    /// Encodes the record payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            WalRecord::Checkpoint {
                group,
                consumed,
                emits,
                states,
            } => {
                out.push(TAG_CHECKPOINT);
                put_u64(&mut out, *group);
                put_u64(&mut out, *consumed);
                put_u64(&mut out, emits.len() as u64);
                for (flow, next) in emits {
                    put_u64(&mut out, *flow);
                    put_u64(&mut out, *next);
                }
                put_u64(&mut out, states.len() as u64);
                for (sink, state) in states {
                    put_u64(&mut out, *sink);
                    put_op_state(&mut out, state);
                }
            }
            WalRecord::Deploy {
                seq,
                id,
                at_peer,
                strategy,
                text,
            } => {
                out.push(TAG_DEPLOY);
                put_u64(&mut out, *seq);
                put_str(&mut out, id);
                put_str(&mut out, at_peer);
                out.push(*strategy);
                put_str(&mut out, text);
            }
            WalRecord::Undeploy { seq, id } => {
                out.push(TAG_UNDEPLOY);
                put_u64(&mut out, *seq);
                put_str(&mut out, id);
            }
            WalRecord::RunStart { run } => {
                out.push(TAG_RUN_START);
                put_u64(&mut out, *run);
            }
            WalRecord::RunDone { run } => {
                out.push(TAG_RUN_DONE);
                put_u64(&mut out, *run);
            }
        }
        out
    }

    /// Decodes one record from a frame payload. The payload must contain
    /// exactly one record.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, RecordError> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            TAG_CHECKPOINT => {
                let group = r.u64()?;
                let consumed = r.u64()?;
                let n = r.u64()?;
                let mut emits = Vec::new();
                for _ in 0..n {
                    let flow = r.u64()?;
                    emits.push((flow, r.u64()?));
                }
                let n = r.u64()?;
                let mut states = Vec::new();
                for _ in 0..n {
                    let sink = r.u64()?;
                    states.push((sink, get_op_state(&mut r)?));
                }
                WalRecord::Checkpoint {
                    group,
                    consumed,
                    emits,
                    states,
                }
            }
            TAG_DEPLOY => WalRecord::Deploy {
                seq: r.u64()?,
                id: r.str()?,
                at_peer: r.str()?,
                strategy: r.u8()?,
                text: r.str()?,
            },
            TAG_UNDEPLOY => WalRecord::Undeploy {
                seq: r.u64()?,
                id: r.str()?,
            },
            TAG_RUN_START => WalRecord::RunStart { run: r.u64()? },
            TAG_RUN_DONE => WalRecord::RunDone { run: r.u64()? },
            _ => return Err(RecordError::Invalid("record tag")),
        };
        r.finish()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_predicate::PredicateGraph;
    use dss_properties::{AggOp, AggregationSpec, ResultFilter, WindowSpec};
    use dss_xml::{Decimal, Path};

    fn sample_records() -> Vec<WalRecord> {
        let spec = AggregationSpec {
            op: AggOp::Sum,
            element: "en".parse::<Path>().unwrap(),
            window: WindowSpec::diff(
                "det_time".parse::<Path>().unwrap(),
                "20".parse::<Decimal>().unwrap(),
                Some("10".parse::<Decimal>().unwrap()),
            )
            .unwrap(),
            pre_selection: PredicateGraph::new(),
            result_filter: ResultFilter::none(),
        };
        vec![
            WalRecord::RunStart { run: 1 },
            WalRecord::Deploy {
                seq: 1,
                id: "q1".into(),
                at_peer: "SP3".into(),
                strategy: 2,
                text: "wxquery { ... }".into(),
            },
            WalRecord::Checkpoint {
                group: 3,
                consumed: 11,
                emits: vec![(7, 4), (9, 2)],
                states: vec![(
                    7,
                    OpState::Agg {
                        spec,
                        open: vec![],
                        youngest_start: None,
                        items_seen: 11,
                    },
                )],
            },
            WalRecord::Checkpoint {
                group: 4,
                consumed: 0,
                emits: vec![(8, 0)],
                states: Vec::new(),
            },
            WalRecord::Undeploy {
                seq: 2,
                id: "q1".into(),
            },
            WalRecord::RunDone { run: 1 },
        ]
    }

    #[test]
    fn every_record_kind_round_trips() {
        for rec in sample_records() {
            let payload = rec.encode();
            let back = WalRecord::decode(&payload).expect("decodes");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn unknown_tag_is_typed() {
        assert_eq!(
            WalRecord::decode(&[200]),
            Err(RecordError::Invalid("record tag"))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = WalRecord::RunStart { run: 9 }.encode();
        payload.push(0);
        assert!(matches!(
            WalRecord::decode(&payload),
            Err(RecordError::Decode(_))
        ));
    }

    #[test]
    fn truncations_never_decode() {
        for rec in sample_records() {
            let payload = rec.encode();
            for cut in 0..payload.len() {
                assert!(
                    WalRecord::decode(&payload[..cut]).is_err(),
                    "{rec:?} cut at {cut} must not decode"
                );
            }
        }
    }
}
