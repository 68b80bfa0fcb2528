//! # dss-proto — the StreamGlobe wire protocol
//!
//! A hand-rolled, std-only binary protocol for networked deployments
//! (`dss serve` / `dss client`). Every message is one CRC-framed,
//! length-prefixed frame (see [`frame`]); payloads use LEB128 varints,
//! length-prefixed UTF-8 strings, and a lossless binary [`Node`] encoding
//! (see [`wire`]).
//!
//! Two ways to read a payload. [`Message::decode`] yields an owned
//! [`Message`], trees and all — what a consumer wants. A relay wants less:
//! for the two item-carrying messages, [`BatchView::parse`] reads the
//! header and the item framing (every item carries its encoded length)
//! and no item, and the items can be forwarded as the bytes they arrived
//! as. The first process that reads an item checks it
//! ([`ItemsView::materialise`]); `decode` is `parse` followed by that
//! read (see [`batch`]).
//!
//! Versioning: a connection opens with [`Message::Hello`] carrying the
//! sender's supported `[min_version, max_version]` range; the acceptor
//! picks the highest mutually supported version ([`negotiate`]) and
//! answers [`Message::HelloAck`], or [`Message::Fault`]s when the ranges
//! do not overlap. Frames that fail CRC, exceed the length cap, or decode
//! to malformed payloads produce typed errors — never panics — so one bad
//! peer cannot take a server down.

use std::io::{Read, Write};

use dss_xml::Node;

pub mod batch;
pub mod crc;
pub mod frame;
pub mod wire;

pub use batch::{BatchDest, BatchHeader, BatchView, ItemsView};
pub use crc::crc32;
pub use frame::{
    read_frame, read_frame_into, write_frame, write_frame_in, write_frame_with, MAX_FRAME_LEN,
};

use wire::{put_bool, put_items, put_str, put_u16, put_u32, put_u64, Reader};

/// Lowest protocol version this build can speak.
///
/// Version 2 added per-flow item offsets to `StreamItemBatch` and
/// `Deliver` (the receiver-side deduplication basis for crash recovery)
/// plus the `ResumeFrom` resend request. Version 3 prefixes each item of
/// those two messages with its encoded length ([`wire::put_items`]), so a
/// relay need not read an item to find the next. A fleet runs one build,
/// so each bump moved the floor with the ceiling: an older peer is refused
/// at `Hello`.
pub const VERSION_MIN: u16 = 3;
/// Highest protocol version this build can speak.
pub const VERSION_MAX: u16 = 3;

/// Picks the highest version both ranges support, if any.
pub fn negotiate(a_min: u16, a_max: u16, b_min: u16, b_max: u16) -> Option<u16> {
    let lo = a_min.max(b_min);
    let hi = a_max.min(b_max);
    (lo <= hi).then_some(hi)
}

/// What kind of endpoint opened the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Another super-peer server process.
    Peer,
    /// A subscribing client.
    Client,
}

/// Wire form of the planning strategy — kept independent of `dss-core` so
/// the protocol crate stays leaf-level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStrategy {
    DataShipping,
    QueryShipping,
    StreamSharing,
}

impl WireStrategy {
    /// The strategy's byte on the wire and in WAL records.
    pub fn to_u8(self) -> u8 {
        match self {
            WireStrategy::DataShipping => 0,
            WireStrategy::QueryShipping => 1,
            WireStrategy::StreamSharing => 2,
        }
    }

    /// The strategy a wire or WAL byte names; unknown bytes are an error.
    pub fn from_u8(b: u8) -> Result<WireStrategy, DecodeError> {
        match b {
            0 => Ok(WireStrategy::DataShipping),
            1 => Ok(WireStrategy::QueryShipping),
            2 => Ok(WireStrategy::StreamSharing),
            other => Err(DecodeError::BadStrategy(other)),
        }
    }
}

/// A decoded protocol message. See the field docs for who sends what.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Connection opener (both directions): supported version range plus
    /// the sender's role and display name.
    Hello {
        min_version: u16,
        max_version: u16,
        role: Role,
        name: String,
    },
    /// Accepts a `Hello`, fixing the negotiated version.
    HelloAck {
        version: u16,
        peer: String,
    },
    /// Client → coordinator: register a WXQuery subscription.
    Subscribe {
        id: String,
        at_peer: String,
        strategy: WireStrategy,
        text: String,
    },
    /// Coordinator → client: the installed plan. `cost_bits` is the
    /// plan's total cost as `f64::to_bits` (exact, no decimal rounding).
    SubscribeOk {
        id: String,
        delivery_flow: u64,
        reused: bool,
        cost_bits: u64,
        plan: String,
    },
    /// Client → coordinator: retire a subscription.
    Unsubscribe {
        id: String,
    },
    UnsubscribeOk {
        id: String,
    },
    /// Coordinator → peers: replicate one registration (peers replay it
    /// on their local deterministic replica). `seq` totally orders the
    /// control plane.
    Deploy {
        seq: u64,
        id: String,
        at_peer: String,
        strategy: WireStrategy,
        text: String,
    },
    /// Coordinator → peers: replicate an unregistration.
    Undeploy {
        seq: u64,
        id: String,
    },
    /// Generic acknowledgement of a sequenced control message.
    Ack {
        seq: u64,
    },
    /// Client → coordinator → peers: replay every registered source
    /// stream through the deployed flows. Peers build their data plane
    /// and `Ack` before any item moves.
    StartRun {
        run: u64,
    },
    /// Coordinator → peers, after all `StartRun` acks: sources may fire.
    RunGo {
        run: u64,
    },
    /// Coordinator → run requester: every delivery flow reached
    /// end-of-stream; `delivered` counts items handed to clients.
    RunDone {
        run: u64,
        delivered: u64,
    },
    /// Peer → peer data plane: a batch of items for `flow` arriving at
    /// route hop `hop`. `eos` marks the flow's end-of-stream (the batch
    /// may be empty then). `offset` is the index of the batch's first
    /// item in the flow's output sequence — assigned once at the flow's
    /// origin and identical at every hop, so a receiver that tracks its
    /// contiguous high-water mark can discard crash-recovery resends it
    /// has already processed.
    StreamItemBatch {
        run: u64,
        flow: u64,
        hop: u32,
        offset: u64,
        eos: bool,
        items: Vec<Node>,
    },
    /// Coordinator → client: result items for one subscribed query.
    /// `offset` indexes the batch's first item in the query's delivery
    /// sequence (same dedup discipline as `StreamItemBatch`).
    Deliver {
        run: u64,
        query: String,
        offset: u64,
        eos: bool,
        items: Vec<Node>,
    },
    /// Client → any peer: request a telemetry snapshot.
    MetricsPull,
    /// The snapshot, as `dss_telemetry::snapshot_json()` (validates
    /// against `schemas/trace.schema.json`).
    MetricsSnapshot {
        json: String,
    },
    /// Any → any: a request failed; `context` names the operation.
    Fault {
        context: String,
        message: String,
    },
    /// Client → coordinator: drain in-flight work, flush final metrics,
    /// stop every peer. Acked (seq 0) once the fleet is down.
    Shutdown,
    /// Polite close; the sender will not write again.
    Goodbye,
    /// Restarted peer → upstream peer: resend `flow`'s items destined
    /// for route hop `hop` from offset `offset` onward (plus the flow's
    /// end-of-stream marker if it already passed). The upstream answers
    /// from its in-memory sent-log; receivers ahead of the requested
    /// offset discard the overlap via their contiguous high-water mark.
    ResumeFrom {
        run: u64,
        flow: u64,
        hop: u32,
        offset: u64,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_SUBSCRIBE: u8 = 3;
const TAG_SUBSCRIBE_OK: u8 = 4;
const TAG_UNSUBSCRIBE: u8 = 5;
const TAG_UNSUBSCRIBE_OK: u8 = 6;
const TAG_DEPLOY: u8 = 7;
const TAG_UNDEPLOY: u8 = 8;
const TAG_ACK: u8 = 9;
const TAG_START_RUN: u8 = 10;
const TAG_RUN_GO: u8 = 11;
const TAG_RUN_DONE: u8 = 12;
pub(crate) const TAG_STREAM_ITEM_BATCH: u8 = 13;
pub(crate) const TAG_DELIVER: u8 = 14;
const TAG_METRICS_PULL: u8 = 15;
const TAG_METRICS_SNAPSHOT: u8 = 16;
const TAG_FAULT: u8 = 17;
const TAG_SHUTDOWN: u8 = 18;
const TAG_GOODBYE: u8 = 19;
const TAG_RESUME_FROM: u8 = 20;

/// Why a payload failed to decode. Every variant is a protocol violation
/// by the sender (or corruption the CRC happened to miss).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Payload ended before the message did.
    UnexpectedEnd,
    /// Unknown message tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A varint exceeded 64 bits (or a narrower field's range).
    VarintOverflow,
    /// A node tree nested deeper than [`wire::MAX_NODE_DEPTH`].
    TooDeep,
    /// Bytes remained after the message was fully decoded, or after an
    /// item's node inside the item's declared length.
    TrailingBytes { remaining: usize },
    /// A boolean byte was neither 0 nor 1.
    BadBool(u8),
    /// Unknown role discriminant.
    BadRole(u8),
    /// Unknown strategy discriminant.
    BadStrategy(u8),
    /// A node carried a new element name and the process's name table
    /// already holds [`dss_xml::name::MAX_NAMES`] names.
    TooManyNames,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "payload ended mid-message"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::VarintOverflow => write!(f, "varint out of range"),
            DecodeError::TooDeep => write!(f, "node tree nested too deeply"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
            DecodeError::BadBool(b) => write!(f, "invalid boolean byte {b}"),
            DecodeError::BadRole(b) => write!(f, "unknown role {b}"),
            DecodeError::BadStrategy(b) => write!(f, "unknown strategy {b}"),
            DecodeError::TooManyNames => write!(f, "name table full: new element name refused"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Anything that can go wrong reading or writing the wire.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure.
    Io(std::io::Error),
    /// The stream ended inside a frame (torn write / dropped peer).
    Truncated,
    /// A frame advertised a payload above [`MAX_FRAME_LEN`].
    TooLarge { len: u64 },
    /// Frame payload did not match its CRC header.
    BadCrc { expected: u32, found: u32 },
    /// The frame arrived intact but its payload is not a valid message.
    Decode(DecodeError),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Truncated => write!(f, "stream ended mid-frame (torn write)"),
            ProtoError::TooLarge { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            ProtoError::BadCrc { expected, found } => {
                write!(
                    f,
                    "frame CRC mismatch: header {expected:#010x}, payload {found:#010x}"
                )
            }
            ProtoError::Decode(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> ProtoError {
        ProtoError::Decode(e)
    }
}

impl Message {
    /// Encodes the message payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Appends the message payload (unframed) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello {
                min_version,
                max_version,
                role,
                name,
            } => {
                out.push(TAG_HELLO);
                put_u16(out, *min_version);
                put_u16(out, *max_version);
                out.push(match role {
                    Role::Peer => 0,
                    Role::Client => 1,
                });
                put_str(out, name);
            }
            Message::HelloAck { version, peer } => {
                out.push(TAG_HELLO_ACK);
                put_u16(out, *version);
                put_str(out, peer);
            }
            Message::Subscribe {
                id,
                at_peer,
                strategy,
                text,
            } => {
                out.push(TAG_SUBSCRIBE);
                put_str(out, id);
                put_str(out, at_peer);
                out.push(strategy.to_u8());
                put_str(out, text);
            }
            Message::SubscribeOk {
                id,
                delivery_flow,
                reused,
                cost_bits,
                plan,
            } => {
                out.push(TAG_SUBSCRIBE_OK);
                put_str(out, id);
                put_u64(out, *delivery_flow);
                put_bool(out, *reused);
                put_u64(out, *cost_bits);
                put_str(out, plan);
            }
            Message::Unsubscribe { id } => {
                out.push(TAG_UNSUBSCRIBE);
                put_str(out, id);
            }
            Message::UnsubscribeOk { id } => {
                out.push(TAG_UNSUBSCRIBE_OK);
                put_str(out, id);
            }
            Message::Deploy {
                seq,
                id,
                at_peer,
                strategy,
                text,
            } => {
                out.push(TAG_DEPLOY);
                put_u64(out, *seq);
                put_str(out, id);
                put_str(out, at_peer);
                out.push(strategy.to_u8());
                put_str(out, text);
            }
            Message::Undeploy { seq, id } => {
                out.push(TAG_UNDEPLOY);
                put_u64(out, *seq);
                put_str(out, id);
            }
            Message::Ack { seq } => {
                out.push(TAG_ACK);
                put_u64(out, *seq);
            }
            Message::StartRun { run } => {
                out.push(TAG_START_RUN);
                put_u64(out, *run);
            }
            Message::RunGo { run } => {
                out.push(TAG_RUN_GO);
                put_u64(out, *run);
            }
            Message::RunDone { run, delivered } => {
                out.push(TAG_RUN_DONE);
                put_u64(out, *run);
                put_u64(out, *delivered);
            }
            Message::StreamItemBatch {
                run,
                flow,
                hop,
                offset,
                eos,
                items,
            } => {
                BatchHeader {
                    run: *run,
                    dest: BatchDest::Hop {
                        flow: *flow,
                        hop: *hop,
                    },
                    offset: *offset,
                    eos: *eos,
                }
                .encode_into(out);
                put_items(out, items);
            }
            Message::Deliver {
                run,
                query,
                offset,
                eos,
                items,
            } => {
                BatchHeader {
                    run: *run,
                    dest: BatchDest::Query(query),
                    offset: *offset,
                    eos: *eos,
                }
                .encode_into(out);
                put_items(out, items);
            }
            Message::MetricsPull => out.push(TAG_METRICS_PULL),
            Message::MetricsSnapshot { json } => {
                out.push(TAG_METRICS_SNAPSHOT);
                put_str(out, json);
            }
            Message::Fault { context, message } => {
                out.push(TAG_FAULT);
                put_str(out, context);
                put_str(out, message);
            }
            Message::Shutdown => out.push(TAG_SHUTDOWN),
            Message::Goodbye => out.push(TAG_GOODBYE),
            Message::ResumeFrom {
                run,
                flow,
                hop,
                offset,
            } => {
                out.push(TAG_RESUME_FROM);
                put_u64(out, *run);
                put_u64(out, *flow);
                put_u32(out, *hop);
                put_u64(out, *offset);
            }
        }
    }

    /// Decodes one message from a frame payload. The payload must contain
    /// exactly one message ([`DecodeError::TrailingBytes`] otherwise).
    pub fn decode(payload: &[u8]) -> Result<Message, DecodeError> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            TAG_HELLO => {
                let min_version = r.u16()?;
                let max_version = r.u16()?;
                let role = match r.u8()? {
                    0 => Role::Peer,
                    1 => Role::Client,
                    b => return Err(DecodeError::BadRole(b)),
                };
                Message::Hello {
                    min_version,
                    max_version,
                    role,
                    name: r.str()?,
                }
            }
            TAG_HELLO_ACK => Message::HelloAck {
                version: r.u16()?,
                peer: r.str()?,
            },
            TAG_SUBSCRIBE => Message::Subscribe {
                id: r.str()?,
                at_peer: r.str()?,
                strategy: WireStrategy::from_u8(r.u8()?)?,
                text: r.str()?,
            },
            TAG_SUBSCRIBE_OK => Message::SubscribeOk {
                id: r.str()?,
                delivery_flow: r.u64()?,
                reused: r.bool()?,
                cost_bits: r.u64()?,
                plan: r.str()?,
            },
            TAG_UNSUBSCRIBE => Message::Unsubscribe { id: r.str()? },
            TAG_UNSUBSCRIBE_OK => Message::UnsubscribeOk { id: r.str()? },
            TAG_DEPLOY => Message::Deploy {
                seq: r.u64()?,
                id: r.str()?,
                at_peer: r.str()?,
                strategy: WireStrategy::from_u8(r.u8()?)?,
                text: r.str()?,
            },
            TAG_UNDEPLOY => Message::Undeploy {
                seq: r.u64()?,
                id: r.str()?,
            },
            TAG_ACK => Message::Ack { seq: r.u64()? },
            TAG_START_RUN => Message::StartRun { run: r.u64()? },
            TAG_RUN_GO => Message::RunGo { run: r.u64()? },
            TAG_RUN_DONE => Message::RunDone {
                run: r.u64()?,
                delivered: r.u64()?,
            },
            // The two item-carrying messages have one parser, the view.
            TAG_STREAM_ITEM_BATCH | TAG_DELIVER => {
                return BatchView::parse(payload)?.materialise();
            }
            TAG_METRICS_PULL => Message::MetricsPull,
            TAG_METRICS_SNAPSHOT => Message::MetricsSnapshot { json: r.str()? },
            TAG_FAULT => Message::Fault {
                context: r.str()?,
                message: r.str()?,
            },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_GOODBYE => Message::Goodbye,
            TAG_RESUME_FROM => Message::ResumeFrom {
                run: r.u64()?,
                flow: r.u64()?,
                hop: r.u32()?,
                offset: r.u64()?,
            },
            tag => return Err(DecodeError::BadTag(tag)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Frames and writes one message.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), ProtoError> {
    write_frame_with(w, |buf| msg.encode_into(buf))
}

/// Reads and decodes one message; `Ok(None)` on a clean close.
pub fn read_message(r: &mut impl Read) -> Result<Option<Message>, ProtoError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => Ok(Some(Message::decode(&payload)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_picks_highest_mutual() {
        assert_eq!(negotiate(1, 3, 2, 5), Some(3));
        assert_eq!(negotiate(1, 1, 1, 1), Some(1));
        assert_eq!(negotiate(1, 1, 2, 3), None);
        assert_eq!(negotiate(4, 6, 1, 3), None);
    }

    #[test]
    fn message_round_trip_through_frames() {
        let msgs = vec![
            Message::Hello {
                min_version: VERSION_MIN,
                max_version: VERSION_MAX,
                role: Role::Client,
                name: "test-client".into(),
            },
            Message::Subscribe {
                id: "q1".into(),
                at_peer: "P2".into(),
                strategy: WireStrategy::StreamSharing,
                text: "wxquery { ... }".into(),
            },
            Message::StreamItemBatch {
                run: 7,
                flow: 3,
                hop: 2,
                offset: 41,
                eos: true,
                items: vec![
                    Node::leaf("e", "1.25"),
                    Node::elem(
                        "photon",
                        vec![Node::leaf("en", "2.5"), Node::leaf("det_time", "17")],
                    ),
                ],
            },
            Message::Deliver {
                run: 7,
                query: "q1".into(),
                offset: 12,
                eos: false,
                items: vec![Node::leaf("e", "9.5")],
            },
            Message::ResumeFrom {
                run: 7,
                flow: 3,
                hop: 2,
                offset: 40,
            },
            Message::MetricsPull,
            Message::Fault {
                context: "subscribe".into(),
                message: "unknown stream".into(),
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_message(&mut buf, m).unwrap();
        }
        let mut r = &buf[..];
        for m in &msgs {
            assert_eq!(read_message(&mut r).unwrap().as_ref(), Some(m));
        }
        assert!(read_message(&mut r).unwrap().is_none());
    }

    #[test]
    fn unknown_tag_is_typed_error() {
        assert_eq!(Message::decode(&[200]), Err(DecodeError::BadTag(200)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Message::Shutdown.encode();
        payload.push(0);
        assert_eq!(
            Message::decode(&payload),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }
}
