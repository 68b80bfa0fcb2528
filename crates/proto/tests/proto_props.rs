//! Property coverage for the wire codec (the PR 4 harness discipline
//! applied to the protocol layer): arbitrary messages round-trip through
//! encode → frame → read → decode byte-exactly, and every corruption —
//! torn writes, truncated frames, flipped payload bits, oversized length
//! prefixes, random garbage — is rejected with a typed error, never a
//! panic.
//!
//! The second half is the hostile-bytes suite for the two item-carrying
//! messages, held to an independent reference decoder. A relay forwards
//! on [`BatchView::parse`], which reads the header and the item framing
//! only: it must reject exactly the framing errors the reference does.
//! The first reader of the items, [`ItemsView::materialise`], must then
//! reach the reference's verdict on everything else, with the same error.

use proptest::prelude::*;

use dss_proto::wire::{put_u64, MAX_NODE_DEPTH};
use dss_proto::{
    read_frame, read_message, write_message, BatchDest, BatchHeader, BatchView, DecodeError,
    ItemsView, Message, ProtoError, Role, WireStrategy, MAX_FRAME_LEN,
};
use dss_xml::text::escape_text;
use dss_xml::writer::{node_to_string, serialized_size};
use dss_xml::Node;

fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-z]{1,12}".prop_map(|s| s),
        Just("wxquery — unicode ✓ \u{1F300}".to_string()),
        "[a-zé✓\u{1F300}]{1,12}".prop_map(|s| s),
        Just("a\0b\nc".to_string()),
        // Escapes, on either side of the 22 bytes a node keeps inline.
        "[a-z<&>]{20,24}".prop_map(|s| s),
    ]
}

/// Element names, ASCII or not: an item list with one non-ASCII byte
/// anywhere is checked string by string, an all-ASCII one is not.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z]{1,6}".prop_map(|s| s),
        "[a-zé✓α-ω]{1,6}".prop_map(|s| s),
    ]
}

fn arb_node() -> impl Strategy<Value = Node> {
    let leaf = (arb_name(), prop::option::of(arb_text())).prop_map(|(name, text)| {
        let mut n = Node::empty(name);
        if let Some(t) = text {
            n.set_text(t);
        }
        n
    });
    leaf.prop_recursive(4, 24, 4, |inner| {
        (arb_name(), prop::collection::vec(inner, 0..4)).prop_map(|(name, children)| {
            let mut n = Node::empty(name);
            for c in children {
                n.push_child(c);
            }
            n
        })
    })
}

fn arb_strategy() -> impl Strategy<Value = WireStrategy> {
    prop_oneof![
        Just(WireStrategy::DataShipping),
        Just(WireStrategy::QueryShipping),
        Just(WireStrategy::StreamSharing),
    ]
}

/// The two item-carrying messages — what [`BatchView`] parses.
fn arb_batch() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u32..=u32::MAX,
            0u64..=u64::MAX,
            any::<bool>(),
            prop::collection::vec(arb_node(), 0..5)
        )
            .prop_map(
                |(run, flow, hop, offset, eos, items)| Message::StreamItemBatch {
                    run,
                    flow,
                    hop,
                    offset,
                    eos,
                    items,
                }
            ),
        (
            0u64..=u64::MAX,
            arb_text(),
            0u64..=u64::MAX,
            any::<bool>(),
            prop::collection::vec(arb_node(), 0..5)
        )
            .prop_map(|(run, query, offset, eos, items)| Message::Deliver {
                run,
                query,
                offset,
                eos,
                items,
            }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (0u16..=u16::MAX, 0u16..=u16::MAX, any::<bool>(), arb_text()).prop_map(
            |(min_version, max_version, client, name)| Message::Hello {
                min_version,
                max_version,
                role: if client { Role::Client } else { Role::Peer },
                name,
            }
        ),
        (0u16..=u16::MAX, arb_text())
            .prop_map(|(version, peer)| Message::HelloAck { version, peer }),
        (arb_text(), arb_text(), arb_strategy(), arb_text()).prop_map(
            |(id, at_peer, strategy, text)| Message::Subscribe {
                id,
                at_peer,
                strategy,
                text,
            }
        ),
        (
            arb_text(),
            0u64..=u64::MAX,
            any::<bool>(),
            0u64..=u64::MAX,
            arb_text()
        )
            .prop_map(|(id, delivery_flow, reused, cost_bits, plan)| {
                Message::SubscribeOk {
                    id,
                    delivery_flow,
                    reused,
                    cost_bits,
                    plan,
                }
            }),
        arb_text().prop_map(|id| Message::Unsubscribe { id }),
        (
            0u64..=u64::MAX,
            arb_text(),
            arb_text(),
            arb_strategy(),
            arb_text()
        )
            .prop_map(|(seq, id, at_peer, strategy, text)| Message::Deploy {
                seq,
                id,
                at_peer,
                strategy,
                text,
            }),
        (0u64..=u64::MAX).prop_map(|seq| Message::Ack { seq }),
        (0u64..=u64::MAX, 0u64..=u64::MAX)
            .prop_map(|(run, delivered)| Message::RunDone { run, delivered }),
        arb_batch(),
        (
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u32..=u32::MAX,
            0u64..=u64::MAX
        )
            .prop_map(|(run, flow, hop, offset)| Message::ResumeFrom {
                run,
                flow,
                hop,
                offset,
            }),
        Just(Message::MetricsPull),
        arb_text().prop_map(|json| Message::MetricsSnapshot { json }),
        (arb_text(), arb_text()).prop_map(|(context, message)| Message::Fault { context, message }),
        Just(Message::Shutdown),
        Just(Message::Goodbye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// encode → frame → read → decode is the identity.
    #[test]
    fn round_trip(msg in arb_message()) {
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let mut r = &buf[..];
        let back = read_message(&mut r).unwrap();
        prop_assert_eq!(back, Some(msg));
        prop_assert!(read_message(&mut r).unwrap().is_none());
    }

    /// Cutting a framed message anywhere inside yields a typed
    /// truncation error (or, cut exactly at the boundary, a clean EOF) —
    /// never a panic, never a bogus message.
    #[test]
    fn torn_writes_are_typed(msg in arb_message(), permille in 0usize..1000) {
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let cut = buf.len() * permille / 1000;
        let mut r = &buf[..cut];
        match read_message(&mut r) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only at a frame boundary"),
            Ok(Some(m)) => prop_assert!(false, "decoded {m:?} from a torn frame"),
            Err(ProtoError::Truncated) => prop_assert!(cut > 0),
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// Any single flipped payload bit is caught by the CRC.
    #[test]
    fn bit_flips_are_bad_crc(msg in arb_message(), permille in 0usize..1000, bit in 0u8..8) {
        let payload = msg.encode();
        prop_assume!(!payload.is_empty());
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let idx = 8 + (payload.len() * permille / 1000).min(payload.len() - 1);
        buf[idx] ^= 1 << bit;
        let mut r = &buf[..];
        match read_message(&mut r) {
            Err(ProtoError::BadCrc { .. }) => {}
            other => prop_assert!(false, "expected BadCrc, got {other:?}"),
        }
    }

    /// Random garbage never panics the frame reader: every outcome is a
    /// clean EOF, a typed error, or (for a lucky CRC) a payload.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=u8::MAX, 0..64)) {
        let mut r = &bytes[..];
        match read_frame(&mut r) {
            Ok(_) | Err(_) => {}
        }
        // And the message decoder tolerates arbitrary payloads too.
        let _ = Message::decode(&bytes);
    }

    /// Oversized length prefixes are rejected before any allocation.
    #[test]
    fn oversized_prefix_rejected(extra in 1u32..=1024, crc in 0u32..=u32::MAX) {
        let len = MAX_FRAME_LEN + extra;
        let mut buf = Vec::new();
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(ProtoError::TooLarge { len: got }) => prop_assert_eq!(got, len as u64),
            other => prop_assert!(false, "expected TooLarge, got {other:?}"),
        }
    }

    /// Declaring more payload than is present is a truncation, not a hang
    /// or a panic.
    #[test]
    fn over_declared_length_is_truncated(msg in arb_message(), extra in 1u32..512) {
        let payload = msg.encode();
        let lied = (payload.len() as u32).saturating_add(extra).min(MAX_FRAME_LEN);
        prop_assume!(lied as usize > payload.len());
        let mut buf = Vec::new();
        buf.extend_from_slice(&lied.to_le_bytes());
        buf.extend_from_slice(&dss_proto::crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(ProtoError::Truncated) => {}
            other => prop_assert!(false, "expected Truncated, got {other:?}"),
        }
    }

    /// A truncated *payload* (frame intact, message cut short) decodes to
    /// a typed decode error.
    #[test]
    fn truncated_payload_is_typed(msg in arb_message(), permille in 0usize..1000) {
        let payload = msg.encode();
        prop_assume!(payload.len() > 1);
        let cut = 1 + (payload.len() - 1) * permille / 1000;
        prop_assume!(cut < payload.len());
        match Message::decode(&payload[..cut]) {
            Ok(m) => prop_assert!(false, "decoded {m:?} from a truncated payload"),
            Err(DecodeError::TrailingBytes { .. }) => {
                prop_assert!(false, "truncation misread as trailing bytes")
            }
            Err(_) => {}
        }
    }
}

// ---- hostile bytes against the view ------------------------------------

/// A decoder for the two item-carrying tags written from the format alone:
/// the reference the view's and `Message::decode`'s verdicts are held to.
/// It reads a byte at a time, checks every string as UTF-8 where it
/// stands, interns every name and builds every tree as it goes — no code
/// of `dss_proto::wire` and none of its shortcuts (one-byte varints, the
/// item-wide UTF-8 pass, the per-build name cache).
///
/// The format puts framing before items: a payload whose header, item
/// count, item lengths or end are wrong is that error, whatever its items
/// hold ([`Reference::frame`]); only a well-framed payload has its items
/// read, in order, each node filling its declared length exactly.
struct Reference<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reference<'a> {
    fn decode(payload: &[u8]) -> Result<Message, DecodeError> {
        let (mut msg, framed) = Reference::frame(payload)?;
        let decoded = framed
            .into_iter()
            .map(Reference::item)
            .collect::<Result<Vec<_>, _>>()?;
        match &mut msg {
            Message::StreamItemBatch { items, .. } | Message::Deliver { items, .. } => {
                *items = decoded
            }
            other => unreachable!("{other:?}"),
        }
        Ok(msg)
    }

    /// The message without its items, and each item's bytes.
    fn frame(payload: &'a [u8]) -> Result<(Message, Vec<&'a [u8]>), DecodeError> {
        let mut r = Reference {
            buf: payload,
            pos: 0,
        };
        let msg = match r.byte()? {
            13 => Message::StreamItemBatch {
                run: r.varint()?,
                flow: r.varint()?,
                hop: u32::try_from(r.varint()?).map_err(|_| DecodeError::VarintOverflow)?,
                offset: r.varint()?,
                eos: r.flag()?,
                items: Vec::new(),
            },
            14 => Message::Deliver {
                run: r.varint()?,
                query: r.string()?,
                offset: r.varint()?,
                eos: r.flag()?,
                items: Vec::new(),
            },
            tag => return Err(DecodeError::BadTag(tag)),
        };
        // Every item takes at least the byte of its length.
        let count = r.varint()?;
        if count > r.left() {
            return Err(DecodeError::UnexpectedEnd);
        }
        let items = (0..count)
            .map(|_| r.chunk())
            .collect::<Result<Vec<_>, _>>()?;
        r.end()?;
        Ok((msg, items))
    }

    /// One item: a node that ends exactly where the item does.
    fn item(bytes: &[u8]) -> Result<Node, DecodeError> {
        let mut r = Reference { buf: bytes, pos: 0 };
        let node = r.node(0)?;
        r.end()?;
        Ok(node)
    }

    fn left(&self) -> u64 {
        (self.buf.len() - self.pos) as u64
    }

    fn end(&self) -> Result<(), DecodeError> {
        match self.left() {
            0 => Ok(()),
            remaining => Err(DecodeError::TrailingBytes {
                remaining: remaining as usize,
            }),
        }
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(b)
    }

    /// LEB128: seven bits a byte, low first; the tenth byte may carry one.
    fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7F);
            if i == 9 && bits > 1 {
                return Err(DecodeError::VarintOverflow);
            }
            v |= bits << (7 * i);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::VarintOverflow)
    }

    fn flag(&mut self) -> Result<bool, DecodeError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadBool(b)),
        }
    }

    /// A length, then that many bytes.
    fn chunk(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.varint()?;
        if len > self.left() {
            return Err(DecodeError::UnexpectedEnd);
        }
        let bytes = &self.buf[self.pos..self.pos + len as usize];
        self.pos += len as usize;
        Ok(bytes)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.chunk()?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// A declared child count, which the bytes left must be able to back:
    /// every node takes at least three.
    fn count(&mut self) -> Result<u64, DecodeError> {
        let count = self.varint()?;
        if count > self.left() / 3 + 1 {
            return Err(DecodeError::UnexpectedEnd);
        }
        Ok(count)
    }

    fn node(&mut self, depth: usize) -> Result<Node, DecodeError> {
        if depth >= MAX_NODE_DEPTH {
            return Err(DecodeError::TooDeep);
        }
        let name = self.string()?;
        let text = if self.flag()? {
            Some(self.string()?)
        } else {
            None
        };
        let count = self.count()?;
        let children = (0..count)
            .map(|_| self.node(depth + 1))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Node::new(name.as_str(), text.as_deref(), children))
    }
}

/// The relay's view, the first reader and the public decoder against the
/// reference on `payload`: the view rejects exactly the reference's
/// framing errors, and `parse` then `materialise` — like `decode` — reaches
/// the reference's verdict, the same message or the same error.
fn assert_same_verdict(payload: &[u8]) -> Result<Message, DecodeError> {
    let framed = BatchView::parse(payload);
    assert_eq!(
        framed.as_ref().err(),
        Reference::frame(payload).err().as_ref(),
        "view vs reference framing on {payload:02x?}"
    );
    let viewed = framed.and_then(|v| v.materialise());
    let reference = Reference::decode(payload);
    assert_eq!(viewed, reference, "view vs reference on {payload:02x?}");
    if BatchView::is_batch(payload) {
        assert_eq!(
            Message::decode(payload),
            reference,
            "decode on {payload:02x?}"
        );
    }
    reference
}

/// [`assert_same_verdict`] for a payload that is well framed: a relay
/// forwards it, and its first reader fails with `error`.
fn assert_framed_but_malformed(payload: &[u8], error: DecodeError) {
    assert!(
        BatchView::parse(payload).is_ok(),
        "the view rejects {payload:02x?}"
    );
    assert_eq!(assert_same_verdict(payload), Err(error));
}

/// A `StreamItemBatch` payload whose item list is the given raw bytes.
fn batch_with_item_list(list: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    BatchHeader {
        run: 7,
        dest: BatchDest::Hop { flow: 3, hop: 2 },
        offset: 40,
        eos: false,
    }
    .encode_into(&mut payload);
    payload.extend_from_slice(list);
    payload
}

/// One encoded node: `name`, optional `text`, a *declared* child count,
/// then whatever child bytes the caller appends.
fn raw_node(name: &[u8], text: Option<&[u8]>, declared_children: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, name.len() as u64);
    out.extend_from_slice(name);
    match text {
        Some(t) => {
            out.push(1);
            put_u64(&mut out, t.len() as u64);
            out.extend_from_slice(t);
        }
        None => out.push(0),
    }
    put_u64(&mut out, declared_children);
    out
}

/// An item as it stands in a list: a *declared* length, then the node.
fn framed_item(declared_len: u64, node: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, declared_len);
    out.extend_from_slice(node);
    out
}

/// A list of `declared_items`, each node behind its true length.
fn item_list(declared_items: u64, nodes: &[Vec<u8>]) -> Vec<u8> {
    let framed: Vec<Vec<u8>> = nodes
        .iter()
        .map(|n| framed_item(n.len() as u64, n))
        .collect();
    framed_list(declared_items, &framed)
}

/// A list of `declared_items` over items framed by the caller.
fn framed_list(declared_items: u64, framed: &[Vec<u8>]) -> Vec<u8> {
    let mut list = Vec::new();
    put_u64(&mut list, declared_items);
    for item in framed {
        list.extend_from_slice(item);
    }
    list
}

#[test]
fn view_rejects_a_lying_item_count_like_the_decoder() {
    let leaf = raw_node(b"e", Some(b"1.5"), 0);
    let honest = batch_with_item_list(&item_list(2, &[leaf.clone(), leaf.clone()]));
    assert!(assert_same_verdict(&honest).is_ok());
    // Fewer declared than present: the rest is trailing bytes.
    assert_eq!(
        assert_same_verdict(&batch_with_item_list(&item_list(
            1,
            &[leaf.clone(), leaf.clone()]
        ))),
        Err(DecodeError::TrailingBytes {
            remaining: leaf.len() + 1
        })
    );
    // More declared than present, by one or absurdly: the payload ends
    // first — and an absurd count sizes nothing.
    for lie in [3, 1 << 40, u64::MAX] {
        assert_eq!(
            assert_same_verdict(&batch_with_item_list(&item_list(
                lie,
                &[leaf.clone(), leaf.clone()]
            ))),
            Err(DecodeError::UnexpectedEnd),
            "declared {lie}"
        );
    }
}

/// An item's declared length against its node: the view checks only that
/// the length fits the payload; the reader requires the node to fill it.
#[test]
fn item_lengths_are_framing_and_the_node_must_fill_its_length() {
    let leaf = raw_node(b"e", Some(b"1.5"), 0);
    let len = leaf.len() as u64;
    let list = |framed: Vec<u8>| batch_with_item_list(&framed_list(1, &[framed]));
    // Declared longer than the node: the node ends inside its item.
    let mut padded = leaf.clone();
    padded.push(0);
    assert_framed_but_malformed(
        &list(framed_item(len + 1, &padded)),
        DecodeError::TrailingBytes { remaining: 1 },
    );
    // Declared shorter than the node: the node runs past its item's end,
    // into bytes that are framing again.
    let mut cut = framed_item(len - 1, &leaf);
    cut.pop();
    assert_framed_but_malformed(&list(cut), DecodeError::UnexpectedEnd);
    // A length past the payload is the view's to reject.
    assert_eq!(
        assert_same_verdict(&list(framed_item(len + 1, &leaf))),
        Err(DecodeError::UnexpectedEnd)
    );
    assert_eq!(
        assert_same_verdict(&list(framed_item(u64::MAX, &leaf))),
        Err(DecodeError::UnexpectedEnd)
    );
    // And a payload framed to the byte but for its end.
    let mut trailing = list(framed_item(len, &leaf));
    trailing.push(0);
    assert_eq!(
        assert_same_verdict(&trailing),
        Err(DecodeError::TrailingBytes { remaining: 1 })
    );
}

/// A malformed item between well-formed ones: the relay forwards the
/// list, and the first reader fails on that item with the reference's
/// error — also where a framing error follows it, the framing error wins.
#[test]
fn a_malformed_item_inside_a_well_framed_list_fails_at_the_first_reader() {
    let good = photon(None, None);
    let mut bad = raw_node(b"e", None, 0);
    bad[2] = 7; // the has-text byte
    let list = item_list(3, &[good.clone(), bad.clone(), good.clone()]);
    assert_framed_but_malformed(&batch_with_item_list(&list), DecodeError::BadBool(7));
    let mut trailing = batch_with_item_list(&list);
    trailing.extend_from_slice(&[1, 2]);
    assert_eq!(
        assert_same_verdict(&trailing),
        Err(DecodeError::TrailingBytes { remaining: 2 })
    );
}

#[test]
fn a_lying_child_count_passes_the_view_and_fails_the_reader_like_the_decoder() {
    let leaf = raw_node(b"e", None, 0);
    for lie in [1, 2, 1 << 40, u64::MAX] {
        let mut parent = raw_node(b"photon", None, lie);
        if lie == 2 {
            parent.extend_from_slice(&leaf); // one child short
        }
        assert_framed_but_malformed(
            &batch_with_item_list(&item_list(1, &[parent])),
            DecodeError::UnexpectedEnd,
        );
    }
    // Fewer children declared than present: the surplus child is left
    // over inside the item.
    let mut parent = raw_node(b"photon", None, 0);
    parent.extend_from_slice(&leaf);
    assert_framed_but_malformed(
        &batch_with_item_list(&item_list(1, &[parent])),
        DecodeError::TrailingBytes {
            remaining: leaf.len(),
        },
    );
}

#[test]
fn nesting_beyond_the_depth_cap_passes_the_view_and_fails_the_reader_like_the_decoder() {
    let chain = |depth: usize| {
        let mut item = Vec::new();
        for _ in 0..depth - 1 {
            item.extend_from_slice(&raw_node(b"d", None, 1));
        }
        item.extend_from_slice(&raw_node(b"leaf", None, 0));
        batch_with_item_list(&item_list(1, &[item]))
    };
    assert!(assert_same_verdict(&chain(MAX_NODE_DEPTH)).is_ok());
    assert_framed_but_malformed(&chain(MAX_NODE_DEPTH + 1), DecodeError::TooDeep);
}

#[test]
fn view_rejects_an_out_of_range_hop_like_the_decoder() {
    let mut payload = vec![13];
    put_u64(&mut payload, 7); // run
    put_u64(&mut payload, 3); // flow
    put_u64(&mut payload, u32::MAX as u64 + 1); // hop
    put_u64(&mut payload, 0); // offset
    payload.push(0); // eos
    put_u64(&mut payload, 0); // no items
    assert_eq!(
        assert_same_verdict(&payload),
        Err(DecodeError::VarintOverflow)
    );
}

#[test]
fn invalid_utf8_fails_the_view_in_the_header_and_the_reader_in_an_item() {
    let bad = [0xC3, 0x28];
    for item in [raw_node(&bad, None, 0), raw_node(b"e", Some(&bad), 0), {
        let mut parent = raw_node(b"photon", None, 1);
        parent.extend_from_slice(&raw_node(b"e", Some(&bad), 0));
        parent
    }] {
        assert_framed_but_malformed(
            &batch_with_item_list(&item_list(1, &[item])),
            DecodeError::BadUtf8,
        );
    }
    // The `Deliver` header's query name is the view's.
    let mut payload = vec![14];
    put_u64(&mut payload, 7);
    put_u64(&mut payload, bad.len() as u64);
    payload.extend_from_slice(&bad);
    put_u64(&mut payload, 0);
    payload.push(0);
    put_u64(&mut payload, 0);
    assert_eq!(assert_same_verdict(&payload), Err(DecodeError::BadUtf8));
}

/// A photon-like item of ASCII names and texts, unless `bad_name` or
/// `bad_text` replaces its third child's name or text.
fn photon(bad_name: Option<&[u8]>, bad_text: Option<&[u8]>) -> Vec<u8> {
    let mut item = raw_node(b"photon", None, 3);
    item.extend_from_slice(&raw_node(b"en", Some(b"2.5"), 0));
    item.extend_from_slice(&raw_node(b"det_time", Some(b"17"), 0));
    item.extend_from_slice(&raw_node(
        bad_name.unwrap_or(b"phc"),
        Some(bad_text.unwrap_or(b"4")),
        0,
    ));
    item
}

/// One invalid byte in an otherwise all-ASCII item: the item is no longer
/// UTF-8 as a whole, so its strings are checked one by one and that one
/// fails. A string that is valid on its own inside an item that is not
/// (a multi-byte length behind it) is still valid.
#[test]
fn invalid_utf8_inside_an_ascii_batch_fails_the_reader_like_the_decoder() {
    let good = photon(None, None);
    let honest = batch_with_item_list(&item_list(3, &[good.clone(), good.clone(), good.clone()]));
    assert!(assert_same_verdict(&honest).is_ok());
    // A stray continuation byte, and an overlong encoding of '/'.
    for bad in [&[b'p', 0x80, b'c'][..], &[0xC0, 0xAF][..]] {
        for item in [photon(Some(bad), None), photon(None, Some(bad))] {
            let list = item_list(3, &[good.clone(), item, good.clone()]);
            assert_framed_but_malformed(&batch_with_item_list(&list), DecodeError::BadUtf8);
        }
    }
    let long = Node::leaf("é", "x".repeat(200));
    let msg = Message::Deliver {
        run: 1,
        query: "q".into(),
        offset: 0,
        eos: false,
        items: vec![long],
    };
    assert_eq!(assert_same_verdict(&msg.encode()), Ok(msg));
}

/// More distinct names in one batch than a build remembers, each coming
/// back after the others: every item decodes to the reference's tree.
#[test]
fn a_batch_of_many_distinct_names_decodes_like_the_reference() {
    let names: Vec<String> = (0..200).map(|i| format!("n{i}")).collect();
    let mut items = Vec::new();
    for round in 0..3 {
        for (i, name) in names.iter().enumerate() {
            let sibling = &names[(i * 7 + round) % names.len()];
            items.push(Node::elem(
                name.as_str(),
                vec![Node::leaf(sibling.as_str(), "1"), Node::empty("photon")],
            ));
        }
    }
    let msg = Message::Deliver {
        run: 1,
        query: "q".into(),
        offset: 0,
        eos: true,
        items,
    };
    assert_eq!(assert_same_verdict(&msg.encode()), Ok(msg));
}

#[test]
fn bad_bools_fail_the_reader_and_foreign_tags_the_view() {
    let mut bad_text_flag = raw_node(b"e", None, 0);
    bad_text_flag[2] = 2; // the has-text byte
    assert_framed_but_malformed(
        &batch_with_item_list(&item_list(1, &[bad_text_flag])),
        DecodeError::BadBool(2),
    );
    // The view is for the two batch tags only.
    let shutdown = Message::Shutdown.encode();
    assert!(!BatchView::is_batch(&shutdown));
    assert_eq!(
        BatchView::parse(&shutdown).err(),
        Some(DecodeError::BadTag(shutdown[0]))
    );
    assert!(!BatchView::is_batch(&[]));
    assert_eq!(
        BatchView::parse(&[]).err(),
        Some(DecodeError::UnexpectedEnd)
    );
}

/// An item of 128 bytes or more has a longer length varint: the writer
/// makes room for it, and a relay and a reader find the item all the same.
#[test]
fn items_on_either_side_of_a_one_byte_length_round_trip() {
    for text_len in [100, 112, 113, 120, 130, 20_000] {
        let items = vec![
            Node::leaf("e", "1"),
            Node::leaf("e", "x".repeat(text_len)),
            Node::leaf("e", "2"),
        ];
        let msg = Message::StreamItemBatch {
            run: 1,
            flow: 2,
            hop: 3,
            offset: 4,
            eos: false,
            items,
        };
        assert_eq!(assert_same_verdict(&msg.encode()), Ok(msg));
    }
}

/// The items of `msg`, a batch message.
fn items_of(msg: &Message) -> &[Node] {
    match msg {
        Message::StreamItemBatch { items, .. } | Message::Deliver { items, .. } => items,
        other => panic!("not a batch: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// What the view materialises is what the decoder decodes, and both
    /// are the message that was encoded.
    #[test]
    fn view_materialises_what_decode_decodes(msg in arb_batch()) {
        let payload = msg.encode();
        prop_assert!(BatchView::is_batch(&payload));
        prop_assert_eq!(assert_same_verdict(&payload), Ok(msg));
    }

    /// A decoded node knows its serialized size from the moment it is
    /// built, at every level, whichever decoder built it.
    #[test]
    fn decoded_nodes_carry_their_serialized_size(msg in arb_batch()) {
        fn walk(n: &Node) -> usize {
            if n.is_empty() {
                return n.name().len() + 3;
            }
            let text = n.text().map_or(0, |t| escape_text(t).len());
            2 * n.name().len() + 5 + text + n.children().iter().map(walk).sum::<usize>()
        }
        fn check(n: &Node) -> Result<(), TestCaseError> {
            prop_assert_eq!(serialized_size(n), node_to_string(n).len());
            prop_assert_eq!(serialized_size(n), walk(n));
            n.children().iter().try_for_each(check)
        }
        let payload = msg.encode();
        let decoded = Message::decode(&payload).unwrap();
        let viewed = BatchView::parse(&payload).unwrap().items.materialise().unwrap();
        for item in items_of(&decoded).iter().chain(&viewed) {
            check(item)?;
        }
    }

    /// Every truncation point of a batch payload: the same typed error
    /// from the view (or its reader) as from the decoder.
    #[test]
    fn view_agrees_on_every_truncation(msg in arb_batch()) {
        let payload = msg.encode();
        for cut in 0..payload.len() {
            prop_assert!(assert_same_verdict(&payload[..cut]).is_err(), "cut at {}", cut);
        }
    }

    /// Every single-bit flip of a batch payload (what a CRC collision or
    /// a buggy sender could hand the parser): the same verdict from the
    /// view and its reader as from the decoder, whatever it is.
    #[test]
    fn view_agrees_on_every_payload_bit_flip(msg in arb_batch()) {
        let mut payload = msg.encode();
        for i in 0..payload.len() {
            for bit in 0..8 {
                payload[i] ^= 1 << bit;
                let _ = assert_same_verdict(&payload);
                payload[i] ^= 1 << bit;
            }
        }
    }

    /// Bytes behind a complete batch are trailing bytes to both.
    #[test]
    fn view_agrees_on_trailing_bytes(
        msg in arb_batch(),
        extra in prop::collection::vec(0u8..=u8::MAX, 1..8),
    ) {
        let mut payload = msg.encode();
        payload.extend_from_slice(&extra);
        prop_assert_eq!(
            assert_same_verdict(&payload),
            Err(DecodeError::TrailingBytes { remaining: extra.len() })
        );
    }

    /// Cutting the view at any item boundary and re-framing it — fresh
    /// header, the item bytes as received — decodes to exactly the items
    /// from that boundary on, under the advanced offset.
    #[test]
    fn view_sliced_at_any_item_boundary_reframes_to_that_sub_range(
        msg in arb_batch(),
        hop in 0u32..=u32::MAX,
    ) {
        let payload = msg.encode();
        let view = BatchView::parse(&payload).unwrap();
        let items = items_of(&msg);
        prop_assert_eq!(view.items.len(), items.len());
        // One boundary past the end too: skipping never overruns.
        for skip in 0..=items.len() + 1 {
            let mut rest: ItemsView<'_> = view.items.clone();
            rest.skip(skip);
            let kept = &items[skip.min(items.len())..];
            prop_assert_eq!(rest.len(), kept.len());
            prop_assert_eq!(&rest.materialise().unwrap(), kept);
            let header = BatchHeader {
                run: view.header.run,
                dest: BatchDest::Hop { flow: 9, hop },
                offset: view.header.offset.wrapping_add(skip as u64),
                eos: view.header.eos,
            };
            let mut reframed = Vec::new();
            header.encode_into(&mut reframed);
            rest.encode_into(&mut reframed);
            prop_assert_eq!(
                Message::decode(&reframed),
                Ok(Message::StreamItemBatch {
                    run: header.run,
                    flow: 9,
                    hop,
                    offset: header.offset,
                    eos: header.eos,
                    items: kept.to_vec(),
                })
            );
        }
    }
}
