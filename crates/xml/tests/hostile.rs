//! Hostile input for the XML reader: whatever bytes a source sends,
//! `Node::parse`, `XmlReader::read_document` and a `StreamReader` fed in
//! random chunks end in `Ok` or a typed [`XmlError`], never a panic, and
//! within a second. The inputs are arbitrary bytes, nesting past
//! [`MAX_DEPTH`], huge text, non-ASCII names, and truncations and byte
//! flips of a serialized photon stream.

use std::panic;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use dss_xml::reader::StreamReader;
use dss_xml::tree::MAX_DEPTH;
use dss_xml::writer::{stream_close, stream_open, write_node_into};
use dss_xml::{Node, XmlError, XmlReader};

/// The most one input may take, read all three ways.
const BUDGET: Duration = Duration::from_secs(1);

/// Feeds `bytes` to a stream reader in pieces of the lengths `cuts`
/// repeats, taking every item as soon as it is complete, then finishes
/// the stream and takes the rest. Stops at the first error.
fn stream_items(bytes: &[u8], cuts: &[usize]) -> Result<u64, XmlError> {
    let mut reader = StreamReader::new();
    let mut rest = bytes;
    for &cut in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(cut.min(rest.len()));
        reader.feed(chunk);
        rest = tail;
        while reader.next_item()?.is_some() {}
    }
    reader.finish();
    while reader.next_item()?.is_some() {}
    Ok(reader.items_read())
}

/// Reads `bytes` as a document twice and as a stream once: no panic, and
/// in time. An error must render, as it would into a log line.
fn read_all(bytes: &[u8], cuts: &[usize]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    let start = Instant::now();
    let outcome = panic::catch_unwind(|| {
        let render = |e: XmlError| e.to_string();
        let parsed = Node::parse(&text).map(drop).map_err(render);
        let read = XmlReader::from_str(&text).read_document().map(drop);
        let streamed = stream_items(bytes, cuts).map(drop).map_err(render);
        (parsed, read.map_err(render), streamed)
    });
    let took = start.elapsed();
    prop_assert!(outcome.is_ok(), "the reader panicked on {:?}", text);
    prop_assert!(took < BUDGET, "{} bytes took {:?}", bytes.len(), took);
    Ok(())
}

/// One photon, shaped like a RASS item, with `name` for its energy tag.
fn photon(i: usize, name: &str) -> Node {
    Node::elem(
        "photon",
        vec![
            Node::leaf("phc", (i % 7).to_string()),
            Node::elem(
                "coord",
                vec![Node::elem(
                    "cel",
                    vec![
                        Node::leaf("ra", format!("{}.{}", 120 + i % 18, i % 10)),
                        Node::leaf("dec", format!("-{}.25", 40 + i % 9)),
                    ],
                )],
            ),
            Node::leaf(name, format!("1.{}", i % 10)),
            Node::leaf("det_time", (1000 + 3 * i).to_string()),
        ],
    )
}

/// A serialized stream of `n` photons under a `photons` root.
fn photon_stream(n: usize) -> Vec<u8> {
    let mut out = stream_open("photons");
    for i in 0..n {
        write_node_into(&photon(i, "en"), &mut out);
    }
    out.push_str(&stream_close("photons"));
    out.into_bytes()
}

/// Chunk lengths a stream reader is fed in: single bytes, a photon or so,
/// and bigger pieces.
fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(prop_oneof![1usize..4, 4usize..200, 200usize..5000], 1..6)
}

/// `<s>`, then `open` nested `<d>` tags, a text, `close` end tags and `</s>`:
/// balanced when `open == close`, and past [`MAX_DEPTH`] when `open` is.
fn arb_nesting() -> impl Strategy<Value = Vec<u8>> {
    let depth = prop_oneof![
        (MAX_DEPTH - 3)..(MAX_DEPTH + 3),
        0usize..(4 * MAX_DEPTH),
        (10 * MAX_DEPTH)..(40 * MAX_DEPTH),
    ];
    (depth, 0usize..=100, any::<bool>()).prop_map(|(open, close_pct, self_closing)| {
        let close = open * close_pct / 100;
        let mut doc = String::from("<s>");
        doc.push_str(&"<d>".repeat(open));
        doc.push_str(if self_closing { "<x/>" } else { "1.3" });
        doc.push_str(&"</d>".repeat(close));
        doc.push_str("</s>");
        doc.into_bytes()
    })
}

/// A photon stream whose one item carries `len` bytes of text, attribute
/// value or name, drawn from plain digits, entity references (some out of
/// range) and multi-byte characters.
fn arb_huge() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        Just("7"),
        Just("&amp;"),
        Just("&#x10FFFF;"),
        Just("&#x110000;"),
        Just("&#55296;"),
        Just("&#99999999999999999999;"),
        Just("é"),
        Just("\u{1F320}"),
        Just("]]>"),
    ];
    (piece, 10_000usize..1_000_000, 0usize..3).prop_map(|(piece, len, place)| {
        let blob = piece.repeat(len / piece.len());
        let item = match place {
            0 => format!("<photon><en>{blob}</en></photon>"),
            1 => format!("<photon unit=\"{blob}\"><en>1.3</en></photon>"),
            _ => format!("<photon><e{blob}>1.3</e{blob}></photon>"),
        };
        let mut out = stream_open("photons");
        out.push_str(&item);
        out.push_str(&stream_close("photons"));
        out.into_bytes()
    })
}

/// A name outside ASCII, or one that is no XML name at all.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[α-ω]{1,6}".prop_map(|s| s),
        "[a-zé✓]{1,6}".prop_map(|s| s),
        "[\u{1F300}-\u{1F320}]{1,3}".prop_map(|s| s),
        "[\u{0300}-\u{036F}][a-z]{0,3}".prop_map(|s| s),
        "[0-9.-][a-z]{0,3}".prop_map(|s| s),
        Just(String::new()),
        Just("a b".to_string()),
    ]
}

/// A photon stream whose root, item, leaf and attribute names are drawn
/// from [`arb_name`].
fn arb_named_stream() -> impl Strategy<Value = Vec<u8>> {
    (arb_name(), arb_name(), arb_name(), arb_name()).prop_map(|(root, item, leaf, attr)| {
        format!(
            "<{root}><{item} {attr}=\"1\"><{leaf}>1.3</{leaf}></{item}>\
             <{item}><{leaf}/></{item}></{root}>"
        )
        .into_bytes()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=u8::MAX, 0..512),
        cuts in arb_cuts(),
    ) {
        read_all(&bytes, &cuts)?;
    }

    #[test]
    fn nesting_past_the_depth_cap(doc in arb_nesting(), cuts in arb_cuts()) {
        read_all(&doc, &cuts)?;
    }

    #[test]
    fn non_ascii_names(doc in arb_named_stream(), cuts in arb_cuts()) {
        read_all(&doc, &cuts)?;
    }

    #[test]
    fn truncated_photon_streams(
        n in 1usize..40,
        permille in 0usize..1000,
        cuts in arb_cuts(),
    ) {
        let stream = photon_stream(n);
        read_all(&stream[..stream.len() * permille / 1000], &cuts)?;
    }

    #[test]
    fn byte_flipped_photon_streams(
        n in 1usize..40,
        flips in prop::collection::vec((0usize..1000, 0u8..8), 1..4),
        cuts in arb_cuts(),
    ) {
        let mut stream = photon_stream(n);
        for (permille, bit) in flips {
            let at = stream.len() * permille / 1000;
            stream[at] ^= 1 << bit;
        }
        read_all(&stream, &cuts)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn huge_text(doc in arb_huge(), cuts in arb_cuts()) {
        read_all(&doc, &cuts)?;
    }
}

/// The generators above reach past the tokenizer: the untouched stream
/// reads whole, and truncations and flips fail in more than one way.
#[test]
fn the_generated_inputs_reach_every_stage() {
    let stream = photon_stream(20);
    assert_eq!(stream_items(&stream, &[7]), Ok(20));
    let mut errors = std::collections::HashSet::new();
    let mut rng = TestRng::deterministic();
    for _ in 0..300 {
        let mut flipped = stream.clone();
        let at = rng.usize_below(flipped.len());
        flipped[at] ^= 1 << rng.usize_below(8);
        if let Err(e) = Node::parse(&String::from_utf8_lossy(&flipped)) {
            errors.insert(std::mem::discriminant(&e));
        }
    }
    assert!(errors.len() >= 3, "only {} kinds of error", errors.len());
}

/// The case that found the tokenizer rescanning a construct from its
/// start on every fed piece: 100 KB of text, attribute value, comment or
/// CDATA fed two bytes at a time took time quadratic in its length (a
/// 0.9 MB text took 2.3 s). Each now reads in time and yields its item.
#[test]
fn a_long_construct_fed_in_small_pieces_is_scanned_once() {
    let blob = "7".repeat(100_000);
    for item in [
        format!("<photon><en>{blob}</en></photon>"),
        format!("<photon unit=\"{blob}\"><en>1.3</en></photon>"),
        format!("<photon><!--{blob}--><en>1.3</en></photon>"),
        format!("<photon><en><![CDATA[{blob}]]></en></photon>"),
    ] {
        let doc = format!("<photons>{item}</photons>");
        let start = Instant::now();
        assert_eq!(stream_items(doc.as_bytes(), &[2]), Ok(1));
        let took = start.elapsed();
        assert!(took < BUDGET, "{} took {took:?}", &item[..20]);
    }
}
