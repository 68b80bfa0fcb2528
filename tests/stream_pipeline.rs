//! Over-the-wire pipeline test: photons are serialized into a single
//! stream document, delivered in arbitrary chunks, parsed incrementally,
//! pushed through compiled query pipelines, and the results re-serialized —
//! exercising the full substrate stack the way the network simulator's
//! peers would.

use data_stream_sharing::wxquery::{compile_query, queries};
use data_stream_sharing::xml::reader::StreamReader;
use data_stream_sharing::xml::writer::{node_to_string, stream_close, stream_open};
use data_stream_sharing::xml::Node;
use dss_rass::{GeneratorConfig, PhotonGenerator};

fn photon_items(n: usize) -> Vec<Node> {
    let cfg = GeneratorConfig {
        seed: 1717,
        mean_time_increment: 0.3,
        ..GeneratorConfig::default()
    };
    PhotonGenerator::new(cfg).generate_items(n)
}

fn as_wire_bytes(items: &[Node]) -> Vec<u8> {
    let mut doc = stream_open("photons");
    for item in items {
        doc.push_str(&node_to_string(item));
    }
    doc.push_str(&stream_close("photons"));
    doc.into_bytes()
}

/// Parses the wire bytes in `chunk`-sized pieces and runs each item through
/// the query's operator chain plus restructuring.
fn run_over_wire(query_text: &str, wire: &[u8], chunk: usize) -> Vec<String> {
    let mut query = compile_query(query_text)
        .expect("query compiles")
        .executable();
    let mut reader = StreamReader::new();
    let mut results = Vec::new();
    for piece in wire.chunks(chunk) {
        reader.feed(piece);
        while let Some(item) = reader.next_item().expect("well-formed stream") {
            query.process_into(&item, &mut |_, out| results.push(node_to_string(out)));
        }
    }
    query.flush_into(&mut |_, out| results.push(node_to_string(out)));
    results
}

#[test]
fn q1_over_the_wire_matches_in_memory() {
    let items = photon_items(800);
    let wire = as_wire_bytes(&items);

    // In-memory reference run.
    let mut query = compile_query(queries::Q1).unwrap().executable();
    let mut expected = Vec::new();
    for item in &items {
        query.process_into(item, &mut |_, out| expected.push(node_to_string(out)));
    }

    for chunk in [7usize, 64, 1024, wire.len()] {
        let got = run_over_wire(queries::Q1, &wire, chunk);
        assert_eq!(got, expected, "chunk size {chunk} changed the results");
    }
    assert!(!expected.is_empty());
    assert!(expected[0].starts_with("<vela>"));
}

#[test]
fn q3_aggregation_over_the_wire() {
    let items = photon_items(1500);
    let wire = as_wire_bytes(&items);
    let results = run_over_wire(queries::Q3, &wire, 199);
    assert!(!results.is_empty(), "Q3 should emit window averages");
    for r in &results {
        assert!(r.starts_with("<avg_en>"), "unexpected result {r}");
        let v: f64 = r
            .trim_start_matches("<avg_en>")
            .trim_end_matches("</avg_en>")
            .parse()
            .expect("numeric average");
        assert!((0.0..10.0).contains(&v));
    }
}

#[test]
fn all_paper_queries_run_over_the_wire() {
    let items = photon_items(600);
    let wire = as_wire_bytes(&items);
    for (name, text) in queries::ALL {
        let results = run_over_wire(text, &wire, 333);
        assert!(!results.is_empty(), "{name} delivered nothing");
    }
}

#[test]
fn wire_results_parse_back_to_schema_compatible_items() {
    let items = photon_items(400);
    let wire = as_wire_bytes(&items);
    for r in run_over_wire(queries::Q2, &wire, 128) {
        let node = Node::parse(&r).expect("result items are well-formed XML");
        assert_eq!(node.name(), "rxj");
        assert!(node.child("ra").is_some());
        assert!(node.child("en").is_some());
    }
}
