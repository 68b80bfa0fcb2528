//! Substrate sanity: XML tokenizer / stream-reader parse throughput,
//! serializer throughput, and what building a tree costs, over photon
//! items.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dss_proto::Message;
use dss_rass::{default_photons, Photon};
use dss_xml::reader::StreamReader;
use dss_xml::writer::{node_to_string, serialized_size, stream_close, stream_open};
use dss_xml::{Node, Tokenizer};

fn stream_document(n: usize) -> String {
    let items = default_photons(5, n);
    let mut doc = stream_open("photons");
    for item in &items {
        doc.push_str(&node_to_string(item));
    }
    doc.push_str(&stream_close("photons"));
    doc
}

fn bench_tokenizer(c: &mut Criterion) {
    let doc = stream_document(2_000);
    let mut g = c.benchmark_group("xml/tokenizer");
    g.throughput(Throughput::Bytes(doc.len() as u64));
    g.bench_function("events", |b| {
        b.iter(|| {
            let mut t = Tokenizer::from_str(&doc);
            let mut n = 0usize;
            while t.next_event().expect("well-formed").is_some() {
                n += 1;
            }
            n
        })
    });
    g.finish();
}

fn bench_stream_reader(c: &mut Criterion) {
    let doc = stream_document(2_000);
    let mut g = c.benchmark_group("xml/stream-reader");
    g.throughput(Throughput::Bytes(doc.len() as u64));
    g.bench_function("items", |b| {
        b.iter(|| {
            let mut r = StreamReader::new();
            r.feed(doc.as_bytes());
            r.finish();
            let mut n = 0usize;
            while r.next_item().expect("well-formed").is_some() {
                n += 1;
            }
            n
        })
    });
    // Chunked feeding, as the network delivers it.
    g.bench_function("items-chunked-256", |b| {
        b.iter(|| {
            let mut r = StreamReader::new();
            let mut n = 0usize;
            for chunk in doc.as_bytes().chunks(256) {
                r.feed(chunk);
                while r.next_item().expect("well-formed").is_some() {
                    n += 1;
                }
            }
            n
        })
    });
    g.finish();
}

fn bench_serializer(c: &mut Criterion) {
    let items = default_photons(6, 2_000);
    let bytes: usize = items.iter().map(serialized_size).sum();
    let mut g = c.benchmark_group("xml/serializer");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("to-string", |b| {
        b.iter(|| {
            items
                .iter()
                .map(node_to_string)
                .map(|s| s.len())
                .sum::<usize>()
        })
    });
    g.finish();
}

/// Building trees: a node records its serialized size when it is built, so
/// that cost moved here from the serializer's size-only walk.
fn bench_construction(c: &mut Criterion) {
    let photon = Photon::from_node(&default_photons(7, 1)[0]).expect("a generated photon");
    let mut g = c.benchmark_group("xml/construct");
    g.throughput(Throughput::Elements(1));
    g.bench_function("photon-elem", |b| {
        b.iter(|| {
            Node::elem(
                "photon",
                vec![
                    Node::display_leaf("phc", photon.phc),
                    Node::elem(
                        "coord",
                        vec![
                            Node::elem(
                                "cel",
                                vec![
                                    Node::decimal_leaf("ra", photon.ra),
                                    Node::decimal_leaf("dec", photon.dec),
                                ],
                            ),
                            Node::elem(
                                "det",
                                vec![
                                    Node::display_leaf("dx", photon.dx),
                                    Node::display_leaf("dy", photon.dy),
                                ],
                            ),
                        ],
                    ),
                    Node::decimal_leaf("en", photon.en),
                    Node::decimal_leaf("det_time", photon.det_time),
                ],
            )
        })
    });
    g.bench_function("photon-to-node", |b| {
        b.iter(|| black_box(&photon).to_node())
    });
    g.finish();

    let batch = Message::StreamItemBatch {
        run: 1,
        flow: 7,
        hop: 1,
        offset: 0,
        eos: false,
        items: default_photons(8, 64),
    };
    let payload = batch.encode();
    let mut g = c.benchmark_group("proto/decode");
    g.throughput(Throughput::Elements(64));
    g.bench_function("batch-64", |b| {
        b.iter(|| Message::decode(black_box(&payload)).expect("own encoding decodes"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tokenizer,
    bench_stream_reader,
    bench_serializer,
    bench_construction
);
criterion_main!(benches);
