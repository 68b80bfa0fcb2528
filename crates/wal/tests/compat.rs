//! On-disk compatibility across the retirement of record tags 2–5
//! (`Progress`, `Delivered`, `Charge`, `Uncharge` — logged once, never
//! replayed): the surviving control-plane tags keep their exact bytes, and
//! a retired payload is an undecodable record, never a live kind.

use std::fs::{self, File};
use std::path::{Path, PathBuf};

use dss_engine::{AggItem, OpState, WindowItem};
use dss_predicate::{Bound, CompOp, NodeRef, PredicateGraph};
use dss_properties::{AggOp, AggregationSpec, ResultFilter, WindowOutputSpec, WindowSpec};
use dss_proto::wire::Reader;
use dss_proto::write_frame;
use dss_wal::state_codec::{get_op_state, put_op_state};
use dss_wal::{replay, RecordError, WalError, WalRecord, SEGMENT_PREFIX, SEGMENT_SUFFIX};
use dss_xml::{Decimal, Node};

/// `wal-000001.seg` exactly as the last commit that still knew tags 2–5
/// wrote it through `WalWriter`: Deploy, RunStart, RunDone, Undeploy.
const PARENT_CONTROL_SEGMENT: [u8; 66] = [
    0x18, 0x00, 0x00, 0x00, 0x80, 0xec, 0xe4, 0x6d, 0x06, 0x01, 0x02, 0x71, 0x31, 0x02, 0x50, 0x33,
    0x02, 0x0e, 0x3c, 0x71, 0x3e, 0x70, 0x68, 0x6f, 0x74, 0x6f, 0x6e, 0x73, 0x3c, 0x2f, 0x71, 0x3e,
    0x02, 0x00, 0x00, 0x00, 0x61, 0xa8, 0x07, 0xfe, 0x08, 0x01, 0x02, 0x00, 0x00, 0x00, 0x20, 0x99,
    0x1c, 0xe7, 0x09, 0x01, 0x06, 0x00, 0x00, 0x00, 0xe4, 0xb7, 0x67, 0xd7, 0x07, 0xac, 0x02, 0x02,
    0x71, 0x31,
];

fn control_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Deploy {
            seq: 1,
            id: "q1".into(),
            at_peer: "P3".into(),
            strategy: 2,
            text: "<q>photons</q>".into(),
        },
        WalRecord::RunStart { run: 1 },
        WalRecord::RunDone { run: 1 },
        WalRecord::Undeploy {
            seq: 300,
            id: "q1".into(),
        },
    ]
}

/// Payloads the retired kinds used to encode to: `Progress { 7, 2, 5 }`,
/// `Delivered { "q1", 3 }`, `Charge { 7, [("SP2", 42)] }`, `Uncharge { 7 }`.
const RETIRED_PAYLOADS: [&[u8]; 4] = [
    &[2, 7, 2, 5],
    &[3, 2, b'q', b'1', 3],
    &[4, 7, 1, 3, b'S', b'P', b'2', 42],
    &[5, 7],
];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dss-wal-compat-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_segment(dir: &Path, index: u64, payloads: &[Vec<u8>]) {
    let name = format!("{SEGMENT_PREFIX}{index:06}{SEGMENT_SUFFIX}");
    let mut f = File::create(dir.join(name)).unwrap();
    for p in payloads {
        write_frame(&mut f, p).unwrap();
    }
}

#[test]
fn parent_control_log_replays_unchanged() {
    let dir = fresh_dir("fixture");
    fs::write(
        dir.join(format!("{SEGMENT_PREFIX}000001{SEGMENT_SUFFIX}")),
        PARENT_CONTROL_SEGMENT,
    )
    .unwrap();
    let rp = replay(&dir).unwrap();
    assert!(rp.is_clean());
    assert_eq!(rp.records, control_records());
    // And the other direction: today's encoder writes the same bytes.
    let mut rewritten = Vec::new();
    for r in control_records() {
        write_frame(&mut rewritten, &r.encode()).unwrap();
    }
    assert_eq!(rewritten, PARENT_CONTROL_SEGMENT);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn retired_tags_are_invalid_records() {
    for payload in RETIRED_PAYLOADS {
        assert_eq!(
            WalRecord::decode(payload),
            Err(RecordError::Invalid("record tag")),
            "tag {} must stay retired",
            payload[0]
        );
    }
}

#[test]
fn retired_record_is_torn_tail_in_final_segment_and_corrupt_before_it() {
    let live = WalRecord::RunStart { run: 4 };
    for retired in RETIRED_PAYLOADS {
        // Final segment: the log ends at the last live record.
        let dir = fresh_dir("tail");
        write_segment(&dir, 1, &[live.encode(), retired.to_vec(), live.encode()]);
        let rp = replay(&dir).unwrap();
        assert!(!rp.is_clean());
        assert_eq!(rp.records, vec![live.clone()]);
        // The same segment with a later one behind it: typed corruption.
        write_segment(&dir, 2, &[live.encode()]);
        assert!(matches!(replay(&dir), Err(WalError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// One value of each `OpState` kind, with every optional field and list
/// populated at least once across the four.
fn golden_states() -> [OpState; 4] {
    let d = |s: &str| s.parse::<Decimal>().unwrap();
    let p = |s: &str| s.parse::<dss_xml::Path>().unwrap();
    let mut region = PredicateGraph::new();
    region.add_edge(
        NodeRef::Var(p("coord/cel/ra")),
        NodeRef::Zero,
        Bound {
            weight: d("138.0"),
            strict: false,
        },
    );
    let agg = |size: &str, step: &str, conditions| AggregationSpec {
        op: AggOp::Avg,
        element: p("en"),
        window: WindowSpec::diff(p("det_time"), d(size), Some(d(step))).unwrap(),
        pre_selection: region.clone(),
        result_filter: ResultFilter { conditions },
    };
    let contents = |size: &str, step: &str| WindowOutputSpec {
        window: WindowSpec::diff(p("det_time"), d(size), Some(d(step))).unwrap(),
        pre_selection: region.clone(),
    };
    let mut acc = AggItem::empty(d("10"), d("20"));
    acc.add_value(d("1.5"));
    acc.add_value(d("2.25"));
    let photon = Node::elem(
        "photon",
        vec![Node::leaf("det_time", "41.5"), Node::leaf("en", "1.5")],
    );
    [
        OpState::Agg {
            spec: agg("20", "10", vec![]),
            open: vec![
                (d("10"), acc.clone()),
                (d("20"), AggItem::empty(d("0"), d("0"))),
            ],
            youngest_start: Some(d("20")),
            items_seen: 17,
        },
        OpState::Window {
            spec: WindowOutputSpec {
                window: WindowSpec::count(d("4"), Some(d("2"))).unwrap(),
                pre_selection: PredicateGraph::new(),
            },
            open: vec![
                (d("0"), vec![photon.clone(), photon.clone()]),
                (d("2"), vec![]),
            ],
            youngest_start: None,
            items_seen: 3,
        },
        OpState::ReAgg {
            reused: agg("20", "10", vec![]),
            new: agg("60", "40", vec![(CompOp::Ge, d("1.3"))]),
            tiles: vec![(d("40"), acc)],
            next_window: Some(d("40")),
            max_seen: Some(d("50")),
        },
        OpState::ReWindow {
            reused: contents("20", "10"),
            new: contents("60", "40"),
            tiles: vec![(
                d("40"),
                WindowItem {
                    start: d("40"),
                    size: d("20"),
                    items: vec![photon],
                },
            )],
            next_window: Some(d("0")),
            max_seen: None,
        },
    ]
}

/// `put_op_state` of [`golden_states`], as the last commit with one
/// hand-written list loop per `OpState` arm encoded them.
const GOLDEN_OP_STATES: [&[u8]; 4] = [
    &[
        0x01, 0x04, 0x01, 0x02, 0x65, 0x6e, 0x01, 0x01, 0x08, 0x64, 0x65, 0x74, 0x5f, 0x74, 0x69,
        0x6d, 0x65, 0x14, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01, 0x01, 0x03, 0x05, 0x63, 0x6f, 0x6f,
        0x72, 0x64, 0x03, 0x63, 0x65, 0x6c, 0x02, 0x72, 0x61, 0x00, 0x8a, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x02, 0x0a, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x14, 0x00, 0x00, 0x02, 0x01, 0xf7, 0x02,
        0x00, 0x02, 0x01, 0x0f, 0x00, 0x01, 0x01, 0xe1, 0x01, 0x00, 0x02, 0x14, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x14, 0x00, 0x00, 0x11,
    ],
    &[
        0x02, 0x00, 0x04, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x06,
        0x70, 0x68, 0x6f, 0x74, 0x6f, 0x6e, 0x00, 0x02, 0x08, 0x64, 0x65, 0x74, 0x5f, 0x74, 0x69,
        0x6d, 0x65, 0x01, 0x04, 0x34, 0x31, 0x2e, 0x35, 0x00, 0x02, 0x65, 0x6e, 0x01, 0x03, 0x31,
        0x2e, 0x35, 0x00, 0x06, 0x70, 0x68, 0x6f, 0x74, 0x6f, 0x6e, 0x00, 0x02, 0x08, 0x64, 0x65,
        0x74, 0x5f, 0x74, 0x69, 0x6d, 0x65, 0x01, 0x04, 0x34, 0x31, 0x2e, 0x35, 0x00, 0x02, 0x65,
        0x6e, 0x01, 0x03, 0x31, 0x2e, 0x35, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x03,
    ],
    &[
        0x03, 0x04, 0x01, 0x02, 0x65, 0x6e, 0x01, 0x01, 0x08, 0x64, 0x65, 0x74, 0x5f, 0x74, 0x69,
        0x6d, 0x65, 0x14, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01, 0x01, 0x03, 0x05, 0x63, 0x6f, 0x6f,
        0x72, 0x64, 0x03, 0x63, 0x65, 0x6c, 0x02, 0x72, 0x61, 0x00, 0x8a, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x04, 0x01, 0x02, 0x65, 0x6e, 0x01, 0x01, 0x08, 0x64, 0x65, 0x74, 0x5f, 0x74, 0x69,
        0x6d, 0x65, 0x3c, 0x00, 0x00, 0x28, 0x00, 0x00, 0x01, 0x01, 0x03, 0x05, 0x63, 0x6f, 0x6f,
        0x72, 0x64, 0x03, 0x63, 0x65, 0x6c, 0x02, 0x72, 0x61, 0x00, 0x8a, 0x01, 0x00, 0x00, 0x00,
        0x01, 0x04, 0x0d, 0x00, 0x01, 0x01, 0x28, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x14, 0x00, 0x00,
        0x02, 0x01, 0xf7, 0x02, 0x00, 0x02, 0x01, 0x0f, 0x00, 0x01, 0x01, 0xe1, 0x01, 0x00, 0x02,
        0x01, 0x28, 0x00, 0x00, 0x01, 0x32, 0x00, 0x00,
    ],
    &[
        0x04, 0x01, 0x01, 0x08, 0x64, 0x65, 0x74, 0x5f, 0x74, 0x69, 0x6d, 0x65, 0x14, 0x00, 0x00,
        0x0a, 0x00, 0x00, 0x01, 0x01, 0x03, 0x05, 0x63, 0x6f, 0x6f, 0x72, 0x64, 0x03, 0x63, 0x65,
        0x6c, 0x02, 0x72, 0x61, 0x00, 0x8a, 0x01, 0x00, 0x00, 0x00, 0x01, 0x01, 0x08, 0x64, 0x65,
        0x74, 0x5f, 0x74, 0x69, 0x6d, 0x65, 0x3c, 0x00, 0x00, 0x28, 0x00, 0x00, 0x01, 0x01, 0x03,
        0x05, 0x63, 0x6f, 0x6f, 0x72, 0x64, 0x03, 0x63, 0x65, 0x6c, 0x02, 0x72, 0x61, 0x00, 0x8a,
        0x01, 0x00, 0x00, 0x00, 0x01, 0x28, 0x00, 0x00, 0x28, 0x00, 0x00, 0x14, 0x00, 0x00, 0x01,
        0x06, 0x70, 0x68, 0x6f, 0x74, 0x6f, 0x6e, 0x00, 0x02, 0x08, 0x64, 0x65, 0x74, 0x5f, 0x74,
        0x69, 0x6d, 0x65, 0x01, 0x04, 0x34, 0x31, 0x2e, 0x35, 0x00, 0x02, 0x65, 0x6e, 0x01, 0x03,
        0x31, 0x2e, 0x35, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    ],
];

#[test]
fn op_state_bytes_are_pinned_to_the_parent_encoder() {
    for (state, golden) in golden_states().iter().zip(GOLDEN_OP_STATES) {
        let mut bytes = Vec::new();
        put_op_state(&mut bytes, state);
        assert_eq!(bytes, golden, "encoding of {state:?} moved");
        let mut r = Reader::new(golden);
        assert_eq!(get_op_state(&mut r).as_ref(), Ok(state));
        r.finish().expect("golden bytes are consumed exactly");
    }
}
