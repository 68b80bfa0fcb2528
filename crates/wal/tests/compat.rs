//! On-disk compatibility across the retirement of record tags 2–5
//! (`Progress`, `Delivered`, `Charge`, `Uncharge` — logged once, never
//! replayed): the surviving control-plane tags keep their exact bytes, and
//! a retired payload is an undecodable record, never a live kind.

use std::fs::{self, File};
use std::path::{Path, PathBuf};

use dss_proto::write_frame;
use dss_wal::{replay, RecordError, WalError, WalRecord, SEGMENT_PREFIX, SEGMENT_SUFFIX};

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
