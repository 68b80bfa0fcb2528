//! Property coverage for the WAL replay reader (mirroring the
//! `dss_proto` corruption suite): over arbitrary record sequences,
//! random bit-flips, truncations, and torn final records must either
//! replay a valid prefix or return a typed error — never panic, never
//! yield a corrupt record.

use std::fs::{self, OpenOptions};
use std::path::PathBuf;

use proptest::prelude::*;

use dss_wal::{replay, truncate_to_records, WalError, WalOptions, WalRecord, WalWriter};

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (
            0u64..1000,
            "[a-z]{1,6}",
            "[A-Z]{1,4}",
            0u8..3,
            "[ -~]{0,24}"
        )
            .prop_map(|(seq, id, at_peer, strategy, text)| WalRecord::Deploy {
                seq,
                id,
                at_peer,
                strategy,
                text,
            }),
        (0u64..1000, "[a-z]{1,6}").prop_map(|(seq, id)| WalRecord::Undeploy { seq, id }),
        (0u64..1000).prop_map(|run| WalRecord::RunStart { run }),
        (0u64..1000).prop_map(|run| WalRecord::RunDone { run }),
        (
            0u64..64,
            0u64..10_000,
            prop::collection::vec((0u64..64, 0u64..10_000), 0..4)
        )
            .prop_map(|(group, consumed, emits)| WalRecord::Checkpoint {
                group,
                consumed,
                emits,
                states: Vec::new(),
            }),
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dss-wal-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn write_log(dir: &PathBuf, records: &[WalRecord], segment_bytes: u64) {
    let mut w = WalWriter::open(
        dir,
        WalOptions {
            segment_bytes,
            fsync_every: 8,
        },
    )
    .unwrap();
    for r in records {
        w.append(r).unwrap();
    }
    w.sync().unwrap();
}

/// Paths of segment files in index order.
fn segment_paths(dir: &PathBuf) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    out.sort();
    out
}

/// The invariant every corruption must preserve: the replay either
/// returns a *prefix* of the original append sequence (possibly with a
/// torn-tail note) or a typed [`WalError`]. A non-prefix result means a
/// corrupt record leaked through.
fn assert_prefix_or_error(dir: &PathBuf, original: &[WalRecord]) {
    match replay(dir) {
        Ok(rp) => {
            assert!(
                rp.records.len() <= original.len(),
                "replay invented {} extra records",
                rp.records.len() - original.len()
            );
            assert_eq!(
                rp.records,
                original[..rp.records.len()],
                "replay must yield an exact prefix"
            );
        }
        Err(WalError::Corrupt { .. }) => {}
        Err(WalError::Io(e)) => panic!("unexpected i/o error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clean logs replay byte-exactly across segment boundaries.
    #[test]
    fn clean_replay_is_identity(
        records in prop::collection::vec(arb_record(), 0..40),
        segment_bytes in prop_oneof![Just(48u64), Just(256u64), Just(1u64 << 20)],
    ) {
        let dir = fresh_dir("clean");
        write_log(&dir, &records, segment_bytes);
        let rp = replay(&dir).unwrap();
        prop_assert!(rp.is_clean());
        prop_assert_eq!(rp.records, records);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A single flipped bit anywhere in the log never panics and never
    /// yields a record sequence that is not a prefix of the original.
    #[test]
    fn bit_flips_yield_prefix_or_typed_error(
        records in prop::collection::vec(arb_record(), 1..30),
        segment_bytes in prop_oneof![Just(64u64), Just(1u64 << 20)],
        permille in 0usize..1000,
        bit in 0u8..8,
    ) {
        let dir = fresh_dir("flip");
        write_log(&dir, &records, segment_bytes);
        let paths = segment_paths(&dir);
        // Pick a byte position across the whole log, then locate it.
        let sizes: Vec<u64> = paths.iter().map(|p| fs::metadata(p).unwrap().len()).collect();
        let total: u64 = sizes.iter().sum();
        prop_assume!(total > 0);
        let mut target = (total as usize * permille / 1000).min(total as usize - 1) as u64;
        for (path, size) in paths.iter().zip(&sizes) {
            if target < *size {
                let mut bytes = fs::read(path).unwrap();
                bytes[target as usize] ^= 1 << bit;
                fs::write(path, &bytes).unwrap();
                break;
            }
            target -= size;
        }
        assert_prefix_or_error(&dir, &records);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncating the log at any byte — the torn final record a crash
    /// leaves behind — replays a valid prefix or errors, never panics.
    #[test]
    fn truncations_yield_prefix_or_typed_error(
        records in prop::collection::vec(arb_record(), 1..30),
        segment_bytes in prop_oneof![Just(64u64), Just(1u64 << 20)],
        permille in 0usize..1000,
    ) {
        let dir = fresh_dir("cut");
        write_log(&dir, &records, segment_bytes);
        let paths = segment_paths(&dir);
        let last = paths.last().unwrap();
        let len = fs::metadata(last).unwrap().len();
        let cut = len * permille as u64 / 1000;
        OpenOptions::new().write(true).open(last).unwrap().set_len(cut).unwrap();
        assert_prefix_or_error(&dir, &records);
        // A cut in the FINAL segment specifically must stay replayable
        // (prefix, not error): that is the torn-tail tolerance contract.
        let rp = replay(&dir).unwrap();
        prop_assert!(rp.records.len() <= records.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Appending random garbage after a clean log (a torn final record
    /// with trailing junk) still replays the full original prefix.
    #[test]
    fn garbage_tail_preserves_prefix(
        records in prop::collection::vec(arb_record(), 0..20),
        junk in prop::collection::vec(0u8..=u8::MAX, 1..40),
    ) {
        let dir = fresh_dir("junk");
        write_log(&dir, &records, 1 << 20);
        let paths = segment_paths(&dir);
        let last = paths.last().unwrap();
        let mut bytes = fs::read(last).unwrap();
        bytes.extend_from_slice(&junk);
        fs::write(last, &bytes).unwrap();
        assert_prefix_or_error(&dir, &records);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `truncate_to_records` (the crash-point injector) always lands on
    /// a record boundary: replay is clean and exactly `keep` records.
    #[test]
    fn truncate_to_records_is_exact(
        records in prop::collection::vec(arb_record(), 0..30),
        segment_bytes in prop_oneof![Just(64u64), Just(1u64 << 20)],
        keep_permille in 0usize..=1000,
    ) {
        let dir = fresh_dir("keepn");
        write_log(&dir, &records, segment_bytes);
        let keep = (records.len() * keep_permille / 1000) as u64;
        truncate_to_records(&dir, keep).unwrap();
        let rp = replay(&dir).unwrap();
        prop_assert!(rp.is_clean());
        prop_assert_eq!(rp.records, records[..keep as usize].to_vec());
        fs::remove_dir_all(&dir).unwrap();
    }
}
