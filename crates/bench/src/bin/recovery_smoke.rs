//! Crash-recovery smoke gate (E13).
//!
//! Runs the checkpoint-cadence × crash-point recovery matrix on the
//! durable live runtime and fails, with a non-zero exit, when
//!
//! * any crashed run's deliveries are not byte-identical to the
//!   uncrashed baseline (anything lost or duplicated),
//! * any recovery degrades to replan-from-scratch (a WAL fallback or a
//!   replanning failover), or
//! * a denser checkpoint cadence pays a *larger* replay extent than a
//!   sparser one on the same crash point.
//!
//! Every record boundary of the victim's log is a crash point. The
//! measured matrix is written to `BENCH_recovery.json` (override with
//! `--out`).

use dss_bench::recovery::{gate, matrix_to_json, run_matrix};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_recovery.json".to_string());

    println!("crash recovery smoke: resume-not-replan, exactly-once at every record boundary");
    let records = run_matrix();
    for r in &records {
        println!("  {}", r.render());
    }
    std::fs::write(&out, matrix_to_json(&records)).expect("write BENCH_recovery.json");
    println!("wrote {out}");

    let failures = gate(&records);
    if failures.is_empty() {
        println!("recovery smoke OK");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
