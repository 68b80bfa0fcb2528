//! Flat-latency smoke gate for the indexed plan search (E11).
//!
//! Registers `--count` template subscriptions (default 100 000, env
//! `DSS_SMOKE_SUBS`) and fails, with a non-zero exit, when
//!
//! * per-registration latency is not near-flat — last-decile p99 more
//!   than `--ratio` (default 2.5, env `DSS_SMOKE_FLAT_RATIO`) times the
//!   first-decile p99, or
//! * any indexed-vs-full-scan checkpoint probe produced a different
//!   winning plan, or
//! * the index did not prune any candidates at the final checkpoint.
//!
//! The measured curve is written to `BENCH_subscribe.json` (override with
//! `--out`). `DSS_BENCH_FULL=1` additionally runs the million-
//! subscription tier.

use dss_bench::registration::{registration_curve, run_tier, RegistrationCurve};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn env_or<T: std::str::FromStr>(args: &[String], flag: &str, env: &str, default: T) -> T {
    arg_value(args, flag)
        .or_else(|| std::env::var(env).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let count: usize = env_or(&args, "--count", "DSS_SMOKE_SUBS", 100_000);
    let ratio: f64 = env_or(&args, "--ratio", "DSS_SMOKE_FLAT_RATIO", 2.5);
    let out = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_subscribe.json".to_string());
    let seed: u64 = env_or(&args, "--seed", "DSS_SMOKE_SEED", 7);

    println!("registration smoke: {count} subscriptions, flat-ratio bound {ratio} (seed {seed})");
    let mut curve = RegistrationCurve {
        seed,
        tiers: vec![run_tier(seed, count)],
    };
    if std::env::var("DSS_BENCH_FULL").is_ok_and(|v| v == "1") {
        println!("DSS_BENCH_FULL=1: adding the million-subscription tier");
        curve
            .tiers
            .extend(registration_curve(seed, &[1_000_000]).tiers);
    }
    for tier in &curve.tiers {
        println!("  {}", tier.render());
        for c in &tier.checkpoints {
            println!(
                "    checkpoint @{:>9}: {:>9} flows deployed ({} shareable, {} distinct chains), \
                 candidates {} full / {} indexed, plans identical: {}",
                c.installed,
                c.deployed_flows,
                c.shareable_flows,
                c.distinct_chains,
                c.full_scan_candidates,
                c.indexed_candidates,
                c.plans_identical,
            );
        }
    }
    std::fs::write(&out, curve.to_json()).expect("write BENCH_subscribe.json");
    println!("wrote {out}");

    let mut failures = Vec::new();
    for tier in &curve.tiers {
        // `le`, not `>` negated: an incomparable (NaN) ratio must fail the bound.
        if !tier.flat_ratio.le(&ratio) {
            failures.push(format!(
                "{} subs: flat ratio {:.2} exceeds bound {ratio}",
                tier.subscriptions, tier.flat_ratio
            ));
        }
        for c in &tier.checkpoints {
            if !c.plans_identical {
                failures.push(format!(
                    "{} subs @{}: indexed and full-scan plans diverge",
                    tier.subscriptions, c.installed
                ));
            }
            if c.indexed_candidates > c.full_scan_candidates {
                failures.push(format!(
                    "{} subs @{}: index matched more candidates ({}) than the full scan ({})",
                    tier.subscriptions, c.installed, c.indexed_candidates, c.full_scan_candidates
                ));
            }
        }
        if let Some(last) = tier.checkpoints.last() {
            if last.indexed_candidates >= last.full_scan_candidates {
                failures.push(format!(
                    "{} subs: index pruned nothing at the final checkpoint ({} vs {})",
                    tier.subscriptions, last.indexed_candidates, last.full_scan_candidates
                ));
            }
        }
    }
    if failures.is_empty() {
        println!("registration smoke OK");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
