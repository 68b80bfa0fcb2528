//! `dss-perf` — the repo benchmark (see bench/README.md; run it through
//! bench/run.sh, which builds the `dss` binary the fleet workloads spawn).
//!
//! Two modes:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one workload
//!   and prints, as the last line of stdout, one JSON object with
//!   `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//!   metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! * without `--workload` it runs the whole suite (every workload untraced,
//!   then traced), prints every metric by name with its unit, and writes
//!   `bench/out/results.json`; `--selfcheck` does that twice and fails if
//!   the two sets disagree by more than the bounds in `BENCHMARK.json`.

mod calib;
mod catalog;
mod fleet;
mod layers;
mod procfs;
mod stats;
mod suite;
mod tracer;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Env;

const USAGE: &str = "usage: dss-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--selfcheck] [--dss-bin PATH] [--out DIR]";

struct Args {
    workload: Option<String>,
    seed: u64,
    /// Measuring time per run; `run_seconds` of `BENCHMARK.json` by default.
    seconds: f64,
    traced: bool,
    selfcheck: bool,
    env: Env,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 25.0,
        traced: false,
        selfcheck: false,
        env: Env {
            dss_bin: PathBuf::from("target/release/dss"),
            out: PathBuf::from("bench/out"),
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed requires a non-negative integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds requires a number".to_string())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace requires 0 or 1".into()),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--dss-bin" => args.env.dss_bin = value()?.into(),
            "--out" => args.env.out = value()?.into(),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !catalog::WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}"));
        }
        if args.selfcheck {
            return Err("--selfcheck runs the whole suite; drop --workload".into());
        }
    }
    Ok(args)
}

/// Runs one workload; `Ok(true)` when its outputs were correct.
fn run_workload(workload: &str, args: &Args) -> Result<bool, String> {
    let out = workloads::run(workload, args.seed, args.seconds, args.traced, &args.env)?;
    suite::print_outcome(workload, &out, args.traced);
    suite::write_record(&args.env, workload, &out, args.traced)?;
    println!("{}", suite::outcome_json(&out, args.traced, false));
    Ok(out.correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dss-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.env.dss_bin.is_file() {
        eprintln!(
            "dss-perf: no dss binary at {:?}; run bench/run.sh, which builds it",
            args.env.dss_bin
        );
        return ExitCode::from(2);
    }
    let outcome = match &args.workload {
        Some(workload) => run_workload(workload, &args).map_err(|e| format!("{workload}: {e}")),
        None => suite::run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dss-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
