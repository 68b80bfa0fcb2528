//! Reporting, and suite mode: every workload untraced, then traced, in one
//! invocation — each run in a process of its own, exactly as a
//! single-workload invocation runs it, so that one workload's memory
//! high-water mark and allocator state never leak into the next. Every
//! metric is printed by name with its unit; `bench/out/results.json`
//! collects the runs; with `--selfcheck` the whole suite runs twice and the
//! two sets are compared against the bounds `BENCHMARK.json` fixes.

use std::path::PathBuf;
use std::process::Command;

use dss_bench::json::{escape, number};
use dss_bench::report::render_table;
use dss_telemetry::json::{parse, Json};

use crate::catalog;
use crate::workloads::{Env, Outcome};
use crate::Args;

fn definitions(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &catalog::PER_LAYER
    } else {
        &catalog::END_TO_END
    }
}

/// Prints one run's metrics as an aligned table on stdout.
pub fn print_outcome(workload: &str, out: &Outcome, traced: bool) {
    let header = ["metric", "value", "unit", "iqr/median"].map(String::from);
    let rows: Vec<Vec<String>> = definitions(traced)
        .iter()
        .map(|(name, unit)| {
            let noise = out.values.noise.get(*name);
            vec![
                name.to_string(),
                format!("{:.4}", out.values.get(name)),
                unit.to_string(),
                noise.map_or("-".to_string(), |n| format!("{n:.3}")),
            ]
        })
        .collect();
    println!(
        "== {workload} ({}): {} attempted, {} failed, outputs {}, host slowdown {:.3}",
        if traced { "traced" } else { "untraced" },
        out.attempted,
        out.failed,
        if out.correct { "correct" } else { "WRONG" },
        out.host_slowdown
    );
    print!("{}", render_table(&header, &rows));
    for f in &out.failures {
        println!("   failure: {f}");
    }
}

/// One run as a JSON object: `correct`, `attempted`, `failed` and the
/// metrics in catalogue order — the result line of the driver's contract.
/// `with_noise` adds each metric's IQR ÷ median, the recorded noise floor.
pub fn outcome_json(out: &Outcome, traced: bool, with_noise: bool) -> String {
    let metrics: Vec<String> = definitions(traced)
        .iter()
        .map(|(name, unit)| {
            let noise = if with_noise {
                let spread = out.values.noise.get(*name);
                let spread = spread.map_or("null".to_string(), |n| number(*n));
                format!(",\"iqr_over_median\":{spread}")
            } else {
                String::new()
            };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"{noise}}}",
                escape(name),
                number(out.values.get(name)),
                escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

/// Where a single-workload run leaves its record for the suite.
fn record_path(env: &Env, workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "per_layer" } else { "end_to_end" };
    env.out.join(format!("run-{workload}-{kind}.json"))
}

pub fn write_record(env: &Env, workload: &str, out: &Outcome, traced: bool) -> Result<(), String> {
    std::fs::create_dir_all(&env.out).map_err(|e| format!("creating {:?}: {e}", env.out))?;
    let path = record_path(env, workload, traced);
    std::fs::write(&path, outcome_json(out, traced, true))
        .map_err(|e| format!("writing {path:?}: {e}"))
}

/// One workload's untraced and traced run, as their records' text.
struct Entry {
    workload: &'static str,
    end_to_end: String,
    per_layer: String,
}

/// Runs one workload in a child process (its tables and result line go
/// straight to our stdout) and returns its record.
fn run_child(args: &Args, workload: &str, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating dss-perf: {e}"))?;
    let path = record_path(&args.env, workload, traced);
    let _ = std::fs::remove_file(&path);
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--dss-bin")
        .arg(&args.env.dss_bin)
        .arg("--out")
        .arg(&args.env.out)
        .status()
        .map_err(|e| format!("running {workload}: {e}"))?;
    // An incorrect run still leaves its record; a crashed one does not.
    std::fs::read_to_string(&path).map_err(|_| format!("{workload} ended with {status}"))
}

fn run_set(args: &Args) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for workload in catalog::WORKLOADS {
        entries.push(Entry {
            workload,
            end_to_end: run_child(args, workload, false)?,
            per_layer: run_child(args, workload, true)?,
        });
    }
    Ok(entries)
}

/// `(metric, bound)` of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json lists no end_to_end metrics")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "an end_to_end metric lacks name or bound".to_string())
        })
        .collect()
}

fn value_of(record: &Json, metric: &str) -> f64 {
    let value = record
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"));
    value.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Compares two sets of runs of the same code: every end-to-end metric of
/// every workload must agree within its bound. Returns the disagreements.
fn disagreements(a: &[Entry], b: &[Entry]) -> Result<Vec<String>, String> {
    let bounds = bounds()?;
    let mut bad = Vec::new();
    for (x, y) in a.iter().zip(b) {
        let rx = parse(&x.end_to_end).map_err(|e| e.to_string())?;
        let ry = parse(&y.end_to_end).map_err(|e| e.to_string())?;
        for (metric, bound) in &bounds {
            let (p, q) = (value_of(&rx, metric), value_of(&ry, metric));
            let apart = (p - q).abs() / p.abs().min(q.abs()).max(f64::MIN_POSITIVE);
            println!(
                "selfcheck {:<18} {:<16} {:>14.4} {:>14.4}  apart {:>6.3}  bound {:.2}",
                x.workload, metric, p, q, apart, bound
            );
            if apart > *bound {
                bad.push(format!(
                    "{metric} on {}: {p} vs {q} ({:.1} % apart, bound {:.0} %)",
                    x.workload,
                    apart * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    Ok(bad)
}

/// Runs the suite; `Ok(true)` when every run was correct, nothing failed
/// and (with `--selfcheck`) the two sets agree.
pub fn run(args: &Args) -> Result<bool, String> {
    let mut sets = vec![run_set(args)?];
    let mut bad = Vec::new();
    if args.selfcheck {
        sets.push(run_set(args)?);
        bad = disagreements(&sets[0], &sets[1])?;
    }
    let mut clean = true;
    for entry in sets.iter().flatten() {
        for record in [&entry.end_to_end, &entry.per_layer] {
            let record = parse(record).map_err(|e| format!("{}: {e}", entry.workload))?;
            let correct = record.get("correct").and_then(Json::as_bool) == Some(true);
            let failed = record.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
            clean &= correct && failed == 0.0;
        }
    }
    let quoted: Vec<String> = bad.iter().map(|b| format!("\"{}\"", escape(b))).collect();
    let sets: Vec<String> = sets
        .iter()
        .map(|set| {
            let members: Vec<String> = set
                .iter()
                .map(|e| {
                    format!(
                        "\"{}\":{{\"end_to_end\":{},\"per_layer\":{}}}",
                        e.workload, e.end_to_end, e.per_layer
                    )
                })
                .collect();
            format!("{{{}}}", members.join(","))
        })
        .collect();
    let doc = format!(
        "{{\"seed\":{},\"seconds\":{},\"threads\":{},\"clean\":{},\
         \"selfcheck_disagreements\":[{}],\"sets\":[{}]}}\n",
        args.seed,
        number(args.seconds),
        std::thread::available_parallelism().map_or(1, usize::from),
        clean,
        quoted.join(","),
        sets.join(",")
    );
    let path = args.env.out.join("results.json");
    std::fs::write(&path, doc).map_err(|e| format!("writing {path:?}: {e}"))?;
    println!("wrote {}", path.display());
    for b in &bad {
        println!("selfcheck FAILED: {b}");
    }
    Ok(clean && bad.is_empty())
}
