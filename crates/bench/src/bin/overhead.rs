//! Times the telemetry-overhead guard workload (scenario 2's 100 queries
//! registered under stream sharing, [`dss_bench::overhead`]) and prints
//! the median wall time of a sample.
//!
//! ```text
//! overhead [samples]        default 30, plus 3 warm-up runs
//! ```
//!
//! A sample is [`CALLS_PER_SAMPLE`] runs of the workload. One run takes
//! ≈ 4–7 ms on a 2-vCPU host (from the second run on, every text is
//! compiled already: the process keeps its compiled subscriptions); a
//! sample of one run scattered with the scheduler by more than the
//! guard's bound.
//!
//! `scripts/telemetry_overhead.sh` runs this binary from two builds — one
//! with the telemetry layer compiled in (the default; recording stays
//! disabled) and one with `--no-default-features` — and compares the
//! `median_ns` lines. Telemetry must stay free when off, so the two medians
//! may differ only by noise.

use std::time::Instant;

/// Workload runs timed as one sample: ≥ 20 ms on a 2-vCPU host.
const CALLS_PER_SAMPLE: usize = 5;

fn main() {
    let samples: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);

    // `set_enabled` only sticks when the `runtime` feature is compiled in,
    // so round-tripping the flag detects which build this is.
    dss_telemetry::set_enabled(true);
    let compiled_in = dss_telemetry::enabled();
    dss_telemetry::set_enabled(false);

    let workload = dss_bench::overhead::Workload::new();
    let reference = workload.run_once();
    for _ in 0..2 {
        assert_eq!(
            workload.run_once(),
            reference,
            "workload must be deterministic"
        );
    }

    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS_PER_SAMPLE {
                let cost = workload.run_once();
                assert_eq!(cost, reference, "workload must be deterministic");
            }
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];

    println!(
        "100 registrations: {samples} samples of {CALLS_PER_SAMPLE} runs, telemetry compiled {} \
         (recording off)",
        if compiled_in { "in" } else { "out" },
    );
    println!("median_ns {median}");
}
