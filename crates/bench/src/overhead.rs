//! The telemetry-overhead guard's workload: scenario 2's 100 queries
//! registered under stream sharing on a fresh system — the registration
//! path (`register_query` spans, `subscribe_input` searches, share-book
//! charges), which is the code that records. Packaged as a library
//! function so `scripts/telemetry_overhead.sh` can time the identical work
//! with the telemetry layer compiled in (but disabled) and compiled out,
//! and fail on regression.

use dss_core::Strategy;
use dss_rass::Scenario;

/// The pre-generated scenario, so the timed region holds only the
/// registrations (and the system they start from).
pub struct Workload {
    scenario: Scenario,
}

impl Default for Workload {
    fn default() -> Workload {
        Workload::new()
    }
}

impl Workload {
    pub fn new() -> Workload {
        Workload {
            scenario: Scenario::scenario2(42),
        }
    }

    /// Registers every query on a fresh [`Scenario::build_system`]; returns
    /// the summed plan cost so the caller can keep the result observable
    /// (and check determinism).
    pub fn run_once(&self) -> f64 {
        let outcome = self.scenario.run(Strategy::StreamSharing, false);
        assert!(outcome.errored.is_empty(), "{:?}", outcome.errored);
        outcome
            .registrations
            .iter()
            .map(|r| r.plan.total_cost)
            .sum()
    }
}
