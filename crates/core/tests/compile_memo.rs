//! A registration plans from the process's memo of compiled subscriptions
//! (`dss_core::system`), keyed by the exact text. Compiling is a pure
//! function of the text, so every registration — first ask or repeat —
//! must install exactly the plan a fresh compile of its text gets from a
//! copy of the state it was registered against.

use std::collections::BTreeSet;

use dss_core::strategy::plan_query_with;
use dss_core::{Strategy, StreamGlobe};
use dss_network::grid_topology;
use dss_rass::{default_photons, QueryTemplateGenerator, ValueSets};
use dss_wxquery::compile_query;

/// Narrow value sets: a few dozen distinct texts, so a run repeats most
/// of them.
fn narrow_sets() -> ValueSets {
    let d = ValueSets::default();
    ValueSets {
        ra_ranges: d.ra_ranges[..2].to_vec(),
        dec_ranges: d.dec_ranges[..2].to_vec(),
        en_cuts: d.en_cuts[..3].to_vec(),
        windows: d.windows[..2].to_vec(),
        agg_ops: d.agg_ops[..2].to_vec(),
        projections: d.projections[..2].to_vec(),
    }
}

/// Registers `n` template subscriptions, cycling the three strategies
/// over a 4×4 grid, and checks each installed plan against a fresh
/// compile planned on a clone of the system taken just before.
fn registrations_plan_as_a_fresh_compile(seed: u64, n: usize, widening: bool) {
    let mut sys = StreamGlobe::new(grid_topology(4, 4));
    sys.set_widening(widening);
    sys.register_stream("photons", "SP0", default_photons(seed, 120), 50.0)
        .unwrap();
    let mut templates = QueryTemplateGenerator::with_sets(seed, "photons", narrow_sets());
    let strategies = [
        Strategy::StreamSharing,
        Strategy::DataShipping,
        Strategy::QueryShipping,
    ];
    let mut distinct = BTreeSet::new();
    for i in 0..n {
        let text = templates.next_query();
        let peer = format!("SP{}", (i * 7 + 3) % 16);
        let strategy = strategies[i % strategies.len()];
        let require_feasible = i % 5 == 0;

        let before = sys.clone();
        let at = before.topology().expect_node(&peer);
        let fresh = compile_query(&text).expect("template compiles");
        let expected = plan_query_with(
            before.state(),
            &fresh,
            at,
            at,
            strategy,
            require_feasible,
            widening,
        )
        .map(|plan| format!("{plan:?}"))
        .map_err(|e| e.to_string());

        let installed = sys
            .register_query_opts(format!("q{i}"), &text, &peer, strategy, require_feasible)
            .map(|reg| format!("{:?}", reg.plan))
            .map_err(|e| e.to_string());
        assert_eq!(
            installed, expected,
            "registration {i} ({strategy:?} at {peer}, widening {widening}):\n{text}"
        );
        distinct.insert(text);
    }
    assert!(
        distinct.len() * 4 < n,
        "{} distinct texts in {n} registrations: too few repeats to test the memo",
        distinct.len()
    );
}

#[test]
fn every_registration_installs_the_plan_of_a_fresh_compile() {
    registrations_plan_as_a_fresh_compile(42, 500, false);
}

#[test]
fn every_widening_registration_installs_the_plan_of_a_fresh_compile() {
    registrations_plan_as_a_fresh_compile(7, 500, true);
}
