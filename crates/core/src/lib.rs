//! Data stream sharing — the paper's core contribution.
//!
//! This crate implements Section 3 of "Data Stream Sharing" (Kuntschke &
//! Kemper, EDBT 2006):
//!
//! * [`stats`] — the statistics catalog (element occurrences/sizes, value
//!   ranges, reference-element increments) behind selectivity and
//!   size/frequency estimation,
//! * [`cost`] — the cost model: `size(p)`, `freq(p)`, `u_b(e)`, `u_l(v)`,
//!   and the γ-weighted, exponentially-penalized plan cost `C(P)`,
//! * [`plan`] — evaluation plans and `generatePlan`,
//! * [`subscribe`] — Algorithm 1, the pruned breadth-first search for
//!   shareable streams,
//! * [`strategy`] — data shipping, query shipping, and stream sharing,
//! * [`admission`] — capacity-capped registration (the paper's rejection
//!   experiment),
//! * [`system`] — the `StreamGlobe` façade tying registration, planning,
//!   installation, and simulation together, and
//! * [`live`] — live execution under the discrete-event runtime with
//!   fault injection and automatic re-subscription after peer failures, and
//! * [`rebalance`] — periodic re-optimization: measured-load feedback into
//!   the planner and planned, state-carrying query migration off
//!   overloaded peers.

pub mod admission;
pub mod cost;
pub mod live;
pub mod plan;
pub mod rebalance;
pub mod state;
pub mod stats;
pub mod strategy;
pub mod subscribe;
pub mod system;

pub use admission::{AdmissionControl, AdmissionReport};
pub use cost::{CostParams, StreamEstimate};
pub use live::{FailoverReport, LiveOutcome};
pub use plan::{Plan, PlanPart, WidenDelta};
pub use rebalance::{MigratedQuery, MigrationDecision, RebalanceCycle, RebalancePolicy};
pub use state::NetworkState;
pub use stats::StreamStats;
pub use strategy::{plan_query, Strategy};
pub use subscribe::{
    subscribe, subscribe_full_scan, subscribe_with, SearchOrder, SearchStats, SubscribeError,
};
pub use system::{Registration, StreamGlobe, SystemError};

#[cfg(test)]
mod tests {
    use super::*;
    use dss_network::example_topology;
    use dss_wxquery::queries;
    use dss_xml::Node;

    /// A small deterministic photon sample inside/outside the Vela region.
    pub(crate) fn photons(n: usize) -> Vec<Node> {
        (0..n)
            .map(|i| {
                // Co-prime periods so every sub-region (Vela, RX J0852.0-4622)
                // receives photons.
                let ra = 100.0 + (i % 79) as f64; // 100..178; Vela = [120,138]
                let dec = -55.0 + (i % 23) as f64; // -55..-33; Vela = [-49,-40]
                let en = 0.5 + (i % 30) as f64 / 10.0; // 0.5..3.4
                Node::elem(
                    "photon",
                    vec![
                        Node::leaf("phc", i.to_string()),
                        Node::elem(
                            "coord",
                            vec![
                                Node::elem(
                                    "cel",
                                    vec![
                                        Node::leaf("ra", format!("{ra:.1}")),
                                        Node::leaf("dec", format!("{dec:.1}")),
                                    ],
                                ),
                                Node::elem(
                                    "det",
                                    vec![
                                        Node::leaf("dx", ((i * 7) % 512).to_string()),
                                        Node::leaf("dy", ((i * 13) % 512).to_string()),
                                    ],
                                ),
                            ],
                        ),
                        Node::leaf("en", format!("{en:.1}")),
                        Node::leaf("det_time", (i * 2).to_string()),
                    ],
                )
            })
            .collect()
    }

    pub(crate) fn system_with_photons() -> StreamGlobe {
        let mut sys = StreamGlobe::new(example_topology());
        sys.register_stream("photons", "P0", photons(400), 100.0)
            .unwrap();
        sys
    }

    #[test]
    fn stream_registration_creates_source_flow() {
        let sys = system_with_photons();
        assert_eq!(sys.deployment().len(), 1);
        let flow = sys.deployment().flow(0);
        assert_eq!(flow.label, "photons@SP4");
        assert_eq!(
            flow.target_node(),
            sys.topology().expect_node("SP4"),
            "the stream is registered at SP4"
        );
    }

    #[test]
    fn duplicate_stream_rejected() {
        let mut sys = system_with_photons();
        let err = sys
            .register_stream("photons", "P0", photons(10), 1.0)
            .unwrap_err();
        assert!(matches!(err, SystemError::DuplicateStream(_)));
    }

    #[test]
    fn empty_stream_registers_and_carries_nothing() {
        // An empty sample is an input, not a bug: the stream registers
        // with zero-traffic statistics, queries plan over it under every
        // strategy, and a run delivers nothing.
        let mut sys = StreamGlobe::new(example_topology());
        sys.register_stream("photons", "P0", Vec::new(), 100.0)
            .unwrap();
        assert_eq!(sys.state().stream_stats["photons"].item_size, 0.0);
        for (i, strategy) in Strategy::ALL.into_iter().enumerate() {
            let query = [queries::Q1, queries::Q3][i % 2];
            let reg = sys
                .register_query(format!("q{i}"), query, "P1", strategy)
                .unwrap();
            assert!(reg.plan.total_cost.is_finite());
        }
        let out = sys.run_simulation(Default::default());
        assert!(out.flow_outputs.iter().all(Vec::is_empty));
        assert_eq!(out.metrics.total_edge_bytes(), 0);
    }

    #[test]
    fn q1_stream_sharing_pushes_into_network() {
        let mut sys = system_with_photons();
        let reg = sys
            .register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        // The motivating example: Q1's operators run at SP4 (the source's
        // super-peer) and the *filtered* stream travels to SP1.
        let part = &reg.plan.parts[0];
        assert_eq!(part.tap_node, sys.topology().expect_node("SP4"));
        assert!(!part.ops.is_empty());
        let names: Vec<&str> = part
            .route
            .iter()
            .map(|&n| sys.topology().peer(n).name.as_str())
            .collect();
        assert_eq!(names, vec!["SP4", "SP0", "SP5", "SP1"]);
        // Delivery continues to the thin peer.
        assert_eq!(
            reg.plan.deliver_route.last().copied(),
            Some(sys.topology().expect_node("P1"))
        );
        assert!(!reg.reused_derived_stream);
    }

    #[test]
    fn q2_reuses_q1_result_stream() {
        let mut sys = system_with_photons();
        sys.register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        let reg2 = sys
            .register_query("q2", queries::Q2, "P2", Strategy::StreamSharing)
            .unwrap();
        // Q2 must tap q1's stream (cheaper than pulling the full photons
        // stream from SP4) — the paper duplicates it at SP5.
        assert!(
            reg2.reused_derived_stream,
            "q2 should reuse q1's derived stream"
        );
        let part = &reg2.plan.parts[0];
        let tapped = sys.deployment().flow(part.tap_flow).label.clone();
        assert_eq!(tapped, "q1/photons");
        assert_eq!(
            sys.topology().peer(part.tap_node).name,
            "SP5",
            "duplication happens at SP5 as in Figure 2"
        );
    }

    #[test]
    fn q4_reuses_q3_aggregates_via_reaggregation() {
        let mut sys = system_with_photons();
        sys.register_query("q3", queries::Q3, "P3", Strategy::StreamSharing)
            .unwrap();
        let reg4 = sys
            .register_query("q4", queries::Q4, "P4", Strategy::StreamSharing)
            .unwrap();
        assert!(
            reg4.reused_derived_stream,
            "q4 should reuse q3's aggregate stream"
        );
        let part = &reg4.plan.parts[0];
        assert!(
            part.ops
                .iter()
                .any(|op| matches!(op, dss_network::FlowOp::ReAggregate { .. })),
            "q4 installs a re-aggregation, got {:?}",
            part.ops
        );
    }

    #[test]
    fn window_contents_queries_share_via_rewindowing() {
        let fine = r#"<photons>{ for $w in stream("photons")/photons/photon
            [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0]
            |det_time diff 20 step 10|
            return <wnd>{ $w }</wnd> }</photons>"#;
        let coarse = r#"<photons>{ for $w in stream("photons")/photons/photon
            [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0]
            |det_time diff 60 step 40|
            return <wnd>{ $w }</wnd> }</photons>"#;
        let mut sys = system_with_photons();
        sys.register_query("wfine", fine, "P3", Strategy::StreamSharing)
            .unwrap();
        let reg = sys
            .register_query("wcoarse", coarse, "P4", Strategy::StreamSharing)
            .unwrap();
        assert!(
            reg.reused_derived_stream,
            "coarse windows should reuse the fine stream"
        );
        assert!(
            reg.plan.parts[0]
                .ops
                .iter()
                .any(|op| matches!(op, dss_network::FlowOp::ReWindow { .. })),
            "expected a re-windowing operator, got {:?}",
            reg.plan.parts[0].ops
        );
        // And the delivered results equal the unshared computation.
        let sim = sys.run_simulation(dss_network::SimConfig::default());
        let shared = sim.flow_outputs[reg.delivery_flow].clone();
        let mut solo = system_with_photons();
        let solo_reg = solo
            .register_query("wcoarse", coarse, "P4", Strategy::DataShipping)
            .unwrap();
        let solo_sim = solo.run_simulation(dss_network::SimConfig::default());
        assert!(!shared.is_empty());
        assert_eq!(shared, solo_sim.flow_outputs[solo_reg.delivery_flow]);
    }

    #[test]
    fn window_contents_results_wrap_items() {
        let q = r#"<photons>{ for $w in stream("photons")/photons/photon
            [en >= 1.3] |det_time diff 50| return <wnd>{ $w }</wnd> }</photons>"#;
        let mut sys = system_with_photons();
        let reg = sys
            .register_query("w", q, "P1", Strategy::StreamSharing)
            .unwrap();
        let sim = sys.run_simulation(dss_network::SimConfig::default());
        let results = &sim.flow_outputs[reg.delivery_flow];
        assert!(!results.is_empty());
        for w in results {
            assert_eq!(w.name(), "wnd");
            assert!(!w.children().is_empty());
            for item in w.children() {
                assert_eq!(item.name(), "photon");
                let en = item.child("en").unwrap().decimal_value().unwrap();
                assert!(en >= "1.3".parse().unwrap());
            }
        }
    }

    #[test]
    fn identical_query_reuses_stream_without_new_operators() {
        let mut sys = system_with_photons();
        sys.register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        let again = sys
            .register_query("q1b", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        let part = &again.plan.parts[0];
        assert!(
            part.ops.is_empty(),
            "identical query needs no new operators"
        );
        assert_eq!(part.route.len(), 1, "stream already arrives at SP1");
    }

    #[test]
    fn admission_state_is_a_function_of_the_registration_sequence() {
        // What control-log replay rests on: admission state is never
        // journaled, it is re-derived — so feeding the same register /
        // widen / unregister sequence to a fresh system must land on the
        // same usage tables and sharing book, to the bit.
        let replay = || {
            let mut sys = system_with_photons();
            sys.set_widening(true);
            for (id, text, at) in [
                ("q2", queries::Q2, "P2"),
                ("q1", queries::Q1, "P1"), // widens q2's stream
                ("q3", queries::Q3, "P3"),
                ("q4", queries::Q4, "P4"),
                ("q1b", queries::Q1, "P2"),
            ] {
                sys.register_query(id, text, at, Strategy::StreamSharing)
                    .unwrap();
            }
            sys.unregister_query("q1").unwrap(); // narrows back
            sys.unregister_query("q3").unwrap();
            sys.register_query("q3b", queries::Q3, "P1", Strategy::StreamSharing)
                .unwrap();
            sys
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let (a, b) = (replay(), replay());
        let (a, b) = (a.state(), b.state());
        assert!(a.node_used_work.iter().any(|&w| w > 0.0));
        assert!(!a.share_book.ledger().is_empty());
        assert_eq!(bits(&a.edge_used_kbps), bits(&b.edge_used_kbps));
        assert_eq!(bits(&a.node_used_work), bits(&b.node_used_work));
        assert_eq!(a.share_book.ledger(), b.share_book.ledger());
    }

    #[test]
    fn widening_lets_q1_reuse_q2_stream() {
        // Reversed registration order: Q2's narrow stream cannot serve Q1,
        // so plain sharing pulls the original stream from SP4. With
        // widening, Q2's stream is loosened in place (its hull is exactly
        // Q1's predicate, its projection union Q1's output set) and Q1 taps
        // the widened stream.
        let mut sys = system_with_photons();
        sys.set_widening(true);
        sys.register_query("q2", queries::Q2, "P2", Strategy::StreamSharing)
            .unwrap();
        let reg1 = sys
            .register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        assert!(
            reg1.reused_derived_stream,
            "q1 should reuse q2's widened stream"
        );
        let part = &reg1.plan.parts[0];
        assert!(part.widen.is_some(), "expected a widening plan part");
        let widened_flow = part.widen.as_ref().unwrap().flow;
        assert!(
            sys.deployment()
                .flow(widened_flow)
                .label
                .contains("+widened"),
            "flow should be marked widened: {}",
            sys.deployment().flow(widened_flow).label
        );

        // Results must be identical to the unshared computation for BOTH
        // queries — q2's consumers were patched with restore-operators.
        let sim = sys.run_simulation(dss_network::SimConfig::default());
        let mut solo = system_with_photons();
        let s2 = solo
            .register_query("q2", queries::Q2, "P2", Strategy::DataShipping)
            .unwrap();
        let s1 = solo
            .register_query("q1", queries::Q1, "P1", Strategy::DataShipping)
            .unwrap();
        let solo_sim = solo.run_simulation(dss_network::SimConfig::default());
        // q2 delivery flow in the widened system is flow index from its reg;
        // we saved only reg1 — find q2's delivery by label.
        let q2_delivery = sys
            .deployment()
            .flows()
            .iter()
            .position(|f| f.label == "q2/result")
            .expect("q2 delivery flow");
        assert!(!sim.flow_outputs[q2_delivery].is_empty());
        assert_eq!(
            sim.flow_outputs[q2_delivery], solo_sim.flow_outputs[s2.delivery_flow],
            "widening must not change q2's delivered results"
        );
        assert_eq!(
            sim.flow_outputs[reg1.delivery_flow], solo_sim.flow_outputs[s1.delivery_flow],
            "q1's results over the widened stream must equal the unshared run"
        );
    }

    #[test]
    fn widening_disabled_by_default() {
        let mut sys = system_with_photons();
        sys.register_query("q2", queries::Q2, "P2", Strategy::StreamSharing)
            .unwrap();
        let reg1 = sys
            .register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        assert!(reg1.plan.parts[0].widen.is_none());
    }

    #[test]
    fn widening_reduces_traffic_when_consumers_are_colocated() {
        // Q2's stream already flows SP4→…→SP1 (subscriber P1). A later Q1
        // at the adjacent P3 then only needs the widening delta on that
        // route plus one extra hop — cheaper than pulling the original
        // stream across the backbone.
        let run = |widening: bool| {
            let mut sys = system_with_photons();
            sys.set_widening(widening);
            sys.register_query("q2", queries::Q2, "P1", Strategy::StreamSharing)
                .unwrap();
            let reg1 = sys
                .register_query("q1", queries::Q1, "P3", Strategy::StreamSharing)
                .unwrap();
            let total = sys
                .run_simulation(dss_network::SimConfig::default())
                .metrics
                .total_edge_bytes();
            (total, reg1.plan.parts[0].widen.is_some())
        };
        let (without, widened_off) = run(false);
        let (with, widened_on) = run(true);
        assert!(!widened_off);
        assert!(
            widened_on,
            "the planner should choose the widening plan here"
        );
        assert!(
            with < without,
            "widening should cut traffic: {with} (widened) vs {without} (plain)"
        );
    }

    #[test]
    fn strategies_produce_different_plans() {
        let mut ds = system_with_photons();
        let ds_reg = ds
            .register_query("q2", queries::Q2, "P2", Strategy::DataShipping)
            .unwrap();
        // Data shipping ships the raw stream and evaluates at the target.
        assert!(ds_reg.plan.parts[0].ops.is_empty());
        assert!(ds_reg.plan.post_ops.len() > 1);

        let mut qs = system_with_photons();
        let qs_reg = qs
            .register_query("q2", queries::Q2, "P2", Strategy::QueryShipping)
            .unwrap();
        // Query shipping evaluates at the source's super-peer.
        assert!(!qs_reg.plan.parts[0].ops.is_empty());
        assert_eq!(
            qs_reg.plan.parts[0].tap_node,
            qs.topology().expect_node("SP4")
        );
        // The shipped stream is smaller than the raw stream.
        assert!(
            qs_reg.plan.parts[0].estimate.bytes_per_s()
                < ds_reg.plan.parts[0].estimate.bytes_per_s()
        );
    }

    #[test]
    fn simulation_traffic_ordering_matches_paper() {
        // Register Q1+Q2 under each strategy and compare total traffic:
        // data shipping ≫ query shipping > stream sharing.
        let mut totals = Vec::new();
        for strategy in Strategy::ALL {
            let mut sys = system_with_photons();
            sys.register_query("q1", queries::Q1, "P1", strategy)
                .unwrap();
            sys.register_query("q2", queries::Q2, "P2", strategy)
                .unwrap();
            let out = sys.run_simulation(dss_network::SimConfig::default());
            totals.push(out.metrics.total_edge_bytes());
        }
        let (ds, qs, ss) = (totals[0], totals[1], totals[2]);
        assert!(
            ds > qs,
            "data shipping {ds} should exceed query shipping {qs}"
        );
        assert!(
            qs > ss,
            "query shipping {qs} should exceed stream sharing {ss}"
        );
    }

    #[test]
    fn shared_results_equal_unshared_results() {
        // The delivered result items must be identical whether or not
        // sharing is used.
        let run = |strategy: Strategy| {
            let mut sys = system_with_photons();
            let r1 = sys
                .register_query("q1", queries::Q1, "P1", strategy)
                .unwrap();
            let r2 = sys
                .register_query("q2", queries::Q2, "P2", strategy)
                .unwrap();
            let r3 = sys
                .register_query("q3", queries::Q3, "P3", strategy)
                .unwrap();
            let r4 = sys
                .register_query("q4", queries::Q4, "P4", strategy)
                .unwrap();
            let out = sys.run_simulation(dss_network::SimConfig::default());
            [r1, r2, r3, r4].map(|r| out.flow_outputs[r.delivery_flow].clone())
        };
        let shared = run(Strategy::StreamSharing);
        let unshared = run(Strategy::DataShipping);
        for (i, (s, u)) in shared.iter().zip(&unshared).enumerate() {
            assert!(!u.is_empty(), "query {} delivered nothing", i + 1);
            assert_eq!(s, u, "query {} results differ between strategies", i + 1);
        }
    }

    #[test]
    fn unknown_stream_and_peer_errors() {
        let mut sys = system_with_photons();
        let err = sys
            .register_query(
                "qx",
                r#"<r>{ for $p in stream("ghost")/g/i return <x>{ $p/v }</x> }</r>"#,
                "P1",
                Strategy::StreamSharing,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SystemError::Subscribe(SubscribeError::UnknownStream(_))
        ));
        let err = sys
            .register_query("qy", queries::Q1, "P99", Strategy::StreamSharing)
            .unwrap_err();
        assert!(matches!(err, SystemError::UnknownPeer(_)));
    }

    #[test]
    fn admission_rejects_under_tight_caps() {
        let mut sys = system_with_photons();
        // Tiny bandwidth: the raw stream rate exceeds it, so data shipping
        // of the full stream becomes infeasible.
        AdmissionControl::apply_caps(&mut sys, 1.0, 1.0);
        let err = sys
            .register_query_opts("q1", queries::Q1, "P1", Strategy::DataShipping, true)
            .unwrap_err();
        assert!(matches!(
            err,
            SystemError::Subscribe(SubscribeError::Overload)
        ));
    }

    #[test]
    fn admission_report_counts() {
        let mut sys = system_with_photons();
        AdmissionControl::apply_caps(&mut sys, 1.0, 1.0);
        let batch = vec![
            ("q1".to_string(), queries::Q1.to_string(), "P1".to_string()),
            ("q2".to_string(), queries::Q2.to_string(), "P2".to_string()),
        ];
        let report = AdmissionControl::register_batch(&mut sys, &batch, Strategy::DataShipping);
        assert_eq!(report.rejected_count(), 2);
        assert_eq!(report.accepted_count(), 0);
        assert!(report.errored.is_empty());
    }

    #[test]
    fn registration_reports_elapsed_time() {
        let mut sys = system_with_photons();
        let reg = sys
            .register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        // Sanity only: the measurement exists and is small.
        assert!(reg.elapsed.as_secs() < 5);
        assert_eq!(sys.query_count(), 1);
    }

    #[test]
    fn subscribe_search_stats() {
        let mut sys = system_with_photons();
        sys.register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        let compiled = dss_wxquery::compile_query(queries::Q2).unwrap();
        let v_q = sys.topology().expect_node("SP7");
        let (plan, stats) = subscribe(
            sys.state(),
            &compiled,
            v_q,
            sys.topology().expect_node("P2"),
            SearchOrder::Bfs,
            false,
        )
        .unwrap();
        assert!(stats.nodes_visited >= 2);
        assert!(stats.matches >= 1);
        assert!(stats.plans_generated >= 2);
        assert!(plan.total_cost >= 0.0);
        // The DFS variant finds a plan too.
        let (plan_dfs, _) = subscribe(
            sys.state(),
            &compiled,
            v_q,
            sys.topology().expect_node("P2"),
            SearchOrder::Dfs,
            false,
        )
        .unwrap();
        assert_eq!(plan.parts[0].tap_flow, plan_dfs.parts[0].tap_flow);
    }

    /// Every matched candidate is costed, only the winner is built: on the
    /// empty network the source plan is re-costed at SP4 and at P0 and never
    /// beaten; after Q1, Query 2's search improves three times (Q1's stream
    /// at SP4, SP0, SP5 — the Figure-2 walk `dss explain` prints) and
    /// builds the last of them.
    #[test]
    fn search_builds_only_the_parts_that_win() {
        let mut sys = system_with_photons();
        let search = |sys: &StreamGlobe, text: &str, v_q: &str, at: &str| {
            let compiled = dss_wxquery::compile_query(text).unwrap();
            let (v_q, at) = (
                sys.topology().expect_node(v_q),
                sys.topology().expect_node(at),
            );
            let (_, stats) =
                subscribe(sys.state(), &compiled, v_q, at, SearchOrder::Bfs, false).unwrap();
            (stats.plans_generated, stats.parts_built)
        };
        assert_eq!(search(&sys, queries::Q1, "SP1", "P1"), (3, 1));
        sys.register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        assert_eq!(search(&sys, queries::Q2, "SP7", "P2"), (7, 2));
    }

    /// What a search finds out about a subscription chain stays with the
    /// catalog: planning an installed query again judges nothing, a clone
    /// of the state judges for itself — and a search that fails on its
    /// second input has handed the first input's verdicts back already.
    #[test]
    fn verdicts_outlive_the_search_and_a_failed_second_input() {
        use dss_properties::{InputProperties, Properties};
        let mut sys = system_with_photons();
        sys.register_stream("spectra", "P4", photons(50), 10.0)
            .unwrap();
        for (id, text, at) in [("q1", queries::Q1, "P1"), ("q2", queries::Q2, "P2")] {
            sys.register_query(id, text, at, Strategy::StreamSharing)
                .unwrap();
        }
        let v_q = sys.topology().expect_node("SP3");
        let plan = |state: &NetworkState, query: &dss_wxquery::CompiledQuery| {
            subscribe(state, query, v_q, v_q, SearchOrder::Bfs, false)
                .map(|(plan, stats)| (format!("{plan:?}"), stats.judged))
        };
        let q1 = dss_wxquery::compile_query(queries::Q1).unwrap();
        let (fresh_plan, fresh_judged) = plan(&sys.state().clone(), &q1).unwrap();
        assert!(fresh_judged > 0);
        assert_eq!(plan(sys.state(), &q1).unwrap().1, fresh_judged);
        assert_eq!(plan(sys.state(), &q1).unwrap(), (fresh_plan, 0));

        // Q2's chain has been interned since q2 was installed and has not
        // been searched for since. Searched first as the first of two
        // inputs, the second of which fails:
        let q2 = dss_wxquery::compile_query(queries::Q2).unwrap();
        let spectra_source = sys.topology().expect_node("SP6");
        for e in sys.topology().incident(spectra_source).to_vec() {
            sys.topology_mut().set_edge_up(e, false);
        }
        for (second, error) in [
            ("nowhere", SubscribeError::UnknownStream("nowhere".into())),
            ("spectra", SubscribeError::Unreachable("spectra".into())),
        ] {
            let mut two = q2.clone();
            two.properties = Properties::new(vec![
                q2.properties.inputs()[0].clone(),
                InputProperties::original(second),
            ])
            .unwrap();
            assert_eq!(plan(sys.state(), &two), Err(error));
        }
        let (fresh_plan, fresh_judged) = plan(&sys.state().clone(), &q2).unwrap();
        assert!(fresh_judged > 0);
        assert_eq!(plan(sys.state(), &q2).unwrap(), (fresh_plan, 0));
    }

    #[test]
    fn unregister_retires_flows_and_releases_charges() {
        let mut sys = system_with_photons();
        let baseline_edge: Vec<f64> = sys.state().edge_used_kbps.clone();
        let baseline_node: Vec<f64> = sys.state().node_used_work.clone();
        sys.register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        sys.unregister_query("q1").unwrap();
        assert_eq!(sys.query_count(), 0);
        // All derived flows retired; only the source flow remains active.
        let active: Vec<&str> = sys
            .deployment()
            .flows()
            .iter()
            .filter(|f| !f.retired)
            .map(|f| f.label.as_str())
            .collect();
        assert_eq!(active, vec!["photons@SP4"]);
        // Charges fully reversed.
        for (a, b) in sys.state().edge_used_kbps.iter().zip(&baseline_edge) {
            assert!((a - b).abs() < 1e-9, "edge charge not reversed: {a} vs {b}");
        }
        for (a, b) in sys.state().node_used_work.iter().zip(&baseline_node) {
            assert!((a - b).abs() < 1e-9, "node charge not reversed: {a} vs {b}");
        }
        // Retired streams no longer carry traffic in the simulator.
        let sim = sys.run_simulation(dss_network::SimConfig::default());
        assert_eq!(
            sim.metrics.total_edge_bytes(),
            {
                let fresh = system_with_photons();
                fresh
                    .run_simulation(dss_network::SimConfig::default())
                    .metrics
                    .total_edge_bytes()
            },
            "a fully unregistered system must match a fresh one"
        );
    }

    #[test]
    fn unregister_keeps_streams_with_remaining_consumers() {
        let mut sys = system_with_photons();
        sys.register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        let reg2 = sys
            .register_query("q2", queries::Q2, "P2", Strategy::StreamSharing)
            .unwrap();
        assert!(reg2.reused_derived_stream);
        // Dropping q1 must keep q1's transport stream alive: q2 taps it.
        sys.unregister_query("q1").unwrap();
        let q1_stream = sys
            .deployment()
            .flows()
            .iter()
            .find(|f| f.label == "q1/photons")
            .expect("q1 transport exists");
        assert!(!q1_stream.retired, "q2 still consumes q1's stream");
        // q2 keeps delivering correct results.
        let sim = sys.run_simulation(dss_network::SimConfig::default());
        assert!(!sim.flow_outputs[reg2.delivery_flow].is_empty());
        // Dropping q2 then retires the whole chain.
        sys.unregister_query("q2").unwrap();
        let active: Vec<&str> = sys
            .deployment()
            .flows()
            .iter()
            .filter(|f| !f.retired)
            .map(|f| f.label.as_str())
            .collect();
        assert_eq!(active, vec!["photons@SP4"]);
    }

    #[test]
    fn unregister_unknown_query_errors() {
        let mut sys = system_with_photons();
        assert!(matches!(
            sys.unregister_query("ghost"),
            Err(SystemError::UnknownQuery(_))
        ));
    }

    #[test]
    fn reregistration_after_unregister_plans_fresh() {
        let mut sys = system_with_photons();
        sys.register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        sys.unregister_query("q1").unwrap();
        // A new Q2 cannot reuse the retired q1 stream.
        let reg2 = sys
            .register_query("q2", queries::Q2, "P2", Strategy::StreamSharing)
            .unwrap();
        assert!(
            !reg2.reused_derived_stream,
            "retired streams must not be shared"
        );
        let sim = sys.run_simulation(dss_network::SimConfig::default());
        assert!(!sim.flow_outputs[reg2.delivery_flow].is_empty());
    }

    #[test]
    fn sharing_works_across_hierarchical_subnets() {
        // The paper's scalability sketch: subnets joined by gateways. A
        // stream in subnet 0 serves queries in subnets 1 and 2; the second
        // query rides the first one's stream through the gateway ring.
        let mut sys = StreamGlobe::new(dss_network::hierarchical_topology(3, 2));
        sys.register_stream("photons", "N0_SP3", photons(300), 50.0)
            .unwrap();
        let r1 = sys
            .register_query("q1", queries::Q1, "N1_SP3", Strategy::StreamSharing)
            .unwrap();
        let r2 = sys
            .register_query("q2", queries::Q2, "N1_SP2", Strategy::StreamSharing)
            .unwrap();
        assert!(
            r2.reused_derived_stream,
            "q2 should reuse q1's stream in the same subnet"
        );
        let sim = sys.run_simulation(dss_network::SimConfig::default());
        assert!(!sim.flow_outputs[r1.delivery_flow].is_empty());
        assert!(!sim.flow_outputs[r2.delivery_flow].is_empty());
        // q1's stream crosses the N0/N1 gateways.
        let g0 = sys.topology().expect_node("N0_SP0");
        let g1 = sys.topology().expect_node("N1_SP0");
        let route = &r1.plan.parts[0].route;
        assert!(
            route.contains(&g0) && route.contains(&g1),
            "route {route:?}"
        );
    }

    #[test]
    fn cost_base_loads_match_engine_operators() {
        use dss_network::FlowOp;
        use dss_predicate::PredicateGraph;
        use dss_properties::{Operator, ProjectionSpec, WindowOutputSpec};
        // The planner's bload table must agree with what the executable
        // operators actually charge, or estimated and simulated load drift.
        // One value of every variant, in the order of `variant` below: its
        // match has no wildcard, so a new `FlowOp` or `Operator` variant
        // does not compile until it is listed here.
        let variant = |op: &FlowOp| match op {
            FlowOp::Standard(Operator::Selection(_)) => 0,
            FlowOp::Standard(Operator::Projection(_)) => 1,
            FlowOp::Standard(Operator::Udf { .. }) => 2,
            FlowOp::Standard(Operator::Aggregation(_)) => 3,
            FlowOp::Standard(Operator::WindowOutput(_)) => 4,
            FlowOp::ReAggregate { .. } => 5,
            FlowOp::ReWindow { .. } => 6,
            FlowOp::Restructure { .. } => 7,
        };
        let q3 = dss_wxquery::compile_query(dss_wxquery::queries::Q3).unwrap();
        let agg = q3.aggregation.unwrap();
        let q4 = dss_wxquery::compile_query(dss_wxquery::queries::Q4).unwrap();
        let agg4 = q4.aggregation.unwrap();
        let contents = |spec: &dss_properties::AggregationSpec| WindowOutputSpec {
            window: spec.window.clone(),
            pre_selection: PredicateGraph::new(),
        };
        let ops = [
            FlowOp::Standard(Operator::Selection(PredicateGraph::new())),
            FlowOp::Standard(Operator::Projection(ProjectionSpec::default())),
            FlowOp::Standard(Operator::Udf {
                name: "u".into(),
                params: vec![],
            }),
            FlowOp::Standard(Operator::Aggregation(agg.clone())),
            FlowOp::Standard(Operator::WindowOutput(contents(&agg))),
            FlowOp::ReAggregate {
                reused: agg.clone(),
                new: agg4.clone(),
            },
            FlowOp::ReWindow {
                reused: contents(&agg),
                new: contents(&agg4),
            },
            FlowOp::Restructure {
                template: dss_engine::Template::element("x", vec![]),
                agg: None,
                window: false,
            },
        ];
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(variant(op), i, "a variant is missing from the list");
            assert_eq!(
                crate::plan::flow_op_base_load(op),
                dss_network::build_flow_op(op).base_load(),
                "bload mismatch for {op:?}"
            );
        }
    }

    #[test]
    fn plan_describe_is_readable() {
        let mut sys = system_with_photons();
        let reg = sys
            .register_query("q1", queries::Q1, "P1", Strategy::StreamSharing)
            .unwrap();
        let desc = reg.plan.describe(sys.state());
        assert!(desc.contains("photons"));
        assert!(desc.contains("SP4"));
    }
}
