//! Indexed plan search vs. the full-scan reference (PR 6).
//!
//! `subscribe_with` now resolves candidate streams through the per-peer
//! stream catalog (chain groups, less the chains a remembered verdict
//! already rejected; route memoization);
//! `subscribe_full_scan` is the pre-index reference that enumerates every
//! deployed flow at every visited peer. The two must be *observationally
//! identical*: same matches, same plans generated, same peers visited,
//! byte-identical winning plan — the index may only prune candidates that
//! `match_input_properties` would have rejected anyway ("prune, never
//! skip").
//!
//! Budget: `DSS_DIFF_CASES` (default 64) cases per property; CI runs 256.
//! `DSS_PROPTEST_SEED` picks the deterministic case stream.

use proptest::prelude::*;

use data_stream_sharing::core::plan::generate_plan_part;
use data_stream_sharing::core::{
    subscribe_full_scan, subscribe_with, SearchOrder, SearchStats, Strategy, StreamGlobe,
};
use data_stream_sharing::network::grid_topology;
use dss_rass::{default_photons, QueryTemplateGenerator, TemplateKind};
use dss_telemetry::Value;
use dss_wxquery::compile_query;
use dss_wxquery::testing::arb_query;

fn diff_cases() -> u32 {
    std::env::var("DSS_DIFF_CASES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(64)
}

/// Builds a grid system with `n_queries` template subscriptions scattered
/// over the peers, optionally with widening on and a subset unregistered
/// again (exercising catalog de-indexing on retire).
fn build_system(
    dim: usize,
    seed: u64,
    n_queries: usize,
    widening: bool,
    unregister_every: usize,
) -> (StreamGlobe, QueryTemplateGenerator) {
    let mut system = StreamGlobe::new(grid_topology(dim, dim));
    system.set_widening(widening);
    system
        .register_stream("photons", "SP0", default_photons(seed, 120), 50.0)
        .expect("stream registration");
    let mut tgen = QueryTemplateGenerator::new(seed, "photons");
    let peers = dim * dim;
    for i in 0..n_queries {
        let text = tgen.next_query();
        let peer = format!("SP{}", (i * 7 + 3) % peers);
        // Some registrations may legitimately fail (e.g. infeasible
        // plans); the probe only needs whatever ended up deployed.
        let _ = system.register_query(format!("q{i}"), &text, &peer, Strategy::StreamSharing);
    }
    if unregister_every > 0 {
        for i in (0..n_queries).step_by(unregister_every) {
            let _ = system.unregister_query(&format!("q{i}"));
        }
    }
    (system, tgen)
}

/// Runs both searches for one probe query and asserts observational
/// equivalence. Returns the stats pair (indexed, full scan) for BFS when
/// both succeeded, so callers can additionally assert pruning.
fn assert_equivalent(
    system: &StreamGlobe,
    text: &str,
    v_q_name: &str,
    widening: bool,
) -> Option<(SearchStats, SearchStats)> {
    let Ok(compiled) = compile_query(text) else {
        return None;
    };
    let v_q = system.topology().expect_node(v_q_name);
    let mut bfs_stats = None;
    for order in [SearchOrder::Bfs, SearchOrder::Dfs] {
        let indexed = subscribe_with(system.state(), &compiled, v_q, v_q, order, false, widening);
        let full = subscribe_full_scan(system.state(), &compiled, v_q, v_q, order, false, widening);
        match (indexed, full) {
            (Ok((ip, is)), Ok((fp, fs))) => {
                assert_eq!(
                    is.nodes_visited, fs.nodes_visited,
                    "indexed search must visit the same peers ({order:?}, probe {text})"
                );
                assert_eq!(
                    is.matches, fs.matches,
                    "indexed search must find the same matches ({order:?}, probe {text})"
                );
                assert_eq!(
                    is.plans_generated, fs.plans_generated,
                    "indexed search must generate the same plans ({order:?}, probe {text})"
                );
                assert_eq!(
                    is.parts_built, fs.parts_built,
                    "indexed search must build the same parts ({order:?}, probe {text})"
                );
                assert!(
                    is.parts_built <= is.plans_generated,
                    "a part is built only for a generated plan ({order:?}, probe {text}): {is:?}"
                );
                assert!(
                    is.candidates_matched <= fs.candidates_matched,
                    "index may only prune candidates: {} > {} ({order:?}, probe {text})",
                    is.candidates_matched,
                    fs.candidates_matched
                );
                assert_eq!(
                    format!("{ip:?}"),
                    format!("{fp:?}"),
                    "winning plan must be byte-identical ({order:?}, probe {text})"
                );
                if matches!(order, SearchOrder::Bfs) {
                    bfs_stats = Some((is, fs));
                }
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "both searches must fail identically ({order:?}, probe {text})"
                );
            }
            (a, b) => panic!(
                "indexed and full-scan search disagree on success ({order:?}, probe {text}): \
                 indexed {:?} vs full {:?}",
                a.map(|(_, s)| s),
                b.map(|(_, s)| s)
            ),
        }
    }
    bfs_stats
}

/// What the traced searches of [`costed_equals_built`] exercised so far, so
/// a deterministic test can pin that each branch of the costing is reached.
#[derive(Debug, Default)]
struct Coverage {
    /// Matched candidates that were costed (and compared here).
    costed: usize,
    /// Of those, candidates costed infeasible — `used > available`
    /// somewhere, the `over·e^over` branch.
    infeasible: usize,
    /// Of those, verbatim forwards: no residual operator, empty load term.
    forwards: usize,
    /// Matched candidates at a peer with no route to `v_q`: never costed,
    /// no `plans_generated` increment.
    unrouted: usize,
}

/// Cost-then-build, checked from the outside: runs one traced indexed
/// search and, for **every** matched candidate it costed (through the
/// per-peer route term and the per-chain load memo), builds the same part
/// eagerly with `generate_plan_part` (nothing precomputed) and compares the
/// traced `cost`/`traffic`/`load` bit for bit and `feasible` exactly. Also
/// checks the span's `parts_built` field — the initial part, plus one more
/// if any candidate was `chosen` — against the search's own count.
fn costed_equals_built(
    system: &StreamGlobe,
    text: &str,
    v_q_name: &str,
    order: SearchOrder,
    require_feasible: bool,
    cov: &mut Coverage,
) {
    let Ok(compiled) = compile_query(text) else {
        return;
    };
    let state = system.state();
    let v_q = state.topo.expect_node(v_q_name);
    let session = dss_telemetry::session();
    let result = subscribe_with(state, &compiled, v_q, v_q, order, require_feasible, false);
    let snap = session.snapshot();
    drop(session);

    let text_of = |span: &dss_telemetry::Span, key: &str| match span.field(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("candidate field {key}: {other:?}"),
    };
    let (mut costed, mut built_in_spans) = (0, 0);
    for (span, wanted) in snap
        .spans_named("subscribe_input")
        .zip(compiled.properties.inputs())
    {
        let mut chosen = 0;
        for cand in span.children_named("candidate") {
            if text_of(cand, "outcome") != "matched" {
                continue;
            }
            let label = text_of(cand, "flow");
            let flow = (0..state.deployment.len())
                .find(|&i| {
                    let f = state.deployment.flow(i);
                    !f.retired && f.properties.is_some() && f.label == label
                })
                .expect("a candidate is a live shareable flow");
            let peer = state.topo.expect_node(&text_of(cand, "peer"));
            let built = generate_plan_part(state, wanted, flow, peer, v_q)
                .expect("a costed candidate has a route to v_q");
            for (key, built) in [
                ("cost", built.cost),
                ("traffic", built.traffic),
                ("load", built.load),
            ] {
                let Some(Value::Float(costed)) = cand.field(key) else {
                    panic!("candidate field {key}: {:?}", cand.field(key));
                };
                assert_eq!(
                    costed.to_bits(),
                    built.to_bits(),
                    "{key} of {label} @ {peer}: costed {costed:e} vs built {built:e} \
                     ({order:?}, probe {text})"
                );
            }
            assert_eq!(
                cand.field("feasible"),
                Some(&Value::Bool(built.feasible)),
                "feasible of {label} @ {peer} ({order:?}, probe {text})"
            );
            costed += 1;
            cov.infeasible += usize::from(!built.feasible);
            cov.forwards += usize::from(built.ops.is_empty());
            chosen += usize::from(cand.field("chosen") == Some(&Value::Bool(true)));
        }
        // Built: the initial source plan, plus the candidate that led when
        // the search ended if any ever did (without widening nothing but a
        // later candidate takes the lead from one). A search that found no
        // initial plan (unreachable source) stops before it records either.
        if span.children_named("best").next().is_some() {
            let built = 1 + usize::from(chosen > 0);
            assert_eq!(
                span.field("parts_built"),
                Some(&Value::from(built)),
                "parts_built of the span ({order:?}, probe {text})"
            );
            built_in_spans += built;
        }
    }
    if let Ok((_, stats)) = result {
        assert_eq!(stats.parts_built, built_in_spans);
        let inputs = compiled.properties.inputs().len();
        assert_eq!(stats.plans_generated, inputs + costed);
        cov.unrouted += stats.matches - costed;
    }
    cov.costed += costed;
}

/// Takes every connection of `peer` down or up. A peer with all its
/// connections down is cut off: flows routed through it stay deployed (and
/// matched), but it has no route to anyone.
fn set_links(system: &mut StreamGlobe, peer: usize, up: bool) {
    let edges = system.topology().incident(peer).to_vec();
    for e in edges {
        system.topology_mut().set_edge_up(e, up);
    }
}

/// Plans `text` on the live system — whose topology and catalog remember
/// the routes and `judge` verdicts of everything planned on it so far — and
/// on a clone of its state, which remembers nothing, under both frontier
/// orders with admission control off and on. The two must agree on the
/// plan to the byte and on every count except `judged` and
/// `candidates_matched`, of which the live system may only need fewer: the
/// catalog skips the chains a remembered verdict already rejected.
fn assert_remembered_equals_fresh(
    system: &StreamGlobe,
    text: &str,
    v_q_name: &str,
    widening: bool,
) {
    let Ok(compiled) = compile_query(text) else {
        return;
    };
    let v_q = system.topology().expect_node(v_q_name);
    let fresh = system.state().clone();
    for order in [SearchOrder::Bfs, SearchOrder::Dfs] {
        for admission in [false, true] {
            let how = format!("{order:?}, admission {admission}, probe {text} at {v_q_name}");
            let warm = subscribe_with(
                system.state(),
                &compiled,
                v_q,
                v_q,
                order,
                admission,
                widening,
            );
            let cold = subscribe_with(&fresh, &compiled, v_q, v_q, order, admission, widening);
            match (warm, cold) {
                (Ok((wp, ws)), Ok((cp, cs))) => {
                    assert_eq!(format!("{wp:?}"), format!("{cp:?}"), "plans ({how})");
                    assert!(ws.judged <= cs.judged, "{ws:?} vs {cs:?} ({how})");
                    assert!(
                        ws.candidates_matched <= cs.candidates_matched,
                        "{ws:?} vs {cs:?} ({how})"
                    );
                    let (judged, candidates_matched) = (cs.judged, cs.candidates_matched);
                    let ws = SearchStats {
                        judged,
                        candidates_matched,
                        ..ws
                    };
                    assert_eq!(ws, cs, "counts ({how})");
                }
                (Err(w), Err(c)) => assert_eq!(w, c, "errors ({how})"),
                (w, c) => panic!(
                    "remembering changed the outcome ({how}): {:?} vs {:?}",
                    w.map(|(_, s)| s),
                    c.map(|(_, s)| s)
                ),
            }
        }
    }
}

/// The first `n` query texts `build_system` registered for `seed`.
fn installed_texts(seed: u64, n: usize) -> Vec<String> {
    let mut tgen = QueryTemplateGenerator::new(seed, "photons");
    (0..n).map(|_| tgen.next_query()).collect()
}

/// The costing's branches are all reachable from the proptest's knobs:
/// tight capacity caps cost candidates infeasible, re-subscribing an
/// installed query costs verbatim forwards, and a cut-off tap peer leaves
/// matched candidates uncosted.
#[test]
fn costed_equals_built_reaches_every_branch() {
    let seed = 11;
    let (mut system, _) = build_system(4, seed, 12, false, 0);
    let texts = installed_texts(seed, 12);
    let mut total = Coverage::default();
    let probe_all = |system: &StreamGlobe, total: &mut Coverage| {
        for text in &texts {
            for order in [SearchOrder::Bfs, SearchOrder::Dfs] {
                let admission = order == SearchOrder::Dfs;
                costed_equals_built(system, text, "SP9", order, admission, total);
            }
        }
    };
    probe_all(&system, &mut total);
    assert!(total.costed > 0 && total.forwards > 0, "{total:?}");
    assert_eq!((total.infeasible, total.unrouted), (0, 0), "{total:?}");
    // Every connection and peer far over capacity, two peers hotter still.
    system.apply_capacity_caps(0.0005, 2.0);
    for v in [1, 6] {
        let capacity = system.topology().peer(v).capacity;
        system.set_load_feedback(v, 0.75 * capacity);
    }
    probe_all(&system, &mut total);
    assert!(total.infeasible > 0, "{total:?}");
    // A peer in the middle of a deployed stream's route.
    let flows = system.deployment().flows();
    let through = flows
        .iter()
        .find(|f| !f.retired && f.properties.is_some() && f.route.len() >= 3)
        .expect("some stream crosses a peer");
    let mid = through.route[1];
    set_links(&mut system, mid, false);
    probe_all(&system, &mut total);
    assert!(total.unrouted > 0, "{total:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(diff_cases()))]

    /// Cost-then-build: over random deployments — capacity caps that push
    /// `used > available`, observed-load feedback, a cut-off peer on
    /// deployed routes, retired subscriptions — every matched candidate's
    /// costed `PartCost` equals the eagerly built `PlanPart`'s fields bit
    /// for bit, under both frontier orders and with admission control on
    /// and off; and the indexed search still equals the full scan there.
    #[test]
    fn costed_candidates_equal_built_parts(
        seed in 0u64..1_000_000,
        dim in 2usize..=4,
        n_queries in 1usize..14,
        unregister_every in 0usize..4,
        caps in prop::option::of((1u32..200, 1u32..400)),
        feedback in prop::option::of((0usize..16, 1u32..150)),
        cut in prop::option::of(0usize..16),
        probe_peer in 0usize..64,
        require_feasible in any::<bool>(),
        dfs in any::<bool>(),
    ) {
        let (mut system, mut tgen) = build_system(dim, seed, n_queries, false, unregister_every);
        let peers = dim * dim;
        if let Some((cpu_permyriad, kbps)) = caps {
            system.apply_capacity_caps(f64::from(cpu_permyriad) / 10_000.0, f64::from(kbps));
        }
        if let Some((v, percent)) = feedback {
            let v = v % peers;
            let capacity = system.topology().peer(v).capacity;
            system.set_load_feedback(v, f64::from(percent) / 100.0 * capacity);
        }
        if let Some(v) = cut {
            set_links(&mut system, v % peers, false);
        }
        let v_q = format!("SP{}", probe_peer % peers);
        let order = if dfs { SearchOrder::Dfs } else { SearchOrder::Bfs };
        // An installed query again (verbatim forwards of its own stream),
        // then one fresh probe of each template kind.
        let mut probes = installed_texts(seed, 1);
        probes.extend([
            TemplateKind::Selection,
            TemplateKind::Projection,
            TemplateKind::Aggregation,
        ].map(|kind| tgen.next_query_of(kind)));
        let mut cov = Coverage::default();
        for text in &probes {
            costed_equals_built(&system, text, &v_q, order, require_feasible, &mut cov);
            assert_equivalent(&system, text, &v_q, false);
        }
    }

    /// Remembered ≡ fresh: one system lives through a random interleaving
    /// of registrations (widening installs included), unregistrations and
    /// peers cut off and reconnected, and after every step plans the same
    /// probes again — the installed queries, whose chains have verdict
    /// rows, and a fresh one. A row or route that outlived what it was
    /// derived from would make the live system plan differently from its
    /// own clone.
    #[test]
    fn remembered_equals_fresh(
        seed in 0u64..1_000_000,
        dim in 2usize..=4,
        widening in any::<bool>(),
        caps in prop::option::of((1u32..200, 1u32..400)),
        steps in prop::collection::vec((0u8..5, 0usize..64), 1..10),
    ) {
        let (mut system, mut tgen) = build_system(dim, seed, 3, widening, 0);
        let peers = dim * dim;
        let mut installed = installed_texts(seed, 3);
        let mut next_id = installed.len();
        for (i, &(action, pick)) in steps.iter().enumerate() {
            match action {
                0 | 1 => {
                    let text = tgen.next_query();
                    let peer = format!("SP{}", pick % peers);
                    let id = format!("q{next_id}");
                    next_id += 1;
                    if system.register_query(id, &text, &peer, Strategy::StreamSharing).is_ok() {
                        installed.push(text);
                    }
                }
                2 => {
                    let _ = system.unregister_query(&format!("q{}", pick % next_id));
                }
                3 => set_links(&mut system, pick % peers, false),
                _ => set_links(&mut system, pick % peers, true),
            }
            if let (Some((cpu_permyriad, kbps)), true) = (caps, i == steps.len() / 2) {
                system.apply_capacity_caps(f64::from(cpu_permyriad) / 10_000.0, f64::from(kbps));
            }
            let v_q = format!("SP{}", (pick / 5) % peers);
            let fresh_probe = tgen.next_query();
            for text in installed.iter().rev().take(3).chain([&fresh_probe]) {
                assert_remembered_equals_fresh(&system, text, &v_q, widening);
            }
        }
    }

    /// Equivalence: for arbitrary deployments (grid size, template mix,
    /// widening on/off, retired subscriptions) and probes drawn from both
    /// the template generator and the unconstrained query strategy, the
    /// indexed search is observationally identical to the full scan.
    #[test]
    fn indexed_search_equals_full_scan(
        seed in 0u64..1_000_000,
        dim in 2usize..=4,
        n_queries in 0usize..14,
        widening in any::<bool>(),
        unregister_every in 0usize..4,
        probe_peer in 0usize..64,
        spec in arb_query(),
    ) {
        let (system, mut tgen) = build_system(dim, seed, n_queries, widening, unregister_every);
        let peers = dim * dim;
        let v_q = format!("SP{}", probe_peer % peers);
        // Template probes: one of each kind, drawn from the same templates
        // as the installed population.
        for kind in [
            TemplateKind::Selection,
            TemplateKind::Projection,
            TemplateKind::Aggregation,
        ] {
            let text = tgen.next_query_of(kind);
            assert_equivalent(&system, &text, &v_q, widening);
        }
        // Unconstrained probe: arbitrary selections/projections/windows,
        // including shapes the templates never produce.
        assert_equivalent(&system, &spec.to_text(), &v_q, widening);
    }
}

/// Counts, per `subscribe_input` span, the recorded `visit` and
/// `candidate` events, plus how many candidate events carry an accepted
/// outcome (`initial`/`matched`/`widened` — the events pruning must never
/// remove).
fn traced_counts(
    system: &StreamGlobe,
    text: &str,
    v_q_name: &str,
    full_scan: bool,
) -> Vec<(usize, usize, usize)> {
    let compiled = compile_query(text).expect("probe compiles");
    let v_q = system.topology().expect_node(v_q_name);
    let session = dss_telemetry::session();
    let result = if full_scan {
        subscribe_full_scan(
            system.state(),
            &compiled,
            v_q,
            v_q,
            SearchOrder::Bfs,
            false,
            false,
        )
    } else {
        subscribe_with(
            system.state(),
            &compiled,
            v_q,
            v_q,
            SearchOrder::Bfs,
            false,
            false,
        )
    };
    result.expect("probe subscribes");
    let snap = session.snapshot();
    drop(session);
    snap.spans_named("subscribe_input")
        .map(|span| {
            let visits = span.children_named("visit").count();
            let candidates = span.children_named("candidate").count();
            let accepted = span
                .children_named("candidate")
                .filter(|c| {
                    matches!(
                        c.field("outcome"),
                        Some(Value::Str(s)) if s == "initial" || s == "matched" || s == "widened"
                    )
                })
                .count();
            (visits, candidates, accepted)
        })
        .collect()
}

/// Telemetry regression: with the index, the `subscribe_input` trace
/// records the same visits and the same accepted candidates as the full
/// scan, and strictly fewer candidate probes on a workload where rejected
/// chains flow past several peers (selection probe against a population
/// containing aggregation streams): each is rejected once, at the first
/// peer it is seen.
#[test]
fn telemetry_counts_prune_but_never_skip() {
    let mut system = StreamGlobe::new(grid_topology(4, 4));
    system
        .register_stream("photons", "SP0", default_photons(7, 160), 50.0)
        .expect("stream registration");
    let mut tgen = QueryTemplateGenerator::new(7, "photons");
    for i in 0..8 {
        let text = tgen.next_query_of(TemplateKind::Aggregation);
        system
            .register_query(
                format!("agg{i}"),
                &text,
                &format!("SP{}", (i * 5) % 16),
                Strategy::StreamSharing,
            )
            .expect("aggregation registration");
    }
    for i in 0..8 {
        let text = tgen.next_query_of(TemplateKind::Selection);
        system
            .register_query(
                format!("sel{i}"),
                &text,
                &format!("SP{}", (i * 3 + 1) % 16),
                Strategy::StreamSharing,
            )
            .expect("selection registration");
    }
    let probe = tgen.next_query_of(TemplateKind::Selection);
    let indexed = traced_counts(&system, &probe, "SP10", false);
    let full = traced_counts(&system, &probe, "SP10", true);
    assert_eq!(indexed.len(), full.len(), "same number of input searches");
    let mut any_pruned = false;
    for ((iv, ic, ia), (fv, fc, fa)) in indexed.iter().zip(full.iter()) {
        assert_eq!(iv, fv, "visit events must be unchanged by indexing");
        assert!(
            ic <= fc,
            "indexed candidate events must not exceed full scan"
        );
        assert_eq!(ia, fa, "accepted candidates must be unchanged by indexing");
        any_pruned |= ic < fc;
    }
    assert!(
        any_pruned,
        "selection probe against aggregation streams must prune candidates: \
         indexed {indexed:?} vs full {full:?}"
    );
}

/// E10 regression: over the scalability experiment's query mix, the
/// `nodes_visited` column is identical with and without the index — the
/// catalog skips candidate *streams*, never search *peers*.
#[test]
fn e10_nodes_visited_unchanged_by_indexing() {
    let seed = 20060329;
    let mut system = StreamGlobe::new(grid_topology(4, 4));
    system
        .register_stream("photons", "SP0", default_photons(seed, 160), 60.0)
        .expect("stream registration");
    let mut tgen = QueryTemplateGenerator::new(seed, "photons");
    for i in 0..24 {
        let text = tgen.next_query();
        let peer = format!("SP{}", (i * 11 + 2) % 16);
        if let Some((is, fs)) = assert_equivalent(&system, &text, &peer, false) {
            assert_eq!(is.nodes_visited, fs.nodes_visited);
        }
        let _ = system.register_query(format!("q{i}"), &text, &peer, Strategy::StreamSharing);
    }
}
