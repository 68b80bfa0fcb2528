//! The four workloads. Each repeats a fixed unit of work — a fleet
//! session, a round of `simulate` calls, a pass of 10 000 registrations —
//! until the measuring time is used up, reports medians over the units,
//! and checks the product's outputs against a reference in the same run.
//!
//! How fast a scenario runs depends on its query mix, and the mix is drawn
//! from the seed. So that a run's numbers describe the code and not one
//! lucky draw, the units of one run use different mixes, all derived from
//! `--seed` ([`mix_seed`]): every fleet session subscribes its own 25
//! queries, every call of a simulator round runs its own scenario.
//!
//! An untraced run yields the end-to-end metrics. Their times are wall
//! times divided by how much slower than usual the shared host ran around
//! each unit ([`crate::calib`]): a noisy neighbour slows this machine by
//! half for minutes, and two sets of runs of the same code must agree. A
//! traced run alternates units with the tracer on and off, so the per-layer
//! numbers come with the cost of tracing itself (`trace.overhead_pct`);
//! they are plain wall times, next to the run's `run.host_slowdown`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dss_bench::registration::{smoke_sets, GRID_DIM};
use dss_core::{subscribe_full_scan, subscribe_with, SearchOrder, Strategy, StreamGlobe};
use dss_network::{grid_topology, SimConfig};
use dss_proto::WireStrategy;
use dss_rass::{default_photons, QueryDef, QueryTemplateGenerator, Scenario};
use dss_server::NetMap;
use dss_wxquery::compile_query;
use dss_xml::writer::node_to_string;

use crate::calib::Pace;
use crate::catalog;
use crate::fleet::{self, FleetEnv, Reference, Session, SessionError};
use crate::layers::{self, Values};
use crate::procfs;
use crate::stats;
use crate::tracer::Tracer;

/// Fleet sessions a run holds at least, however slow they are.
const MIN_SESSIONS: u64 = 4;
/// Scenario-2 mixes one `sim_s2_share` run simulates, in turns.
const SIM_MIXES: u64 = 16;
const MIN_SIM_ROUNDS: usize = 3;
/// Subscriptions one pass of `register_grid_10k` registers.
pub const GRID_REGISTRATIONS: usize = 10_000;

/// Where the benchmark finds the product binary and leaves its files.
pub struct Env {
    pub dss_bin: PathBuf,
    /// `bench/out`.
    pub out: PathBuf,
}

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output compared equal to its reference.
    pub correct: bool,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub values: Values,
    /// How much slower than the quiet reference machine the host ran
    /// (median over the run's speed readings).
    pub host_slowdown: f64,
    pub failures: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            correct: true,
            values: Values::default(),
            host_slowdown: 1.0,
            failures: Vec::new(),
        }
    }

    /// An operation that did not complete: an error, a missed deadline.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// An operation that completed with output differing from its
    /// reference.
    fn wrong(&mut self, what: String) {
        self.correct = false;
        self.fail(what);
    }
}

/// The seed of a run's `k`-th query mix.
fn mix_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// Runs workload `name` for about `seconds` of measuring.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    env: &Env,
) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(name, traced);
    let budget = Duration::from_secs_f64(seconds);
    let mut out = match name {
        "fleet_s1_share" => {
            let share = WireStrategy::StreamSharing;
            fleet(name, share, seed, budget, traced, env, &mut tracer)?
        }
        "fleet_s1_ship" => {
            let ship = WireStrategy::DataShipping;
            fleet(name, ship, seed, budget, traced, env, &mut tracer)?
        }
        "sim_s2_share" => sim_s2_share(seed, budget, traced, &mut tracer)?,
        "register_grid_10k" => register_grid(seed, budget, traced, &mut tracer)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if traced {
        out.values.set("run.host_slowdown", out.host_slowdown);
        tracer.set_enabled(true);
        let costs = layers::measure(seed, &mut tracer);
        fill_budget(&mut out.values, &costs);
        out.values.absorb(costs);
        out.values.set("trace.spans", tracer.span_count() as f64);
        std::fs::create_dir_all(&env.out).map_err(|e| format!("creating {:?}: {e}", env.out))?;
        let path = env.out.join(format!("trace-{name}.json"));
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("writing {path:?}: {e}"))?;
    }
    // Only catalogued metrics are printed; a misspelt one must not vanish.
    let catalogued = |k: &str| {
        let mut all = catalog::END_TO_END.iter().chain(&catalog::PER_LAYER);
        all.any(|(name, _)| *name == k)
    };
    if let Some(stray) = out.values.values.keys().find(|k| !catalogued(k)) {
        return Err(format!("metric {stray:?} is not in the catalogue"));
    }
    Ok(out)
}

/// Median of the unit times measured with the tracer on against those
/// with it off, as a percentage of the latter.
fn overhead_pct(units: &[(bool, f64)]) -> f64 {
    let of = |on: bool| -> Vec<f64> {
        let side = units.iter().filter(|(t, _)| *t == on);
        side.map(|(_, x)| *x).collect()
    };
    let (on, off) = (of(true), of(false));
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    (stats::median(&on) / stats::median(&off) - 1.0) * 100.0
}

/// Median, the highest tail percentile the sample supports, and the
/// sample count of a traced run's latencies, as `<prefix>_*`.
fn set_latency(v: &mut Values, prefix: &str, samples_ms: &[f64]) {
    let (permille, value) = stats::tail(samples_ms).map_or((0.0, 0.0), |(p, x)| (f64::from(p), x));
    v.set_samples(&format!("{prefix}_ms_p50"), samples_ms);
    v.set(&format!("{prefix}_ms_tail"), value);
    v.set(&format!("{prefix}_tail_permille"), permille);
    v.set(&format!("{prefix}_samples"), samples_ms.len() as f64);
}

// ---------------------------------------------------------------------
// fleet_s1_share / fleet_s1_ship
// ---------------------------------------------------------------------

fn fleet(
    name: &str,
    strategy: WireStrategy,
    seed: u64,
    budget: Duration,
    traced: bool,
    env: &Env,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let fleet_env = FleetEnv {
        dss_bin: env.dss_bin.clone(),
        logs: env.out.join("logs"),
        metrics_dir: env.out.join("metrics").join(name),
        log_tag: name.to_string(),
    };
    for dir in [&fleet_env.logs, &fleet_env.metrics_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
    }

    let mut pace = Pace::start();
    let begun = Instant::now();
    let mut prep_s = Vec::new();
    let mut source_items = 0usize;
    let mut sessions: Vec<(bool, Session)> = Vec::new();
    // Per session, what converts its wall times into quiet-machine times.
    let mut factors: Vec<f64> = Vec::new();
    let mut implied: Vec<Implied> = Vec::new();
    while out.attempted < MIN_SESSIONS || begun.elapsed() < budget {
        // Set-up, part one: this session's query mix and the in-process
        // reference its deliveries are checked against.
        let t0 = Instant::now();
        let queries = Scenario::scenario1(mix_seed(seed, out.attempted)).queries;
        let reference = Reference::build(&queries, strategy)?;
        prep_s.push(t0.elapsed().as_secs_f64());
        let sources = reference.globe.source_names();
        source_items = sources
            .filter_map(|s| reference.globe.source_items(s))
            .map(<[_]>::len)
            .sum();

        let on = traced && out.attempted % 2 == 1;
        tracer.set_enabled(on);
        out.attempted += 1;
        let session = fleet::run_session(&fleet_env, &queries, strategy, &reference, tracer);
        // The fleet is dead again: a speed reading now, like the one before
        // this session, sees the machine and none of the product's work.
        let factor = pace.lap();
        match session {
            Ok(s) => {
                *prep_s.last_mut().expect("pushed above") *= factor;
                sessions.push((on, s));
                factors.push(factor);
                if traced {
                    implied.push(Implied::of(&reference, tracer));
                }
            }
            Err(e) => {
                prep_s.pop();
                eprintln!("{name}: session {} failed: {e}", out.attempted);
                match e {
                    SessionError::Failed(what) => out.fail(what),
                    SessionError::Wrong(what) => out.wrong(what),
                }
            }
        }
    }
    if sessions.is_empty() {
        return Err(format!("every session failed; first: {}", out.failures[0]));
    }

    let column =
        |f: fn(&Session) -> f64| -> Vec<f64> { sessions.iter().map(|(_, s)| f(s)).collect() };
    let run_ms = column(|s| s.run_ms);
    let warm_subscribes: Vec<f64> = sessions
        .iter()
        .flat_map(|(_, s)| s.subscribe_ms[1..].iter().copied())
        .collect();
    out.host_slowdown = pace.slowdown();
    let v = &mut out.values;
    if !traced {
        // Quiet-machine times: every session's wall times scaled by its own
        // pace factor.
        let paced = |f: fn(&Session) -> f64| -> Vec<f64> {
            let each = sessions.iter().zip(&factors);
            each.map(|((_, s), factor)| f(s) * factor).collect()
        };
        let ready_s = stats::median(&paced(|s| s.spawn_to_ready_ms)) / 1e3;
        v.set("setup_s", stats::median(&prep_s) + ready_s);
        let paced_run_ms = paced(|s| s.run_ms);
        let run_s = stats::median(&paced_run_ms) / 1e3;
        v.set("work_per_s", source_items as f64 / run_s);
        v.noise
            .insert("work_per_s".into(), stats::rel_iqr(&paced_run_ms));
        let subscribes: Vec<f64> = sessions
            .iter()
            .zip(&factors)
            .flat_map(|((_, s), factor)| s.subscribe_ms[1..].iter().map(move |ms| ms * factor))
            .collect();
        v.set_samples("register_ms_p50", &subscribes);
        v.set_samples("peak_rss_mb", &column(|s| s.fleet_rss_mb));
        return Ok(out);
    }
    v.set_samples(
        "server.spawn_to_ready_ms_p50",
        &column(|s| s.spawn_to_ready_ms),
    );
    v.set_samples(
        "server.subscribe_cold_ms_p50",
        &column(|s| s.subscribe_ms[0]),
    );
    let subscribing_s: f64 = sessions
        .iter()
        .map(|(_, s)| s.subscribe_ms.iter().sum::<f64>() / 1e3)
        .sum();
    let subscriptions: usize = sessions.iter().map(|(_, s)| s.subscribe_ms.len()).sum();
    v.set(
        "server.registrations_per_s",
        subscriptions as f64 / subscribing_s,
    );
    v.set("server.run_ms_iqr", stats::iqr(&run_ms));
    v.set_samples(
        "server.first_delivery_ms_p50",
        &column(|s| s.first_delivery_ms),
    );
    v.set_samples(
        "server.delivery_span_ms_p50",
        &column(|s| s.delivery_span_ms),
    );
    v.set_samples("server.rundone_lag_ms_p50", &column(|s| s.rundone_lag_ms));
    v.set_samples("server.shutdown_ms_p50", &column(|s| s.shutdown_ms));
    let frames = stats::median(&column(|s| s.deliver_frames as f64));
    let items = stats::median(&column(|s| s.delivered_items as f64));
    v.set("server.deliver_frames_per_run", frames);
    v.set("server.items_per_deliver_frame", items / frames.max(1.0));
    v.set_samples("server.fleet_cpu_ms_per_run", &column(|s| s.fleet_cpu_ms));
    let high_water = column(|s| s.mailbox_high_water_max);
    v.set(
        "server.mailbox_high_water_max",
        high_water.iter().copied().fold(0.0, f64::max),
    );
    v.set(
        "server.mailbox_depth_mean",
        stats::mean(&column(|s| s.mailbox_depth_mean)),
    );
    v.set(
        "server.delivered_items",
        stats::median(&column(|s| s.telemetry_delivered)),
    );
    v.set(
        "server.stale_batches",
        column(|s| s.stale_batches).iter().sum(),
    );
    v.set("server.sessions", out.attempted as f64);
    v.set("server.sessions_failed", out.failed as f64);

    set_latency(v, "run.op", &run_ms);
    set_latency(v, "run.register", &warm_subscribes);
    let timed: Vec<(bool, f64)> = sessions.iter().map(|(on, s)| (*on, s.run_ms)).collect();
    v.set("trace.overhead_pct", overhead_pct(&timed));

    let implied_column = |f: fn(&Implied) -> f64| -> Vec<f64> { implied.iter().map(f).collect() };
    v.set(
        "run.edge_mbytes",
        stats::median(&implied_column(|i| i.edge_mbytes)),
    );
    v.set(
        "run.peer_work_units",
        stats::median(&implied_column(|i| i.work_units)),
    );
    v.set(
        "budget.frames_sent_per_run",
        stats::median(&implied_column(|i| i.frames_sent)),
    );
    v.set(
        "budget.frames_decoded_per_run",
        stats::median(&implied_column(|i| i.frames_decoded)),
    );
    v.set(
        "budget.mailbox_ops_per_run",
        stats::median(&implied_column(|i| i.mailbox_ops)),
    );
    v.set_samples("budget.flowdag_cpu_ms", &implied_column(|i| i.flowdag_ms));
    Ok(out)
}

/// What one replay run of a reference deployment makes the fleet do,
/// counted from the deployment and the reference outputs.
struct Implied {
    /// Frames the fleet's processes encode and send, one per item:
    /// every output of a flow crosses the wire once per route hop whose
    /// two ends live in different processes; a delivery flow's outputs
    /// are relayed to the coordinator unless its last hop already lives
    /// there, and from the coordinator to the client. Each flow adds one
    /// end-of-stream frame per crossing. An upper bound: a worker batches
    /// the outputs one input item causes.
    frames_sent: f64,
    /// Of those, the frames another fleet process decodes (all but the
    /// ones to the client, which the bench decodes).
    frames_decoded: f64,
    /// Mailbox hand-offs: every group input item and end-of-stream marker.
    mailbox_ops: f64,
    /// Time the sharing groups' `FlowDag`s take on their real inputs.
    flowdag_ms: f64,
    edge_mbytes: f64,
    work_units: f64,
}

impl Implied {
    fn of(reference: &Reference, tracer: &mut Tracer) -> Implied {
        let globe = &reference.globe;
        let map = NetMap::new(globe.topology());
        let delivery: BTreeMap<_, _> = globe.registered_queries().map(|(q, f)| (f, q)).collect();
        let (mut sent, mut decoded) = (0usize, 0usize);
        for (id, flow) in globe.deployment().flows().iter().enumerate() {
            if flow.retired {
                continue;
            }
            let frames = reference.flow_outputs[id].len() + 1;
            let hops = flow.route.windows(2);
            let crossings = hops
                .filter(|hop| map.owner_of(hop[0]) != map.owner_of(hop[1]))
                .count();
            sent += frames * crossings;
            decoded += frames * crossings;
            if delivery.contains_key(&id) {
                let last = *flow.route.last().expect("routes are never empty");
                if map.owner_of(last) != map.coordinator() {
                    sent += frames;
                    decoded += frames;
                }
                sent += frames;
            }
        }
        let t0 = Instant::now();
        let ran = tracer.span("layer.network.flowdag_groups", |_| {
            layers::run_all_groups(globe, &reference.flow_outputs)
        });
        let flowdag_ms = t0.elapsed().as_secs_f64() * 1e3;
        black_box(ran.emitted);
        Implied {
            frames_sent: sent as f64,
            frames_decoded: decoded as f64,
            mailbox_ops: (ran.fed + ran.groups) as f64,
            flowdag_ms,
            edge_mbytes: reference.edge_mbytes,
            work_units: reference.work_units,
        }
    }
}

/// `budget.<layer>_cpu_ms` = the layer's unit cost × the operation counts
/// a fleet workload implies; `unexplained` is what the fleet's measured
/// CPU time leaves over. Workloads without a fleet have no budget.
fn fill_budget(v: &mut Values, costs: &Values) {
    let sent = v.get("budget.frames_sent_per_run");
    if sent == 0.0 {
        return;
    }
    let decoded = v.get("budget.frames_decoded_per_run");
    let encode = costs.get("proto.encode_ns_per_item_b1");
    let decode = costs.get("proto.decode_ns_per_item_b1");
    // `Conn::send` encodes too; its budget line is the rest of the call.
    let send = (costs.get("server.conn_send_ns_per_frame") - encode).max(0.0);
    let handoff = costs.get("network.mailbox_handoff_ns");
    v.set("budget.proto_encode_cpu_ms", encode * sent / 1e6);
    v.set("budget.proto_decode_cpu_ms", decode * decoded / 1e6);
    v.set("budget.conn_send_cpu_ms", send * sent / 1e6);
    v.set(
        "budget.mailbox_cpu_ms",
        handoff * v.get("budget.mailbox_ops_per_run") / 1e6,
    );
    let explained: f64 = [
        "budget.flowdag_cpu_ms",
        "budget.mailbox_cpu_ms",
        "budget.proto_encode_cpu_ms",
        "budget.proto_decode_cpu_ms",
        "budget.conn_send_cpu_ms",
    ]
    .iter()
    .map(|m| v.get(m))
    .sum();
    v.set(
        "budget.unexplained_cpu_ms",
        v.get("server.fleet_cpu_ms_per_run") - explained,
    );
}

// ---------------------------------------------------------------------
// sim_s2_share
// ---------------------------------------------------------------------

/// One scenario-2 query mix, set up and verified, with what its timed
/// `simulate` calls measured.
struct SimMix {
    system: StreamGlobe,
    source_items: usize,
    /// `NetworkMetrics` totals every call must reproduce exactly.
    edge_bytes: u64,
    work: f64,
    reuse_ratio: f64,
    call_ms: Vec<f64>,
    /// The same calls in quiet-machine time.
    paced_ms: Vec<f64>,
}

/// A scenario-2 system with its 100 queries registered, and per query its
/// delivery flow and whether it reused a derived stream.
type SimSystem = (Scenario, StreamGlobe, Vec<(QueryDef, usize, bool)>);

/// The set-ups of one `sim_s2_share` run and what they measured.
#[derive(Default)]
struct SimSetups {
    /// Per set-up, in quiet-machine seconds.
    setup_s: Vec<f64>,
    /// Per `register_query`, as the wall clock read it …
    register_ms: Vec<f64>,
    /// … and in quiet-machine time.
    paced_register_ms: Vec<f64>,
}

impl SimSetups {
    /// One set-up: corpus generation plus the 100 in-process registrations.
    fn build(
        &mut self,
        mix: u64,
        out: &mut Outcome,
        pace: &mut Pace,
        tracer: &mut Tracer,
    ) -> SimSystem {
        let t0 = Instant::now();
        let scenario = Scenario::scenario2(mix);
        let mut system = scenario.build_system();
        let mut delivery = Vec::new();
        let registered = self.register_ms.len();
        for q in &scenario.queries {
            let t1 = Instant::now();
            let reg = tracer.span("register_query", |_| {
                system.register_query(q.id.clone(), &q.text, &q.peer, Strategy::StreamSharing)
            });
            self.register_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            match reg {
                Ok(r) => delivery.push((q.clone(), r.delivery_flow, r.reused_derived_stream)),
                Err(e) => out.fail(format!("registering {} failed: {e}", q.id)),
            }
        }
        let spent = t0.elapsed().as_secs_f64();
        let factor = pace.lap();
        self.setup_s.push(spent * factor);
        let fresh = self.register_ms[registered..].iter();
        self.paced_register_ms.extend(fresh.map(|ms| ms * factor));
        (scenario, system, delivery)
    }
}

fn sim_s2_share(
    seed: u64,
    budget: Duration,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut setups = SimSetups::default();
    let mut mixes: Vec<SimMix> = Vec::new();
    let mut pace = Pace::start();

    tracer.set_enabled(traced);
    for mix in 0..SIM_MIXES {
        let (scenario, system, delivery) =
            setups.build(mix_seed(seed, mix), &mut out, &mut pace, tracer);

        // Once per mix, outside timing: every delivery flow against the
        // oracle.
        let first = system.run_simulation(SimConfig::default());
        tracer.span("verify", |_| {
            for (q, flow, _) in &delivery {
                let stream = compile_query(&q.text).map(|c| c.input_stream).ok();
                let source = stream.and_then(|s| scenario.streams.iter().find(|d| d.name == s));
                let items = source.map_or(&[][..], |d| d.items.as_slice());
                let outputs = &first.flow_outputs[*flow];
                let got: Vec<String> = outputs.iter().map(node_to_string).collect();
                out.attempted += 1;
                match dss_oracle::evaluate(&q.text, items) {
                    Ok(want) if want.canonical() == got => {}
                    Ok(want) => out.wrong(format!(
                        "{}: simulator delivers {} items, oracle {}; bytes differ",
                        q.id,
                        got.len(),
                        want.canonical().len()
                    )),
                    Err(e) => out.wrong(format!("{}: oracle failed: {e}", q.id)),
                }
            }
        });
        let reused = delivery.iter().filter(|(_, _, r)| *r).count();
        mixes.push(SimMix {
            system,
            source_items: scenario.streams.iter().map(|s| s.items.len()).sum(),
            edge_bytes: first.metrics.total_edge_bytes(),
            work: first.metrics.total_work(),
            reuse_ratio: reused as f64 / delivery.len().max(1) as f64,
            call_ms: Vec::new(),
            paced_ms: Vec::new(),
        });
    }

    // Timed: rounds of one `simulate` call per mix, so that a slow spell of
    // the machine touches every mix alike and each mix's median sheds it.
    // Every round also sets up one more mix (and drops it): set-up time and
    // registration latency are then medians over the whole run, not over
    // its first second.
    pace.lap();
    let begun = Instant::now();
    let mut calls: Vec<(bool, f64)> = Vec::new();
    // Resident size of this process while a call's result is alive.
    let mut resident_mb: Vec<f64> = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_SIM_ROUNDS || begun.elapsed() < budget {
        rounds += 1;
        tracer.set_enabled(traced);
        setups.build(
            mix_seed(seed, SIM_MIXES + rounds as u64),
            &mut out,
            &mut pace,
            tracer,
        );
        for mix in &mut mixes {
            let on = traced && calls.len() % 2 == 1;
            tracer.set_enabled(on);
            let t0 = Instant::now();
            let sim = tracer.span("simulate", |_| {
                mix.system.run_simulation(SimConfig::default())
            });
            let spent = t0.elapsed().as_secs_f64() * 1e3;
            // The result is dropped before the reading, as before the next
            // call.
            let (edge_bytes, work) = (sim.metrics.total_edge_bytes(), sim.metrics.total_work());
            resident_mb.extend(procfs::own_rss_mb());
            drop(sim);
            mix.call_ms.push(spent);
            mix.paced_ms.push(spent * pace.lap());
            calls.push((on, spent));
            out.attempted += 1;
            // The paper's cost metrics are counts: they must repeat exactly.
            if edge_bytes != mix.edge_bytes || work != mix.work {
                out.wrong("simulate: traffic or work differs between identical calls".into());
            }
        }
    }

    out.host_slowdown = pace.slowdown();
    let column = |f: fn(&SimMix) -> f64| -> Vec<f64> { mixes.iter().map(f).collect() };
    let mix_ms = column(|m| stats::median(&m.paced_ms));
    let v = &mut out.values;
    if !traced {
        v.set_samples("setup_s", &setups.setup_s);
        // Mean over the mixes of each mix's median: every mix weighs the
        // same.
        let items = stats::mean(&column(|m| m.source_items as f64));
        v.set("work_per_s", items / (stats::mean(&mix_ms) / 1e3));
        v.noise.insert("work_per_s".into(), stats::rel_iqr(&mix_ms));
        v.set_samples("register_ms_p50", &setups.paced_register_ms);
        // The process-wide high-water mark would be one call's alone, and
        // which one is a matter of thread timing; the mean over the calls,
        // each mix's equally often, is not.
        v.set("peak_rss_mb", stats::mean(&resident_mb));
        v.noise
            .insert("peak_rss_mb".into(), stats::rel_iqr(&resident_mb));
        return Ok(out);
    }
    let call_ms: Vec<f64> = calls.iter().map(|(_, ms)| *ms).collect();
    set_latency(v, "run.op", &call_ms);
    set_latency(v, "run.register", &setups.register_ms);
    v.set("run.reuse_ratio", stats::mean(&column(|m| m.reuse_ratio)));
    v.set(
        "run.edge_mbytes",
        stats::median(&column(|m| m.edge_bytes as f64 / 1e6)),
    );
    v.set("run.peer_work_units", stats::median(&column(|m| m.work)));
    v.set("trace.overhead_pct", overhead_pct(&calls));
    Ok(out)
}

// ---------------------------------------------------------------------
// register_grid_10k
// ---------------------------------------------------------------------

/// The registration workload's inputs: `GRID_REGISTRATIONS` template
/// subscriptions drawn from `smoke_sets()` (high reuse), spread over the
/// 6×6 grid as `dss_bench::registration::run_tier` spreads them.
struct GridCorpus {
    system: StreamGlobe,
    /// `(text, peer)` per subscription.
    queries: Vec<(String, String)>,
}

fn grid_corpus(seed: u64) -> Result<GridCorpus, String> {
    let peers = GRID_DIM * GRID_DIM;
    let mut system = StreamGlobe::new(grid_topology(GRID_DIM, GRID_DIM));
    system
        .register_stream("photons", "SP0", default_photons(seed, 200), 60.0)
        .map_err(|e| format!("registering the stream failed: {e}"))?;
    let mut templates = QueryTemplateGenerator::with_sets(seed, "photons", smoke_sets());
    let queries = (0..GRID_REGISTRATIONS)
        .map(|i| {
            let peer = format!("SP{}", (i * 13 + 5) % peers);
            (templates.next_query(), peer)
        })
        .collect();
    Ok(GridCorpus { system, queries })
}

/// What one pass over the corpus observed.
struct GridPass {
    latencies_ms: Vec<f64>,
    /// The same latencies in quiet-machine time.
    paced_ms: Vec<f64>,
    /// Set-ups repeated along the pass, in quiet-machine seconds.
    setup_s: Vec<f64>,
    reused: usize,
    wall_s: f64,
}

/// Registrations between two speed readings of a pass.
const GRID_PACE_EVERY: usize = 100;
/// Registrations between two repeats of the set-up: set-up time is then a
/// median over the whole run, not over its first tenth of a second.
const GRID_SETUP_EVERY: usize = 500;

/// One timed set-up, in quiet-machine seconds.
fn timed_grid_corpus(seed: u64, pace: &mut Pace) -> Result<(GridCorpus, f64), String> {
    let t0 = Instant::now();
    let corpus = grid_corpus(seed)?;
    let spent = t0.elapsed().as_secs_f64();
    Ok((corpus, spent * pace.lap()))
}

/// Registers the whole corpus on a fresh system. At 10 %, 50 % and 100 %
/// of the population the just-registered query is planned again through
/// both the indexed search and the full-scan reference, which must agree.
fn grid_pass(
    seed: u64,
    out: &mut Outcome,
    pace: &mut Pace,
    tracer: &mut Tracer,
) -> Result<GridPass, String> {
    let (corpus, first_setup_s) = timed_grid_corpus(seed, pace)?;
    let GridCorpus {
        mut system,
        queries,
    } = corpus;
    let n = queries.len();
    let marks = [n.div_ceil(10), n.div_ceil(2), n];
    let mut pass = GridPass {
        latencies_ms: Vec::with_capacity(n),
        paced_ms: Vec::with_capacity(n),
        setup_s: vec![first_setup_s],
        reused: 0,
        wall_s: 0.0,
    };
    for (i, (text, peer)) in queries.iter().enumerate() {
        let t0 = Instant::now();
        let reg = tracer.span("register_query", |_| {
            system.register_query(format!("q{i}"), text, peer, Strategy::StreamSharing)
        });
        let spent = t0.elapsed().as_secs_f64();
        pass.wall_s += spent;
        pass.latencies_ms.push(spent * 1e3);
        out.attempted += 1;
        match reg {
            Ok(r) => pass.reused += usize::from(r.reused_derived_stream),
            Err(e) => out.fail(format!("registration {i} failed: {e}")),
        }
        if (i + 1) % GRID_PACE_EVERY == 0 || i + 1 == n {
            let factor = pace.lap();
            let fresh = &pass.latencies_ms[pass.paced_ms.len()..];
            pass.paced_ms.extend(fresh.iter().map(|ms| ms * factor));
        }
        if (i + 1) % GRID_SETUP_EVERY == 0 {
            pass.setup_s.push(timed_grid_corpus(seed, pace)?.1);
        }
        if marks.contains(&(i + 1)) {
            out.attempted += 1;
            if let Err(e) = plans_identical(&system, text, peer) {
                out.wrong(format!("checkpoint at {}: {e}", i + 1));
            }
        }
    }
    if system.query_count() != n {
        let installed = system.query_count();
        out.wrong(format!("{installed} of {n} subscriptions installed"));
    }
    Ok(pass)
}

fn plans_identical(system: &StreamGlobe, text: &str, peer: &str) -> Result<(), String> {
    let compiled = compile_query(text).map_err(|e| format!("probe does not compile: {e}"))?;
    let at = system.topology().expect_node(peer);
    let state = system.state();
    let (indexed, i_stats) =
        subscribe_with(state, &compiled, at, at, SearchOrder::Bfs, false, false)
            .map_err(|e| format!("indexed probe does not plan: {e}"))?;
    let (scanned, s_stats) =
        subscribe_full_scan(state, &compiled, at, at, SearchOrder::Bfs, false, false)
            .map_err(|e| format!("full-scan probe does not plan: {e}"))?;
    if i_stats.nodes_visited != s_stats.nodes_visited
        || format!("{indexed:?}") != format!("{scanned:?}")
    {
        return Err("indexed and full-scan searches chose different plans".into());
    }
    Ok(())
}

fn register_grid(
    seed: u64,
    budget: Duration,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut pace = Pace::start();

    // A traced run needs one pass with the tracer on and one with it off.
    let min_passes = if traced { 2 } else { 1 };
    let begun = Instant::now();
    let mut passes: Vec<(bool, GridPass)> = Vec::new();
    // A pass takes about half of `run_seconds`. Another one starts while
    // less than 0.6 of the measuring time is used: two passes per run
    // whether this one ran a little faster or a little slower.
    while passes.len() < min_passes || begun.elapsed() < budget.mul_f64(0.6) {
        let on = traced && passes.len() % 2 == 1;
        tracer.set_enabled(on);
        passes.push((on, grid_pass(seed, &mut out, &mut pace, tracer)?));
    }
    let peak_rss = procfs::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    let reused = passes[0].1.reused;
    if passes.iter().any(|(_, p)| p.reused != reused) {
        out.wrong("reuse count differs between identical passes".into());
    }

    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.latencies_ms.iter().copied())
        .collect();
    out.host_slowdown = pace.slowdown();
    let v = &mut out.values;
    if !traced {
        let paced: Vec<f64> = passes
            .iter()
            .flat_map(|(_, p)| p.paced_ms.iter().copied())
            .collect();
        let registering_s = paced.iter().sum::<f64>() / 1e3;
        let setup_s: Vec<f64> = passes
            .iter()
            .flat_map(|(_, p)| p.setup_s.iter().copied())
            .collect();
        v.set_samples("setup_s", &setup_s);
        v.set("work_per_s", paced.len() as f64 / registering_s);
        v.set_samples("register_ms_p50", &paced);
        v.set("peak_rss_mb", peak_rss);
        return Ok(out);
    }
    set_latency(v, "run.op", &latencies);
    set_latency(v, "run.register", &latencies);
    v.set("run.reuse_ratio", reused as f64 / GRID_REGISTRATIONS as f64);
    let walls: Vec<(bool, f64)> = passes.iter().map(|(on, p)| (*on, p.wall_s)).collect();
    v.set("trace.overhead_pct", overhead_pct(&walls));
    Ok(out)
}
