//! One loopback-fleet *session*: spawn a fresh 8-process `dss serve
//! scenario1` fleet, connect one client, subscribe the scenario's queries,
//! do one flat-out replay, read the children's CPU/RSS, shut down.
//!
//! A session is the unit of work because of two product defects this
//! benchmark must not trip (see bench/README.md): the default mailbox
//! capacity self-deadlocks on this scenario (hence
//! `--mailbox-capacity 1000000`), and warm back-to-back runs on one fleet
//! sometimes lose a run (hence one run per fresh fleet).
//!
//! Robustness contract: every child is owned by a kill-on-drop guard, a
//! run has [`RUN_DEADLINE`] and a session [`SESSION_DEADLINE`]; when
//! either passes the fleet is killed, the session counts as failed, and
//! the benchmark carries on.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dss_core::StreamGlobe;
use dss_network::Topology;
use dss_proto::WireStrategy;
use dss_rass::QueryDef;
use dss_server::{to_core_strategy, Client, ClientEvent, NetMap, ServeSpec};
use dss_telemetry::json::{self, Json};
use dss_xml::writer::node_to_string;
use dss_xml::Node;

use crate::procfs;
use crate::tracer::Tracer;

pub const RUN_DEADLINE: Duration = Duration::from_secs(5);
pub const SESSION_DEADLINE: Duration = Duration::from_secs(30);
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(5);

/// Mailbox slots per hosted node: far above the ~2 000 peak depth the
/// flat-out source reaches, so the default-capacity self-deadlock cannot
/// occur.
const MAILBOX_CAPACITY: &str = "1000000";

/// The fleet's topology; `ServeSpec::build_globe` pins its stream corpus
/// to `Scenario::scenario1(42)` whatever seed the benchmark runs with.
pub const TOPOLOGY: &str = "scenario1";

/// Kill-on-drop owner of the fleet's child processes.
pub struct Fleet {
    children: Mutex<Vec<(String, Child)>>,
    pub coordinator_addr: String,
}

impl Fleet {
    /// Spawns one `dss serve` child per super-peer. `env.logs` receives
    /// each child's stderr (appended), `env.metrics_dir` its final
    /// telemetry snapshot.
    fn spawn(env: &FleetEnv, topo: &Topology, map: &NetMap) -> std::io::Result<Fleet> {
        let mut spec = ServeSpec::new(TOPOLOGY).expect("scenario1 is a known topology");
        spec.port_base = pick_port_base(map.process_count() as u16)?;
        let fleet = Fleet {
            children: Mutex::new(Vec::new()),
            coordinator_addr: map.addr(&spec, map.coordinator()),
        };
        for i in 0..map.process_count() {
            let name = topo.peer(map.sp(i)).name.clone();
            let log = OpenOptions::new()
                .create(true)
                .append(true)
                .open(env.logs.join(format!("{}-{name}.log", env.log_tag)))?;
            let child = Command::new(&env.dss_bin)
                .args(["serve", TOPOLOGY, "--peer", &name])
                .args(["--port-base", &spec.port_base.to_string()])
                .args(["--mailbox-capacity", MAILBOX_CAPACITY])
                .arg("--metrics-out")
                .arg(env.metrics_dir.join(format!("metrics-{name}.json")))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log)
                .spawn()?;
            // Pushed before the next spawn can fail, so `Drop` reaps it.
            fleet.children.lock().unwrap().push((name, child));
        }
        Ok(fleet)
    }

    fn pids(&self) -> Vec<u32> {
        let children = self.children.lock().unwrap();
        children.iter().map(|(_, c)| c.id()).collect()
    }

    /// Waits until every child has exited on its own; `false` on timeout.
    fn wait_exit(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut children = self.children.lock().unwrap();
        for (_, child) in children.iter_mut() {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    _ => return false,
                }
            }
        }
        true
    }

    /// SIGKILLs and reaps every child still running.
    pub fn kill_all(&self) {
        let mut children = self.children.lock().unwrap();
        for (_, child) in children.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// A base port from which `n` consecutive loopback ports currently bind
/// (the `pick_port_base` pattern of `tests/serve.rs`, walking from a
/// per-process start so successive sessions do not reuse a range whose
/// sockets may still be in TIME_WAIT). All bases lie below 32768, where
/// Linux starts handing out source ports: otherwise an outgoing connection
/// of the starting fleet now and then takes a port between this probe and
/// the child's own bind, and that child dies with "address already in use"
/// (seen once in ≈ 850 sessions).
fn pick_port_base(n: u16) -> std::io::Result<u16> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let start = std::process::id().wrapping_mul(7_919);
    for _ in 0..2_000 {
        let step = NEXT.fetch_add(1, Ordering::Relaxed);
        let base = 10_000 + (start.wrapping_add(step * 16) % 20_000) as u16;
        let probes: Vec<_> = (0..n)
            .map(|i| TcpListener::bind(("127.0.0.1", base + i)))
            .collect();
        if probes.iter().all(Result::is_ok) {
            return Ok(base);
        }
    }
    Err(std::io::Error::other(format!(
        "no free {n}-port range on loopback"
    )))
}

/// The in-process reference for one query mix: what the batch simulator
/// delivers on the fleet's own base system, and the deployment the
/// replicated planner must arrive at.
pub struct Reference {
    /// The base system with every query registered.
    pub globe: StreamGlobe,
    /// Expected delivered items per query, serialized.
    pub expected: BTreeMap<String, Vec<String>>,
    /// Expected `RunDone.delivered`.
    pub total: u64,
    /// Every flow's outputs in the reference run (for the CPU budget).
    pub flow_outputs: Vec<Vec<Node>>,
    /// The paper's cost metrics of the reference run.
    pub edge_mbytes: f64,
    pub work_units: f64,
}

impl Reference {
    pub fn build(queries: &[QueryDef], strategy: WireStrategy) -> Result<Reference, String> {
        let spec = ServeSpec::new(TOPOLOGY)?;
        let mut globe = spec.build_globe();
        let mut delivery = Vec::new();
        for q in queries {
            let reg = globe
                .register_query(q.id.clone(), &q.text, &q.peer, to_core_strategy(strategy))
                .map_err(|e| format!("reference registration of {} failed: {e}", q.id))?;
            delivery.push((q.id.clone(), reg.delivery_flow));
        }
        let sim = globe.run_simulation(Default::default());
        let expected: BTreeMap<String, Vec<String>> = delivery
            .iter()
            .map(|(id, flow)| {
                let items = sim.flow_outputs[*flow].iter().map(node_to_string);
                (id.clone(), items.collect())
            })
            .collect();
        let total = expected.values().map(|v| v.len() as u64).sum();
        Ok(Reference {
            globe,
            expected,
            total,
            edge_mbytes: sim.metrics.total_edge_bytes() as f64 / 1e6,
            work_units: sim.metrics.total_work(),
            flow_outputs: sim.flow_outputs,
        })
    }
}

/// Where a session's files go and which binary it runs.
pub struct FleetEnv {
    pub dss_bin: PathBuf,
    pub logs: PathBuf,
    pub metrics_dir: PathBuf,
    /// Prefix of the children's log files (the workload name).
    pub log_tag: String,
}

/// Everything measured in one successful session. Times in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Session {
    pub spawn_to_ready_ms: f64,
    /// Round trip of each `Client::subscribe`, in subscription order.
    pub subscribe_ms: Vec<f64>,
    /// `start_run` sent → `RunDone` received.
    pub run_ms: f64,
    /// `start_run` sent → first non-empty `Deliver`.
    pub first_delivery_ms: f64,
    /// First → last non-empty `Deliver`.
    pub delivery_span_ms: f64,
    /// Last `Deliver` (of any kind) → `RunDone`.
    pub rundone_lag_ms: f64,
    pub shutdown_ms: f64,
    pub deliver_frames: u64,
    pub delivered_items: u64,
    /// Σ children `utime + stime` across the run.
    pub fleet_cpu_ms: f64,
    /// Σ children `VmHWM` just before shutdown.
    pub fleet_rss_mb: f64,
    /// From the peers' `--metrics-out` snapshots.
    pub mailbox_high_water_max: f64,
    pub mailbox_depth_mean: f64,
    pub telemetry_delivered: f64,
    pub stale_batches: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Why a session does not count as completed.
#[derive(Debug)]
pub enum SessionError {
    /// It did not finish: a deadline passed, an RPC faulted, a child died.
    Failed(String),
    /// It finished, with output differing from the reference.
    Wrong(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Failed(m) => write!(f, "{m}"),
            SessionError::Wrong(m) => write!(f, "wrong output: {m}"),
        }
    }
}

impl From<String> for SessionError {
    fn from(m: String) -> SessionError {
        SessionError::Failed(m)
    }
}

/// Runs one session; the fleet is dead by the time this returns, whatever
/// the outcome.
pub fn run_session(
    env: &FleetEnv,
    queries: &[QueryDef],
    strategy: WireStrategy,
    reference: &Reference,
    tracer: &mut Tracer,
) -> Result<Session, SessionError> {
    tracer.span("session", |tracer| {
        let topo = reference.globe.topology();
        let map = NetMap::new(topo);
        let spawned = Instant::now();
        let fleet = tracer
            .span("spawn", |_| Fleet::spawn(env, topo, &map))
            .map_err(|e| format!("spawning the fleet failed: {e}"))?;
        // The client work runs on its own thread so that this one can
        // enforce the session deadline by killing the fleet: every blocking
        // client call then fails with "connection closed".
        let (tx, rx) = mpsc::channel();
        let outcome = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let r = drive(&fleet, spawned, queries, strategy, reference, tracer);
                let _ = tx.send(());
                r
            });
            if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(SESSION_DEADLINE) {
                fleet.kill_all();
                let _ = worker.join();
                return Err(SessionError::Failed(format!(
                    "session exceeded its {} s deadline; fleet killed",
                    SESSION_DEADLINE.as_secs()
                )));
            }
            worker
                .join()
                .unwrap_or_else(|_| Err(SessionError::Failed("session thread panicked".into())))
        });
        let mut session = outcome?;
        tracer.span("metrics_read", |_| {
            read_peer_metrics(&env.metrics_dir, &mut session)
        })?;
        Ok(session)
    })
}

/// The client side of a session, from connect to clean shutdown.
fn drive(
    fleet: &Fleet,
    spawned: Instant,
    queries: &[QueryDef],
    strategy: WireStrategy,
    reference: &Reference,
    tracer: &mut Tracer,
) -> Result<Session, SessionError> {
    let mut s = Session::default();
    let mut client = tracer
        .span("connect", |_| {
            Client::connect(&fleet.coordinator_addr, "dss-perf", CONNECT_TIMEOUT)
        })
        .map_err(|e| format!("connecting to the coordinator failed: {e}"))?;
    s.spawn_to_ready_ms = ms(spawned.elapsed());

    for q in queries {
        let t0 = Instant::now();
        tracer
            .span("subscribe", |_| {
                client.subscribe(&q.id, &q.text, &q.peer, strategy)
            })
            .map_err(|e| format!("subscribing {} failed: {e}", q.id))?;
        s.subscribe_ms.push(ms(t0.elapsed()));
    }

    let pids = fleet.pids();
    let fleet_cpu = || pids.iter().filter_map(|&p| procfs::cpu_ms(p)).sum::<f64>();
    let cpu_before = fleet_cpu();
    let mut results: BTreeMap<String, Vec<Node>> = BTreeMap::new();
    let delivered = tracer.span("run", |tracer| -> Result<u64, String> {
        let started = Instant::now();
        client
            .start_run()
            .map_err(|e| format!("start_run failed: {e}"))?;
        let deadline = started + RUN_DEADLINE;
        let (mut first, mut last_item, mut last_any) = (None, started, started);
        loop {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| format!("run exceeded its {} s deadline", RUN_DEADLINE.as_secs()))?;
            let event = client
                .next_event(remaining)
                .map_err(|e| format!("run did not complete: {e}"))?;
            let now = Instant::now();
            match event {
                ClientEvent::Deliver { query, items, .. } => {
                    s.deliver_frames += 1;
                    s.delivered_items += items.len() as u64;
                    last_any = now;
                    if !items.is_empty() {
                        first.get_or_insert(now);
                        last_item = now;
                        results.entry(query).or_default().extend(items);
                    }
                }
                ClientEvent::RunDone { delivered, .. } => {
                    let first = first.unwrap_or(now);
                    s.run_ms = ms(now - started);
                    s.first_delivery_ms = ms(first - started);
                    s.delivery_span_ms = ms(last_item.saturating_duration_since(first));
                    s.rundone_lag_ms = ms(now - last_any);
                    tracer.record("first_delivery", started, first);
                    tracer.record("stream", first, last_any.max(first));
                    tracer.record("rundone_lag", last_any.max(first), now);
                    tracer.count("deliver_frames", s.deliver_frames);
                    tracer.count("delivered_items", s.delivered_items);
                    return Ok(delivered);
                }
            }
        }
    })?;
    s.fleet_cpu_ms = fleet_cpu() - cpu_before;
    s.fleet_rss_mb = pids.iter().filter_map(|&p| procfs::peak_rss_mb(p)).sum();

    tracer.span("verify", |_| check_outputs(&results, delivered, reference))?;

    let t0 = Instant::now();
    tracer.span("shutdown", |_| -> Result<(), String> {
        client
            .shutdown_fleet(SHUTDOWN_TIMEOUT)
            .map_err(|e| format!("fleet shutdown failed: {e}"))?;
        client.goodbye();
        if fleet.wait_exit(SHUTDOWN_TIMEOUT) {
            Ok(())
        } else {
            Err("children outlived the shutdown deadline".to_string())
        }
    })?;
    s.shutdown_ms = ms(t0.elapsed());
    Ok(s)
}

/// Every query's delivered items byte-equal to the reference, and the
/// fleet-wide count equal to their total.
fn check_outputs(
    results: &BTreeMap<String, Vec<Node>>,
    delivered: u64,
    reference: &Reference,
) -> Result<(), SessionError> {
    if delivered != reference.total {
        return Err(SessionError::Wrong(format!(
            "RunDone.delivered = {delivered}, reference delivers {}",
            reference.total
        )));
    }
    const NONE: &[Node] = &[];
    for (id, want) in &reference.expected {
        let got = results.get(id).map_or(NONE, Vec::as_slice);
        let same =
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| node_to_string(g) == *w);
        if !same {
            return Err(SessionError::Wrong(format!(
                "{id}: delivered bytes differ from the reference ({} vs {} items)",
                got.len(),
                want.len()
            )));
        }
    }
    Ok(())
}

/// Folds the peers' final telemetry snapshots into the session record.
fn read_peer_metrics(dir: &Path, s: &mut Session) -> Result<(), String> {
    let (mut depth_sum, mut depth_count) = (0.0, 0.0);
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {dir:?} failed: {e}"))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("reading {path:?} failed: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path:?} is not JSON: {e}"))?;
        let metrics = doc.get("metrics").and_then(Json::as_array).unwrap_or(&[]);
        for m in metrics {
            let num = |key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            match m.get("name").and_then(Json::as_str) {
                Some("runtime.queue_high_water") => {
                    s.mailbox_high_water_max = s.mailbox_high_water_max.max(num("value"));
                }
                Some("runtime.mailbox.depth") => {
                    depth_sum += num("sum");
                    depth_count += num("count");
                }
                Some("runtime.delivered") => s.telemetry_delivered += num("value"),
                Some("server.stale_batches") => s.stale_batches += num("value"),
                _ => {}
            }
        }
        // A stale snapshot must never be read as the next session's.
        let _ = std::fs::remove_file(&path);
    }
    if depth_count > 0.0 {
        s.mailbox_depth_mean = depth_sum / depth_count;
    }
    Ok(())
}
