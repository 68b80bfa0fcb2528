//! `dss` — command-line front end to the data-stream-sharing system.
//!
//! ```text
//! dss demo                          run the Figures-1/2 narrative
//! dss queries                       print the paper's example queries
//! dss plan <file|-> [options]       plan one WXQuery subscription on the
//!                                   example network and explain the plan
//! dss explain <file|-> [options]    like `plan`, but print the recorded
//!                                   plan-search trace: peers visited, every
//!                                   candidate stream with its C(P) breakdown
//!                                   (traffic + load) or rejection reason
//! dss check <file|->                parse/compile a subscription and dump
//!                                   its properties
//! dss serve <topology> --peer <SPn> serve one super-peer of a networked
//!                                   deployment over TCP
//! dss client <verb> <addr> ...      drive a deployed fleet (subscribe,
//!                                   run, metrics, shutdown)
//! ```
//!
//! Options for `plan` and `explain`:
//!
//! ```text
//! --at <peer>          registering peer (default P1)
//! --strategy <s>       data-shipping | query-shipping | stream-sharing
//! --after <q1,q3,...>  pre-register paper queries first (enables sharing)
//! ```

use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;

use data_stream_sharing::core::Strategy;
use data_stream_sharing::server::{self, Client, PeerOptions, ServeSpec};
use data_stream_sharing::wxquery::{compile_query, queries};
use dss_rass::scenario::example_network;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("demo") => demo(),
        Some("queries") => {
            for (name, text) in queries::ALL {
                println!("--- {name} ---{text}");
            }
            ExitCode::SUCCESS
        }
        Some("plan") => plan(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some(other) => {
            eprintln!("error: unknown command {other:?}");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: dss <command>\n\n\
         commands:\n  \
         demo                         run the paper's Figures-1/2 narrative\n  \
         queries                      print the paper's example queries\n  \
         plan <file|-> [options]      plan a WXQuery subscription\n  \
         explain <file|-> [options]   plan + print the plan-search trace\n  \
         check <file|->               compile a subscription, dump properties\n  \
         serve <topology> --peer <SPn> [serve options]\n                               \
         serve one super-peer process of a networked deployment\n  \
         client <verb> <addr> [...]   drive a deployed fleet\n\n\
         plan/explain options:\n  \
         --at <peer>                  registering peer (default P1)\n  \
         --strategy <s>               data-shipping | query-shipping | stream-sharing\n  \
         --after <q1,q2,...>          pre-register paper queries (enables sharing)\n\n\
         serve options:\n  \
         --host <addr>                bind/dial interface (default 127.0.0.1)\n  \
         --port-base <n>              first listen port (default 7400; process i uses base+i)\n  \
         --mailbox-capacity <n>       bounded mailbox slots per hosted node (default 1024)\n  \
         --metrics-out <path>         write the final telemetry snapshot here on shutdown\n  \
         --wal-dir <path>             durable mode: write-ahead log + crash recovery state here\n  \
         --source-delay-ms <n>        pause between source items (fault-injection pacing)\n\n\
         client verbs:\n  \
         subscribe <addr> <id> <file|-> [--at <peer>] [--strategy <s>]\n                               \
         register a query with the coordinator\n  \
         run <addr>                   start a replay run, stream results to stdout\n  \
         metrics <addr>               pull a telemetry snapshot (JSON) from a peer\n  \
         shutdown <addr>              cleanly stop the fleet via the coordinator"
    );
}

/// `dss serve <topology> --peer <SPn> [options]`.
fn serve(args: &[String]) -> ExitCode {
    let opts = match parse_serve(args) {
        Ok(opts) => opts,
        Err(e) => return usage_error(&e),
    };
    match server::serve(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The options of `dss serve`, or the usage error to print.
fn parse_serve(args: &[String]) -> Result<PeerOptions, String> {
    let topology = args
        .first()
        .ok_or("serve requires a topology (\"example\" or \"scenario1\")")?;
    let mut opts = PeerOptions::new(ServeSpec::new(topology)?, "");
    let mut peer = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} requires {what}"));
        match a.as_str() {
            "--peer" => peer = Some(value("a super-peer name")?.clone()),
            "--host" => opts.spec.host = value("an address")?.clone(),
            "--port-base" => {
                let port = value("a port number")?.parse().ok();
                opts.spec.port_base = port.ok_or("--port-base requires a port number")?;
            }
            "--mailbox-capacity" => {
                let n = value("a positive integer")?.parse().ok().filter(|&n| n > 0);
                opts.mailbox_capacity =
                    n.ok_or("--mailbox-capacity requires a positive integer")?;
            }
            "--metrics-out" => opts.metrics_out = Some(value("a path")?.into()),
            "--wal-dir" => opts.wal_dir = Some(value("a path")?.into()),
            "--source-delay-ms" => {
                let ms = value("a number of milliseconds")?.parse().ok();
                let ms = ms.ok_or("--source-delay-ms requires a number of milliseconds")?;
                opts.source_delay = Duration::from_millis(ms);
            }
            other => return Err(format!("unexpected serve argument {other:?}")),
        }
    }
    opts.peer = peer.ok_or("serve requires --peer <SPn>")?;
    Ok(opts)
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// One `dss client` verb with its arguments.
#[derive(Debug)]
enum ClientCmd {
    /// `query` is the file to read the query from (`-`: stdin).
    Subscribe {
        id: String,
        query: String,
        at: String,
        strategy: Strategy,
    },
    Run,
    Metrics,
    Shutdown,
}

/// `dss client <verb> <addr> ...`.
fn client(args: &[String]) -> ExitCode {
    let (addr, cmd) = match parse_client(args) {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&e),
    };
    let text = match &cmd {
        ClientCmd::Subscribe { query, .. } => read_query_arg(Some(query)),
        _ => Ok(String::new()),
    };
    let text = match text {
        Ok(t) => t,
        Err(e) => return usage_error(&e),
    };
    let mut c = match Client::connect(&addr, "dss-cli", CLIENT_TIMEOUT) {
        Ok(c) => c,
        Err(e) => return client_error(e),
    };
    let done = match cmd {
        ClientCmd::Subscribe {
            id, at, strategy, ..
        } => c
            .subscribe(&id, &text, &at, server::to_wire_strategy(strategy))
            .map(|reply| {
                let shares = if reply.reused {
                    ", shares an existing stream"
                } else {
                    ""
                };
                println!(
                    "subscribed {} at {at} (delivery flow {}{shares})",
                    reply.id, reply.delivery_flow
                );
                print!("{}", reply.plan);
            }),
        ClientCmd::Run => c.run_and_collect(Duration::from_secs(600)).map(|out| {
            for (query, items) in &out.results {
                for item in items {
                    println!(
                        "{query}\t{}",
                        data_stream_sharing::xml::writer::node_to_string(item)
                    );
                }
            }
            eprintln!("run complete: {} items delivered", out.delivered);
        }),
        ClientCmd::Metrics => c.metrics().map(|json| println!("{json}")),
        ClientCmd::Shutdown => c
            .shutdown_fleet(Duration::from_secs(600))
            .map(|()| eprintln!("fleet stopped")),
    };
    match done {
        Ok(()) => {
            c.goodbye();
            ExitCode::SUCCESS
        }
        Err(e) => client_error(e),
    }
}

/// The server address and verb of `dss client`, or the usage error to
/// print. Nothing is read or dialled here.
fn parse_client(args: &[String]) -> Result<(String, ClientCmd), String> {
    let verb = args
        .first()
        .ok_or("client requires a verb (subscribe, run, metrics, shutdown)")?;
    let addr = args
        .get(1)
        .ok_or("client requires a server address (host:port)")?;
    let cmd = match verb.as_str() {
        "subscribe" => {
            let id = args.get(2).ok_or("client subscribe requires a query id")?;
            let query = args
                .get(3)
                .ok_or("missing query file argument (use '-' for stdin)")?;
            let (mut at, mut strategy) = ("P1".to_string(), Strategy::StreamSharing);
            let mut it = args[4..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--at" => at = it.next().ok_or("--at requires a peer name")?.clone(),
                    "--strategy" => {
                        strategy = parse_strategy(it.next().ok_or("--strategy requires a value")?)?
                    }
                    other => return Err(format!("unexpected subscribe argument {other:?}")),
                }
            }
            ClientCmd::Subscribe {
                id: id.clone(),
                query: query.clone(),
                at,
                strategy,
            }
        }
        "run" => ClientCmd::Run,
        "metrics" => ClientCmd::Metrics,
        "shutdown" => ClientCmd::Shutdown,
        other => return Err(format!("unknown client verb {other:?}")),
    };
    Ok((addr.clone(), cmd))
}

fn client_error(e: data_stream_sharing::server::ServerError) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

fn read_query_arg(arg: Option<&String>) -> Result<String, String> {
    match arg.map(String::as_str) {
        Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            Ok(buf)
        }
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
        }
        None => Err("missing query file argument (use '-' for stdin)".into()),
    }
}

fn parse_strategy(s: &str) -> Result<Strategy, String> {
    match s {
        "data-shipping" | "ds" => Ok(Strategy::DataShipping),
        "query-shipping" | "qs" => Ok(Strategy::QueryShipping),
        "stream-sharing" | "ss" => Ok(Strategy::StreamSharing),
        other => Err(format!(
            "unknown strategy {other:?} (expected data-shipping, query-shipping, or \
             stream-sharing)"
        )),
    }
}

fn demo() -> ExitCode {
    let mut system = example_network();
    for (name, text, peer) in [
        ("Q1", queries::Q1, "P1"),
        ("Q2", queries::Q2, "P2"),
        ("Q3", queries::Q3, "P3"),
        ("Q4", queries::Q4, "P4"),
    ] {
        match system.register_query(name, text, peer, Strategy::StreamSharing) {
            Ok(reg) => {
                println!(
                    "{name} at {peer}{}:",
                    if reg.reused_derived_stream {
                        " (shares an existing stream)"
                    } else {
                        ""
                    }
                );
                print!("{}", reg.plan.describe(system.state()));
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let sim = system.run_simulation(Default::default());
    println!(
        "total network traffic: {} bytes",
        sim.metrics.total_edge_bytes()
    );
    ExitCode::SUCCESS
}

/// Parsed arguments shared by `plan` and `explain`.
struct PlanArgs {
    at: String,
    strategy: Strategy,
    after: Vec<String>,
    text: String,
}

fn parse_plan_args(args: &[String]) -> Result<PlanArgs, String> {
    let mut at = "P1".to_string();
    let mut strategy = Strategy::StreamSharing;
    let mut after: Vec<String> = Vec::new();
    let mut query_arg: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--at" => match it.next() {
                Some(p) => at = p.clone(),
                None => return Err("--at requires a peer name".into()),
            },
            "--strategy" => match it.next().map(|s| parse_strategy(s)) {
                Some(Ok(s)) => strategy = s,
                Some(Err(e)) => return Err(e),
                None => return Err("--strategy requires a value".into()),
            },
            "--after" => match it.next() {
                Some(list) => after = list.split(',').map(str::to_string).collect(),
                None => return Err("--after requires a comma-separated list".into()),
            },
            _ if query_arg.is_none() => query_arg = Some(a.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let text = read_query_arg(query_arg.as_ref())?;
    Ok(PlanArgs {
        at,
        strategy,
        after,
        text,
    })
}

/// Builds the example network and pre-registers the `--after` queries.
fn prepared_network(after: &[String]) -> Result<data_stream_sharing::core::StreamGlobe, ExitCode> {
    let mut system = example_network();
    for q in after {
        let (name, text, peer) = match q.to_ascii_lowercase().as_str() {
            "q1" => ("q1", queries::Q1, "P1"),
            "q2" => ("q2", queries::Q2, "P2"),
            "q3" => ("q3", queries::Q3, "P3"),
            "q4" => ("q4", queries::Q4, "P4"),
            other => {
                return Err(usage_error(&format!(
                    "--after only knows q1..q4, got {other:?}"
                )))
            }
        };
        if let Err(e) = system.register_query(name, text, peer, Strategy::StreamSharing) {
            eprintln!("pre-registering {name} failed: {e}");
            return Err(ExitCode::FAILURE);
        }
    }
    Ok(system)
}

fn plan(args: &[String]) -> ExitCode {
    let PlanArgs {
        at,
        strategy,
        after,
        text,
    } = match parse_plan_args(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let mut system = match prepared_network(&after) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match system.register_query("user-query", &text, &at, strategy) {
        Ok(reg) => {
            println!(
                "plan ({strategy}, registered at {at}, {:?}){}:",
                reg.elapsed,
                if reg.reused_derived_stream {
                    ", shares an existing stream"
                } else {
                    ""
                }
            );
            print!("{}", reg.plan.describe(system.state()));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dss explain` — plan a query with tracing enabled and print the recorded
/// search tree: every peer the Subscribe BFS dequeued, every candidate
/// stream with its cost split into the traffic and load terms (or the name
/// of the check that rejected it), and the per-input winners, whose costs
/// must sum exactly to the plan's C(P).
fn explain(args: &[String]) -> ExitCode {
    let PlanArgs {
        at,
        strategy,
        after,
        text,
    } = match parse_plan_args(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    // Pre-registrations happen before the session opens so the trace holds
    // exactly one registration: the user's.
    let mut system = match prepared_network(&after) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let session = dss_telemetry::session();
    let result = system.register_query("user-query", &text, &at, strategy);
    let snap = session.snapshot();
    drop(session);

    let Some(reg) = snap.spans_named("register_query").last() else {
        eprintln!(
            "no trace recorded — this binary was built with --no-default-features, \
             which compiles the telemetry layer out; rebuild with default features"
        );
        return ExitCode::FAILURE;
    };

    println!(
        "register user-query ({strategy}) at {at} — {}",
        vstr(reg.field("outcome"))
    );
    let mut parts_sum = 0.0f64;
    for input in reg.children_named("subscribe_input") {
        let visits = input.children_named("visit").count();
        let candidates = input.children_named("candidate").count();
        println!(
            "  input {:?}: source at {}, subscriber super-peer {}; \
             {visits} peers visited, {candidates} candidates",
            vstr(input.field("stream")),
            vstr(input.field("v_b")),
            vstr(input.field("v_q")),
        );
        for cand in input.children_named("candidate") {
            let outcome = vstr(cand.field("outcome"));
            let who = format!(
                "{} @ {}",
                vstr(cand.field("flow")),
                vstr(cand.field("peer"))
            );
            if outcome == "rejected" {
                println!(
                    "    rejected  {who:<24} failed {}",
                    vstr(cand.field("reason"))
                );
            } else {
                println!(
                    "    {outcome:<9} {who:<24} C = {} (traffic {} + load {}){}{}",
                    vf64(cand.field("cost")),
                    vf64(cand.field("traffic")),
                    vf64(cand.field("load")),
                    if vbool(cand.field("feasible")) {
                        ""
                    } else {
                        "  [infeasible]"
                    },
                    if vbool(cand.field("chosen")) {
                        "  <- new best"
                    } else {
                        ""
                    },
                );
            }
        }
        if let Some(best) = input.children_named("best").last() {
            let cost = vf64(best.field("cost"));
            parts_sum += cost;
            println!(
                "    best      {} @ {:<17} C = {} (traffic {} + load {})",
                vstr(best.field("flow")),
                vstr(best.field("peer")),
                cost,
                vf64(best.field("traffic")),
                vf64(best.field("load")),
            );
        }
    }

    match result {
        Ok(registration) => {
            let plan = &registration.plan;
            let total = parts_sum + plan.post_cost;
            println!("  post-processing + delivery: C = {}", plan.post_cost);
            println!(
                "  C(P) = sum of best parts + post = {} + {} = {}",
                parts_sum, plan.post_cost, total
            );
            if total == plan.total_cost {
                println!(
                    "  matches the installed plan's total cost {} exactly",
                    plan.total_cost
                );
            } else {
                eprintln!(
                    "  MISMATCH: installed plan reports C(P) = {} (trace sums to {})",
                    plan.total_cost, total
                );
                return ExitCode::FAILURE;
            }
            println!();
            print!("{}", plan.describe(system.state()));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn vstr(v: Option<&dss_telemetry::Value>) -> &str {
    match v {
        Some(dss_telemetry::Value::Str(s)) => s,
        _ => "?",
    }
}

fn vf64(v: Option<&dss_telemetry::Value>) -> f64 {
    match v {
        Some(dss_telemetry::Value::Float(f)) => *f,
        _ => f64::NAN,
    }
}

fn vbool(v: Option<&dss_telemetry::Value>) -> bool {
    matches!(v, Some(dss_telemetry::Value::Bool(true)))
}

fn check(args: &[String]) -> ExitCode {
    let text = match read_query_arg(args.first()) {
        Ok(t) => t,
        Err(e) => return usage_error(&e),
    };
    match compile_query(&text) {
        Ok(q) => {
            println!("input stream : {}", q.input_stream);
            println!("stream root  : {} / item {}", q.stream_root, q.item_name);
            println!("result root  : {}", q.result_root);
            println!("properties   : {}", q.properties);
            if let Some(agg) = &q.aggregation {
                println!("aggregation  : {agg}");
            }
            if let Some(w) = &q.window_output {
                println!("window output: {w}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// Hostile input for `dss serve` and `dss client`: whatever words are
/// typed, parsing ends in options or a usage error, and the lookups
/// `dss serve` makes next (topology, `--peer`, every process's port) end
/// in a process index or an error; never a panic, and within a second.
/// Nothing here binds, dials or reads a file.
#[cfg(test)]
mod tests {
    use std::panic;
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    use proptest::prelude::*;

    use super::{parse_client, parse_serve};
    use data_stream_sharing::network::Topology;
    use data_stream_sharing::server::{NetMap, PeerOptions, ServeSpec};

    /// The most one input may take.
    const BUDGET: Duration = Duration::from_secs(1);

    /// Words the parsers and lookups know, and their edges.
    const WORDS: [&str; 34] = [
        "example",
        "scenario1",
        "--peer",
        "SP0",
        "SP7",
        "SP99",
        "P0",
        "--host",
        "127.0.0.1",
        "--port-base",
        "0",
        "65528",
        "65529",
        "65535",
        "65536",
        "-1",
        "--mailbox-capacity",
        "18446744073709551615",
        "18446744073709551616",
        "--metrics-out",
        "--wal-dir",
        "--source-delay-ms",
        "subscribe",
        "run",
        "metrics",
        "shutdown",
        "--at",
        "--strategy",
        "ss",
        "-",
        "",
        " ",
        "--",
        "é",
    ];

    /// A known word or an arbitrary one.
    fn arb_word() -> impl Strategy<Value = String> {
        prop_oneof![
            (0..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
            "[ -~]{0,12}".prop_map(|s| s),
            "[α-ω✓\u{1F300}-\u{1F320}]{0,4}".prop_map(|s| s),
        ]
    }

    fn arb_args() -> impl Strategy<Value = Vec<String>> {
        prop::collection::vec(arb_word(), 0..12)
    }

    /// A `dss serve` line shaped to parse: a topology, `--peer` and a
    /// name, then serve options with known or arbitrary values.
    fn arb_serve_line() -> impl Strategy<Value = Vec<String>> {
        const FLAGS: [&str; 6] = [
            "--host",
            "--port-base",
            "--mailbox-capacity",
            "--metrics-out",
            "--wal-dir",
            "--source-delay-ms",
        ];
        let peer = prop_oneof![(0u32..10).prop_map(|i| format!("SP{i}")), arb_word()];
        let value = prop_oneof![
            arb_word(),
            (0u32..70_000).prop_map(|n| n.to_string()),
            (65_500u32..65_540).prop_map(|n| n.to_string()),
        ];
        let options = prop::collection::vec((0..FLAGS.len(), value), 0..4);
        (0usize..2, peer, options).prop_map(|(topology, peer, options)| {
            let mut line = vec![WORDS[topology].to_string(), "--peer".to_string(), peer];
            for (flag, value) in options {
                line.extend([FLAGS[flag].to_string(), value]);
            }
            line
        })
    }

    /// Each topology `ServeSpec::new` admits, with its placement map.
    fn topologies() -> &'static [(String, Topology, NetMap)] {
        static BUILT: OnceLock<Vec<(String, Topology, NetMap)>> = OnceLock::new();
        BUILT.get_or_init(|| {
            ["example", "scenario1"]
                .map(|name| {
                    let topo = ServeSpec::new(name)
                        .unwrap()
                        .build_globe()
                        .topology()
                        .clone();
                    let map = NetMap::new(&topo);
                    (name.to_string(), topo, map)
                })
                .to_vec()
        })
    }

    /// What `dss serve` decides before it binds: its process, and every
    /// process's address.
    fn lookup(opts: &PeerOptions) -> Result<usize, String> {
        let (_, topo, map) = topologies()
            .iter()
            .find(|(name, ..)| *name == opts.spec.topology)
            .expect("ServeSpec::new admits only these");
        let me = map.process_of(topo, &opts.spec, &opts.peer)?;
        for i in 0..map.process_count() {
            map.addr(&opts.spec, i);
        }
        Ok(me)
    }

    /// Runs `f` on `input`: no panic, and in time.
    fn hostile<T>(input: &[String], f: impl FnOnce() -> T) -> Result<(), TestCaseError> {
        let start = Instant::now();
        let outcome = panic::catch_unwind(panic::AssertUnwindSafe(f));
        let took = start.elapsed();
        prop_assert!(outcome.is_ok(), "panicked on {:?}", input);
        prop_assert!(took < BUDGET, "{:?} took {:?}", input, took);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn serve_arguments(args in arb_args()) {
            hostile(&args, || parse_serve(&args).map(|opts| lookup(&opts)))?;
        }

        #[test]
        fn client_arguments(args in arb_args()) {
            hostile(&args, || parse_client(&args))?;
        }

        #[test]
        fn topology_and_peer_names(name in arb_word()) {
            hostile(std::slice::from_ref(&name), || {
                let _ = ServeSpec::new(&name);
                for (_, topo, map) in topologies() {
                    map.index_of_name(topo, &name);
                }
            })?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn serve_lines(args in arb_serve_line()) {
            hostile(&args, || parse_serve(&args).map(|opts| lookup(&opts)))?;
        }
    }

    fn words(line: &str) -> Vec<String> {
        line.split(' ').map(str::to_string).collect()
    }

    /// Every process of the example network listens on `port_base + i`,
    /// i < 8: a base above 65 528 once overflowed the `u16` add when
    /// `dss serve` dialled the last processes.
    #[test]
    fn a_port_base_past_the_last_port_is_refused() {
        let opts = parse_serve(&words("example --peer SP0 --port-base 65529")).unwrap();
        let refused = lookup(&opts).unwrap_err();
        assert!(refused.contains("port 65536"), "{refused}");
        let opts = parse_serve(&words("example --peer SP7 --port-base 65528")).unwrap();
        assert_eq!(lookup(&opts), Ok(7));
    }

    #[test]
    fn known_usage_errors_keep_their_text() {
        let refused = |line| parse_serve(&words(line)).unwrap_err();
        assert!(refused("example --peer SP0 --mailbox-capacity 0").contains("positive"));
        assert!(refused("example --peer").contains("--peer requires"));
        assert!(refused("example --port-base 65536").contains("--port-base"));
        let refused = |line| parse_client(&words(line)).unwrap_err();
        assert!(refused("subscribe 127.0.0.1:1 q1 q.xq --strategy x").contains("unknown strategy"));
        assert!(refused("subscribe 127.0.0.1:1 q1").contains("query file"));
    }
}
