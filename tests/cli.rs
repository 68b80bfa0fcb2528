//! Integration tests for the `dss` command-line front end.

use std::io::Write;
use std::process::{Command, Stdio};

fn dss() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dss"))
}

#[test]
fn no_args_prints_usage_and_exits_2() {
    let out = dss().output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: dss"));
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    let out = dss().arg("frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: unknown command \"frobnicate\""));
    assert!(stderr.contains("usage: dss"));
}

#[test]
fn malformed_serve_args_exit_2_on_stderr() {
    // Missing topology.
    let out = dss().arg("serve").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("serve requires a topology"));

    // Unknown topology.
    let out = dss()
        .args(["serve", "figure-9", "--peer", "SP0"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown topology"));

    // Missing --peer.
    let out = dss().args(["serve", "example"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--peer"));

    // Non-numeric port base.
    let out = dss()
        .args(["serve", "example", "--peer", "SP0", "--port-base", "teapot"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--port-base"));

    // Stray argument.
    let out = dss()
        .args(["serve", "example", "--peer", "SP0", "--frob"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected serve argument"));
}

#[test]
fn serving_a_peer_not_in_the_topology_fails_cleanly() {
    let out = dss()
        .args(["serve", "example", "--peer", "SP99", "--port-base", "1"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a super-peer"));
}

#[test]
fn malformed_client_args_exit_2_on_stderr() {
    // Missing verb.
    let out = dss().arg("client").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("client requires a verb"));

    // Missing address.
    let out = dss().args(["client", "metrics"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("server address"));

    // Unknown verb.
    let out = dss()
        .args(["client", "teleport", "127.0.0.1:1"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown client verb"));

    // subscribe without a query id.
    let out = dss()
        .args(["client", "subscribe", "127.0.0.1:1"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("query id"));
}

#[test]
fn queries_prints_all_four_paper_queries() {
    let out = dss().arg("queries").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["Q1", "Q2", "Q3", "Q4"] {
        assert!(
            stdout.contains(&format!("--- {name} ---")),
            "missing {name}"
        );
    }
    assert!(stdout.contains("stream(\"photons\")"));
}

#[test]
fn demo_reproduces_figure2_sharing() {
    let out = dss().arg("demo").output().expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Q2 at P2 (shares an existing stream)"));
    assert!(stdout.contains("reuse flow Q1/photons at SP5"));
    assert!(stdout.contains("total network traffic:"));
}

#[test]
fn plan_from_stdin_with_sharing_context() {
    let mut child = dss()
        .args(["plan", "-", "--at", "P2", "--after", "q1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(dss_wxquery::queries::Q2.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("finishes");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shares an existing stream"));
    assert!(stdout.contains("reuse flow q1/photons at SP5"));
}

/// `dss explain` reads the search's trace: Query 2 after Query 1 walks
/// the Figure-2 candidates (the source stream and Q1's stream at SP4, SP0,
/// SP5, SP1), improves three times, settles on Q1's stream at SP5, and the
/// traced part costs sum to the installed plan's `C(P)` exactly.
#[test]
fn explain_prints_the_figure_2_candidate_table() {
    let mut child = dss()
        .args(["explain", "-", "--at", "P2", "--after", "q1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(dss_wxquery::queries::Q2.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("finishes");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("5 peers visited, 7 candidates"), "{stdout}");
    let rows = |prefix: &str| {
        stdout
            .lines()
            .filter(|l| l.trim_start().starts_with(prefix))
            .count()
    };
    assert_eq!((rows("initial"), rows("matched")), (1, 6), "{stdout}");
    assert_eq!(stdout.matches("<- new best").count(), 3, "{stdout}");
    assert!(stdout.contains("best      q1/photons @ SP5"), "{stdout}");
    assert!(
        stdout.contains("matches the installed plan's total cost"),
        "{stdout}"
    );
}

#[test]
fn check_reports_compile_errors() {
    let mut child = dss()
        .args(["check", "-"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"not a query")
        .unwrap();
    let out = child.wait_with_output().expect("finishes");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("syntax error"));
}

#[test]
fn plan_rejects_bad_strategy_and_peer() {
    let out = dss()
        .args(["plan", "/nonexistent.xq", "--strategy", "teleport"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));

    let mut child = dss()
        .args(["plan", "-", "--at", "P99"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(dss_wxquery::queries::Q1.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("finishes");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown peer"));
}
