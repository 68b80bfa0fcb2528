//! Per-operator throughput: selection, projection, aggregation, and
//! restructuring over photon items.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use dss_engine::{
    build_operator, Emit, OpDag, ProjectOp, RestructureOp, SelectOp, StreamOperator, Template,
};
use dss_predicate::{Atom, CompOp, PredicateGraph};
use dss_properties::{Operator, ProjectionSpec};
use dss_rass::default_photons;
use dss_wxquery::{compile_query, queries};
use dss_xml::{Decimal, Node, Path};

fn p(s: &str) -> Path {
    s.parse().unwrap()
}

fn vela_selection() -> PredicateGraph {
    PredicateGraph::from_atoms(&[
        Atom::var_const(p("coord/cel/ra"), CompOp::Ge, Decimal::from_int(120)),
        Atom::var_const(p("coord/cel/ra"), CompOp::Le, Decimal::from_int(138)),
        Atom::var_const(p("coord/cel/dec"), CompOp::Ge, Decimal::from_int(-49)),
        Atom::var_const(p("coord/cel/dec"), CompOp::Le, Decimal::from_int(-40)),
    ])
}

fn items() -> Vec<Node> {
    default_photons(17, 10_000)
}

/// Scenario 2's selection template: a region plus an energy cut — five
/// bounds over three variables.
fn scenario_selection() -> PredicateGraph {
    let d = |s: &str| s.parse::<Decimal>().unwrap();
    PredicateGraph::from_atoms(&[
        Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("120.0")),
        Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("138.0")),
        Atom::var_const(p("coord/cel/dec"), CompOp::Ge, d("-49.0")),
        Atom::var_const(p("coord/cel/dec"), CompOp::Le, d("-40.0")),
        Atom::var_const(p("en"), CompOp::Ge, d("1.3")),
    ])
}

/// Times `items` through `op`. The operator is built by the caller, once:
/// σ and Π compile their specification at construction, and what a
/// super-peer pays per item is the evaluation.
fn bench_items(
    g: &mut BenchmarkGroup<'_>,
    name: &str,
    op: &mut dyn StreamOperator,
    items: &[Node],
) {
    g.bench_function(name, |b| {
        let mut out = Emit::new();
        b.iter(|| {
            let mut n = 0usize;
            for i in items {
                op.process_into(i, &mut out);
                n += out.len();
                out.clear();
            }
            n
        })
    });
}

fn bench_select(c: &mut Criterion) {
    let items = items();
    let mut g = c.benchmark_group("operators/select");
    g.throughput(Throughput::Elements(items.len() as u64));
    for (name, predicate) in [
        ("vela-region", vela_selection()),
        ("scenario-region-and-en", scenario_selection()),
    ] {
        bench_items(&mut g, name, &mut SelectOp::new(predicate), &items);
    }
    g.finish();
}

fn bench_project(c: &mut Criterion) {
    let items = items();
    let mut g = c.benchmark_group("operators/project");
    g.throughput(Throughput::Elements(items.len() as u64));
    for (name, paths) in [
        ("three-paths", vec!["coord/cel/ra", "coord/cel/dec", "en"]),
        (
            "five-leaves",
            vec!["coord/cel/ra", "coord/cel/dec", "phc", "en", "det_time"],
        ),
        ("one-subtree", vec!["coord", "en", "det_time"]),
    ] {
        let spec = ProjectionSpec::returning(paths.into_iter().map(p));
        bench_items(&mut g, name, &mut ProjectOp::new(spec), &items);
    }
    g.finish();
}

fn bench_restructure(c: &mut Criterion) {
    let items = items();
    let subtrees = |paths: &[&str]| paths.iter().map(|s| Template::Subtree(p(s))).collect();
    let mut g = c.benchmark_group("operators/restructure");
    g.throughput(Throughput::Elements(items.len() as u64));
    for (name, template) in [
        (
            "q1-template",
            Template::element(
                "vela",
                subtrees(&["coord/cel/ra", "coord/cel/dec", "en", "det_time"]),
            ),
        ),
        (
            "scenario-hit",
            Template::element(
                "hit",
                subtrees(&["coord/cel/ra", "coord/cel/dec", "phc", "en", "det_time"]),
            ),
        ),
    ] {
        bench_items(&mut g, name, &mut RestructureOp::new(template), &items);
    }
    g.finish();
}

fn bench_full_query_chains(c: &mut Criterion) {
    let items = items();
    let mut g = c.benchmark_group("operators/full-chain");
    g.throughput(Throughput::Elements(items.len() as u64));
    for (name, text) in queries::ALL {
        let compiled = compile_query(text).expect("paper query compiles");
        let chain: Vec<Operator> = compiled.operator_chain().to_vec();
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut dag = OpDag::chain(chain.iter().map(build_operator));
                let mut out = 0usize;
                for item in &items {
                    dag.process_into(item, &mut |_, _| out += 1);
                }
                dag.flush_into(&mut |_, _| out += 1);
                out
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_select,
    bench_project,
    bench_restructure,
    bench_full_query_chains
);
criterion_main!(benches);
