//! Allocation churn on the per-item hot path: a σ→Π→ρ chain run as a
//! one-sink `OpDag` (one reused buffer per stage), plus the same operators
//! through the allocating compatibility wrappers — the spread between the
//! two is what buffer reuse buys.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dss_engine::{build_operator, OpDag, RestructureOp, StreamOperator, Template};
use dss_predicate::{Atom, CompOp, PredicateGraph};
use dss_properties::{Operator, ProjectionSpec};
use dss_rass::default_photons;
use dss_xml::{Decimal, Node, Path};

fn p(s: &str) -> Path {
    s.parse().unwrap()
}

/// σ (Vela region) → Π (three paths) as a properties operator chain.
fn chain() -> Vec<Operator> {
    vec![
        Operator::Selection(PredicateGraph::from_atoms(&[
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, Decimal::from_int(120)),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, Decimal::from_int(138)),
            Atom::var_const(p("coord/cel/dec"), CompOp::Ge, Decimal::from_int(-49)),
            Atom::var_const(p("coord/cel/dec"), CompOp::Le, Decimal::from_int(-40)),
        ])),
        Operator::Projection(ProjectionSpec::returning([
            p("coord/cel/ra"),
            p("coord/cel/dec"),
            p("en"),
        ])),
    ]
}

fn restructurer() -> RestructureOp {
    RestructureOp::new(Template::element(
        "vela",
        vec![
            Template::Subtree(p("coord/cel/ra")),
            Template::Subtree(p("coord/cel/dec")),
            Template::Subtree(p("en")),
        ],
    ))
}

/// σ → Π → ρ as executable operators.
fn ops() -> Vec<Box<dyn StreamOperator + Send>> {
    let mut ops: Vec<_> = chain().iter().map(build_operator).collect();
    ops.push(Box::new(restructurer()));
    ops
}

fn run_dag(items: &[Node]) -> usize {
    let mut dag = OpDag::chain(ops());
    let mut n = 0usize;
    for item in items {
        dag.process_into(item, &mut |_, _| n += 1);
    }
    dag.flush_into(&mut |_, _| n += 1);
    n
}

/// σ, Π and ρ hold no window state: there is nothing to flush.
fn run_collect(items: &[Node]) -> usize {
    use dss_engine::StreamOperatorExt;
    let mut ops = ops();
    let mut n = 0usize;
    for item in items {
        let mut stage = vec![item.clone()];
        for op in &mut ops {
            stage = stage.iter().flat_map(|it| op.process_collect(it)).collect();
        }
        n += stage.len();
    }
    n
}

fn bench_node_churn(c: &mut Criterion) {
    let items = default_photons(23, 10_000);
    let mut g = c.benchmark_group("node-churn/select-project-restructure");
    g.throughput(Throughput::Elements(items.len() as u64));
    g.bench_function("sink-reused-buffers", |b| b.iter(|| run_dag(&items)));
    g.bench_function("collect-per-item", |b| b.iter(|| run_collect(&items)));
    g.finish();
}

criterion_group!(benches, bench_node_churn);
criterion_main!(benches);
