//! Ablation of Figure 5: computing a coarse window aggregate directly from
//! the raw photon stream vs. re-aggregating the shared partials of a finer
//! aggregate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dss_engine::{AggregateOp, Emit, ReAggregateOp, StreamOperator};
use dss_predicate::PredicateGraph;
use dss_properties::{AggOp, AggregationSpec, ResultFilter, WindowSpec};
use dss_rass::{GeneratorConfig, PhotonGenerator};
use dss_xml::{Decimal, Node, Path};

fn spec(size: u32, step: u32) -> AggregationSpec {
    AggregationSpec {
        op: AggOp::Avg,
        element: "en".parse::<Path>().unwrap(),
        window: WindowSpec::diff(
            "det_time".parse().unwrap(),
            Decimal::from_int(size as i64),
            Some(Decimal::from_int(step as i64)),
        )
        .unwrap(),
        pre_selection: PredicateGraph::new(),
        result_filter: ResultFilter::none(),
    }
}

fn photons(n: usize) -> Vec<Node> {
    let cfg = GeneratorConfig {
        seed: 99,
        mean_time_increment: 0.1,
        ..GeneratorConfig::default()
    };
    PhotonGenerator::new(cfg).generate_items(n)
}

fn bench_direct_vs_shared(c: &mut Criterion) {
    let items = photons(20_000);
    // Q3-style fine aggregate partials, precomputed once (in the network
    // they arrive as a shared stream).
    let fine = spec(20, 10);
    let coarse = spec(60, 40);
    let mut fine_op = AggregateOp::new(fine.clone());
    let mut partials = Emit::new();
    for item in &items {
        fine_op.process_into(item, &mut partials);
    }
    fine_op.flush_into(&mut partials);
    let partials = partials.into_vec();

    let mut g = c.benchmark_group("window/coarse-aggregate");
    g.throughput(Throughput::Elements(items.len() as u64));
    g.bench_function("direct-from-raw", |b| {
        b.iter(|| {
            let mut op = AggregateOp::new(coarse.clone());
            let mut sink = Emit::new();
            let mut out = 0usize;
            for item in &items {
                op.process_into(item, &mut sink);
                out += sink.len();
                sink.clear();
            }
            op.flush_into(&mut sink);
            out + sink.len()
        })
    });
    g.bench_function("shared-from-partials", |b| {
        b.iter(|| {
            let mut op = ReAggregateOp::new(fine.clone(), coarse.clone());
            let mut sink = Emit::new();
            let mut out = 0usize;
            for partial in &partials {
                op.process_into(partial, &mut sink);
                out += sink.len();
                sink.clear();
            }
            op.flush_into(&mut sink);
            out + sink.len()
        })
    });
    g.finish();
}

fn bench_aggregate_throughput_by_overlap(c: &mut Criterion) {
    let items = photons(10_000);
    let mut g = c.benchmark_group("window/aggregate-by-overlap");
    g.throughput(Throughput::Elements(items.len() as u64));
    // Tumbling (step = size) vs. increasingly overlapping windows.
    for (size, step) in [(40u32, 40u32), (40, 20), (40, 10), (40, 5)] {
        let s = spec(size, step);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{size}/{step}")),
            &s,
            |b, s| {
                b.iter(|| {
                    let mut op = AggregateOp::new(s.clone());
                    let mut sink = Emit::new();
                    let mut out = 0usize;
                    for item in &items {
                        op.process_into(item, &mut sink);
                        out += sink.len();
                        sink.clear();
                    }
                    op.flush_into(&mut sink);
                    out + sink.len()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_direct_vs_shared,
    bench_aggregate_throughput_by_overlap
);
criterion_main!(benches);
