//! Window-aggregate sharing in isolation (the paper's Figure 5).
//!
//! Runs Query 3's fine-grained average-energy aggregate
//! (`|det_time diff 20 step 10|`), then derives Query 4's coarser windows
//! (`|det_time diff 60 step 40|`, filtered with `$a >= 1.3`) two ways:
//!
//! 1. directly from the raw photon stream, and
//! 2. by re-aggregating Query 3's shared partial results,
//!
//! as chains of one operator DAG, and verifies both produce identical
//! values while the shared variant reads far fewer (and far smaller) items.
//!
//! Run with: `cargo run --example window_sharing`

use data_stream_sharing::engine::{
    AggItem, AggregateOp, OpDag, ReAggregateOp, SelectOp, SinkId, StreamOperator,
};
use data_stream_sharing::wxquery::{compile_query, queries};
use data_stream_sharing::xml::writer::serialized_size;
use data_stream_sharing::xml::Node;
use dss_rass::{GeneratorConfig, PhotonGenerator};

fn main() {
    let q3 = compile_query(queries::Q3).expect("Q3 compiles");
    let q4 = compile_query(queries::Q4).expect("Q4 compiles");
    let q3_agg = q3.aggregation.clone().expect("Q3 aggregates");
    let q4_agg = q4.aggregation.clone().expect("Q4 aggregates");
    println!("Q3 window: {}", q3_agg.window);
    println!(
        "Q4 window: {} (filter: {})",
        q4_agg.window, q4_agg.result_filter
    );
    assert!(
        q4_agg.window.shareable_from(&q3_agg.window),
        "Figure 5's conditions hold"
    );

    // ~1 000 time units over 5 000 photons.
    let cfg = GeneratorConfig {
        seed: 7,
        mean_time_increment: 0.2,
        ..GeneratorConfig::default()
    };
    let photons = PhotonGenerator::new(cfg).generate_items(5_000);
    let raw_bytes: usize = photons.iter().map(serialized_size).sum();

    // One peer's operator DAG with three chains behind σ (the Vela region,
    // shared by both queries): Q4 directly over the raw stream, Q3's fine
    // partials, and Q4 re-aggregated from those partials. Equal leading
    // operators merge, so σ runs once for all three and Q3's Φ once for
    // the last two.
    type Op = Box<dyn StreamOperator + Send>;
    const DIRECT: SinkId = 0;
    const Q3: SinkId = 1;
    const SHARED: SinkId = 2;
    let select = || {
        (
            "σ",
            Box::new(SelectOp::new(q3_agg.pre_selection.clone())) as Op,
        )
    };
    let q3_op = || ("Φ q3", Box::new(AggregateOp::new(q3_agg.clone())) as Op);
    let q4_op = Box::new(AggregateOp::new(q4_agg.clone())) as Op;
    let re_op = Box::new(ReAggregateOp::new(q3_agg.clone(), q4_agg.clone())) as Op;
    let same = |a: &&str, b: &&str| a == b;
    let mut dag = OpDag::new();
    dag.register(DIRECT, vec![select(), ("Φ q4", q4_op)], same);
    dag.register(Q3, vec![select(), q3_op()], same);
    dag.register(SHARED, vec![select(), q3_op(), ("Φ↺ q4", re_op)], same);
    let mut out: [Vec<Node>; 3] = Default::default();
    dag.process_slice(&photons, &mut |sink, batch| {
        out[sink].extend_from_slice(batch.as_slice())
    });
    dag.flush_into(&mut |sink, n| out[sink].push(n.clone()));
    let [direct, q3_partials, shared] = out;
    println!(
        "one peer's DAG: {} chains of 7 operators on {} operator instances",
        dag.sink_count(),
        dag.node_count()
    );

    assert_eq!(
        direct, shared,
        "shared re-aggregation must equal direct aggregation"
    );

    let partial_bytes: usize = q3_partials.iter().map(serialized_size).sum();
    println!(
        "\nraw photon stream:      {} items, {} bytes",
        photons.len(),
        raw_bytes
    );
    println!(
        "Q3 partial aggregates:  {} items, {} bytes",
        q3_partials.len(),
        partial_bytes
    );
    println!(
        "Q4 result windows:      {} values (identical on both paths)",
        direct.len()
    );
    println!(
        "\nsharing Q3's stream lets Q4 read {:.1}x fewer bytes than the raw stream",
        raw_bytes as f64 / partial_bytes.max(1) as f64
    );

    println!("\nfirst Q4 windows (avg = sum/count computed at delivery):");
    for node in direct.iter().take(5) {
        let a = AggItem::from_node(node).expect("agg item");
        println!(
            "  window [{}, {}): count={} avg={}",
            a.start,
            a.start + a.size,
            a.count,
            a.avg_value(4)
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }
}
