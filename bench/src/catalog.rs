//! The names and units of everything the benchmark reports. `BENCHMARK.json`
//! lists the same names in the same order; a golden test keeps the two in
//! step so no metric is silently dropped or renamed.

/// The workloads; `BENCHMARK.json` and bench/README.md say why each exists.
pub const WORKLOADS: [&str; 4] = [
    "fleet_s1_share",
    "fleet_s1_ship",
    "sim_s2_share",
    "register_grid_10k",
];

/// `(name, unit)` of the end-to-end metrics; every workload reports all of
/// them from an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("register_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics; every workload reports all of
/// them from a traced run, 0 where the workload does not run the layer.
pub const PER_LAYER: [(&str, &str); 77] = [
    ("rass.generate_ns_per_item", "ns"),
    ("xml.serialize_ns_per_item", "ns"),
    ("xml.parse_ns_per_item", "ns"),
    ("xml.bytes_per_item", "B"),
    ("wxquery.compile_us_per_query", "us"),
    ("predicate.implies_ns_per_pair", "ns"),
    ("properties.match_us_per_pair", "us"),
    ("properties.match_accept_ratio", "ratio"),
    ("core.register_us_per_query_s2", "us"),
    ("core.candidates_per_register", "count"),
    ("core.nodes_visited_per_register", "count"),
    ("core.reuse_ratio", "ratio"),
    ("engine.select_ns_per_item", "ns"),
    ("engine.project_ns_per_item", "ns"),
    ("engine.window_agg_ns_per_item", "ns"),
    ("engine.opdag_ns_per_item_f1", "ns"),
    ("engine.opdag_ns_per_item_f4", "ns"),
    ("engine.opdag_ns_per_item_f16", "ns"),
    ("engine.opdag_work_ratio_f16", "ratio"),
    ("network.flowdag_ns_per_item_s1", "ns"),
    ("network.flowdag_outputs_per_item", "count"),
    ("network.mailbox_handoff_ns", "ns"),
    ("network.sim_run_ms_s1_share", "ms"),
    ("network.sim_edge_mbytes_ds", "MB"),
    ("network.sim_edge_mbytes_qs", "MB"),
    ("network.sim_edge_mbytes_ss", "MB"),
    ("network.sim_work_units_ds", "units"),
    ("network.sim_work_units_qs", "units"),
    ("network.sim_work_units_ss", "units"),
    ("network.traffic_ratio_ds_over_ss", "ratio"),
    ("proto.encode_ns_per_item_b1", "ns"),
    ("proto.decode_ns_per_item_b1", "ns"),
    ("proto.encode_ns_per_item_b64", "ns"),
    ("proto.decode_ns_per_item_b64", "ns"),
    ("proto.frame_bytes_per_item_b1", "B"),
    ("proto.frame_bytes_per_item_b64", "B"),
    ("server.conn_send_ns_per_frame", "ns"),
    ("server.spawn_to_ready_ms_p50", "ms"),
    ("server.subscribe_cold_ms_p50", "ms"),
    ("server.registrations_per_s", "1/s"),
    ("server.run_ms_iqr", "ms"),
    ("server.first_delivery_ms_p50", "ms"),
    ("server.delivery_span_ms_p50", "ms"),
    ("server.rundone_lag_ms_p50", "ms"),
    ("server.shutdown_ms_p50", "ms"),
    ("server.deliver_frames_per_run", "count"),
    ("server.items_per_deliver_frame", "count"),
    ("server.fleet_cpu_ms_per_run", "ms"),
    ("server.mailbox_high_water_max", "count"),
    ("server.mailbox_depth_mean", "count"),
    ("server.delivered_items", "count"),
    ("server.stale_batches", "count"),
    ("server.sessions", "count"),
    ("server.sessions_failed", "count"),
    ("budget.frames_sent_per_run", "count"),
    ("budget.frames_decoded_per_run", "count"),
    ("budget.mailbox_ops_per_run", "count"),
    ("budget.flowdag_cpu_ms", "ms"),
    ("budget.mailbox_cpu_ms", "ms"),
    ("budget.proto_encode_cpu_ms", "ms"),
    ("budget.proto_decode_cpu_ms", "ms"),
    ("budget.conn_send_cpu_ms", "ms"),
    ("budget.unexplained_cpu_ms", "ms"),
    ("run.op_ms_p50", "ms"),
    ("run.op_ms_tail", "ms"),
    ("run.op_tail_permille", "count"),
    ("run.op_samples", "count"),
    ("run.register_ms_p50", "ms"),
    ("run.register_ms_tail", "ms"),
    ("run.register_tail_permille", "count"),
    ("run.register_samples", "count"),
    ("run.reuse_ratio", "ratio"),
    ("run.edge_mbytes", "MB"),
    ("run.peer_work_units", "units"),
    ("run.host_slowdown", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use dss_telemetry::json::{parse, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(defs: &[(&str, &str)]) -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// The golden test: what the binary prints is what `BENCHMARK.json`
    /// promises, name for name and unit for unit.
    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads listed")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
    }
}
