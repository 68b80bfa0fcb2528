//! Network and peer metrics collected by the simulator.
//!
//! These are the quantities the paper's evaluation reports: average CPU
//! load per super-peer (Figures 6/7 left), average network traffic per
//! connection in kbps (Figure 6 right), and accumulated traffic per peer in
//! Mbit, incoming plus outgoing (Figure 7 right).

use crate::topology::{EdgeId, NodeId, Topology};

/// Metrics of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct NetworkMetrics {
    /// Total bytes transmitted per connection.
    pub edge_bytes: Vec<u64>,
    /// Accumulated computational work per peer (work units, already scaled
    /// by the peer's performance index).
    pub node_work: Vec<f64>,
    /// Bytes received per peer.
    pub node_bytes_in: Vec<u64>,
    /// Bytes sent per peer.
    pub node_bytes_out: Vec<u64>,
    /// Simulated wall-clock duration of the stream, in seconds (used to
    /// turn byte/work totals into rates).
    pub duration_s: f64,
}

impl NetworkMetrics {
    /// Fresh zeroed metrics for a topology.
    pub fn new(topo: &Topology, duration_s: f64) -> NetworkMetrics {
        NetworkMetrics {
            edge_bytes: vec![0; topo.edge_count()],
            node_work: vec![0.0; topo.peer_count()],
            node_bytes_in: vec![0; topo.peer_count()],
            node_bytes_out: vec![0; topo.peer_count()],
            duration_s,
        }
    }

    /// Average traffic on a connection in kilobits per second.
    pub fn edge_kbps(&self, e: EdgeId) -> f64 {
        (self.edge_bytes[e] as f64 * 8.0 / 1000.0) / self.duration_s
    }

    /// Relative bandwidth utilization of a connection (the cost model's
    /// `u_b(e)` measured after the fact).
    pub fn edge_utilization(&self, topo: &Topology, e: EdgeId) -> f64 {
        self.edge_kbps(e) / topo.edge(e).bandwidth_kbps
    }

    /// Average CPU load of a peer in percent of its capacity `l(v)`.
    pub fn node_load_pct(&self, topo: &Topology, v: NodeId) -> f64 {
        100.0 * self.node_work[v] / (self.duration_s * topo.peer(v).capacity)
    }

    /// Accumulated traffic of a peer in Mbit (incoming plus outgoing), as
    /// reported in Figure 7.
    pub fn node_acc_traffic_mbit(&self, v: NodeId) -> f64 {
        (self.node_bytes_in[v] + self.node_bytes_out[v]) as f64 * 8.0 / 1_000_000.0
    }

    /// Total bytes over all connections.
    pub fn total_edge_bytes(&self) -> u64 {
        self.edge_bytes.iter().sum()
    }

    /// Total work over all peers.
    pub fn total_work(&self) -> f64 {
        self.node_work.iter().sum()
    }

    /// Records the transmission of `bytes` over the edge `e` from `sender`
    /// to `receiver`.
    pub fn record_transmission(&mut self, e: EdgeId, sender: NodeId, receiver: NodeId, bytes: u64) {
        self.edge_bytes[e] += bytes;
        self.node_bytes_out[sender] += bytes;
        self.node_bytes_in[receiver] += bytes;
    }

    /// Records computational work at a peer.
    pub fn record_work(&mut self, v: NodeId, work: f64) {
        self.node_work[v] += work;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::grid_topology;

    #[test]
    fn rates_and_percentages() {
        let t = grid_topology(2, 2);
        let mut m = NetworkMetrics::new(&t, 10.0);
        let e = t
            .edge_between(t.expect_node("SP0"), t.expect_node("SP1"))
            .unwrap();
        m.record_transmission(e, 0, 1, 125_000); // 1 Mbit over 10 s = 100 kbps
        assert!((m.edge_kbps(e) - 100.0).abs() < 1e-9);
        assert!((m.edge_utilization(&t, e) - 0.001).abs() < 1e-9);
        assert_eq!(m.node_bytes_out[0], 125_000);
        assert_eq!(m.node_bytes_in[1], 125_000);
        assert!((m.node_acc_traffic_mbit(0) - 1.0).abs() < 1e-9);

        m.record_work(0, 50_000.0); // capacity 100k/s over 10 s ⇒ 5 %
        assert!((m.node_load_pct(&t, 0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn totals() {
        let t = grid_topology(2, 2);
        let mut m = NetworkMetrics::new(&t, 10.0);
        m.record_transmission(0, 0, 1, 100);
        m.record_transmission(0, 0, 1, 200);
        m.record_work(2, 7.0);
        assert_eq!(m.edge_bytes[0], 300);
        assert_eq!(m.total_edge_bytes(), 300);
        assert_eq!(m.node_work[2], 7.0);
        assert_eq!(m.total_work(), 7.0);
    }
}
