//! Deployment specification: which topology to serve, and the pure
//! function from (topology, port base) to the process/port map.
//!
//! Every process — servers and orchestrator alike — derives the same
//! [`NetMap`] from the same [`ServeSpec`], so nothing about placement ever
//! travels over the wire: the topology name alone determines which
//! super-peer process hosts which peer and on which port it listens.

use std::collections::BTreeMap;

use dss_core::StreamGlobe;
use dss_network::{NodeId, PeerKind, Topology};

/// Default first listen port; super-peer `i` (in [`Topology::super_peers`]
/// order) listens on `port_base + i`.
const DEFAULT_PORT_BASE: u16 = 7400;

/// Which network to deploy and where its processes listen.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Topology name: `example` (the Figure 1/2 network with the
    /// `photons` stream at P0) or `scenario1` (the paper's Scenario 1).
    pub topology: String,
    /// Interface the peers bind and dial (loopback by default).
    pub host: String,
    pub port_base: u16,
}

impl ServeSpec {
    /// Validates the topology name.
    pub fn new(topology: &str) -> Result<ServeSpec, String> {
        match topology {
            "example" | "scenario1" => Ok(ServeSpec {
                topology: topology.to_string(),
                host: "127.0.0.1".to_string(),
                port_base: DEFAULT_PORT_BASE,
            }),
            other => Err(format!(
                "unknown topology {other:?} (expected \"example\" or \"scenario1\")"
            )),
        }
    }

    /// Builds this process's replica of the deployed system. Every peer
    /// process starts from this identical deterministic base state and
    /// replays the coordinator's registration log on top, so planner
    /// decisions never need to be serialized — only replayed.
    pub fn build_globe(&self) -> StreamGlobe {
        match self.topology.as_str() {
            "example" => dss_rass::example_network(),
            "scenario1" => dss_rass::Scenario::scenario1(42).build_system(),
            other => unreachable!("ServeSpec::new admitted unknown topology {other:?}"),
        }
    }
}

/// The placement map: which super-peer process owns which peer.
///
/// One OS process per super-peer; a thin peer is hosted inside the process
/// of the super-peer it attaches to (thin peers are sources and
/// subscribers — their flows execute at, or next to, their super-peer).
/// Process `0` — the first super-peer — doubles as the *coordinator*: the
/// client gateway that serializes registrations and relays deliveries.
#[derive(Debug, Clone)]
pub struct NetMap {
    sps: Vec<NodeId>,
    index_of: BTreeMap<NodeId, usize>,
    owner: Vec<usize>,
}

impl NetMap {
    pub fn new(topo: &Topology) -> NetMap {
        let sps = topo.super_peers();
        assert!(
            !sps.is_empty(),
            "a deployment needs at least one super-peer"
        );
        let index_of: BTreeMap<NodeId, usize> =
            sps.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut owner = vec![usize::MAX; topo.peer_count()];
        for (i, &sp) in sps.iter().enumerate() {
            owner[sp] = i;
        }
        for (n, slot) in owner.iter_mut().enumerate() {
            if topo.peer(n).kind == PeerKind::ThinPeer {
                let sp = topo
                    .neighbors(n)
                    .find(|&m| topo.peer(m).kind == PeerKind::SuperPeer)
                    .unwrap_or_else(|| {
                        panic!("thin peer {} has no super-peer neighbor", topo.peer(n).name)
                    });
                *slot = index_of[&sp];
            }
        }
        NetMap {
            sps,
            index_of,
            owner,
        }
    }

    /// Number of server processes (= super-peers).
    pub fn process_count(&self) -> usize {
        self.sps.len()
    }

    /// The super-peer node served by process `i`.
    pub fn sp(&self, i: usize) -> NodeId {
        self.sps[i]
    }

    /// Index of the process hosting `node`'s flows and mailbox.
    pub fn owner_of(&self, node: NodeId) -> usize {
        self.owner[node]
    }

    /// The coordinator process (client gateway, registration serializer).
    pub fn coordinator(&self) -> usize {
        0
    }

    /// Process index of the super-peer named `name`, if any.
    pub fn index_of_name(&self, topo: &Topology, name: &str) -> Option<usize> {
        topo.node(name).and_then(|n| self.index_of.get(&n).copied())
    }

    /// The process that serves super-peer `peer` under `spec`. Refuses a
    /// name that is no super-peer of the topology, and a port base that
    /// would put a process past port 65 535.
    pub fn process_of(
        &self,
        topo: &Topology,
        spec: &ServeSpec,
        peer: &str,
    ) -> Result<usize, String> {
        let last = usize::from(spec.port_base) + self.process_count() - 1;
        if last > usize::from(u16::MAX) {
            let base = spec.port_base;
            return Err(format!("port base {base} puts a process on port {last}"));
        }
        self.index_of_name(topo, peer).ok_or_else(|| {
            format!(
                "{peer:?} is not a super-peer of topology {:?}",
                spec.topology
            )
        })
    }

    /// Listen address of process `i`.
    pub fn addr(&self, spec: &ServeSpec, i: usize) -> String {
        format!("{}:{}", spec.host, spec.port_base + i as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_network::example_topology;

    #[test]
    fn example_map_hosts_thin_peers_with_their_super_peer() {
        let topo = example_topology();
        let map = NetMap::new(&topo);
        assert_eq!(map.process_count(), 8);
        // P0 (photons source) attaches to SP4.
        let p0 = topo.expect_node("P0");
        let sp4 = topo.expect_node("SP4");
        assert_eq!(map.owner_of(p0), map.owner_of(sp4));
        // Every super-peer owns itself; every peer has an owner.
        for (i, &sp) in topo.super_peers().iter().enumerate() {
            assert_eq!(map.owner_of(sp), i);
            assert_eq!(map.sp(i), sp);
        }
        for n in 0..topo.peer_count() {
            assert!(map.owner_of(n) < map.process_count());
        }
        // The port map is dense from the base.
        let spec = ServeSpec::new("example").unwrap();
        assert_eq!(map.addr(&spec, 0), format!("127.0.0.1:{DEFAULT_PORT_BASE}"));
        assert_eq!(map.index_of_name(&topo, "SP5"), Some(5));
        assert_eq!(map.index_of_name(&topo, "P0"), None);
    }

    #[test]
    fn unknown_topology_rejected() {
        assert!(ServeSpec::new("figure-9").is_err());
    }
}
