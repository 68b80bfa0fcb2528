//! Super-peer network topologies.
//!
//! StreamGlobe's P2P overlay is a *super-peer network*: powerful, stationary
//! super-peers form the backbone; thin-peers (data sources and subscribers)
//! attach to super-peers. Peers have a maximum computational load `l(v)` and
//! a performance index `pindex(v)`; network connections have a maximum
//! bandwidth `b(e)`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::memo::Memo;
use crate::routing::shortest_path;

/// Peer identifier (dense index into the topology).
pub type NodeId = usize;

/// Edge identifier (dense index into the topology's edge list).
pub type EdgeId = usize;

/// Peer classification (Section 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerKind {
    /// Powerful stationary backbone server.
    SuperPeer,
    /// Less powerful device registering streams or subscriptions.
    ThinPeer,
}

/// A network connection between two peers.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    pub a: NodeId,
    pub b: NodeId,
    /// Maximum bandwidth `b(e)` in kilobits per second.
    pub bandwidth_kbps: f64,
    /// `false` while the link is down (fault injection); the planner routes
    /// around down links and the live runtime drops traffic on them.
    pub up: bool,
}

impl Edge {
    /// The endpoint opposite to `n`.
    pub fn other(&self, n: NodeId) -> NodeId {
        if self.a == n {
            self.b
        } else {
            self.a
        }
    }
}

/// A peer's static description.
#[derive(Debug, Clone, PartialEq)]
pub struct Peer {
    pub name: String,
    pub kind: PeerKind,
    /// Maximum computational load `l(v)`, in work units per second.
    pub capacity: f64,
    /// Performance index `pindex(v)`: relative cost multiplier of executing
    /// one work unit on this peer (1.0 = reference peer; larger = slower).
    pub pindex: f64,
    /// `false` while the peer is crashed (fault injection); the planner
    /// routes around down peers and the live runtime drops their traffic.
    pub up: bool,
}

/// Answered route queries by `(from, to)`; `None` = unreachable.
type RouteTable = HashMap<(NodeId, NodeId), Option<Arc<[NodeId]>>>;

/// An undirected super-peer network topology.
#[derive(Clone, Default)]
pub struct Topology {
    peers: Vec<Peer>,
    by_name: BTreeMap<String, NodeId>,
    edges: Vec<Edge>,
    adj: Vec<Vec<EdgeId>>,
    /// Every [`Self::route`] answered since the topology last changed.
    /// Every `&mut self` accessor empties it: while such a borrow lasts
    /// nobody can ask for a route, so no entry outlives the graph it was
    /// computed on.
    routes: Memo<RouteTable>,
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The graph only: remembered routes are derived from it, and what
        // has been asked so far must not show in anything printed.
        f.debug_struct("Topology")
            .field("peers", &self.peers)
            .field("by_name", &self.by_name)
            .field("edges", &self.edges)
            .field("adj", &self.adj)
            .finish()
    }
}

/// Default super-peer capacity (work units per second).
pub const DEFAULT_SP_CAPACITY: f64 = 100_000.0;
/// Default thin-peer capacity.
pub const DEFAULT_TP_CAPACITY: f64 = 10_000.0;
/// Default backbone bandwidth: 100 Mbit/s LAN, as in the paper's testbed.
pub const DEFAULT_BANDWIDTH_KBPS: f64 = 100_000.0;

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a peer with explicit parameters.
    pub fn add_peer_with(
        &mut self,
        name: impl Into<String>,
        kind: PeerKind,
        capacity: f64,
        pindex: f64,
    ) -> NodeId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate peer name {name:?}"
        );
        self.routes.get_mut().clear();

        let id = self.peers.len();
        self.by_name.insert(name.clone(), id);
        self.peers.push(Peer {
            name,
            kind,
            capacity,
            pindex,
            up: true,
        });
        self.adj.push(Vec::new());
        id
    }

    /// Adds a super-peer with default parameters.
    pub fn add_super_peer(&mut self, name: impl Into<String>) -> NodeId {
        self.add_peer_with(name, PeerKind::SuperPeer, DEFAULT_SP_CAPACITY, 1.0)
    }

    /// Adds a thin-peer with default parameters.
    pub fn add_thin_peer(&mut self, name: impl Into<String>) -> NodeId {
        self.add_peer_with(name, PeerKind::ThinPeer, DEFAULT_TP_CAPACITY, 2.0)
    }

    /// Connects two peers with the given bandwidth.
    pub fn connect_with(&mut self, a: NodeId, b: NodeId, bandwidth_kbps: f64) -> EdgeId {
        assert!(a != b, "self-loop connections are not allowed");
        assert!(
            self.edge_between(a, b).is_none(),
            "peers {} and {} are already connected",
            self.peers[a].name,
            self.peers[b].name
        );
        self.routes.get_mut().clear();

        let id = self.edges.len();
        self.edges.push(Edge {
            a,
            b,
            bandwidth_kbps,
            up: true,
        });
        self.adj[a].push(id);
        self.adj[b].push(id);
        id
    }

    /// Connects two peers with the default LAN bandwidth.
    pub fn connect(&mut self, a: NodeId, b: NodeId) -> EdgeId {
        self.connect_with(a, b, DEFAULT_BANDWIDTH_KBPS)
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Number of connections.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Peer metadata.
    pub fn peer(&self, id: NodeId) -> &Peer {
        &self.peers[id]
    }

    /// All peers in id order.
    pub fn peers(&self) -> &[Peer] {
        &self.peers
    }

    /// Mutable peer metadata (used by the admission-control experiment to
    /// cap capacities).
    pub fn peer_mut(&mut self, id: NodeId) -> &mut Peer {
        self.routes.get_mut().clear();

        &mut self.peers[id]
    }

    /// Edge metadata.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id]
    }

    /// All edges in id order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Mutable edge metadata.
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut Edge {
        self.routes.get_mut().clear();

        &mut self.edges[id]
    }

    /// Looks a peer up by name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Looks a peer up by name, panicking on unknown names (convenient in
    /// scenario builders and tests).
    pub fn expect_node(&self, name: &str) -> NodeId {
        self.node(name)
            .unwrap_or_else(|| panic!("unknown peer {name:?}"))
    }

    /// Edge ids incident to `n`.
    pub fn incident(&self, n: NodeId) -> &[EdgeId] {
        &self.adj[n]
    }

    /// Neighbor peers of `n` in edge-insertion order.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[n].iter().map(move |&e| self.edges[e].other(n))
    }

    /// The connection between `a` and `b`, if any.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.adj[a]
            .iter()
            .copied()
            .find(|&e| self.edges[e].other(a) == b)
    }

    /// Marks a peer as up (alive) or down (crashed). Routing skips down
    /// peers; the live runtime loses traffic addressed to them.
    pub fn set_peer_up(&mut self, id: NodeId, up: bool) {
        self.routes.get_mut().clear();

        self.peers[id].up = up;
    }

    /// Marks a connection as up or down.
    pub fn set_edge_up(&mut self, id: EdgeId, up: bool) {
        self.routes.get_mut().clear();
        self.edges[id].up = up;
    }

    /// [`shortest_path`] from `from` to `to`, remembered until the topology
    /// next changes: the same search with the same tie-breaking, run once
    /// per pair. What every planner path routes by.
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<Arc<[NodeId]>> {
        if let Some(known) = self.routes.lock().get(&(from, to)) {
            return known.clone();
        }
        let route = shortest_path(self, from, to).map(Arc::from);
        self.routes.lock().insert((from, to), route.clone());
        route
    }

    /// Ids of all super-peers.
    pub fn super_peers(&self) -> Vec<NodeId> {
        (0..self.peers.len())
            .filter(|&i| self.peers[i].kind == PeerKind::SuperPeer)
            .collect()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "topology: {} peers, {} connections",
            self.peers.len(),
            self.edges.len()
        )?;
        for e in &self.edges {
            writeln!(
                f,
                "  {} -- {} ({} kbps)",
                self.peers[e.a].name, self.peers[e.b].name, e.bandwidth_kbps
            )?;
        }
        Ok(())
    }
}

/// The example network of Figures 1 and 2: eight super-peers SP0–SP7 in a
/// 2×4 backbone grid, with thin-peers P0 (the `photons` source, at SP4),
/// P1 (at SP1), P2 (at SP7), P3 (at SP3), and P4 (at SP6).
///
/// The figures render the backbone as two columns of four; the exact rung
/// placement is inferred from the described routes ("pushed into the
/// network and computed at SP4 …, routed to P1 via SP5 and SP1";
/// "reuse the stream … at SP5 … routed to P2 via SP7").
pub fn example_topology() -> Topology {
    let mut t = Topology::new();
    let sp: Vec<NodeId> = (0..8).map(|i| t.add_super_peer(format!("SP{i}"))).collect();
    // Left column: SP4 – SP0 – SP5 – SP1. Right column: SP6 – SP2 – SP7 – SP3.
    t.connect(sp[4], sp[0]);
    t.connect(sp[0], sp[5]);
    t.connect(sp[5], sp[1]);
    t.connect(sp[6], sp[2]);
    t.connect(sp[2], sp[7]);
    t.connect(sp[7], sp[3]);
    // Rungs between the columns.
    t.connect(sp[4], sp[6]);
    t.connect(sp[0], sp[2]);
    t.connect(sp[5], sp[7]);
    t.connect(sp[1], sp[3]);
    // Thin peers.
    let p0 = t.add_thin_peer("P0");
    let p1 = t.add_thin_peer("P1");
    let p2 = t.add_thin_peer("P2");
    let p3 = t.add_thin_peer("P3");
    let p4 = t.add_thin_peer("P4");
    t.connect(p0, sp[4]);
    t.connect(p1, sp[1]);
    t.connect(p2, sp[7]);
    t.connect(p3, sp[3]);
    t.connect(p4, sp[6]);
    t
}

/// An `n × m` grid of super-peers named `SP0 … SP(n·m−1)` in row-major
/// order (the paper's second scenario uses 4×4).
pub fn grid_topology(rows: usize, cols: usize) -> Topology {
    let mut t = Topology::new();
    let ids: Vec<NodeId> = (0..rows * cols)
        .map(|i| t.add_super_peer(format!("SP{i}")))
        .collect();
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c + 1 < cols {
                t.connect(ids[i], ids[i + 1]);
            }
            if r + 1 < rows {
                t.connect(ids[i], ids[i + cols]);
            }
        }
    }
    t
}

/// A hierarchical network (the paper's scalability sketch: "a hierarchical
/// network organization with several interconnected subnets"): `subnets`
/// copies of a `dim × dim` grid, with each subnet's corner super-peer
/// acting as its gateway; gateways form a ring.
///
/// Peers are named `N<k>_SP<i>`; gateway of subnet `k` is `N<k>_SP0`.
pub fn hierarchical_topology(subnets: usize, dim: usize) -> Topology {
    assert!(subnets >= 2, "a hierarchy needs at least two subnets");
    let mut t = Topology::new();
    let mut gateways = Vec::with_capacity(subnets);
    for k in 0..subnets {
        let ids: Vec<NodeId> = (0..dim * dim)
            .map(|i| t.add_super_peer(format!("N{k}_SP{i}")))
            .collect();
        for r in 0..dim {
            for c in 0..dim {
                let i = r * dim + c;
                if c + 1 < dim {
                    t.connect(ids[i], ids[i + 1]);
                }
                if r + 1 < dim {
                    t.connect(ids[i], ids[i + dim]);
                }
            }
        }
        gateways.push(ids[0]);
    }
    for k in 0..subnets {
        t.connect(gateways[k], gateways[(k + 1) % subnets]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let mut t = Topology::new();
        let a = t.add_super_peer("SP0");
        let b = t.add_super_peer("SP1");
        let e = t.connect(a, b);
        assert_eq!(t.peer_count(), 2);
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.node("SP1"), Some(b));
        assert_eq!(t.node("SPX"), None);
        assert_eq!(t.edge_between(a, b), Some(e));
        assert_eq!(t.edge(e).other(a), b);
        assert_eq!(t.neighbors(a).collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    #[should_panic(expected = "duplicate peer name")]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.add_super_peer("SP0");
        t.add_super_peer("SP0");
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn duplicate_edges_rejected() {
        let mut t = Topology::new();
        let a = t.add_super_peer("SP0");
        let b = t.add_super_peer("SP1");
        t.connect(a, b);
        t.connect(b, a);
    }

    #[test]
    fn example_topology_shape() {
        let t = example_topology();
        assert_eq!(t.peer_count(), 13); // 8 super + 5 thin
        assert_eq!(t.super_peers().len(), 8);
        assert_eq!(t.edge_count(), 15); // 10 backbone + 5 access links
                                        // The motivating routes exist: SP4–SP0–SP5–SP1 and SP5–SP7.
        let sp4 = t.expect_node("SP4");
        let sp0 = t.expect_node("SP0");
        let sp5 = t.expect_node("SP5");
        let sp7 = t.expect_node("SP7");
        assert!(t.edge_between(sp4, sp0).is_some());
        assert!(t.edge_between(sp0, sp5).is_some());
        assert!(t.edge_between(sp5, sp7).is_some());
        assert_eq!(t.peer(t.expect_node("P0")).kind, PeerKind::ThinPeer);
    }

    #[test]
    fn grid_topology_shape() {
        let t = grid_topology(4, 4);
        assert_eq!(t.peer_count(), 16);
        assert_eq!(t.edge_count(), 24); // 2·4·3 internal connections
                                        // Corner SP0 has two neighbors; interior SP5 has four.
        assert_eq!(t.neighbors(t.expect_node("SP0")).count(), 2);
        assert_eq!(t.neighbors(t.expect_node("SP5")).count(), 4);
    }

    #[test]
    fn hierarchical_topology_shape() {
        let t = hierarchical_topology(3, 2);
        assert_eq!(t.peer_count(), 12);
        // 3 subnets × 4 internal connections + 3 ring connections.
        assert_eq!(t.edge_count(), 15);
        let g0 = t.expect_node("N0_SP0");
        let g1 = t.expect_node("N1_SP0");
        let g2 = t.expect_node("N2_SP0");
        assert!(t.edge_between(g0, g1).is_some());
        assert!(t.edge_between(g1, g2).is_some());
        assert!(t.edge_between(g2, g0).is_some());
        // Non-gateway peers of different subnets are not directly connected.
        assert!(t
            .edge_between(t.expect_node("N0_SP3"), t.expect_node("N1_SP3"))
            .is_none());
        // Cross-subnet routing goes through the gateways.
        let path = shortest_path(&t, t.expect_node("N0_SP3"), t.expect_node("N1_SP3")).unwrap();
        assert!(path.contains(&g0) && path.contains(&g1));
    }

    /// `route` with everything asked so far still remembered must equal a
    /// search of the graph as it is now, for every pair.
    fn assert_routes_current(t: &Topology, after: &str) {
        for a in 0..t.peer_count() {
            for b in 0..t.peer_count() {
                assert_eq!(
                    t.route(a, b).as_deref(),
                    shortest_path(t, a, b).as_deref(),
                    "route {a} -> {b} after {after}"
                );
            }
        }
    }

    #[test]
    fn routes_are_forgotten_by_every_mutable_accessor() {
        let mut t = example_topology();
        let (sp4, sp0, sp5, p1) = (
            t.expect_node("SP4"),
            t.expect_node("SP0"),
            t.expect_node("SP5"),
            t.expect_node("P1"),
        );
        // Every check asks for every pair, so every later step starts
        // from a full memo.
        assert_routes_current(&t, "construction");
        let via_sp5 = t.route(sp4, p1).expect("connected");
        assert!(via_sp5.contains(&sp5));

        let e = t.edge_between(sp0, sp5).unwrap();
        t.set_edge_up(e, false);
        assert_routes_current(&t, "set_edge_up(false)");
        let detour = t.route(sp4, p1).expect("still connected");
        assert_ne!(detour, via_sp5, "the route around the down link differs");
        t.set_edge_up(e, true);
        assert_routes_current(&t, "set_edge_up(true)");
        assert_eq!(t.route(sp4, p1), Some(via_sp5.clone()), "and comes back");

        t.set_peer_up(sp5, false);
        assert_routes_current(&t, "set_peer_up(false)");
        assert_eq!(t.route(sp4, sp5), None);
        t.set_peer_up(sp5, true);
        assert_routes_current(&t, "set_peer_up(true)");

        t.edge_mut(e).up = false;
        assert_routes_current(&t, "edge_mut");
        t.edge_mut(e).up = true;
        assert_routes_current(&t, "edge_mut, back");
        t.peer_mut(sp0).up = false;
        assert_routes_current(&t, "peer_mut");
        t.peer_mut(sp0).up = true;
        assert_routes_current(&t, "peer_mut, back");

        let lonely = t.add_peer_with("SPX", PeerKind::SuperPeer, 1.0, 1.0);
        assert_routes_current(&t, "add_peer_with");
        assert_eq!(t.route(sp4, lonely), None);
        t.connect_with(lonely, sp4, 1.0);
        assert_routes_current(&t, "connect_with");
        assert_eq!(t.route(sp4, lonely).as_deref(), Some(&[sp4, lonely][..]));
    }

    #[test]
    fn a_clone_remembers_nothing_and_prints_the_same() {
        let t = grid_topology(3, 3);
        let before = format!("{t:?}");
        assert_routes_current(&t, "construction");
        assert_eq!(format!("{t:?}"), before, "remembered routes never print");
        let copy = t.clone();
        assert!(copy.routes.lock().is_empty());
        assert_eq!(t.routes.lock().len(), 81);
        assert_eq!(format!("{copy:?}"), before);
    }

    #[test]
    #[should_panic(expected = "at least two subnets")]
    fn hierarchical_needs_subnets() {
        hierarchical_topology(1, 2);
    }

    #[test]
    fn display_lists_edges() {
        let t = grid_topology(2, 2);
        let s = t.to_string();
        assert!(s.contains("4 peers"));
        assert!(s.contains("SP0 -- SP1"));
    }
}
