//! Shortest-path routing over the super-peer backbone.

use std::collections::VecDeque;

use crate::topology::{NodeId, Topology};

/// Breadth-first shortest path (hop count) from `from` to `to`, inclusive
/// of both endpoints. Ties break deterministically toward lower-numbered
/// edges (insertion order), so repeated runs of the planner are stable.
///
/// Crashed peers and down links (fault injection, see
/// [`crate::runtime`]) are skipped, so re-planning after a failure
/// automatically routes around the dead parts of the network.
pub fn shortest_path(topo: &Topology, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if from == to {
        return Some(vec![from]);
    }
    let n = topo.peer_count();
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[from] = true;
    let mut q = VecDeque::from([from]);
    while let Some(u) = q.pop_front() {
        for &e in topo.incident(u) {
            let edge = topo.edge(e);
            if !edge.up {
                continue;
            }
            let v = edge.other(u);
            if !seen[v] && topo.peer(v).up {
                seen[v] = true;
                prev[v] = Some(u);
                if v == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while let Some(p) = prev[cur] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{example_topology, grid_topology};

    #[test]
    fn trivial_and_adjacent_paths() {
        let t = grid_topology(2, 2);
        let a = t.expect_node("SP0");
        let b = t.expect_node("SP1");
        assert_eq!(shortest_path(&t, a, a), Some(vec![a]));
        assert_eq!(shortest_path(&t, a, b), Some(vec![a, b]));
    }

    #[test]
    fn paper_route_sp4_to_sp1() {
        // "its execution can be pushed into the network and computed at SP4
        // … The result is then routed to P1 via SP5 and SP1."
        let t = example_topology();
        let path = shortest_path(&t, t.expect_node("SP4"), t.expect_node("P1")).unwrap();
        let names: Vec<&str> = path.iter().map(|&n| t.peer(n).name.as_str()).collect();
        assert_eq!(names, vec!["SP4", "SP0", "SP5", "SP1", "P1"]);
    }

    #[test]
    fn grid_distances() {
        let t = grid_topology(4, 4);
        let hops = |to| shortest_path(&t, t.expect_node("SP0"), t.expect_node(to)).unwrap();
        assert_eq!(hops("SP15").len() - 1, 6);
        assert_eq!(hops("SP5").len() - 1, 2);
    }

    #[test]
    fn disconnected_nodes_unroutable() {
        let mut t = grid_topology(2, 2);
        let lonely = t.add_super_peer("SPX");
        assert_eq!(shortest_path(&t, t.expect_node("SP0"), lonely), None);
        assert_eq!(shortest_path(&t, lonely, t.expect_node("SP3")), None);
    }

    #[test]
    fn routing_avoids_down_peers_and_links() {
        let mut t = example_topology();
        let (sp4, sp5, p1) = (
            t.expect_node("SP4"),
            t.expect_node("SP5"),
            t.expect_node("P1"),
        );
        // Baseline goes through SP5 (see `paper_route_sp4_to_sp1`).
        t.set_peer_up(sp5, false);
        let path = shortest_path(&t, sp4, p1).unwrap();
        assert!(
            !path.contains(&sp5),
            "path must avoid crashed SP5: {path:?}"
        );
        assert_eq!(path.len(), 7, "detour around SP5 takes two extra hops");
        t.set_peer_up(sp5, true);
        // A down link likewise forces a detour.
        let sp0 = t.expect_node("SP0");
        let e = t.edge_between(sp0, sp5).unwrap();
        t.set_edge_up(e, false);
        let path = shortest_path(&t, sp4, p1).unwrap();
        assert_eq!(path.len(), 7);
        assert!(!path
            .windows(2)
            .any(|w| t.edge_between(w[0], w[1]) == Some(e)));
        // Cutting every link of a peer makes it unreachable.
        for e in t.incident(sp5).to_vec() {
            t.set_edge_up(e, false);
        }
        assert_eq!(shortest_path(&t, sp4, sp5), None);
    }
}
