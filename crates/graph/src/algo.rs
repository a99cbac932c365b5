//! Basic graph algorithms: BFS distances, eccentricities, diameter,
//! connectivity.
//!
//! The worst-case bounds for the single-agent rotor-router are phrased in
//! terms of the diameter `D` and the edge count `|E|` (cover and lock-in in
//! `Θ(D·|E|)` steps, Yanovski et al. / Bampas et al., §1.2 of the paper), so
//! experiment harnesses need cheap access to `D`.

use crate::{NodeId, PortGraph};
use std::collections::VecDeque;

/// Distance value reported by [`bfs_distances`] for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Breadth-first distances from `source` to every node.
///
/// Unreachable nodes get [`UNREACHABLE`].
///
/// ```
/// use rotor_graph::{algo, builders, NodeId};
/// let g = builders::path(5);
/// let d = algo::bfs_distances(&g, NodeId::new(0));
/// assert_eq!(d, vec![0, 1, 2, 3, 4]);
/// ```
pub fn bfs_distances(g: &PortGraph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for u in g.neighbors(v) {
            if dist[u.index()] == UNREACHABLE {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Whether the graph is connected.
pub fn is_connected(g: &PortGraph) -> bool {
    if g.node_count() == 0 {
        return false;
    }
    bfs_distances(g, NodeId::new(0))
        .iter()
        .all(|&d| d != UNREACHABLE)
}

/// Eccentricity of `v`: the maximum BFS distance from `v`.
///
/// # Panics
///
/// Panics if the graph is disconnected (eccentricity is undefined then).
pub fn eccentricity(g: &PortGraph, v: NodeId) -> u32 {
    farthest(g, v).1
}

/// Exact diameter `D = max_v ecc(v)`.
///
/// One BFS from node 0 checks connectivity and gives `e = ecc(v₀)`, with
/// `e ≤ D ≤ 2e`. The method then follows the input:
///
/// * a tree (`m = n − 1`): a second BFS from the node farthest from `v₀`
///   (the double sweep, exact on trees), `O(n)`;
/// * `2e < 64`: a bit-parallel BFS that runs 64 sources per pass,
///   `O(⌈n/64⌉·(D + 1)·(n + m))`;
/// * otherwise a BFS from every node, `O(n·(n + m))`.
///
/// ```
/// use rotor_graph::{algo, builders};
/// assert_eq!(algo::diameter(&builders::binary_tree(15)), 6);
/// assert_eq!(algo::diameter(&builders::hypercube(5)), 5);
/// assert_eq!(algo::diameter(&builders::ring(200)), 100);
/// ```
///
/// # Panics
///
/// Panics if the graph is disconnected.
pub fn diameter(g: &PortGraph) -> u32 {
    let (far, ecc0) = farthest(g, NodeId::new(0));
    if g.edge_count() + 1 == g.node_count() {
        return farthest(g, far).1;
    }
    if 2 * ecc0 < 64 {
        return bit_parallel_diameter(g);
    }
    g.nodes().map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

/// A node farthest from `v` and its distance, `ecc(v)`.
///
/// # Panics
///
/// Panics if the graph is disconnected.
fn farthest(g: &PortGraph, v: NodeId) -> (NodeId, u32) {
    let d = bfs_distances(g, v);
    let (far, &ecc) = d
        .iter()
        .enumerate()
        .max_by_key(|&(_, &x)| x)
        .expect("non-empty graph");
    assert_ne!(
        ecc, UNREACHABLE,
        "eccentricity undefined: graph disconnected"
    );
    (NodeId::new(far as u32), ecc)
}

/// Exact diameter by bit-parallel BFS: each pass runs 64 sources at once,
/// with one `u64` word per node whose bit `i` says whether source `i` has
/// reached it. A level ORs the frontier words of every node's neighbours,
/// so a pass costs `O((ecc + 1)·(n + m))` for the largest eccentricity
/// `ecc` among its sources, and the diameter is the most levels any pass
/// runs. The graph must be connected.
fn bit_parallel_diameter(g: &PortGraph) -> u32 {
    let n = g.node_count();
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut diameter = 0;
    for base in (0..n).step_by(64) {
        seen.fill(0);
        frontier.fill(0);
        for (i, v) in (base..n.min(base + 64)).enumerate() {
            seen[v] = 1 << i;
            frontier[v] = 1 << i;
        }
        let mut levels = 0;
        loop {
            let mut grew = 0;
            for (v, node) in g.nodes().enumerate() {
                let reach = g
                    .neighbor_slice(node)
                    .iter()
                    .fold(0, |acc, &u| acc | frontier[u as usize]);
                let fresh = reach & !seen[v];
                seen[v] |= fresh;
                next[v] = fresh;
                grew |= fresh;
            }
            if grew == 0 {
                break;
            }
            levels += 1;
            std::mem::swap(&mut frontier, &mut next);
        }
        diameter = diameter.max(levels);
    }
    diameter
}

/// Distance between two nodes.
///
/// Returns `None` if `b` is unreachable from `a`.
pub fn distance(g: &PortGraph, a: NodeId, b: NodeId) -> Option<u32> {
    let d = bfs_distances(g, a)[b.index()];
    (d != UNREACHABLE).then_some(d)
}

/// For every node, the distance to the nearest node of `targets`
/// (multi-source BFS).
///
/// Used to set up the "negative" pointer initialisation of the paper, where
/// every pointer initially points *toward* the nearest agent (equivalently,
/// agents are "blocked": their first visit to a new node reflects them back).
///
/// Returns [`UNREACHABLE`] for nodes not reachable from any target, and an
/// all-[`UNREACHABLE`] vector when `targets` is empty.
pub fn multi_source_distances(g: &PortGraph, targets: &[NodeId]) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    for &t in targets {
        if dist[t.index()] == UNREACHABLE {
            dist[t.index()] = 0;
            queue.push_back(t);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for u in g.neighbors(v) {
            if dist[u.index()] == UNREACHABLE {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// A BFS parent tree from `source`: `parent[v]` is the predecessor of `v` on
/// a shortest path from `source`, and `parent[source] == source`.
///
/// Unreachable nodes keep `parent[v] == v` as well, so callers should check
/// reachability separately when the graph may be disconnected.
pub fn bfs_parents(g: &PortGraph, source: NodeId) -> Vec<NodeId> {
    let mut parent: Vec<NodeId> = g.nodes().collect();
    let mut seen = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    seen[source.index()] = true;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for u in g.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                parent[u.index()] = v;
                queue.push_back(u);
            }
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::PortGraphBuilder;

    #[test]
    fn path_distances() {
        let g = builders::path(6);
        let d = bfs_distances(&g, NodeId::new(2));
        assert_eq!(d, vec![2, 1, 0, 1, 2, 3]);
    }

    #[test]
    fn ring_distances_wrap() {
        let g = builders::ring(8);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4, 3, 2, 1]);
    }

    #[test]
    fn diameter_of_families() {
        assert_eq!(diameter(&builders::ring(8)), 4);
        assert_eq!(diameter(&builders::ring(9)), 4);
        assert_eq!(diameter(&builders::path(7)), 6);
        assert_eq!(diameter(&builders::complete(5)), 1);
        assert_eq!(diameter(&builders::star(6)), 2);
        assert_eq!(diameter(&builders::hypercube(3)), 3);
    }

    #[test]
    fn eccentricity_path_endpoint_vs_middle() {
        let g = builders::path(9);
        assert_eq!(eccentricity(&g, NodeId::new(0)), 8);
        assert_eq!(eccentricity(&g, NodeId::new(4)), 4);
    }

    #[test]
    fn distance_pairs() {
        let g = builders::ring(10);
        assert_eq!(distance(&g, NodeId::new(1), NodeId::new(6)), Some(5));
        assert_eq!(distance(&g, NodeId::new(1), NodeId::new(9)), Some(2));
    }

    #[test]
    fn disconnected_detection() {
        let mut b = PortGraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build_unchecked_connectivity().unwrap();
        assert!(!is_connected(&g));
        assert_eq!(distance(&g, NodeId::new(0), NodeId::new(2)), None);
    }

    #[test]
    fn multi_source_nearest_agent() {
        let g = builders::ring(10);
        let d = multi_source_distances(&g, &[NodeId::new(0), NodeId::new(5)]);
        assert_eq!(d, vec![0, 1, 2, 2, 1, 0, 1, 2, 2, 1]);
    }

    #[test]
    fn multi_source_empty_targets() {
        let g = builders::ring(4);
        let d = multi_source_distances(&g, &[]);
        assert!(d.iter().all(|&x| x == UNREACHABLE));
    }

    #[test]
    fn multi_source_duplicate_targets() {
        let g = builders::ring(6);
        let a = multi_source_distances(&g, &[NodeId::new(2), NodeId::new(2)]);
        let b = multi_source_distances(&g, &[NodeId::new(2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn parents_form_shortest_path_tree() {
        let g = builders::torus(4, 4);
        let src = NodeId::new(0);
        let parent = bfs_parents(&g, src);
        let dist = bfs_distances(&g, src);
        for v in g.nodes() {
            if v != src {
                let p = parent[v.index()];
                assert!(g.has_edge(v, p));
                assert_eq!(dist[p.index()] + 1, dist[v.index()]);
            }
        }
    }

    #[test]
    fn parents_source_is_own_parent() {
        let g = builders::ring(5);
        let parent = bfs_parents(&g, NodeId::new(3));
        assert_eq!(parent[3], NodeId::new(3));
    }
}
