//! Pins the counting-sort `PortGraphBuilder` and the CSR assembly behind
//! `PortGraph::from_adjacency` to a naive reference: per-node `Vec`
//! adjacency lists, a linear `contains` check for duplicates, and back ports
//! taken as each edge is added. Every family generator, and seeded random
//! edge sequences full of invalid edges, must give the same graph or the
//! same error.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rotor_graph::{builders, GraphError, NodeId, PortGraph, PortGraphBuilder};

/// The naive builder: `O(deg)` duplicate check per edge, one `Vec` per node.
struct Reference {
    n: u32,
    adj: Vec<Vec<u32>>,
    back: Vec<Vec<u32>>,
    edges: usize,
    error: Option<GraphError>,
}

impl Reference {
    fn new(n: usize) -> Self {
        Reference {
            n: n as u32,
            adj: vec![Vec::new(); n],
            back: vec![Vec::new(); n],
            edges: 0,
            error: None,
        }
    }

    fn add_edge(&mut self, u: u32, v: u32) {
        if self.error.is_some() {
            return;
        }
        self.error = if u >= self.n || v >= self.n {
            Some(GraphError::NodeOutOfRange {
                node: u.max(v),
                node_count: self.n,
            })
        } else if u == v {
            Some(GraphError::SelfLoop(NodeId::new(u)))
        } else if self.adj[u as usize].contains(&v) {
            Some(GraphError::DuplicateEdge(NodeId::new(u), NodeId::new(v)))
        } else {
            None
        };
        if self.error.is_some() {
            return;
        }
        let (pu, pv) = (self.adj[u as usize].len(), self.adj[v as usize].len());
        self.adj[u as usize].push(v);
        self.back[u as usize].push(pv as u32);
        self.adj[v as usize].push(u);
        self.back[v as usize].push(pu as u32);
        self.edges += 1;
    }

    /// The outcome `build_unchecked_connectivity` must have: the latched
    /// error, `Empty`, or these lists.
    fn lists(&self) -> Result<(), GraphError> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None if self.n == 0 => Err(GraphError::Empty),
            None => Ok(()),
        }
    }

    /// Asserts that `g` has exactly the reference's ports and back ports.
    fn assert_same_ports(&self, g: &PortGraph) {
        assert_eq!(g.node_count(), self.adj.len());
        assert_eq!(g.edge_count(), self.edges);
        for v in g.nodes() {
            assert_eq!(
                g.neighbor_slice(v),
                &self.adj[v.index()][..],
                "ports of {v:?}"
            );
            let back: Vec<u32> = (0..g.degree(v))
                .map(|p| g.entry_port(v, p) as u32)
                .collect();
            assert_eq!(back, self.back[v.index()], "back ports of {v:?}");
        }
    }
}

fn build_both(n: usize, edges: &[(u32, u32)]) -> (PortGraphBuilder, Reference) {
    let mut b = PortGraphBuilder::new(n);
    let mut r = Reference::new(n);
    for &(u, v) in edges {
        b.add_edge(u, v);
        r.add_edge(u, v);
    }
    (b, r)
}

/// Builds `edges` both ways and asserts identical results from `build`
/// and from `build_unchecked_connectivity`; returns the graph on success.
fn assert_equivalent(n: usize, edges: &[(u32, u32)]) -> Option<PortGraph> {
    let (b, r) = build_both(n, edges);
    let unchecked = b.clone().build_unchecked_connectivity();
    match (&unchecked, r.lists()) {
        (Ok(g), Ok(())) => r.assert_same_ports(g),
        (got, want) => assert_eq!(got.as_ref().err(), want.err().as_ref(), "{edges:?}"),
    }
    let checked = b.build();
    let reference = r.lists().and_then(|()| {
        PortGraph::from_adjacency(r.adj.clone()).map_err(|_| GraphError::Disconnected)
    });
    assert_eq!(checked, reference, "n = {n}, edges = {edges:?}");
    checked.ok()
}

/// A generator's name and node count, its edges in insertion order, and the
/// graph it returns.
type FamilyCase = (&'static str, usize, Vec<(u32, u32)>, PortGraph);

/// The cases of the deterministic generators at about `n` nodes.
fn family_cases(n: usize) -> Vec<FamilyCase> {
    let n32 = n as u32;
    let mut cases = Vec::new();
    let path: Vec<_> = (0..n32 - 1).map(|v| (v, v + 1)).collect();
    cases.push(("path", n, path, builders::path(n)));
    let star: Vec<_> = (1..n32).map(|v| (0, v)).collect();
    cases.push(("star", n, star, builders::star(n)));
    let tree: Vec<_> = (1..n32).map(|v| ((v - 1) / 2, v)).collect();
    cases.push(("binary_tree", n, tree, builders::binary_tree(n)));
    let complete: Vec<_> = (0..n32)
        .flat_map(|u| ((u + 1)..n32).map(move |v| (u, v)))
        .collect();
    cases.push(("complete", n, complete, builders::complete(n)));
    let (rows, cols) = (3, n.div_ceil(3).max(3));
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut torus = Vec::new();
    let mut grid = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            torus.push((idx(r, c), idx(r, (c + 1) % cols)));
            torus.push((idx(r, c), idx((r + 1) % rows, c)));
            if c + 1 < cols {
                grid.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < rows {
                grid.push((idx(r, c), idx(r + 1, c)));
            }
        }
    }
    let size = rows * cols;
    cases.push(("torus", size, torus, builders::torus(rows, cols)));
    cases.push(("grid", size, grid, builders::grid(rows, cols)));
    let d = (usize::BITS - 1 - n.leading_zeros()) as usize;
    let cube: Vec<_> = (0..1u32 << d)
        .flat_map(|v| (0..d).map(move |bit| (v, v ^ (1 << bit))))
        .filter(|&(v, u)| u > v)
        .collect();
    cases.push(("hypercube", 1 << d, cube, builders::hypercube(d)));
    let clique = n.div_ceil(2).max(3) as u32;
    let tail = n32.saturating_sub(clique).max(1);
    let mut lollipop: Vec<_> = (0..clique)
        .flat_map(|u| ((u + 1)..clique).map(move |v| (u, v)))
        .collect();
    lollipop.extend((0..tail).map(|t| (if t == 0 { 0 } else { clique + t - 1 }, clique + t)));
    let g = builders::lollipop(clique as usize, tail as usize);
    cases.push(("lollipop", (clique + tail) as usize, lollipop, g));
    cases
}

#[test]
fn every_deterministic_family_matches_the_reference() {
    // 255 and 256 reach the sizes the benchmarks build `complete` at.
    for n in [2, 3, 4, 7, 16, 33, 64, 100, 255, 256] {
        for (name, size, edges, g) in family_cases(n) {
            let want = assert_equivalent(size, &edges).expect("families are valid");
            assert_eq!(g, want, "{name} at n = {n}");
        }
    }
}

#[test]
fn random_regular_matches_the_reference() {
    // The generator's loop, with the reference builder underneath.
    fn reference(n: usize, d: usize, seed: u64) -> PortGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        loop {
            let mut stubs: Vec<u32> = (0..n as u32)
                .flat_map(|v| std::iter::repeat_n(v, d))
                .collect();
            stubs.shuffle(&mut rng);
            let edges: Vec<(u32, u32)> = stubs.chunks(2).map(|p| (p[0], p[1])).collect();
            if let Some(g) = assert_equivalent(n, &edges) {
                return g;
            }
        }
    }
    let small = [(8, 3, 1), (24, 3, 5), (64, 4, 7)];
    // (256, 4) and (1024, 4) are the benchmarks' sizes.
    let large = [256, 1024]
        .into_iter()
        .flat_map(|n| (11..15).map(move |seed| (n, 4, seed)));
    for (n, d, seed) in small.into_iter().chain(large) {
        assert_eq!(builders::random_regular(n, d, seed), reference(n, d, seed));
    }
}

#[test]
fn random_connected_matches_the_reference() {
    for (n, p, seed) in [(2, 0.0, 1), (20, 0.0, 3), (40, 0.1, 4), (12, 1.0, 5)] {
        let g = builders::random_connected(n, p, seed);
        // Reinsert its edges from the lower endpoint, in the generator's
        // (u, v) lexicographic order.
        let mut edges: Vec<(u32, u32)> = g
            .arcs()
            .filter(|a| a.from < a.to)
            .map(|a| (a.from.value(), a.to.value()))
            .collect();
        edges.sort_unstable();
        assert_eq!(assert_equivalent(n, &edges), Some(g));
    }
}

#[test]
fn ring_and_shuffled_ports_match_naive_adjacency() {
    // The naive back-port derivation: a linear `position` scan per arc.
    fn naive_back(adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
        (0..adj.len())
            .map(|v| {
                adj[v]
                    .iter()
                    .map(|&u| {
                        adj[u as usize]
                            .iter()
                            .position(|&w| w as usize == v)
                            .unwrap() as u32
                    })
                    .collect()
            })
            .collect()
    }
    let mut graphs = Vec::new();
    for n in [3, 4, 5, 64, 257] {
        let n32 = n as u32;
        let adj: Vec<Vec<u32>> = (0..n32)
            .map(|v| vec![(v + 1) % n32, (v + n32 - 1) % n32])
            .collect();
        graphs.push((builders::ring(n), adj));
    }
    for (seed, g) in [
        (1, builders::hypercube(4)),
        (2, builders::complete(9)),
        (3, builders::torus(3, 5)),
    ] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let adj: Vec<Vec<u32>> = g
            .nodes()
            .map(|v| {
                let mut order: Vec<usize> = (0..g.degree(v)).collect();
                order.shuffle(&mut rng);
                order.iter().map(|&p| g.neighbor(v, p).value()).collect()
            })
            .collect();
        graphs.push((builders::shuffle_ports(&g, seed), adj));
    }
    for (g, adj) in graphs {
        let back = naive_back(&adj);
        for v in g.nodes() {
            assert_eq!(g.neighbor_slice(v), &adj[v.index()][..]);
            for (p, &q) in back[v.index()].iter().enumerate() {
                assert_eq!(g.entry_port(v, p), q as usize);
            }
        }
        assert_eq!(g.edge_count() * 2, adj.iter().map(Vec::len).sum::<usize>());
        assert_eq!(PortGraph::from_adjacency(adj), Ok(g));
    }
}

/// A seeded edge sequence that mixes valid edges with duplicates in either
/// orientation, self-loops and out-of-range ends; `clean` sequences start
/// from a shuffled spanning tree, so most of them build.
fn random_sequence(rng: &mut SmallRng, n: usize, clean: bool) -> Vec<(u32, u32)> {
    let n32 = n as u32;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    if clean && n >= 2 {
        edges.extend((1..n32).map(|v| (rng.gen_range(0..v), v)));
        for e in &mut edges {
            if rng.gen_bool(0.5) {
                *e = (e.1, e.0);
            }
        }
        edges.shuffle(rng);
    }
    let extra = rng.gen_range(0..2 * n + 3);
    for _ in 0..extra {
        let fault = if clean {
            rng.gen_range(0..40u32)
        } else {
            rng.gen_range(0..8u32)
        };
        let e = match fault {
            0 if !edges.is_empty() => edges[rng.gen_range(0..edges.len())],
            1 if !edges.is_empty() => {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                (v, u)
            }
            2 if n > 0 => {
                let v = rng.gen_range(0..n32);
                (v, v)
            }
            3 => (rng.gen_range(0..n32 + 3), n32 + rng.gen_range(0..3)),
            4 => (n32 + rng.gen_range(0..3), rng.gen_range(0..n32 + 1)),
            _ if n >= 2 => {
                let u = rng.gen_range(0..n32);
                let v = (u + rng.gen_range(1..n32)) % n32;
                if edges
                    .iter()
                    .any(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u))
                {
                    continue;
                }
                (u, v)
            }
            _ => continue,
        };
        let at = rng.gen_range(0..edges.len() + 1);
        edges.insert(at, e);
    }
    edges
}

#[test]
fn random_edge_sequences_give_identical_results() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_b11d);
    let mut outcomes = [0usize; 2];
    for case in 0..3000 {
        let n = rng.gen_range(0..14);
        let edges = random_sequence(&mut rng, n, case % 2 == 0);
        outcomes[usize::from(assert_equivalent(n, &edges).is_some())] += 1;
    }
    // Both outcomes must be well represented for the comparison to mean
    // anything.
    assert!(outcomes.iter().all(|&c| c > 300), "{outcomes:?}");
}

#[test]
fn tiny_node_counts() {
    assert_eq!(assert_equivalent(0, &[]), None);
    assert_eq!(assert_equivalent(0, &[(0, 1)]), None);
    assert!(assert_equivalent(1, &[]).is_some());
    assert_eq!(assert_equivalent(1, &[(0, 0)]), None);
    assert_eq!(assert_equivalent(1, &[(0, 1)]), None);
}

#[test]
fn first_error_wins_across_kinds() {
    // (edges, expected error) — a duplicate is only detected by `build`,
    // yet it wins over any later self-loop or out-of-range edge.
    let cases: [(&[(u32, u32)], GraphError); 4] = [
        (
            &[(0, 1), (1, 0), (2, 2)],
            GraphError::DuplicateEdge(NodeId::new(1), NodeId::new(0)),
        ),
        (
            &[(0, 1), (0, 1), (0, 9)],
            GraphError::DuplicateEdge(NodeId::new(0), NodeId::new(1)),
        ),
        (
            &[(0, 1), (2, 2), (1, 0)],
            GraphError::SelfLoop(NodeId::new(2)),
        ),
        (
            &[(0, 7), (1, 1)],
            GraphError::NodeOutOfRange {
                node: 7,
                node_count: 3,
            },
        ),
    ];
    for (edges, want) in cases {
        let (b, r) = build_both(3, edges);
        assert_eq!(r.lists(), Err(want.clone()));
        assert_eq!(b.build(), Err(want));
    }
}

#[test]
fn from_adjacency_reports_the_first_fault_in_port_order() {
    let cases: [(Vec<Vec<u32>>, &str); 7] = [
        (vec![], "empty adjacency table"),
        (vec![vec![1], vec![]], "edge 0-1 not symmetric"),
        (vec![vec![1, 5], vec![0]], "neighbour 5 out of range"),
        (vec![vec![1, 0], vec![0]], "self-loop at 0"),
        (
            vec![vec![1, 1], vec![0, 0]],
            "duplicate neighbour 1 at node 0",
        ),
        // An asymmetric arc before a self-loop at the same node wins.
        (vec![vec![2, 0], vec![0], vec![]], "edge 0-2 not symmetric"),
        (
            vec![vec![1], vec![0], vec![3], vec![2]],
            "graph is not connected",
        ),
    ];
    for (adj, want) in cases {
        assert_eq!(
            PortGraph::from_adjacency(adj.clone()),
            Err(want.to_string()),
            "{adj:?}"
        );
    }
}

/// The naive `from_adjacency`: a `BTreeSet` per node for duplicates and a
/// linear `position` scan per arc for its back port, then a BFS.
fn naive_from_adjacency(adj: &[Vec<u32>]) -> Result<Vec<Vec<u32>>, String> {
    let n = adj.len();
    if n == 0 {
        return Err("empty adjacency table".to_string());
    }
    let mut back = Vec::with_capacity(n);
    for (v, list) in adj.iter().enumerate() {
        let mut seen = std::collections::BTreeSet::new();
        let mut ports = Vec::with_capacity(list.len());
        for &u in list {
            if u as usize >= n {
                return Err(format!("neighbour {u} out of range"));
            }
            if u as usize == v {
                return Err(format!("self-loop at {v}"));
            }
            if !seen.insert(u) {
                return Err(format!("duplicate neighbour {u} at node {v}"));
            }
            let q = adj[u as usize]
                .iter()
                .position(|&w| w as usize == v)
                .ok_or_else(|| format!("edge {v}-{u} not symmetric"))?;
            ports.push(q as u32);
        }
        back.push(ports);
    }
    let mut reached = vec![false; n];
    let mut stack = vec![0usize];
    reached[0] = true;
    while let Some(v) = stack.pop() {
        for &u in &adj[v] {
            if !std::mem::replace(&mut reached[u as usize], true) {
                stack.push(u as usize);
            }
        }
    }
    if reached.contains(&false) {
        return Err("graph is not connected".to_string());
    }
    Ok(back)
}

/// A seeded adjacency table: a random connected graph with shuffled ports,
/// then a few random faults (dropped, added, repeated, out-of-range or
/// self-looping entries), placed anywhere.
fn random_table(rng: &mut SmallRng, n: usize) -> Vec<Vec<u32>> {
    let n32 = n as u32;
    let mut adj = vec![Vec::new(); n];
    for v in 1..n32 {
        let u = rng.gen_range(0..v);
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    for _ in 0..rng.gen_range(0..n + 1) {
        let (u, v) = (rng.gen_range(0..n32), rng.gen_range(0..n32));
        if u != v && !adj[u as usize].contains(&v) {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
    }
    for list in &mut adj {
        list.shuffle(rng);
    }
    for _ in 0..rng.gen_range(0..4u32) {
        let v = rng.gen_range(0..n);
        let at = rng.gen_range(0..adj[v].len() + 1);
        match rng.gen_range(0..6u32) {
            0 if !adj[v].is_empty() => {
                let last = adj[v].len() - 1;
                adj[v].remove(at.min(last));
            }
            1 => adj[v].insert(at, rng.gen_range(0..n32)),
            2 if !adj[v].is_empty() => {
                let w = adj[v][rng.gen_range(0..adj[v].len())];
                adj[v].insert(at, w);
            }
            3 => adj[v].insert(at, n32 + rng.gen_range(0..3)),
            4 => adj[v].insert(at, v as u32),
            _ => {}
        }
    }
    adj
}

#[test]
fn random_adjacency_tables_give_identical_results() {
    let mut rng = SmallRng::seed_from_u64(0xad1a_cec7);
    let mut outcomes = [0usize; 2];
    for _ in 0..3000 {
        let n = rng.gen_range(1..16);
        let adj = random_table(&mut rng, n);
        let got = PortGraph::from_adjacency(adj.clone());
        match naive_from_adjacency(&adj) {
            Ok(back) => {
                let g = got.expect("the naive derivation accepts this table");
                for v in g.nodes() {
                    assert_eq!(g.neighbor_slice(v), &adj[v.index()][..]);
                    for (p, &q) in back[v.index()].iter().enumerate() {
                        assert_eq!(g.entry_port(v, p), q as usize, "{adj:?}");
                    }
                }
                assert_eq!(2 * g.edge_count(), adj.iter().map(Vec::len).sum::<usize>());
                outcomes[1] += 1;
            }
            Err(want) => {
                assert_eq!(got, Err(want), "{adj:?}");
                outcomes[0] += 1;
            }
        }
    }
    assert!(outcomes.iter().all(|&c| c > 300), "{outcomes:?}");
}
