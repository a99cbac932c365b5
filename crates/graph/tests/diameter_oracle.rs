//! Pins `algo::diameter` to its definition, the largest eccentricity, on
//! trees (the double sweep), on low-diameter graphs (the bit-parallel BFS)
//! and on graphs on both sides of its 64-level threshold.

#![forbid(unsafe_code)]

use rotor_graph::{algo, builders, PortGraph, PortGraphBuilder};

fn max_eccentricity(g: &PortGraph) -> u32 {
    g.nodes().map(|v| algo::eccentricity(g, v)).max().unwrap()
}

fn assert_oracle(name: &str, g: &PortGraph) {
    assert_eq!(
        algo::diameter(g),
        max_eccentricity(g),
        "{name}, n = {}",
        g.node_count()
    );
}

#[test]
fn every_family() {
    for n in [2, 3, 5, 8, 17, 63, 64, 65, 130] {
        assert_oracle("ring", &builders::ring(n));
        assert_oracle("path", &builders::path(n));
        assert_oracle("complete", &builders::complete(n));
        assert_oracle("star", &builders::star(n));
        assert_oracle("binary_tree", &builders::binary_tree(n));
        assert_oracle("grid", &builders::grid(2, n));
        assert_oracle("lollipop", &builders::lollipop(3 + n % 5, n));
        assert_oracle(
            "random_connected",
            &builders::random_connected(n, 0.1, n as u64),
        );
    }
    for (rows, cols) in [(3, 3), (3, 40), (8, 8), (5, 31)] {
        assert_oracle("torus", &builders::torus(rows, cols));
    }
    for d in 1..=8 {
        assert_oracle("hypercube", &builders::hypercube(d));
    }
    for (n, seed) in [(10, 1), (64, 2), (200, 3)] {
        assert_oracle("random_regular", &builders::random_regular(n, 3, seed));
        let g = builders::shuffle_ports(&builders::random_regular(n, 4, seed), seed);
        assert_oracle("shuffled random_regular", &g);
    }
}

#[test]
fn trees() {
    for n in [2, 3, 4, 10, 64, 65, 127, 300] {
        for seed in 0..6 {
            assert_oracle("random tree", &builders::random_connected(n, 0.0, seed));
        }
        assert_oracle("star", &builders::star(n));
        assert_oracle("path", &builders::path(n));
        assert_oracle("binary_tree", &builders::binary_tree(n));
    }
    // Trees centred on node 0, so that D = 2·ecc(v0): complete binary
    // trees and spiders with three legs, either side of the 64 threshold.
    for n in [511, 1023] {
        assert_oracle("binary_tree", &builders::binary_tree(n));
    }
    for leg in [10u32, 31, 32, 40] {
        let mut b = PortGraphBuilder::new(3 * leg as usize + 1);
        for v in 1..=3 * leg {
            b.add_edge(v.saturating_sub(3), v);
        }
        assert_oracle("spider", &b.build().unwrap());
    }
    for seed in 0..3 {
        assert_oracle("random tree", &builders::random_connected(600, 0.0, seed));
    }
    // A caterpillar whose longest path avoids node 0's side.
    let mut b = PortGraphBuilder::new(12);
    for (u, v) in [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (2, 6),
        (6, 7),
        (7, 8),
        (8, 9),
        (9, 10),
        (10, 11),
    ] {
        b.add_edge(u, v);
    }
    assert_oracle("caterpillar", &b.build().unwrap());
}

#[test]
fn low_diameter_graphs() {
    for n in [3, 64, 65, 129, 200] {
        assert_oracle("complete", &builders::complete(n));
    }
    for d in [6, 7, 9] {
        assert_oracle("hypercube", &builders::hypercube(d));
    }
    for (n, seed) in [(64, 1), (65, 2), (128, 3), (300, 4), (1024, 5)] {
        assert_oracle("random_regular", &builders::random_regular(n, 4, seed));
    }
    for (rows, cols) in [(3, 3), (4, 7), (6, 11), (12, 12)] {
        assert_oracle("torus", &builders::torus(rows, cols));
    }
    for seed in 0..4 {
        assert_oracle("dense random", &builders::random_connected(90, 0.05, seed));
    }
}

#[test]
fn high_diameter_graphs_across_the_threshold() {
    // The ring's ecc(v0) is n/2; 2·ecc(v0) crosses 64 between n = 63 and 64.
    for n in 58..=70 {
        assert_oracle("ring", &builders::ring(n));
    }
    assert_oracle("ring", &builders::ring(301));
    // The lollipop's ecc(v0) is its tail length.
    for tail in 28..=36 {
        assert_oracle("lollipop", &builders::lollipop(6, tail));
    }
    assert_oracle("lollipop", &builders::lollipop(10, 150));
    for n in [63, 64, 65, 66, 129, 500] {
        assert_oracle("path", &builders::path(n));
    }
    for (rows, cols) in [(3, 64), (3, 65), (5, 130)] {
        assert_oracle("torus", &builders::torus(rows, cols));
    }
}

#[test]
#[should_panic(expected = "disconnected")]
fn disconnected_graph_panics() {
    let mut b = PortGraphBuilder::new(6);
    for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
        b.add_edge(u, v);
    }
    algo::diameter(&b.build_unchecked_connectivity().unwrap());
}

#[test]
#[should_panic(expected = "disconnected")]
fn disconnected_graph_with_tree_edge_count_panics() {
    // n − 1 edges, but a triangle plus an isolated node: not a tree.
    let mut b = PortGraphBuilder::new(4);
    for (u, v) in [(0, 1), (1, 2), (2, 0)] {
        b.add_edge(u, v);
    }
    algo::diameter(&b.build_unchecked_connectivity().unwrap());
}

#[test]
#[should_panic(expected = "disconnected")]
fn disconnected_graph_whose_isolated_node_is_zero_panics() {
    let mut b = PortGraphBuilder::new(4);
    for (u, v) in [(1, 2), (2, 3), (3, 1)] {
        b.add_edge(u, v);
    }
    algo::diameter(&b.build_unchecked_connectivity().unwrap());
}
