//! Property tests pinning the batched hot path to the model's definition.
//!
//! The engine releases the `c` agents at a node with O(min(c, deg))
//! arithmetic per node; the paper's model (§1.3) is stated per agent.
//! These tests check, across ≥ 100 random (graph, placement, pointer-init)
//! triples and ≥ 1000 rounds each, that the batched [`Engine::step`]
//! produces **bit-identical** [`EngineState`] sequences and the same
//! visited set and cover round as a naive per-agent reference stepper,
//! and additionally that the ring-specialised merge stepper matches the
//! general engine on random rings.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rotor_core::init::PointerInit;
use rotor_core::{Engine, EngineState, RingRouter};
use rotor_graph::{builders, NodeId, PortGraph};

/// Reference implementation: moves agents strictly one at a time, exactly
/// as §1.3 states the model, with per-node nested state and no batching.
struct PerAgentReference<'g> {
    g: &'g PortGraph,
    pointers: Vec<u32>,
    agents: Vec<u32>,
    /// Nodes that have held an agent, initial placements included.
    visited: Vec<bool>,
    round: u64,
    cover_round: Option<u64>,
}

impl<'g> PerAgentReference<'g> {
    fn new(g: &'g PortGraph, agents: &[NodeId], pointers: &[u32]) -> Self {
        let mut count = vec![0u32; g.node_count()];
        for a in agents {
            count[a.index()] += 1;
        }
        let visited: Vec<bool> = count.iter().map(|&c| c > 0).collect();
        PerAgentReference {
            g,
            pointers: pointers.to_vec(),
            cover_round: visited.iter().all(|&v| v).then_some(0),
            agents: count,
            visited,
            round: 0,
        }
    }

    fn step(&mut self) {
        self.step_delayed(|_, _| 0);
    }

    fn step_delayed(&mut self, mut delay: impl FnMut(u32, u32) -> u32) {
        self.round += 1;
        let departing = std::mem::replace(&mut self.agents, vec![0; self.g.node_count()]);
        for (v, c) in departing.into_iter().enumerate() {
            let node = NodeId::new(v as u32);
            let deg = self.g.degree(node) as u32;
            let held = delay(v as u32, c).min(c);
            self.agents[v] += held;
            // one agent at a time: use the pointer, then advance it
            for _ in 0..(c - held) {
                let p = self.pointers[v];
                self.pointers[v] = (p + 1) % deg;
                let dest = self.g.neighbor(node, p as usize);
                self.agents[dest.index()] += 1;
                self.visited[dest.index()] = true;
            }
        }
        if self.cover_round.is_none() && self.visited.iter().all(|&v| v) {
            self.cover_round = Some(self.round);
        }
    }

    fn state(&self) -> EngineState {
        EngineState {
            pointers: self.pointers.clone(),
            agents: self.agents.clone(),
        }
    }
}

/// Asserts that `engine`'s cover bookkeeping — cover round, unvisited
/// count and the visited bit of every node — equals the reference's.
fn assert_same_cover(engine: &Engine, reference: &PerAgentReference, case: usize, t: u64) {
    assert_eq!(
        engine.cover_round(),
        reference.cover_round,
        "case {case} round {t}: cover round"
    );
    let unvisited = reference.visited.iter().filter(|&&v| !v).count();
    assert_eq!(
        engine.unvisited_count(),
        unvisited,
        "case {case} round {t}: unvisited count"
    );
    for v in engine.graph().nodes() {
        assert_eq!(
            engine.is_visited(v),
            reference.visited[v.index()],
            "case {case} round {t}: visited bit of {v:?}"
        );
    }
}

/// A varied pool of graph topologies, deterministic per seed.
fn graph_for(case: usize, rng: &mut SmallRng) -> PortGraph {
    match case % 6 {
        0 => builders::random_connected(rng.gen_range(8..40), 0.15, case as u64),
        1 => {
            let d = rng.gen_range(3..5);
            let mut n = rng.gen_range(12..32);
            if n * d % 2 == 1 {
                n += 1;
            }
            builders::random_regular(n, d, case as u64)
        }
        2 => builders::ring(rng.gen_range(3..48)),
        3 => builders::grid(rng.gen_range(2..7), rng.gen_range(2..7)),
        4 => builders::binary_tree(rng.gen_range(3..32)),
        5 => builders::shuffle_ports(&builders::torus(3, rng.gen_range(3..8)), case as u64),
        _ => unreachable!(),
    }
}

fn placement_for(g: &PortGraph, rng: &mut SmallRng) -> Vec<NodeId> {
    let k = rng.gen_range(1..9usize);
    (0..k)
        .map(|_| NodeId::new(rng.gen_range(0..g.node_count() as u32)))
        .collect()
}

fn init_for(case: usize) -> PointerInit {
    match case % 4 {
        0 => PointerInit::Uniform(case),
        1 => PointerInit::Random(case as u64),
        2 => PointerInit::TowardNearestAgent,
        3 => PointerInit::AwayFromNearestAgent,
        _ => unreachable!(),
    }
}

#[test]
fn batched_engine_bit_identical_to_per_agent_reference() {
    const TRIPLES: usize = 102;
    const ROUNDS: u64 = 1000;
    let mut rng = SmallRng::seed_from_u64(0xB47C);
    for case in 0..TRIPLES {
        let g = graph_for(case, &mut rng);
        let agents = placement_for(&g, &mut rng);
        let init = init_for(case);
        let pointers = init.pointers(&g, &agents);
        let mut batched = Engine::with_pointers(&g, &agents, pointers.clone());
        let mut reference = PerAgentReference::new(&g, &agents, &pointers);
        assert_eq!(batched.state(), reference.state(), "case {case}: round 0");
        assert_same_cover(&batched, &reference, case, 0);
        for t in 1..=ROUNDS {
            batched.step();
            reference.step();
            assert_eq!(
                batched.state(),
                reference.state(),
                "case {case} ({g:?}, k={}, {init:?}): diverged at round {t}",
                agents.len(),
            );
            assert_same_cover(&batched, &reference, case, t);
        }
    }
}

#[test]
fn ring_merge_stepper_matches_general_engine() {
    const CASES: usize = 40;
    const ROUNDS: u64 = 1000;
    let mut rng = SmallRng::seed_from_u64(0x416);
    for case in 0..CASES {
        let n = rng.gen_range(3..64usize);
        let g = builders::ring(n);
        let k = rng.gen_range(1..7usize);
        let starts_u: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n as u32)).collect();
        let starts: Vec<NodeId> = starts_u.iter().map(|&s| NodeId::new(s)).collect();
        let dirs = PointerInit::Random(case as u64).ring_directions(n, &starts_u);
        let ptrs: Vec<u32> = dirs.iter().map(|&d| u32::from(d)).collect();
        let mut ring = RingRouter::new(n, &starts_u, &dirs);
        let mut general = Engine::with_pointers(&g, &starts, ptrs);
        for t in 1..=ROUNDS {
            ring.step();
            general.step();
            for v in 0..n as u32 {
                assert_eq!(
                    ring.agents_at(v),
                    general.agents_at(NodeId::new(v)),
                    "case {case} (n={n}, k={k}): agents diverged at node {v}, round {t}"
                );
                assert_eq!(
                    u32::from(ring.direction(v)),
                    general.pointer(NodeId::new(v)),
                    "case {case}: pointers diverged at node {v}, round {t}"
                );
            }
            assert_eq!(ring.cover_round(), general.cover_round(), "case {case}");
        }
    }
}

#[test]
fn delayed_batched_step_matches_per_agent_semantics() {
    // Holding `h` of `c` agents must equal releasing `c − h` agents one at a
    // time; exercise the batch split with a deterministic delay pattern.
    let mut rng = SmallRng::seed_from_u64(0xDE1A);
    for case in 0..20usize {
        let g = graph_for(case, &mut rng);
        let agents = placement_for(&g, &mut rng);
        let init = init_for(case);
        let pointers = init.pointers(&g, &agents);
        let mut delayed = Engine::with_pointers(&g, &agents, pointers.clone());
        let mut reference = PerAgentReference::new(&g, &agents, &pointers);
        for t in 1..=300u64 {
            // hold ⌊c/2⌋ agents at even nodes on even rounds
            let hold = move |v: u32, c: u32| {
                if t.is_multiple_of(2) && v.is_multiple_of(2) {
                    c / 2
                } else {
                    0
                }
            };
            delayed.step_delayed(hold);
            reference.step_delayed(hold);
            assert_eq!(delayed.state(), reference.state(), "case {case} round {t}");
            assert_same_cover(&delayed, &reference, case, t);
        }
    }
}
