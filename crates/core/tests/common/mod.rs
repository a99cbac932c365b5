//! An engine-independent reference for the ring property suites.
//!
//! [`RingReference`] is the paper's ring model (§1.3) stepped one agent
//! at a time: an agent leaving `v` moves along `v`'s direction bit and
//! flips it, so `c` agents split `⌈c/2⌉` with the pointer and `⌊c/2⌋`
//! against it without any split arithmetic, stream merge or segment
//! exchange. Like `PerAgentReference` in `tests/equivalence.rs` on general
//! graphs, it shares no code with the engines it pins; its §2.2 stats
//! come from the `O(n)` [`scan_domain_stats`](rotor_core::domains::scan_domain_stats)
//! default of [`CoverProcess::domain_stats`].

// Each suite reads a different part of the reference.
#![allow(dead_code)]

use rotor_core::domains::VisitRecord;
use rotor_core::faults::Perturb;
use rotor_core::init::{ACW, CW};
use rotor_core::limit::ConfigSnapshot;
use rotor_core::rng::splitmix64;
use rotor_core::{CoverProcess, RingState};

/// The rotor-router on the `n`-node ring, one agent at a time.
#[derive(Clone, Debug)]
pub struct RingReference {
    dirs: Vec<u8>,
    agents: Vec<u32>,
    visited: Vec<bool>,
    round: u64,
    cover_round: Option<u64>,
    /// Arrivals per node, initial placements included (`n_v(t)`).
    pub visits: Vec<u64>,
    /// The §2.2 record of the most recent visit per node.
    pub last_visit: Vec<Option<VisitRecord>>,
}

impl RingReference {
    /// Agents at `starts`, pointer directions `dirs` (`0` = clockwise).
    pub fn new(n: usize, starts: &[u32], dirs: &[u8]) -> Self {
        let mut agents = vec![0u32; n];
        for &s in starts {
            agents[s as usize] += 1;
        }
        let visited: Vec<bool> = agents.iter().map(|&c| c > 0).collect();
        let last_visit = agents
            .iter()
            .map(|&c| {
                (c > 0).then_some(VisitRecord {
                    round: 0,
                    multiplicity: c,
                    entry_dir: CW,
                    propagation: false,
                })
            })
            .collect();
        RingReference {
            dirs: dirs.to_vec(),
            visits: agents.iter().map(|&c| u64::from(c)).collect(),
            cover_round: visited.iter().all(|&v| v).then_some(0),
            agents,
            visited,
            round: 0,
            last_visit,
        }
    }

    /// One round in which `delay(v, c)` of the `c` agents at `v` stay put.
    pub fn step_delayed(&mut self, mut delay: impl FnMut(u32, u32) -> u32) {
        let n = self.agents.len();
        self.round += 1;
        let departing = std::mem::replace(&mut self.agents, vec![0; n]);
        // Per destination: agents arrived this round, and whether one of
        // them came in clockwise.
        let mut arrived = vec![(0u32, false); n];
        for (v, c) in departing.into_iter().enumerate() {
            let held = delay(v as u32, c).min(c);
            self.agents[v] += held;
            for _ in 0..c - held {
                let d = self.dirs[v];
                self.dirs[v] ^= 1;
                let dest = if d == CW {
                    (v + 1) % n
                } else {
                    (v + n - 1) % n
                };
                self.agents[dest] += 1;
                self.visits[dest] += 1;
                self.visited[dest] = true;
                arrived[dest].0 += 1;
                arrived[dest].1 |= d == CW;
            }
        }
        for (v, &(count, from_acw_neighbour)) in arrived.iter().enumerate() {
            if count > 0 {
                let entry_dir = if from_acw_neighbour { CW } else { ACW };
                self.last_visit[v] = Some(VisitRecord {
                    round: self.round,
                    multiplicity: count,
                    entry_dir,
                    propagation: count == 1 && self.dirs[v] == entry_dir,
                });
            }
        }
        if self.cover_round.is_none() && self.visited.iter().all(|&v| v) {
            self.cover_round = Some(self.round);
        }
    }

    /// Sorted `(node, count)` pairs of occupied nodes.
    pub fn occupied(&self) -> Vec<(u32, u32)> {
        (0u32..)
            .zip(self.agents.iter().copied())
            .filter(|&(_, c)| c > 0)
            .collect()
    }
}

impl CoverProcess for RingReference {
    fn kind_name(&self) -> &'static str {
        "ring_reference"
    }

    fn node_count(&self) -> usize {
        self.agents.len()
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn step(&mut self) {
        self.step_delayed(|_, _| 0);
    }

    fn cover_round(&self) -> Option<u64> {
        self.cover_round
    }

    fn visited_count(&self) -> usize {
        self.visited.iter().filter(|&&v| v).count()
    }

    fn is_node_visited(&self, node: usize) -> bool {
        self.visited[node]
    }
}

impl ConfigSnapshot for RingReference {
    type Config = RingState;

    fn config(&self) -> RingState {
        RingState {
            dirs: self.dirs.clone(),
            occupied: self.occupied(),
        }
    }
}

/// The fault draws spelled out: each draw advances a `splitmix64` chain
/// from `seed` and indexes the ring (pointer corruption) or the sorted
/// occupied list (crashes).
impl Perturb for RingReference {
    fn corrupt_pointers(&mut self, seed: u64, count: u32) -> u32 {
        let mut s = seed;
        let mut changed = 0;
        for _ in 0..count {
            s = splitmix64(s);
            let v = (s % self.agents.len() as u64) as usize;
            let new_dir = ((s >> 32) & 1) as u8;
            changed += u32::from(self.dirs[v] != new_dir);
            self.dirs[v] = new_dir;
        }
        changed
    }

    fn remove_agents(&mut self, seed: u64, count: u32) -> u32 {
        let mut s = seed;
        let mut removed = 0;
        for _ in 0..count {
            if self.agents.iter().sum::<u32>() <= 1 {
                break;
            }
            s = splitmix64(s);
            let occupied = self.occupied();
            let (v, _) = occupied[(s % occupied.len() as u64) as usize];
            self.agents[v as usize] -= 1;
            removed += 1;
        }
        removed
    }

    fn reset_cover_epoch(&mut self) {
        self.visited = self.agents.iter().map(|&c| c > 0).collect();
        self.cover_round = self.visited.iter().all(|&v| v).then_some(self.round);
    }
}
