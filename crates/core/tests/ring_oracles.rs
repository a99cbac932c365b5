//! Closed-form cover times on the ring, with no engine as the reference.
//!
//! Under the negative initialisation (every pointer toward the nearest
//! agent) an agent zig-zags inside the segment it has explored: each
//! visited interior node passes it straight through, and each unvisited
//! end node turns it back. So the `j`-th new node of its segment costs
//! `j` rounds. With `k | n` equally spaced agents, each agent sweeps only
//! its own arc of `m = n/k` nodes, and the ring is covered after
//! `1 + 2 + … + (m − 1) = m(m − 1)/2` rounds. A single agent is the case
//! `k = 1`, `n(n − 1)/2` rounds, from any start node
//! (`docs/EXPERIMENTS.md` §3 spells out the argument).
//!
//! Every ring engine must hit both numbers exactly: the one-segment
//! [`RingRouter`], [`SegmentedRing`] at `P ∈ {2, 3, 7}` and [`BatchRing`]
//! at `W ∈ {1, 5}`. Rings stay at `n ≤ 128` so the debug profile is quick.

#![forbid(unsafe_code)]

use rotor_core::init::PointerInit;
use rotor_core::placement::Placement;
use rotor_core::{BatchRing, LaneSpec, RingRouter, SegmentedRing};

/// Ring sizes: tiny rings, primes, and composites with many divisors.
const NS: [usize; 15] = [3, 4, 5, 6, 7, 8, 12, 16, 30, 31, 60, 64, 97, 120, 128];

/// Segment counts of the segmented engine.
const PARTITIONS: [usize; 3] = [2, 3, 7];

/// Lanes per batch in the `W = 5` check.
const BATCH: usize = 5;

/// One oracle instance: starts, negative-init directions and the exact
/// cover round.
struct Oracle {
    starts: Vec<u32>,
    dirs: Vec<u8>,
    cover: u64,
}

fn oracle(n: usize, placement: &Placement, k: usize, m: usize) -> Oracle {
    let starts = placement.positions(n, k);
    let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
    let m = m as u64;
    Oracle {
        starts,
        dirs,
        cover: m * (m - 1) / 2,
    }
}

/// Equally spaced agents, every `k` dividing `n`, at two offsets.
fn equally_spaced(n: usize) -> Vec<Oracle> {
    (1..=n)
        .filter(|k| n.is_multiple_of(*k))
        .flat_map(|k| {
            [0, n / 2].map(|offset| {
                let placement = Placement::EquallySpaced {
                    offset: offset as u32,
                };
                oracle(n, &placement, k, n / k)
            })
        })
        .collect()
}

/// One agent at each of three start nodes.
fn single_agent(n: usize) -> Vec<Oracle> {
    [0, n / 2, n - 1]
        .map(|anchor| oracle(n, &Placement::AllOnOne(anchor as u32), 1, n))
        .into()
}

/// Checks every engine against the closed form on one family.
fn check_family(family: &str, instances: impl Fn(usize) -> Vec<Oracle>) {
    for n in NS {
        let cases = instances(n);
        for o in &cases {
            let k = o.starts.len();
            let ctx = format!("{family}: n={n} k={k} starts={:?}", o.starts);
            let budget = o.cover + 1;
            let mut one = RingRouter::new(n, &o.starts, &o.dirs);
            assert_eq!(one.run_until_covered(budget), Some(o.cover), "{ctx}");
            for p in PARTITIONS {
                let mut seg = SegmentedRing::segmented(n, &o.starts, &o.dirs, p);
                let got = seg.run_until_covered(budget);
                assert_eq!(got, Some(o.cover), "{ctx} P={p}");
            }
            let mut single = BatchRing::new(
                n,
                &[LaneSpec {
                    starts: &o.starts,
                    dirs: &o.dirs,
                }],
            );
            single.run_until_covered(budget);
            assert_eq!(single.lane_cover_round(0), Some(o.cover), "{ctx} W=1");
        }
        for chunk in cases.chunks(BATCH) {
            let lanes: Vec<LaneSpec> = chunk
                .iter()
                .map(|o| LaneSpec {
                    starts: &o.starts,
                    dirs: &o.dirs,
                })
                .collect();
            let mut batch = BatchRing::new(n, &lanes);
            batch.run_until_covered(chunk.iter().map(|o| o.cover + 1).max().unwrap_or(1));
            for (l, o) in chunk.iter().enumerate() {
                assert_eq!(
                    batch.lane_cover_round(l),
                    Some(o.cover),
                    "{family}: n={n} starts={:?} W={} lane {l}",
                    o.starts,
                    chunk.len()
                );
            }
        }
    }
}

/// `k | n` equally spaced agents under the negative initialisation cover
/// in exactly `(n/k)(n/k − 1)/2` rounds.
#[test]
fn equally_spaced_agents_cover_in_m_choose_two_rounds() {
    check_family("equally spaced", equally_spaced);
}

/// One agent under the negative initialisation covers in exactly
/// `n(n − 1)/2` rounds.
#[test]
fn a_single_agent_covers_in_n_choose_two_rounds() {
    check_family("single agent", single_agent);
}
