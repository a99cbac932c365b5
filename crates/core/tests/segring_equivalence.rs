//! Property tests pinning [`SegmentedRing`] bit-identical to the
//! per-agent ring reference.
//!
//! The segmented backend must be a pure partition parameter: for every
//! `(n, k, seed, placement, init, delay-schedule)` and every segment count
//! `P`, the per-round [`RingState`] sequence, the cover round, the §2.2
//! domain statistics and the Brent `(μ, λ)` cycle structure must all equal
//! those of [`RingReference`], which moves one agent at a time and takes
//! its §2.2 stats from the `O(n)` scan. These tests sweep random instances
//! across `P ∈ {1, 2, 3, 4, 7}` — including the segment-boundary edge
//! cases the exchange protocol has to get right: `k > n/P` (agents
//! outnumber a segment), delayed deployments straddling a boundary, and
//! mid-run [`Perturb`] disturbances.
//!
//! [`Perturb`]: rotor_core::faults::Perturb
//! [`RingState`]: rotor_core::RingState

#![forbid(unsafe_code)]

mod common;

use common::RingReference;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rotor_core::domains::{scan_domain_stats, VisitLog};
use rotor_core::faults::Perturb;
use rotor_core::init::PointerInit;
use rotor_core::limit::{probe_cycle, ConfigSnapshot};
use rotor_core::placement::Placement;
use rotor_core::{CoverProcess, Observer, SegmentedRing};

const PARTITIONS: [usize; 5] = [1, 2, 3, 4, 7];

/// A `P`-segment engine on one worker thread.
fn segmented(n: usize, starts: &[u32], dirs: &[u8], p: usize) -> SegmentedRing {
    SegmentedRing::with_workers(n, starts, dirs, p, 1)
}

/// Check every deterministic field of `seg` against the reference after
/// round `r`: the configuration, the cover round, the visited bits node by
/// node, and the §2.2 domain stats, which must equal both the reference's
/// scan and a scan of the engine's own visited bits.
fn assert_same_round(reference: &RingReference, seg: &SegmentedRing, r: u64, ctx: &str) {
    assert_eq!(
        reference.config(),
        seg.state(),
        "state drift at round {r} ({ctx})"
    );
    assert_eq!(
        reference.cover_round(),
        seg.cover_round(),
        "cover-round drift at round {r} ({ctx})"
    );
    assert_eq!(
        reference.visited_count(),
        seg.visited_count(),
        "visited-count drift at round {r} ({ctx})"
    );
    for v in 0..reference.node_count() {
        assert_eq!(
            reference.is_node_visited(v),
            seg.is_node_visited(v),
            "visited-bit drift at node {v}, round {r} ({ctx})"
        );
    }
    let got = CoverProcess::domain_stats(seg);
    assert_eq!(
        scan_domain_stats(reference),
        got,
        "domain-stats drift at round {r} ({ctx})"
    );
    assert_eq!(
        got,
        scan_domain_stats(seg),
        "incremental domain stats disagree with the O(n) scan at round {r} ({ctx})"
    );
}

/// Drive the reference and the engine `rounds` rounds in lockstep,
/// checking every deterministic field after every round.
fn assert_lockstep(reference: &mut RingReference, seg: &mut SegmentedRing, rounds: u64, ctx: &str) {
    for r in 0..rounds {
        assert_same_round(reference, seg, r, ctx);
        reference.step();
        seg.step();
    }
    assert_same_round(reference, seg, rounds, ctx);
}

fn random_instance(rng: &mut SmallRng) -> (usize, Vec<u32>, Vec<u8>) {
    let n = rng.gen_range(3..64usize);
    let k = rng.gen_range(1..13usize);
    let placement = match rng.gen_range(0..4u32) {
        0 => Placement::AllOnOne(rng.gen_range(0..n as u32)),
        1 => Placement::EquallySpaced {
            offset: rng.gen_range(0..n as u32),
        },
        2 => Placement::Random(rng.next_u64()),
        _ => Placement::Custom((0..k).map(|_| rng.gen_range(0..n as u32)).collect()),
    };
    let starts = placement.positions(n, k);
    let dirs = match rng.gen_range(0..4u32) {
        0 => PointerInit::TowardNearestAgent.ring_directions(n, &starts),
        1 => PointerInit::AwayFromNearestAgent.ring_directions(n, &starts),
        2 => PointerInit::Random(rng.next_u64()).ring_directions(n, &starts),
        _ => PointerInit::Uniform(rng.gen_range(0..2)).ring_directions(n, &starts),
    };
    (n, starts, dirs)
}

/// Random `(n, k, placement, init)` instances, every partition count,
/// every deterministic field, every round.
#[test]
fn segmented_ring_matches_the_per_agent_reference_per_round() {
    let mut rng = SmallRng::seed_from_u64(0x5E61);
    for case in 0..40 {
        let (n, starts, dirs) = random_instance(&mut rng);
        for p in PARTITIONS {
            let mut reference = RingReference::new(n, &starts, &dirs);
            let mut seg = segmented(n, &starts, &dirs, p);
            let ctx = format!("case {case}: n={n} k={} p={p}", starts.len());
            assert_lockstep(&mut reference, &mut seg, 4 * n as u64 + 32, &ctx);
        }
    }
}

/// Boundary edge case: `k > n/P`, so at least one segment holds more
/// agents than nodes and both boundary streams carry traffic every round.
#[test]
fn agents_outnumbering_a_segment_still_match() {
    let cases: [(usize, usize); 4] = [(12, 4), (9, 3), (20, 7), (6, 2)];
    for (n, p) in cases {
        let k = 3 * n; // k > n ≥ n/P for every segment
        for anchor in [0u32, (n / 2) as u32, (n - 1) as u32] {
            let starts = Placement::AllOnOne(anchor).positions(n, k);
            let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
            let mut reference = RingReference::new(n, &starts, &dirs);
            let mut seg = segmented(n, &starts, &dirs, p);
            let ctx = format!("n={n} k={k} p={p} anchor={anchor}");
            assert_lockstep(&mut reference, &mut seg, 6 * n as u64, &ctx);
        }
    }
}

/// Delayed deployments (§2.1) straddling segment boundaries: the same
/// pure `D(v, c)` schedule must produce identical trajectories, including
/// when the held agents sit exactly on the first and last node of a
/// segment.
#[test]
fn delayed_deployment_straddling_boundaries_matches() {
    let mut rng = SmallRng::seed_from_u64(0xD31A);
    // Deterministic, value-dependent delay: holds back a (v, c)-dependent
    // share, frequently at boundary nodes of every partition tested.
    let delay = |v: u32, c: u32| (v.wrapping_mul(0x9E37_79B9) >> 27).wrapping_add(c) % (c + 1);
    for case in 0..20 {
        let (n, starts, dirs) = random_instance(&mut rng);
        for p in PARTITIONS {
            let mut reference = RingReference::new(n, &starts, &dirs);
            let mut seg = segmented(n, &starts, &dirs, p);
            let ctx = format!("delayed case {case}: n={n} p={p}");
            let rounds = 3 * n as u64;
            for r in 0..rounds {
                assert_same_round(&reference, &seg, r, &ctx);
                reference.step_delayed(delay);
                seg.step_delayed(delay);
            }
            assert_same_round(&reference, &seg, rounds, &ctx);
        }
    }
}

/// Mid-run [`Perturb`] disturbances — pointer corruption, agent crashes
/// and a cover-epoch reset — must consume the same deterministic draw
/// sequences and leave the engine in the reference's configuration.
#[test]
fn perturbations_mid_run_match() {
    let mut rng = SmallRng::seed_from_u64(0xFA17);
    for case in 0..20 {
        let (n, starts, dirs) = random_instance(&mut rng);
        for p in PARTITIONS {
            let mut reference = RingReference::new(n, &starts, &dirs);
            let mut seg = segmented(n, &starts, &dirs, p);
            let ctx = format!("perturb case {case}: n={n} p={p}");
            assert_lockstep(&mut reference, &mut seg, n as u64, &ctx);

            let seed = rng.next_u64();
            let flips = rng.gen_range(1..8u32);
            assert_eq!(
                Perturb::corrupt_pointers(&mut reference, seed, flips),
                Perturb::corrupt_pointers(&mut seg, seed, flips),
                "corrupt_pointers draw mismatch ({ctx})"
            );
            assert_lockstep(&mut reference, &mut seg, n as u64, &ctx);

            let seed = rng.next_u64();
            let kills = rng.gen_range(1..6u32);
            assert_eq!(
                Perturb::remove_agents(&mut reference, seed, kills),
                Perturb::remove_agents(&mut seg, seed, kills),
                "remove_agents draw mismatch ({ctx})"
            );
            assert_lockstep(&mut reference, &mut seg, n as u64, &ctx);

            Perturb::reset_cover_epoch(&mut reference);
            Perturb::reset_cover_epoch(&mut seg);
            assert_eq!(
                reference.cover_round(),
                seg.cover_round(),
                "epoch reset ({ctx})"
            );
            assert_lockstep(&mut reference, &mut seg, 2 * n as u64, &ctx);
        }
    }
}

/// §4 limit behaviour: Brent `(μ, λ)` over the configuration sequence is
/// the reference's for every partition count.
#[test]
fn brent_cycle_structure_matches() {
    let mut rng = SmallRng::seed_from_u64(0xB3E7);
    for _case in 0..12 {
        let n = rng.gen_range(3..16usize);
        let k = rng.gen_range(1..4usize);
        let starts: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n as u32)).collect();
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let want = probe_cycle(|| RingReference::new(n, &starts, &dirs), 200_000);
        for p in PARTITIONS {
            let got = probe_cycle(|| segmented(n, &starts, &dirs, p), 200_000);
            assert_eq!(want, got, "(μ, λ) drift: n={n} k={k} p={p}");
        }
    }
}

/// Cover times across the worst-case family stay pinned for partitions
/// that do not divide `n`, including `P` close to `n`.
#[test]
fn awkward_partition_counts_match_cover_times() {
    for n in [5usize, 13, 31, 47] {
        let starts = Placement::AllOnOne(0).positions(n, 4);
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
        let mut reference = RingReference::new(n, &starts, &dirs);
        let want = reference
            .run_until_covered(1 << 20)
            .expect("reference covers");
        for p in [2usize, n - 1, n, n + 3] {
            let mut seg = segmented(n, &starts, &dirs, p);
            let got = seg.run_until_covered(1 << 20).expect("segmented covers");
            assert_eq!(want, got, "cover time drift: n={n} p={p}");
        }
    }
}

/// The opt-in §2.2 visit records: a [`VisitLog`] attached at every
/// partition count reproduces the reference's visit counts and last-visit
/// records (round, multiplicity, entry direction, propagation) on every
/// node after every round.
#[test]
fn visit_log_matches_the_per_agent_reference() {
    let mut rng = SmallRng::seed_from_u64(0x7151);
    for case in 0..20 {
        let (n, starts, dirs) = random_instance(&mut rng);
        for p in PARTITIONS {
            let mut reference = RingReference::new(n, &starts, &dirs);
            let mut seg = segmented(n, &starts, &dirs, p);
            let mut log = VisitLog::new();
            log.observe(&seg);
            for r in 0..2 * n as u64 + 16 {
                for v in 0..n as u32 {
                    let ctx = format!("case {case}: n={n} p={p} round {r} node {v}");
                    assert_eq!(log.visits(v), reference.visits[v as usize], "{ctx}");
                    assert_eq!(
                        log.last_visit(v),
                        reference.last_visit[v as usize].as_ref(),
                        "{ctx}"
                    );
                }
                reference.step();
                seg.step();
                log.observe(&seg);
            }
        }
    }
}
