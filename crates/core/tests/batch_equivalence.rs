//! Property tests pinning [`BatchRing`] lanes bit-identical to the
//! per-agent ring reference.
//!
//! The batch width must be a pure throughput parameter: for every lane
//! `(n, k, seed, placement, init)` at every width `W`, the per-round
//! [`RingState`] sequence, the cover round, the visited count, the §2.2
//! domain statistics and the natively sampled §2.2 trace must all equal
//! those of [`RingReference`], which moves one agent at a time and takes
//! its §2.2 stats from the `O(n)` scan. These tests sweep random
//! mixed-shape batches across `W ∈ {1, 2, 3, 7, 64}` — including the
//! isolation edge case the arena layout has to get right: one lane
//! covering mid-batch (and freezing) must not perturb any neighbouring
//! lane.
//!
//! [`RingState`]: rotor_core::RingState

#![forbid(unsafe_code)]

mod common;

use common::RingReference;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rotor_core::domains::{scan_domain_stats, DomainSampler};
use rotor_core::init::PointerInit;
use rotor_core::limit::ConfigSnapshot;
use rotor_core::placement::Placement;
use rotor_core::{BatchRing, CoverProcess, LaneSpec};

const WIDTHS: [usize; 5] = [1, 2, 3, 7, 64];

/// One random lane shape on an `n`-node ring: agent count, placement and
/// pointer init all drawn independently, so a batch mixes `k`s and
/// configurations freely.
fn random_lane(rng: &mut SmallRng, n: usize) -> (Vec<u32>, Vec<u8>) {
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
    (starts, dirs)
}

/// Drive a batch and its per-lane references `rounds` rounds in
/// lockstep, checking every deterministic per-lane field after every
/// round. The references freeze at their own cover round, exactly like
/// batch lanes do under [`BatchRing::step`].
fn assert_batch_lockstep(n: usize, lanes: &[(Vec<u32>, Vec<u8>)], rounds: u64, ctx: &str) {
    let specs: Vec<LaneSpec> = lanes
        .iter()
        .map(|(starts, dirs)| LaneSpec { starts, dirs })
        .collect();
    let mut batch = BatchRing::new(n, &specs);
    let mut references: Vec<RingReference> = lanes
        .iter()
        .map(|(starts, dirs)| RingReference::new(n, starts, dirs))
        .collect();
    for r in 0..=rounds {
        for (l, reference) in references.iter().enumerate() {
            assert_eq!(
                reference.config(),
                batch.lane_state(l),
                "state drift at round {r}, lane {l} ({ctx})"
            );
            assert_eq!(
                reference.cover_round(),
                batch.lane_cover_round(l),
                "cover-round drift at round {r}, lane {l} ({ctx})"
            );
            assert_eq!(
                scan_domain_stats(reference),
                batch.lane_domain_stats(l),
                "domain-stats drift at round {r}, lane {l} ({ctx})"
            );
            assert_eq!(
                reference.visited_count(),
                batch.lane_visited_count(l),
                "visited-count drift at round {r}, lane {l} ({ctx})"
            );
        }
        batch.step();
        for reference in &mut references {
            if reference.cover_round().is_none() {
                reference.step();
            }
        }
    }
}

/// Random mixed-shape batches, every width, every per-lane deterministic
/// field, every round.
#[test]
fn batched_lanes_match_the_per_agent_reference_per_round() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C);
    for (case, &w) in WIDTHS.iter().enumerate() {
        let n = rng.gen_range(3..48usize);
        let lanes: Vec<_> = (0..w).map(|_| random_lane(&mut rng, n)).collect();
        let ctx = format!("case {case}: n={n} w={w}");
        assert_batch_lockstep(n, &lanes, 4 * n as u64 + 32, &ctx);
    }
    // A second sweep with fresh draws per width, small rings (dense wrap
    // traffic) to stress the per-lane merge isolation.
    for &w in &WIDTHS {
        let n = rng.gen_range(3..8usize);
        let lanes: Vec<_> = (0..w).map(|_| random_lane(&mut rng, n)).collect();
        let ctx = format!("small-n: n={n} w={w}");
        assert_batch_lockstep(n, &lanes, 6 * n as u64, &ctx);
    }
}

/// Mid-batch cover isolation: lanes engineered to cover at very different
/// rounds. A lane that finishes early freezes at its cover configuration
/// and must not perturb the still-running lanes on either side of it in
/// the arena.
#[test]
fn mid_batch_cover_leaves_neighbours_untouched() {
    let n = 40usize;
    // fast / slow / fast / slow …: dense equally-spaced lanes cover in a
    // handful of rounds, single-agent all-on-one lanes take Θ(n²).
    let lanes: Vec<(Vec<u32>, Vec<u8>)> = (0..6)
        .map(|l| {
            let starts = if l % 2 == 0 {
                Placement::EquallySpaced { offset: l as u32 }.positions(n, 10)
            } else {
                Placement::AllOnOne(l as u32).positions(n, 1)
            };
            let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
            (starts, dirs)
        })
        .collect();
    assert_batch_lockstep(n, &lanes, 4 * (n as u64) * (n as u64), "mid-batch cover");

    // And the frozen configuration really is frozen: after everything has
    // covered, further steps change nothing.
    let specs: Vec<LaneSpec> = lanes
        .iter()
        .map(|(starts, dirs)| LaneSpec { starts, dirs })
        .collect();
    let mut batch = BatchRing::new(n, &specs);
    batch.run_until_covered(u64::MAX);
    let frozen: Vec<_> = (0..batch.width()).map(|l| batch.lane_state(l)).collect();
    batch.step();
    for (l, state) in frozen.iter().enumerate() {
        assert_eq!(state, &batch.lane_state(l), "covered lane {l} moved");
        assert_eq!(
            batch.lane_round(l),
            batch.lane_cover_round(l).expect("covered"),
            "frozen lane round must equal its cover round"
        );
    }
}

/// Budget semantics match the serial driver: a lane that cannot cover
/// within the budget stops at exactly `max_rounds` rounds, like
/// [`CoverProcess::run_until_covered`] does on the reference.
#[test]
fn budget_exhaustion_matches_serial() {
    let n = 64usize;
    let starts = Placement::AllOnOne(0).positions(n, 1);
    let dirs = PointerInit::AwayFromNearestAgent.ring_directions(n, &starts);
    let budget = 50u64;
    let mut reference = RingReference::new(n, &starts, &dirs);
    assert_eq!(reference.run_until_covered(budget), None, "must time out");
    let mut batch = BatchRing::new(
        n,
        &[LaneSpec {
            starts: &starts,
            dirs: &dirs,
        }],
    );
    batch.run_until_covered(budget);
    assert_eq!(batch.lane_cover_round(0), None);
    assert_eq!(batch.lane_round(0), reference.round());
    assert_eq!(batch.lane_state(0), reference.config());
}

/// Sampling: the batch's native per-lane §2.2 sampling records exactly
/// the rounds a [`DomainSampler`] attached to the reference through
/// `run_observed` records, sample for sample, at several strides —
/// including lanes that cover mid-batch.
#[test]
fn sampled_run_matches_serial_domain_sampler() {
    let mut rng = SmallRng::seed_from_u64(0x5A3D);
    for &stride in &[1u64, 3, 8] {
        for &w in &[2usize, 7] {
            let n = rng.gen_range(8..40usize);
            let lanes: Vec<_> = (0..w).map(|_| random_lane(&mut rng, n)).collect();
            let specs: Vec<LaneSpec> = lanes
                .iter()
                .map(|(starts, dirs)| LaneSpec { starts, dirs })
                .collect();
            let budget = 4 * (n as u64) * (n as u64);
            let mut batch = BatchRing::new(n, &specs);
            let batch_samples = batch.run_until_covered_sampled(budget, stride);
            for (l, (starts, dirs)) in lanes.iter().enumerate() {
                let mut reference = RingReference::new(n, starts, dirs);
                let mut sampler = DomainSampler::every(stride);
                let cover = reference.run_observed(budget, &mut sampler);
                assert_eq!(
                    cover,
                    batch.lane_cover_round(l),
                    "cover drift: n={n} w={w} stride={stride} lane={l}"
                );
                assert_eq!(
                    sampler.samples, batch_samples[l],
                    "sample drift: n={n} w={w} stride={stride} lane={l}"
                );
            }
        }
    }
}

/// A one-lane batch's native sampled run matches the reference's run
/// with an attached [`DomainSampler`], sample for sample.
#[test]
fn single_lane_observed_run_matches_serial() {
    let n = 48usize;
    let starts = Placement::EquallySpaced { offset: 3 }.positions(n, 4);
    let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
    let budget = 4 * (n as u64) * (n as u64);

    let mut reference = RingReference::new(n, &starts, &dirs);
    let mut reference_sampler = DomainSampler::every(2);
    let want = reference.run_observed(budget, &mut reference_sampler);

    let mut single = BatchRing::new(
        n,
        &[LaneSpec {
            starts: &starts,
            dirs: &dirs,
        }],
    );
    let samples = single.run_until_covered_sampled(budget, 2);

    assert_eq!(want, single.lane_cover_round(0), "cover drift");
    assert_eq!(reference_sampler.samples, samples[0]);
}

/// The `ROTOR_BATCH` parser falls back to one cell per batch on anything
/// unusable, mirroring the `ROTOR_SEGMENTS` contract.
#[test]
fn batch_width_parsing_defaults_to_serial() {
    use rotor_core::batchring::batch_from;
    assert_eq!(batch_from(None), 1);
    assert_eq!(batch_from(Some("")), 1);
    assert_eq!(batch_from(Some("0")), 1);
    assert_eq!(batch_from(Some("banana")), 1);
    assert_eq!(batch_from(Some(" 8 ")), 8);
    assert_eq!(batch_from(Some("64")), 64);
}
