//! The batched grid runner: groups same-shape ring cells into
//! [`BatchRing`] batches and runs everything else serially, from
//! one combined work queue.
//!
//! [`run_scenarios_batched`] is the throughput path the campaigns use for
//! observed cover sweeps. It walks the scenario list in order and cuts it
//! into *units*: maximal contiguous runs of ring cells sharing `(n, k)`
//! are chunked into batches of at most `W` lanes (`W` from `ROTOR_BATCH`
//! via [`batch_width_from_env`](rotor_core::batchring::batch_width_from_env)),
//! and every other cell — non-ring families, or any cell the batch engine
//! cannot express, such as §2.1 delayed deployments, which have no batched
//! step — becomes a single-cell serial unit. Batches and stragglers share
//! *one* queue fanned over [`run_sharded`], so a worker that finishes its
//! batch immediately claims a straggler instead of idling; callers size the
//! fan-out with [`thread_plan_for`](crate::driver::thread_plan_for), which
//! caps shards at the unit count so short queues re-grant their surplus
//! budget to intra-unit segment workers.
//!
//! Determinism: the batch width only selects how many cells share one
//! unit. Per-cell covers, rounds and §2.2 domain samples are bit-identical
//! to the serial path at every `W` (pinned by the tests below on top of
//! the `batch_equivalence` property suite), and the backend label is
//! `"rotor_ring_batch"` for every ring cell at every `W` — a width-1 batch
//! is still the batch engine — so `xtask compare` across `ROTOR_BATCH`
//! settings sees identical reports.

use crate::driver::run_sharded;
use crate::runners::{run_scenario_observed, CoverSample, ProcessKind};
use crate::scenario::Scenario;
use rotor_core::domains::{DomainSample, DomainSampler};
use rotor_core::{BatchRing, LaneSpec};
use std::time::Instant;

/// Per-cell run parameters the batched driver needs up front: the round
/// budget and the §2.2 sampling stride. Cells batched into one unit share
/// the same `(family, n, k)` shape, so their params — which the campaigns
/// derive from that shape via the lock-in bound — must agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchParams {
    /// Maximum rounds to simulate before giving up on cover.
    pub budget: u64,
    /// Sampling stride: a [`DomainSample`] is recorded at round 0, every
    /// `stride` rounds, and at the cover round.
    pub stride: u64,
}

/// One cell's result from a batched sweep: the cover sample plus the §2.2
/// domain-sample trace an attached
/// [`DomainSampler`] would have recorded serially.
#[derive(Clone, Debug)]
pub struct ObservedCover {
    /// The cover sample (same shape the per-cell runners produce).
    pub sample: CoverSample,
    /// Domain samples at round 0, every `stride` rounds, and at cover.
    pub domain_samples: Vec<DomainSample>,
}

/// One entry of the combined work queue: a batch of contiguous
/// same-shape ring cells, or a single serial straggler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unit {
    /// `scenarios[start..start + len]` advanced as one [`BatchRing`].
    Batch { start: usize, len: usize },
    /// `scenarios[index]` run through the per-cell serial path.
    Serial { index: usize },
}

/// Cuts the scenario list into the combined unit queue: maximal contiguous
/// same-`(n, k)` ring runs chunked into batches of at most `width` lanes,
/// everything else as serial units, preserving input order.
fn plan_units(scenarios: &[Scenario], width: usize) -> Vec<Unit> {
    let width = width.max(1);
    let mut units = Vec::new();
    let mut i = 0;
    while i < scenarios.len() {
        let sc = &scenarios[i];
        if !sc.family.is_ring() {
            units.push(Unit::Serial { index: i });
            i += 1;
            continue;
        }
        let mut end = i + 1;
        while end < scenarios.len() {
            let next = &scenarios[end];
            if !next.family.is_ring() || next.n != sc.n || next.k != sc.k {
                break;
            }
            end += 1;
        }
        while i < end {
            let len = (end - i).min(width);
            units.push(Unit::Batch { start: i, len });
            i += len;
        }
    }
    units
}

/// Number of work units [`run_scenarios_batched`] will fan out for this
/// scenario list at this width — the value to hand to
/// [`thread_plan_for`](crate::driver::thread_plan_for) when sizing the
/// thread budget, so a short unit queue re-grants its surplus threads to
/// segment workers instead of idling.
pub fn unit_count(scenarios: &[Scenario], width: usize) -> usize {
    plan_units(scenarios, width).len()
}

/// Runs one batch unit: builds one [`BatchRing`], drives every lane to
/// cover or budget with §2.2 sampling, and scatters the per-lane results
/// back to their input indices.
pub(crate) fn run_batch_unit(
    scenarios: &[Scenario],
    start: usize,
    len: usize,
    params: &(impl Fn(&Scenario) -> BatchParams + Sync),
) -> Vec<(usize, ObservedCover)> {
    let cells = &scenarios[start..start + len];
    let p = params(&cells[0]);
    debug_assert!(
        cells.iter().all(|sc| params(sc) == p),
        "cells batched into one unit must share run parameters"
    );
    let positions: Vec<Vec<u32>> = cells.iter().map(Scenario::positions).collect();
    let dirs: Vec<Vec<u8>> = cells
        .iter()
        .zip(&positions)
        .map(|(sc, pos)| sc.ring_directions(pos))
        .collect();
    let specs: Vec<LaneSpec> = positions
        .iter()
        .zip(&dirs)
        .map(|(starts, dirs)| LaneSpec { starts, dirs })
        .collect();
    // lint: allow(wall-clock) -- feeds CoverSample::nanos, a declared nondeterministic timing field
    let timer = Instant::now();
    let mut batch = BatchRing::new(cells[0].n, &specs);
    let samples = batch.run_until_covered_sampled(p.budget, p.stride);
    // One timer spans the whole unit, and every lane reports it: lanes run
    // one after another inside run_until_covered_sampled, which times none
    // of them on its own. nanos is a declared nondeterministic field.
    let nanos = timer.elapsed().as_nanos() as u64;
    samples
        .into_iter()
        .enumerate()
        .map(|(l, domain_samples)| {
            let sc = &cells[l];
            let sample = CoverSample {
                n: sc.n,
                k: sc.k,
                seed_index: sc.seed_index,
                seed: sc.seed,
                cover: batch.lane_cover_round(l),
                rounds: batch.lane_round(l),
                nanos,
                backend: "rotor_ring_batch",
            };
            (
                start + l,
                ObservedCover {
                    sample,
                    domain_samples,
                },
            )
        })
        .collect()
}

/// Runs one serial straggler through the per-cell observed path with an
/// attached [`DomainSampler`] — the same observed run each batched ring
/// lane makes.
fn run_serial_unit(
    scenarios: &[Scenario],
    index: usize,
    params: &(impl Fn(&Scenario) -> BatchParams + Sync),
) -> (usize, ObservedCover) {
    let sc = &scenarios[index];
    let p = params(sc);
    let mut sampler = DomainSampler::every(p.stride);
    let sample = run_scenario_observed(sc, ProcessKind::Rotor, p.budget, &mut sampler);
    (
        index,
        ObservedCover {
            sample,
            domain_samples: sampler.samples,
        },
    )
}

/// Runs every scenario to cover (or budget) with §2.2 domain sampling,
/// batching contiguous same-`(n, k)` ring cells `width` lanes at a time
/// and running everything else serially, fanned across `threads` workers
/// from one combined unit queue. Results are **in scenario order**.
///
/// `params` maps each scenario to its round budget and sampling stride; it
/// must be shape-determined (cells batched together share one set of
/// parameters, asserted in debug builds). Ring cells report backend
/// `"rotor_ring_batch"` at every width; other families run through
/// [`ProcessKind::Rotor`] auto-dispatch exactly as an unbatched sweep
/// would.
///
/// # Panics
///
/// Panics if `threads == 0`, or if any cell violates its runner's
/// preconditions (propagated from [`run_sharded`]).
pub fn run_scenarios_batched(
    scenarios: &[Scenario],
    threads: usize,
    width: usize,
    params: impl Fn(&Scenario) -> BatchParams + Sync,
) -> Vec<ObservedCover> {
    let units = plan_units(scenarios, width);
    let per_unit: Vec<Vec<(usize, ObservedCover)>> =
        run_sharded(&units, threads, |_, unit| match *unit {
            Unit::Batch { start, len } => run_batch_unit(scenarios, start, len, &params),
            Unit::Serial { index } => vec![run_serial_unit(scenarios, index, &params)],
        });
    let mut tagged: Vec<(usize, ObservedCover)> = per_unit.into_iter().flatten().collect();
    debug_assert_eq!(tagged.len(), scenarios.len());
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{InitSpec, PlacementSpec};
    use crate::scenario::{GraphFamily, ScenarioGrid};

    fn ring_grid(seed_count: usize) -> Vec<Scenario> {
        ScenarioGrid {
            families: vec![GraphFamily::Ring],
            ns: vec![32, 61],
            ks: vec![1, 2, 5],
            seed_count,
            base_seed: 17,
            placement: PlacementSpec::Random,
            init: InitSpec::Random,
        }
        .scenarios()
    }

    fn shape_params(sc: &Scenario) -> BatchParams {
        BatchParams {
            budget: 4 * (sc.n as u64) * (sc.n as u64),
            stride: (sc.n as u64 / 4).max(1),
        }
    }

    /// The serial reference: the per-cell observed path every lane must
    /// reproduce bit for bit.
    fn serial_reference(scenarios: &[Scenario]) -> Vec<ObservedCover> {
        scenarios
            .iter()
            .enumerate()
            .map(|(i, _)| run_serial_unit(scenarios, i, &shape_params))
            .map(|(_, r)| r)
            .collect()
    }

    #[test]
    fn units_chunk_ring_runs_and_keep_stragglers_serial() {
        let mut scenarios = ring_grid(7);
        // 6 points × 7 seeds; width 3 cuts each point into 3 + 3 + 1.
        let units = plan_units(&scenarios, 3);
        assert_eq!(units.len(), 6 * 3);
        assert_eq!(units[0], Unit::Batch { start: 0, len: 3 });
        assert_eq!(units[1], Unit::Batch { start: 3, len: 3 });
        assert_eq!(units[2], Unit::Batch { start: 6, len: 1 });
        // A non-ring cell interrupts the run and goes serial.
        scenarios[1].family = GraphFamily::Path;
        let units = plan_units(&scenarios, 64);
        assert_eq!(units[0], Unit::Batch { start: 0, len: 1 });
        assert_eq!(units[1], Unit::Serial { index: 1 });
        assert_eq!(units[2], Unit::Batch { start: 2, len: 5 });
        // Width 0 behaves as 1 (every ring cell its own batch).
        assert_eq!(unit_count(&ring_grid(2), 0), ring_grid(2).len());
    }

    #[test]
    fn batched_results_match_the_serial_path_at_every_width() {
        let scenarios = ring_grid(3);
        let want = serial_reference(&scenarios);
        for width in [1usize, 4, 64] {
            let got = run_scenarios_batched(&scenarios, 2, width, shape_params);
            assert_eq!(got.len(), want.len());
            for (sc, (g, w)) in scenarios.iter().zip(got.iter().zip(&want)) {
                assert_eq!(
                    (g.sample.cover, g.sample.rounds),
                    (w.sample.cover, w.sample.rounds),
                    "width {width} diverged at n={} k={} seed={}",
                    sc.n,
                    sc.k,
                    sc.seed
                );
                assert_eq!(
                    g.domain_samples, w.domain_samples,
                    "width {width} sample-trace drift at n={} k={} seed={}",
                    sc.n, sc.k, sc.seed
                );
                // The backend label is width-invariant — a width-1 batch is
                // still the batch engine — so ROTOR_BATCH never shows up in
                // an xtask compare diff.
                assert_eq!(g.sample.backend, "rotor_ring_batch");
            }
        }
    }

    #[test]
    fn mixed_grid_scatters_results_back_in_input_order() {
        let scenarios = ScenarioGrid {
            families: vec![GraphFamily::Ring, GraphFamily::Torus { rows: 4, cols: 8 }],
            ns: vec![32],
            ks: vec![2, 3],
            seed_count: 2,
            base_seed: 41,
            placement: PlacementSpec::Random,
            init: InitSpec::Random,
        }
        .scenarios();
        let want = serial_reference(&scenarios);
        let got = run_scenarios_batched(&scenarios, 3, 8, shape_params);
        for (sc, (g, w)) in scenarios.iter().zip(got.iter().zip(&want)) {
            assert_eq!(
                (g.sample.n, g.sample.k, g.sample.seed),
                (sc.n, sc.k, sc.seed)
            );
            assert_eq!(
                (g.sample.cover, g.sample.rounds),
                (w.sample.cover, w.sample.rounds)
            );
            assert_eq!(g.domain_samples, w.domain_samples);
            let expect_backend = if sc.family.is_ring() {
                "rotor_ring_batch"
            } else {
                "rotor_general"
            };
            assert_eq!(g.sample.backend, expect_backend, "{}", sc.family.label());
        }
    }

    #[test]
    fn thread_count_does_not_perturb_batched_results() {
        let scenarios = ring_grid(4);
        let one = run_scenarios_batched(&scenarios, 1, 8, shape_params);
        let four = run_scenarios_batched(&scenarios, 4, 8, shape_params);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(
                (a.sample.cover, a.sample.rounds),
                (b.sample.cover, b.sample.rounds)
            );
            assert_eq!(a.domain_samples, b.domain_samples);
        }
    }
}
