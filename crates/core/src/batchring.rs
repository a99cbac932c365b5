//! A batch of `W` independent ring cells of the same size, each a
//! one-segment [`RingRouter`].
//!
//! ## Why a batch
//!
//! Every quantitative claim in this workspace is a median over seeds, and
//! the sweeps group each `(n, k)` shape's seeds into units of `W` cells
//! (`ROTOR_BATCH` selects `W`). [`BatchRing`] is that unit: it holds one
//! [`RingRouter::new`] per cell, so every lane runs the one ring round of
//! the fused segment kernel, with its `O(1)` incremental §2.2 counters. It
//! adds no round of its own; it only drives its lanes and exposes them
//! through the per-lane accessors the sweeps read.
//!
//! ## Determinism contract
//!
//! The batch width `W` is a pure grouping parameter: every per-cell
//! deterministic output is bit-identical to a serial [`RingRouter`] run
//! of the same `(n, starts, dirs)` lane at every `W`, because each lane
//! *is* that run. Lanes share no state, so one lane covering early
//! freezes that lane and cannot perturb its neighbours. Property tests in
//! `tests/batch_equivalence.rs` pin this across `W ∈ {1, 2, 3, 7, 64}`,
//! non-divisible remainders and mid-batch cover, against the per-agent
//! reference stepper.
//!
//! ## What a batch does **not** cover
//!
//! Delayed deployments (§2.1) hold agents back with a per-node schedule
//! ([`RingRouter::step_delayed`]); the batch has no delayed step, so the
//! sweep driver keeps delayed cells on the serial path. A batch is not a
//! [`CoverProcess`] either: its lanes are read through the per-lane
//! accessors, and its one instrument is the §2.2 sampling of
//! [`run_until_covered_sampled`](BatchRing::run_until_covered_sampled).
//! Other observers and probes attach to [`RingRouter`].

use crate::domains::{DomainSample, DomainSampler, DomainStats};
use crate::ring::{RingRouter, RingState};
use crate::CoverProcess;

/// Environment variable overriding the batch width used by batched sweeps
/// (`1` — one cell per batch, the serial path — when unset).
pub const BATCH_ENV: &str = "ROTOR_BATCH";

/// Pure core of [`batch_width_from_env`] (separable for tests): parses an
/// override value, falling back to `1` (one cell per batch).
pub fn batch_from(var: Option<&str>) -> usize {
    if let Some(s) = var {
        if let Ok(w) = s.trim().parse::<usize>() {
            if w > 0 {
                return w;
            }
        }
    }
    1
}

/// The batch width requested via [`BATCH_ENV`], or `1` when unset or
/// unparsable. Results are bit-identical at any value; this only selects
/// how many same-shape cells share one batch unit.
pub fn batch_width_from_env() -> usize {
    batch_from(std::env::var(BATCH_ENV).ok().as_deref())
}

/// One cell of a batch: the agent start multiset and initial pointer
/// directions of an independent [`RingRouter`] instance.
#[derive(Clone, Copy, Debug)]
pub struct LaneSpec<'a> {
    /// Agent start positions (a multiset of node indices `< n`).
    pub starts: &'a [u32],
    /// Initial pointer directions, one per node (`0` = clockwise).
    pub dirs: &'a [u8],
}

/// `W` same-size ring cells, each a one-segment [`RingRouter`].
///
/// [`step`](Self::step) advances every lane that has not yet covered
/// (covered lanes freeze, so a lane's round count equals its cover round),
/// [`run_until_covered`](Self::run_until_covered) drives the whole batch to
/// cover or budget, and the per-lane accessors expose exactly the
/// deterministic surface the equivalence suite pins.
///
/// ```
/// use rotor_core::{BatchRing, LaneSpec, RingRouter};
///
/// let n = 16;
/// let dirs = vec![0u8; n];
/// let lanes = [[0u32, 4], [2, 9]];
/// let specs: Vec<LaneSpec> = lanes
///     .iter()
///     .map(|s| LaneSpec { starts: s, dirs: &dirs })
///     .collect();
/// let mut batch = BatchRing::new(n, &specs);
/// batch.run_until_covered(1_000_000);
/// for (l, starts) in lanes.iter().enumerate() {
///     let mut serial = RingRouter::new(n, starts, &dirs);
///     let cover = serial.run_until_covered(1_000_000);
///     assert_eq!(batch.lane_cover_round(l), cover);
///     assert_eq!(batch.lane_state(l), serial.state());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct BatchRing {
    lanes: Vec<RingRouter>,
}

impl BatchRing {
    /// Creates a batch of `lanes.len()` independent cells on an `n`-node
    /// ring.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty, or any lane violates the
    /// [`RingRouter::new`] preconditions (`n < 3` or `n > u32::MAX`, empty
    /// starts, wrong direction vector length, out-of-range start,
    /// direction not 0/1).
    pub fn new(n: usize, lanes: &[LaneSpec]) -> Self {
        assert!(!lanes.is_empty(), "need at least one lane");
        BatchRing {
            lanes: lanes
                .iter()
                .map(|lane| RingRouter::new(n, lane.starts, lane.dirs))
                .collect(),
        }
    }

    /// Ring size `n` (shared by every lane).
    pub fn n(&self) -> u32 {
        self.lanes[0].n()
    }

    /// Number of lanes `W` in the batch.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Completed rounds of lane `l` (equals its cover round once frozen).
    pub fn lane_round(&self, l: usize) -> u64 {
        self.lanes[l].round()
    }

    /// Cover round of lane `l`, if it has covered (`Some(0)` if the
    /// initial placement already covers).
    pub fn lane_cover_round(&self, l: usize) -> Option<u64> {
        self.lanes[l].cover_round()
    }

    /// Number of nodes lane `l` has visited at least once.
    pub fn lane_visited_count(&self, l: usize) -> usize {
        self.lanes[l].visited_count()
    }

    /// Whether node `v` has ever been visited in lane `l`.
    pub fn lane_is_visited(&self, l: usize, v: u32) -> bool {
        self.lanes[l].is_visited(v)
    }

    /// §2.2 domain/border structure of lane `l`, incrementally maintained
    /// (`O(1)` per query).
    pub fn lane_domain_stats(&self, l: usize) -> DomainStats {
        self.lanes[l].domain_stats()
    }

    /// Snapshot of lane `l`'s mutable configuration, in the same shape the
    /// serial engine reports.
    pub fn lane_state(&self, l: usize) -> RingState {
        self.lanes[l].state()
    }

    /// Advances every lane that has not yet covered by one round (covered
    /// lanes stay frozen at their cover configuration).
    pub fn step(&mut self) {
        for lane in &mut self.lanes {
            if lane.cover_round().is_none() {
                lane.step();
            }
        }
    }

    /// Drives every lane until it covers or reaches `max_rounds` total
    /// rounds. Lanes are independent, so they run one after another.
    pub fn run_until_covered(&mut self, max_rounds: u64) {
        for lane in &mut self.lanes {
            lane.run_until_covered(max_rounds);
        }
    }

    /// [`run_until_covered`](Self::run_until_covered) with per-lane §2.2
    /// sampling: each lane runs [`CoverProcess::run_observed`] with a
    /// [`DomainSampler::every`]`(stride)` attached, so it records a
    /// [`DomainSample`] at round 0, at every `stride`-multiple round and
    /// at its cover round, bit-identical to the serial observed run.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or any lane has already been stepped (the
    /// round-0 sample must see the initial configuration).
    pub fn run_until_covered_sampled(
        &mut self,
        max_rounds: u64,
        stride: u64,
    ) -> Vec<Vec<DomainSample>> {
        assert!(
            self.lanes.iter().all(|lane| lane.round() == 0),
            "sampling must observe the initial configuration"
        );
        self.lanes
            .iter_mut()
            .map(|lane| {
                let mut sampler = DomainSampler::every(stride);
                lane.run_observed(max_rounds, &mut sampler);
                sampler.samples
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "more than u32::MAX nodes")]
    fn more_than_u32_max_nodes_panics_before_allocating() {
        BatchRing::new(
            u32::MAX as usize + 1,
            &[LaneSpec {
                starts: &[0],
                dirs: &[],
            }],
        );
    }
}
