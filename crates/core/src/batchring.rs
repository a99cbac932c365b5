//! The batch-of-cells vectorized ring engine: `W` independent
//! [`RingRouter`](crate::RingRouter) instances of the same ring size advanced in lockstep in
//! one cell-major structure-of-arrays arena.
//!
//! ## Why batching
//!
//! [`SegmentedRing`](crate::SegmentedRing) parallelises *inside* one
//! instance; [`BatchRing`] is the dual cut — throughput *across*
//! independent cells. Every quantitative claim in this workspace is a
//! median over seeds, and each seed was a full serial run. A batch lays
//! the direction bits, occupied lists and visited bits of `W` same-shape
//! `(n, k)` cells cell-major in shared arenas and advances all still-live
//! lanes one round per pass, so the per-round fixed costs (scratch
//! management, loop control, cover checks) are paid once per round instead
//! of once per round *per seed* — and, like the ring engine, the batch
//! keeps exactly the state the acceptance surface needs (covers,
//! configurations, pointer bits, §2.2 domain/border stats).
//!
//! ## Determinism contract
//!
//! The batch width `W` is a pure *throughput parameter*: every per-cell
//! deterministic output is bit-identical to a serial [`RingRouter`](crate::RingRouter) run of
//! the same `(n, starts, dirs)` lane at every `W`, and lanes are fully
//! isolated — one lane covering early freezes that lane and cannot perturb
//! its neighbours. Property tests in `tests/batch_equivalence.rs` pin this
//! across `W ∈ {1, 2, 7, 64}`, non-divisible remainders and mid-batch
//! cover. The per-lane round is its own implementation of the ring round:
//! departures walked in ascending node order, the one possible wrap
//! element rotated home, and the pre-sorted clockwise / anticlockwise
//! streams combined by a sentinel-driven branchless merge.
//!
//! ## What batching does **not** cover
//!
//! Delayed deployments (§2.1) hold agents back with a per-node schedule
//! ([`RingRouter::step_delayed`](crate::RingRouter::step_delayed)); the
//! batch engine has no delayed step, so the sweep driver keeps delayed
//! cells on the serial path. A batch is not a
//! [`CoverProcess`](crate::CoverProcess) either: its lanes are read
//! through the per-lane accessors, and its one instrument is the native
//! §2.2 sampling of
//! [`run_until_covered_sampled`](BatchRing::run_until_covered_sampled).
//! Observers and probes attach to [`RingRouter`](crate::RingRouter).

use crate::domains::{DomainSample, DomainStats};
use crate::init::CW;
use crate::ring::RingState;

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
/// how many same-shape cells share one arena pass.
pub fn batch_width_from_env() -> usize {
    batch_from(std::env::var(BATCH_ENV).ok().as_deref())
}

/// One cell of a batch: the agent start multiset and initial pointer
/// directions of an independent [`RingRouter`](crate::RingRouter)-equivalent instance.
#[derive(Clone, Copy, Debug)]
pub struct LaneSpec<'a> {
    /// Agent start positions (a multiset of node indices `< n`).
    pub starts: &'a [u32],
    /// Initial pointer directions, one per node (`0` = clockwise).
    pub dirs: &'a [u8],
}

/// One pre-sorted per-round move stream in structure-of-arrays form,
/// shared across all lanes of a batch (cleared per lane-round).
#[derive(Clone, Debug, Default)]
struct BatchStream {
    nodes: Vec<u32>,
    counts: Vec<u32>,
}

impl BatchStream {
    fn clear(&mut self) {
        self.nodes.clear();
        self.counts.clear();
    }

    #[inline]
    fn push(&mut self, node: u32, count: u32) {
        self.nodes.push(node);
        self.counts.push(count);
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Appends the `u32::MAX` stream-exhausted sentinel so the merge can
    /// index heads unconditionally.
    fn seal(&mut self) {
        self.push(u32::MAX, 0);
    }
}

/// `W` same-size ring-router cells in one cell-major SoA arena.
///
/// Lane `l` owns `dirs[l·n .. (l+1)·n]`, `visited[l·words .. (l+1)·words]`
/// and the occupied slice `[l·cap, l·cap + occ_len[l])`; the per-round
/// move streams are shared scratch. [`step`](Self::step) advances every
/// lane that has not yet covered (covered lanes freeze, so a lane's round
/// count equals its cover round), [`run_until_covered`](Self::run_until_covered)
/// drives the whole batch to cover or budget, and the per-lane accessors
/// expose exactly the deterministic surface the equivalence suite pins.
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
    n: u32,
    width: usize,
    /// Visited words per lane (`n.div_ceil(64)`).
    words: usize,
    /// Occupied-arena stride per lane (`min(max lane k, n)`).
    cap: usize,
    /// Direction bits, cell-major: lane `l` at `[l·n, (l+1)·n)`.
    dirs: Vec<u8>,
    /// Visited bits, cell-major: lane `l` at `[l·words, (l+1)·words)`.
    visited: Vec<u64>,
    /// Occupied nodes (sorted per lane), cell-major with stride `cap`.
    occ_nodes: Vec<u32>,
    /// Agent counts parallel to `occ_nodes`, all `> 0`.
    occ_counts: Vec<u32>,
    /// Live occupied-list length per lane.
    occ_len: Vec<u32>,
    /// Agent count per lane.
    ks: Vec<u32>,
    /// Completed rounds per lane.
    rounds: Vec<u64>,
    /// Never-visited node count per lane.
    unvisited: Vec<u32>,
    /// Cover round per lane, once reached.
    cover_rounds: Vec<Option<u64>>,
    /// §2.2 domain count per lane, incrementally maintained.
    domains: Vec<u32>,
    /// §2.2 border count per lane, incrementally maintained.
    borders: Vec<u32>,
    // Shared per-round scratch, reused across all lanes.
    cw_moves: BatchStream,
    acw_moves: BatchStream,
    next_occ: BatchStream,
}

impl BatchRing {
    /// Creates a batch of `lanes.len()` independent cells on an `n`-node
    /// ring.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `n > u32::MAX`, `lanes` is empty, or any lane
    /// violates the [`RingRouter::new`](crate::RingRouter::new)
    /// preconditions (empty starts, wrong direction vector length,
    /// out-of-range start, direction not 0/1).
    pub fn new(n: usize, lanes: &[LaneSpec]) -> Self {
        let n32 = u32::try_from(n)
            .expect("a ring of more than u32::MAX nodes would wrap the u32 node index");
        assert!(n >= 3, "batch ring needs n >= 3");
        assert!(!lanes.is_empty(), "need at least one lane");
        let width = lanes.len();
        let words = n.div_ceil(64);
        let cap = lanes
            .iter()
            .map(|l| l.starts.len().min(n))
            .max()
            .expect("non-empty batch")
            .max(1);
        let mut batch = BatchRing {
            n: n32,
            width,
            words,
            cap,
            dirs: Vec::with_capacity(width * n),
            visited: vec![0u64; width * words],
            occ_nodes: vec![0u32; width * cap],
            occ_counts: vec![0u32; width * cap],
            occ_len: vec![0u32; width],
            ks: vec![0u32; width],
            rounds: vec![0u64; width],
            unvisited: vec![n32; width],
            cover_rounds: vec![None; width],
            domains: vec![0u32; width],
            borders: vec![0u32; width],
            cw_moves: BatchStream::default(),
            acw_moves: BatchStream::default(),
            next_occ: BatchStream::default(),
        };
        let mut count = vec![0u32; n];
        for (l, lane) in lanes.iter().enumerate() {
            assert!(!lane.starts.is_empty(), "need at least one agent");
            assert_eq!(lane.dirs.len(), n, "direction vector length mismatch");
            assert!(
                lane.dirs.iter().all(|&d| d <= 1),
                "directions must be 0 or 1"
            );
            batch.dirs.extend_from_slice(lane.dirs);
            batch.ks[l] = u32::try_from(lane.starts.len())
                .expect("a lane of more than u32::MAX agents would wrap its u32 agent count");
            count.iter_mut().for_each(|c| *c = 0);
            for &s in lane.starts {
                assert!(s < n32, "start position out of range");
                count[s as usize] += 1;
            }
            // Enumerating 0..n yields the occupied list already sorted.
            let ob = l * cap;
            let mut len = 0usize;
            for (v, &c) in count.iter().enumerate() {
                if c > 0 {
                    batch.occ_nodes[ob + len] = v as u32;
                    batch.occ_counts[ob + len] = c;
                    len += 1;
                    batch.insert_visited(l, v as u32);
                    batch.unvisited[l] -= 1;
                }
            }
            batch.occ_len[l] = len as u32;
            if batch.unvisited[l] == 0 {
                batch.cover_rounds[l] = Some(0);
            }
            // One scan seeds the incremental §2.2 counters from the
            // initial placement, exactly like the serial constructor.
            let stats = batch.scan_lane_domain_stats(l);
            batch.domains[l] = stats.domains;
            batch.borders[l] = stats.borders;
        }
        batch
    }

    /// Ring size `n` (shared by every lane).
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of lanes `W` in the batch.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Completed rounds of lane `l` (equals its cover round once frozen).
    pub fn lane_round(&self, l: usize) -> u64 {
        self.rounds[l]
    }

    /// Cover round of lane `l`, if it has covered (`Some(0)` if the
    /// initial placement already covers).
    pub fn lane_cover_round(&self, l: usize) -> Option<u64> {
        self.cover_rounds[l]
    }

    /// Number of nodes lane `l` has visited at least once.
    pub fn lane_visited_count(&self, l: usize) -> usize {
        (self.n - self.unvisited[l]) as usize
    }

    /// Whether node `v` has ever been visited in lane `l`.
    pub fn lane_is_visited(&self, l: usize, v: u32) -> bool {
        self.visited[l * self.words + (v as usize) / 64] & (1u64 << (v % 64)) != 0
    }

    /// §2.2 domain/border structure of lane `l`, incrementally maintained
    /// (`O(1)` per query).
    pub fn lane_domain_stats(&self, l: usize) -> DomainStats {
        DomainStats {
            domains: self.domains[l],
            borders: self.borders[l],
        }
    }

    /// Snapshot of lane `l`'s mutable configuration, in the same shape the
    /// serial engine reports.
    pub fn lane_state(&self, l: usize) -> RingState {
        let n = self.n as usize;
        let ob = l * self.cap;
        let len = self.occ_len[l] as usize;
        RingState {
            dirs: self.dirs[l * n..(l + 1) * n].to_vec(),
            occupied: self.occ_nodes[ob..ob + len]
                .iter()
                .copied()
                .zip(self.occ_counts[ob..ob + len].iter().copied())
                .collect(),
        }
    }

    #[inline]
    fn cw(&self, v: u32) -> u32 {
        let u = v + 1;
        if u == self.n {
            0
        } else {
            u
        }
    }

    #[inline]
    fn acw(&self, v: u32) -> u32 {
        if v == 0 {
            self.n - 1
        } else {
            v - 1
        }
    }

    #[inline]
    fn insert_visited(&mut self, l: usize, v: u32) -> bool {
        let word = &mut self.visited[l * self.words + (v as usize) / 64];
        let mask = 1u64 << (v % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Reference `O(n)` scan of lane `l`'s §2.2 counters — the seed of the
    /// incremental path, mirroring `scan_domain_stats` on the serial
    /// engine.
    fn scan_lane_domain_stats(&self, l: usize) -> DomainStats {
        let mut domains = 0u32;
        let mut borders = 0u32;
        for v in 0..self.n {
            if !self.lane_is_visited(l, v) {
                continue;
            }
            let prev = self.lane_is_visited(l, self.acw(v));
            let next = self.lane_is_visited(l, self.cw(v));
            domains += u32::from(!prev);
            borders += u32::from(!prev || !next);
        }
        if self.unvisited[l] == 0 {
            domains = 1;
        }
        DomainStats { domains, borders }
    }

    /// Incremental update of lane `l`'s §2.2 counters for the first visit
    /// to `v` — the same `O(1)` neighbour-case analysis as the serial
    /// engine, called with `v` already inserted and `unvisited[l]` already
    /// decremented.
    fn note_first_visit(&mut self, l: usize, v: u32) {
        let p = self.acw(v);
        let nx = self.cw(v);
        let pv = self.lane_is_visited(l, p);
        let nv = self.lane_is_visited(l, nx);
        match (pv, nv) {
            (false, false) => self.domains[l] += 1,
            (true, true) if self.unvisited[l] > 0 => self.domains[l] -= 1,
            _ => {}
        }
        self.borders[l] += u32::from(!pv || !nv);
        if pv && self.lane_is_visited(l, self.acw(p)) {
            self.borders[l] -= 1;
        }
        if nv && self.lane_is_visited(l, self.cw(nx)) {
            self.borders[l] -= 1;
        }
    }

    /// Advances lane `l` one round *unconditionally* (frozen-lane policy
    /// lives in the batch drive loops, not here): the exact serial
    /// departure → wrap-rotation → sentinel-merge round, minus the
    /// per-arrival visit bookkeeping.
    fn step_lane(&mut self, l: usize) {
        self.rounds[l] += 1;
        let round = self.rounds[l];
        let n = self.n as usize;
        let base = l * n;
        let ob = l * self.cap;
        let mut cw_moves = std::mem::take(&mut self.cw_moves);
        let mut acw_moves = std::mem::take(&mut self.acw_moves);
        let mut next_occ = std::mem::take(&mut self.next_occ);
        cw_moves.clear();
        acw_moves.clear();
        next_occ.clear();
        // Departures in ascending node order emit each stream already
        // sorted by destination, save one possible wrap per stream.
        let olen = self.occ_len[l] as usize;
        for i in 0..olen {
            let v = self.occ_nodes[ob + i];
            let c = self.occ_counts[ob + i];
            let d = self.dirs[base + v as usize];
            let with_ptr = c.div_ceil(2);
            let against = c / 2;
            if c % 2 == 1 {
                self.dirs[base + v as usize] ^= 1;
            }
            let (cw_cnt, acw_cnt) = if d == CW {
                (with_ptr, against)
            } else {
                (against, with_ptr)
            };
            if cw_cnt > 0 {
                cw_moves.push(self.cw(v), cw_cnt);
            }
            if acw_cnt > 0 {
                acw_moves.push(self.acw(v), acw_cnt);
            }
        }
        // Rotate the single possible wrap element home; both streams are
        // then strictly increasing in destination.
        if cw_moves.len() > 1 && cw_moves.nodes[cw_moves.len() - 1] == 0 {
            cw_moves.nodes.rotate_right(1);
            cw_moves.counts.rotate_right(1);
        }
        if acw_moves.len() > 1 && acw_moves.nodes[0] == self.n - 1 {
            acw_moves.nodes.rotate_left(1);
            acw_moves.counts.rotate_left(1);
        }
        // Branchless two-way merge (the serial engine's three-way merge
        // with the held stream dropped: the batch path has no delayed
        // deployments, so the held stream is always empty there).
        cw_moves.seal();
        acw_moves.seal();
        let (mut ci, mut ai) = (0usize, 0usize);
        loop {
            let cd = cw_moves.nodes[ci];
            let ad = acw_moves.nodes[ai];
            let dest = cd.min(ad);
            if dest == u32::MAX {
                break;
            }
            let take_c = u32::from(cd == dest);
            let take_a = u32::from(ad == dest);
            let arrived = take_c * cw_moves.counts[ci] + take_a * acw_moves.counts[ai];
            ci += take_c as usize;
            ai += take_a as usize;
            if self.insert_visited(l, dest) {
                self.unvisited[l] -= 1;
                self.note_first_visit(l, dest);
                if self.unvisited[l] == 0 && self.cover_rounds[l].is_none() {
                    self.cover_rounds[l] = Some(round);
                }
            }
            next_occ.push(dest, arrived);
        }
        let m = next_occ.len();
        debug_assert!(m <= self.cap, "occupied list exceeds the lane stride");
        self.occ_nodes[ob..ob + m].copy_from_slice(&next_occ.nodes[..m]);
        self.occ_counts[ob..ob + m].copy_from_slice(&next_occ.counts[..m]);
        self.occ_len[l] = m as u32;
        self.cw_moves = cw_moves;
        self.acw_moves = acw_moves;
        self.next_occ = next_occ;
        debug_assert_eq!(
            u64::from(self.unvisited[l]),
            self.n as u64
                - self.visited[l * self.words..(l + 1) * self.words]
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum::<u64>(),
            "unvisited counter agrees with popcount"
        );
        debug_assert_eq!(
            self.occ_counts[ob..ob + m].iter().sum::<u32>(),
            self.ks[l],
            "agents conserved"
        );
    }

    /// Advances every lane that has not yet covered by one round (covered
    /// lanes stay frozen at their cover configuration).
    pub fn step(&mut self) {
        for l in 0..self.width {
            if self.cover_rounds[l].is_none() {
                self.step_lane(l);
            }
        }
    }

    /// Drives every lane until it covers or reaches `max_rounds` total
    /// rounds, one lockstep pass over all live lanes per round.
    pub fn run_until_covered(&mut self, max_rounds: u64) {
        loop {
            let mut live = false;
            for l in 0..self.width {
                if self.cover_rounds[l].is_none() && self.rounds[l] < max_rounds {
                    self.step_lane(l);
                    live = true;
                }
            }
            if !live {
                break;
            }
        }
    }

    /// [`run_until_covered`](Self::run_until_covered) with per-lane §2.2
    /// sampling: each lane records a [`DomainSample`] at round 0, at every
    /// `stride`-multiple round, and at its cover round — exactly the
    /// rounds a serial [`crate::domains::DomainSampler::every`]`(stride)`
    /// attached through [`crate::CoverProcess::run_observed`] records, so the
    /// returned per-lane sample vectors are bit-identical to the serial
    /// observed run.
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
        assert!(stride > 0, "sampling stride must be positive");
        assert!(
            self.rounds.iter().all(|&r| r == 0),
            "sampling must observe the initial configuration"
        );
        let mut samples: Vec<Vec<DomainSample>> = vec![Vec::new(); self.width];
        for (l, lane_samples) in samples.iter_mut().enumerate() {
            lane_samples.push(self.lane_sample(l));
        }
        loop {
            let mut live = false;
            for (l, lane_samples) in samples.iter_mut().enumerate() {
                if self.cover_rounds[l].is_none() && self.rounds[l] < max_rounds {
                    self.step_lane(l);
                    live = true;
                    let round = self.rounds[l];
                    if round.is_multiple_of(stride) || self.cover_rounds[l] == Some(round) {
                        lane_samples.push(self.lane_sample(l));
                    }
                }
            }
            if !live {
                break;
            }
        }
        samples
    }

    fn lane_sample(&self, l: usize) -> DomainSample {
        DomainSample {
            round: self.rounds[l],
            visited: self.lane_visited_count(l),
            domains: self.domains[l],
            borders: self.borders[l],
        }
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
