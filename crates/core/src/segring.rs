//! The segment kernel of the ring engine, and [`SegmentedRing`].
//!
//! A `Segment` owns one contiguous node range `[lo, hi)` of the ring —
//! its direction bits, its slice of the sorted occupied list, its visited
//! bits — and runs one round of it in two phases around a barrier:
//! `depart` splits every occupied node's agents and emits the agents
//! leaving across the two boundaries, and `absorb` merges the boundary
//! arrivals handed over by the cyclic neighbours into the next occupied
//! list. The only
//! cross-segment traffic is the clockwise stream leaving the last node of
//! a segment and the anticlockwise stream leaving its first node (at most
//! one `(node, count)` pair each per round per boundary).
//!
//! [`RingRouter`] drives `P` segments; [`RingRouter::new`] is the
//! one-segment case, whose two boundary streams wrap back into itself.
//!
//! ## Why segments
//!
//! `rotor_sweep::run_sharded` parallelises *across* cells, so one
//! worst-case `Θ(n²/log k)` cell at large `n` is still a single-core job.
//! A [`SegmentedRing`] parallelises *inside* one instance: its segments
//! advance on up to `workers` scoped threads, and the result is the same
//! at every `P` and every worker count.
//!
//! ## Why the kernel is lean
//!
//! Segments keep exactly the state the acceptance surface needs (covers,
//! domain stats, configuration snapshots); segments that are fully
//! covered skip visit tracking altogether; and the departure pass is
//! written as explicit fixed-width lane chunks (`[u32; 8]` — two `u64x4`
//! registers' worth) over the SoA `nodes`/`counts` vectors so the
//! compiler can autovectorise the split arithmetic (the offline build has
//! no SIMD intrinsics crates; `#![forbid(unsafe_code)]` holds).

use crate::bitset::VisitSet;
use crate::init::CW;
use crate::ring::RingRouter;

/// Environment variable overriding the intra-instance segment count used
/// by sweeps and campaigns (`1` — one segment — when unset).
pub const SEGMENTS_ENV: &str = "ROTOR_SEGMENTS";

/// Pure core of [`segment_count_from_env`] (separable for tests): parses
/// an override value, falling back to `1` (one segment).
pub fn segments_from(var: Option<&str>) -> usize {
    if let Some(s) = var {
        if let Ok(p) = s.trim().parse::<usize>() {
            if p > 0 {
                return p;
            }
        }
    }
    1
}

/// The segment count requested via [`SEGMENTS_ENV`], or `1` when unset or
/// unparsable. Results are bit-identical at any value; this only selects
/// the partition.
pub fn segment_count_from_env() -> usize {
    segments_from(std::env::var(SEGMENTS_ENV).ok().as_deref())
}

/// Number of lanes in the chunked departure pass: eight `u32`s, the width
/// of two `u64x4` vector registers.
const LANES: usize = 8;

/// One pre-sorted per-round move stream with a manually managed length,
/// so zero-count entries can be compressed out *branchlessly*: `emit`
/// always stores, and advances the length by `count > 0`.
#[derive(Clone, Debug, Default)]
struct SegStream {
    nodes: Vec<u32>,
    counts: Vec<u32>,
    len: usize,
}

impl SegStream {
    /// Prepares the stream for a round, guaranteeing room for `cap`
    /// entries (indexed stores only — no `push`, no reallocation in the
    /// steady state).
    fn reset(&mut self, cap: usize) {
        if self.nodes.len() < cap {
            self.nodes.resize(cap, 0);
            self.counts.resize(cap, 0);
        }
        self.len = 0;
    }

    /// Branchless append: stores unconditionally, keeps the slot only
    /// when `count > 0`.
    #[inline]
    fn emit(&mut self, node: u32, count: u32) {
        self.nodes[self.len] = node;
        self.counts[self.len] = count;
        self.len += usize::from(count > 0);
    }

    /// Unconditional append (merge output: counts are always positive).
    #[inline]
    fn push(&mut self, node: u32, count: u32) {
        self.nodes[self.len] = node;
        self.counts[self.len] = count;
        self.len += 1;
    }

    /// Appends the `u32::MAX` stream-exhausted sentinel.
    #[inline]
    fn seal(&mut self) {
        self.nodes[self.len] = u32::MAX;
        self.counts[self.len] = 0;
        self.len += 1;
    }
}

/// One contiguous node range `[lo, hi)` of the ring, owning every piece
/// of mutable state for its nodes. Segments only ever touch their own
/// arrays during the departure and merge phases, which is what makes the
/// scoped-thread fan-out safe without any locking.
#[derive(Clone, Debug)]
pub(crate) struct Segment {
    /// First owned node (inclusive).
    pub(crate) lo: u32,
    /// Last owned node (exclusive).
    pub(crate) hi: u32,
    /// Direction bits for nodes `lo..hi`, indexed by `v - lo`.
    pub(crate) dirs: Vec<u8>,
    /// Occupied nodes in `[lo, hi)`, sorted ascending (global indices).
    pub(crate) occ_nodes: Vec<u32>,
    /// Agent counts parallel to `occ_nodes`, all `> 0`.
    pub(crate) occ_counts: Vec<u32>,
    /// Visited bits over the local index space `0..(hi - lo)`.
    pub(crate) visited: VisitSet,
    /// Never-visited nodes in this segment.
    pub(crate) unvisited: u32,
    /// §2.2 starts `v` with `visited(v) ∧ ¬visited(v−1)` where *both*
    /// nodes are in-segment (local `v ∈ [1, len)`), maintained
    /// incrementally; the two boundary pairs per segment are recomputed
    /// at merge time in `O(P)` total.
    pub(crate) interior_starts: u32,
    /// §2.2 borders (visited node with an unvisited cyclic neighbour)
    /// whose whole 3-node window is in-segment (local `v ∈ [1, len−2]`),
    /// maintained incrementally like `interior_starts`.
    pub(crate) interior_borders: u32,
    /// Agents leaving clockwise across the `hi` boundary this round
    /// (destination `hi mod n` — the next segment's first node).
    pub(crate) out_cw: u32,
    /// Agents leaving anticlockwise across the `lo` boundary this round
    /// (destination `lo − 1 mod n` — the previous segment's last node).
    pub(crate) out_acw: u32,
    /// Clockwise boundary arrivals handed over at the barrier;
    /// destination `lo`.
    pub(crate) in_cw: u32,
    /// See `in_cw`; destination `hi − 1`.
    pub(crate) in_acw: u32,
    /// Set by `depart` when the segment had no occupants: nothing was
    /// emitted, so `absorb` can skip the whole merge when no boundary
    /// agents arrive either. Keeps far-from-the-band segments O(1) per
    /// round instead of paying stream resets and an empty merge.
    parked: bool,
    /// Set by `depart` when the round took the fused single-pass path
    /// (undelayed rounds): `next` already holds the sorted local arrivals
    /// and `absorb` only applies the two boundary arrivals. Delayed
    /// rounds clear it and go through the held/CW/ACW stream merge.
    fused: bool,
    /// Fused-path scratch: per-occupied-node clockwise share, filled by
    /// the lane-chunked split pass.
    cw_buf: Vec<u32>,
    /// Fused-path scratch: per-occupied-node anticlockwise share.
    acw_buf: Vec<u32>,
    held: SegStream,
    cw: SegStream,
    acw: SegStream,
    next: SegStream,
}

impl Segment {
    /// The segment `[lo, hi)` with direction bits `dirs` and `count[i]`
    /// agents at node `lo + i`.
    pub(crate) fn new(lo: u32, hi: u32, dirs: &[u8], count: &[u32]) -> Self {
        let len = (hi - lo) as usize;
        let mut seg = Segment {
            lo,
            hi,
            dirs: dirs.to_vec(),
            occ_nodes: Vec::new(),
            occ_counts: Vec::new(),
            visited: VisitSet::new(len),
            unvisited: len as u32,
            interior_starts: 0,
            interior_borders: 0,
            out_cw: 0,
            out_acw: 0,
            in_cw: 0,
            in_acw: 0,
            parked: false,
            fused: false,
            cw_buf: Vec::new(),
            acw_buf: Vec::new(),
            held: SegStream::default(),
            cw: SegStream::default(),
            acw: SegStream::default(),
            next: SegStream::default(),
        };
        for (v, &c) in (lo..hi).zip(count) {
            if c > 0 {
                seg.occ_nodes.push(v);
                seg.occ_counts.push(c);
                seg.visited.insert((v - lo) as usize);
                seg.unvisited -= 1;
            }
        }
        seg.reseed_counters();
        seg
    }

    pub(crate) fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Starts a fresh cover epoch: only the occupied nodes count as
    /// visited, and the interior §2.2 counters are re-derived.
    pub(crate) fn reset_cover_epoch(&mut self) {
        let len = self.len();
        self.visited = VisitSet::new(len);
        for &v in &self.occ_nodes {
            self.visited.insert((v - self.lo) as usize);
        }
        self.unvisited = (len - self.occ_nodes.len()) as u32;
        self.reseed_counters();
    }

    /// Re-derives the incremental §2.2 interior counters from the visited
    /// bits (`O(segment length)`): construction and epoch resets only.
    fn reseed_counters(&mut self) {
        let len = self.len();
        self.interior_starts = 0;
        self.interior_borders = 0;
        for j in 1..len {
            if self.visited.contains(j) && !self.visited.contains(j - 1) {
                self.interior_starts += 1;
            }
        }
        for j in 1..len.saturating_sub(1) {
            if self.visited.contains(j)
                && (!self.visited.contains(j - 1) || !self.visited.contains(j + 1))
            {
                self.interior_borders += 1;
            }
        }
    }

    /// Incremental update of the interior §2.2 counters for the first
    /// visit to global node `v`, called with `v` already inserted. Only
    /// `v` and its two neighbours can change status, and for the
    /// *interior* counters every bit consulted is in-segment — which is
    /// why concurrent first visits in other segments cannot race this.
    fn note_first_visit(&mut self, v: u32) {
        let len = self.len();
        let i = (v - self.lo) as usize;
        // Start pairs (v−1, v) and (v, v+1), when fully in-segment.
        if i >= 1 && !self.visited.contains(i - 1) {
            self.interior_starts += 1;
        }
        if i + 1 < len && self.visited.contains(i + 1) {
            self.interior_starts -= 1;
        }
        // Border status can change for v−1, v, v+1; count only nodes
        // whose whole neighbour window is in-segment (local [1, len−2]).
        let interior = |j: usize| j >= 1 && j + 2 <= len;
        if interior(i) {
            let pv = self.visited.contains(i - 1);
            let nv = self.visited.contains(i + 1);
            if !pv || !nv {
                self.interior_borders += 1;
            }
        }
        // A visited neighbour was a border (it touched the then-unvisited
        // v); it stays one only if its other neighbour is unvisited.
        if i >= 1 && interior(i - 1) && self.visited.contains(i - 1) && self.visited.contains(i - 2)
        {
            self.interior_borders -= 1;
        }
        if i + 1 < len
            && interior(i + 1)
            && self.visited.contains(i + 1)
            && self.visited.contains(i + 2)
        {
            self.interior_borders -= 1;
        }
    }

    /// Departure phase. Boundary-crossing agents land in `out_cw` /
    /// `out_acw` instead of the local structures, so no wrap rotation is
    /// ever needed: within a segment `v ↦ v±1` never wraps.
    ///
    /// Undelayed rounds take the *fused* path: nothing is held back, so
    /// the local arrivals are exactly the two-way merge of the CW/ACW
    /// shares, and one pass over the occupied list can write the next
    /// sorted occupied list directly into `next` — no intermediate
    /// streams, no sentinels, no separate merge. Delayed rounds (§2.1)
    /// keep the held/CW/ACW stream emission merged in `absorb`.
    pub(crate) fn depart(&mut self, delay: Option<&(dyn Fn(u32, u32) -> u32 + Sync)>) {
        let m = self.occ_nodes.len();
        self.out_cw = 0;
        self.out_acw = 0;
        self.parked = m == 0;
        if self.parked {
            return;
        }
        match delay {
            None => {
                self.fused = true;
                if self.unvisited > 0 {
                    self.depart_fused::<true>();
                } else {
                    self.depart_fused::<false>();
                }
            }
            Some(d) => {
                self.fused = false;
                self.held.reset(m + 2);
                self.cw.reset(m + 3);
                self.acw.reset(m + 3);
                // Slot 0 of the clockwise stream is reserved for the
                // incoming boundary element (destination `lo`, smaller
                // than every local clockwise destination); locals fill
                // from index 1.
                self.cw.len = 1;
                self.depart_delayed(d);
                self.held.seal();
                self.cw.seal();
                // `acw` is sealed at merge time, after the incoming
                // boundary element (destination `hi − 1`, larger than
                // every local one).
            }
        }
    }

    /// Generic scalar departure for delayed deployments (§2.1).
    fn depart_delayed(&mut self, delay: &(dyn Fn(u32, u32) -> u32 + Sync)) {
        for i in 0..self.occ_nodes.len() {
            let v = self.occ_nodes[i];
            let c = self.occ_counts[i];
            let h = delay(v, c).min(c);
            let moving = c - h;
            if h > 0 {
                self.held.emit(v, h);
            }
            if moving > 0 {
                self.route(v, moving);
            }
        }
    }

    /// Pass 1 of the fused departure — the SIMD core: loads `LANES`
    /// occupied entries into fixed-width `[u32; LANES]` lane buffers,
    /// computes the ⌈c/2⌉ / ⌊c/2⌋ split, direction selection and pointer
    /// flips branch-free across the lanes (autovectorisable: no branches,
    /// no data-dependent arithmetic), scatters the flips back into `dirs`
    /// and stores the two per-node shares into `cw_buf` / `acw_buf`.
    fn split_counts(&mut self) {
        let m = self.occ_nodes.len();
        if self.cw_buf.len() < m {
            self.cw_buf.resize(m, 0);
            self.acw_buf.resize(m, 0);
        }
        let lo = self.lo;
        let mut i = 0;
        while i + LANES <= m {
            let mut nodes = [0u32; LANES];
            let mut counts = [0u32; LANES];
            nodes.copy_from_slice(&self.occ_nodes[i..i + LANES]);
            counts.copy_from_slice(&self.occ_counts[i..i + LANES]);
            // Gather pass (data-dependent indices: scalar by necessity).
            let mut dir = [0u32; LANES];
            for j in 0..LANES {
                dir[j] = u32::from(self.dirs[(nodes[j] - lo) as usize]);
            }
            // Lane arithmetic — the vectorisable core. `dir` is 0 for CW,
            // so `1 - dir` masks the ⌈c/2⌉ share onto the pointer
            // direction.
            let mut cw_cnt = [0u32; LANES];
            let mut acw_cnt = [0u32; LANES];
            let mut flip = [0u32; LANES];
            for j in 0..LANES {
                let c = counts[j];
                let up = (c + 1) >> 1;
                let dn = c >> 1;
                let cw_sel = 1 - dir[j];
                cw_cnt[j] = cw_sel * up + dir[j] * dn;
                acw_cnt[j] = cw_sel * dn + dir[j] * up;
                flip[j] = c & 1;
            }
            // Scatter passes.
            for j in 0..LANES {
                self.dirs[(nodes[j] - lo) as usize] ^= flip[j] as u8;
            }
            self.cw_buf[i..i + LANES].copy_from_slice(&cw_cnt);
            self.acw_buf[i..i + LANES].copy_from_slice(&acw_cnt);
            i += LANES;
        }
        while i < m {
            let c = self.occ_counts[i];
            let li = (self.occ_nodes[i] - lo) as usize;
            let d = u32::from(self.dirs[li]);
            self.dirs[li] ^= (c & 1) as u8;
            let up = (c + 1) >> 1;
            let dn = c >> 1;
            self.cw_buf[i] = (1 - d) * up + d * dn;
            self.acw_buf[i] = (1 - d) * dn + d * up;
            i += 1;
        }
    }

    /// Pass 2 of the fused departure: one ordered sweep over the occupied
    /// list that writes the next sorted occupied list straight into
    /// `next`. Node `v`'s anticlockwise share lands at `v − 1` and its
    /// clockwise share at `v + 1`, so at most two destinations are ever
    /// still awaiting future contributions — a two-slot carry (`q0 < q1`)
    /// replaces the whole stream-and-merge machinery. A destination is
    /// complete (and emitted, in order) as soon as the sweep passes it.
    fn depart_fused<const TRACK: bool>(&mut self) {
        self.split_counts();
        let m = self.occ_nodes.len();
        // Capacity: every occupied node contributes at most two distinct
        // destinations, plus the two boundary arrivals applied in
        // `absorb`.
        self.next.reset(2 * m + 2);
        let (mut q0, mut d0) = (u32::MAX, 0u32);
        let (mut q1, mut d1) = (u32::MAX, 0u32);
        for i in 0..m {
            let v = self.occ_nodes[i];
            let acw_c = self.acw_buf[i];
            let cw_c = self.cw_buf[i];
            if v == self.lo {
                self.out_acw = acw_c;
            } else {
                let a = v - 1;
                // Flush carries below `a` (complete: nothing ≥ v can
                // reach them), then absorb a carry at `a` — its last
                // possible contributor is this node's anticlockwise
                // share.
                if q0 < a {
                    self.land::<TRACK>(q0, d0);
                    (q0, d0) = (q1, d1);
                    (q1, d1) = (u32::MAX, 0);
                    if q0 < a {
                        self.land::<TRACK>(q0, d0);
                        (q0, d0) = (u32::MAX, 0);
                    }
                }
                let mut at_a = acw_c;
                if q0 == a {
                    at_a += d0;
                    (q0, d0) = (q1, d1);
                    (q1, d1) = (u32::MAX, 0);
                }
                self.land::<TRACK>(a, at_a);
            }
            if v + 1 == self.hi {
                self.out_cw = cw_c;
            } else if cw_c > 0 {
                // `v + 1` may still receive node `v + 2`'s anticlockwise
                // share: carry it. At most one other carry (`v`, from a
                // gap-1 predecessor) can be live, so `q1` is free.
                if q0 == u32::MAX {
                    (q0, d0) = (v + 1, cw_c);
                } else {
                    (q1, d1) = (v + 1, cw_c);
                }
            }
        }
        if q0 != u32::MAX {
            self.land::<TRACK>(q0, d0);
        }
        if q1 != u32::MAX {
            self.land::<TRACK>(q1, d1);
        }
    }

    /// Fused-path arrival: appends `(pos, cnt)` to the next occupied list
    /// (ascending calls only) and runs first-visit tracking. Zero counts
    /// are dropped, matching the stream path's branchless compression.
    #[inline]
    fn land<const TRACK: bool>(&mut self, pos: u32, cnt: u32) {
        if cnt == 0 {
            return;
        }
        self.next.push(pos, cnt);
        if TRACK {
            self.mark_visited(pos);
        }
    }

    /// First-visit bookkeeping for an arrival at `v` (idempotent).
    #[inline]
    fn mark_visited(&mut self, v: u32) {
        let li = (v - self.lo) as usize;
        if self.visited.insert(li) {
            self.unvisited -= 1;
            self.note_first_visit(v);
        }
    }

    /// Scalar departure of one occupied node, handling the two segment
    /// boundaries.
    #[inline]
    fn route(&mut self, v: u32, moving: u32) {
        let li = (v - self.lo) as usize;
        let d = self.dirs[li];
        let with_ptr = moving.div_ceil(2);
        let against = moving / 2;
        self.dirs[li] ^= (moving & 1) as u8;
        let (cw_cnt, acw_cnt) = if d == CW {
            (with_ptr, against)
        } else {
            (against, with_ptr)
        };
        if v + 1 == self.hi {
            self.out_cw = cw_cnt;
        } else {
            self.cw.emit(v + 1, cw_cnt);
        }
        if v == self.lo {
            self.out_acw = acw_cnt;
        } else {
            self.acw.emit(v - 1, acw_cnt);
        }
    }

    /// Merge phase (post-barrier): applies the boundary arrivals and
    /// commits the next occupied list — `O(1)` for parked segments,
    /// boundary-only for fused rounds, the full three-way stream merge
    /// for delayed rounds. Visit tracking is compiled out once the
    /// segment is fully covered.
    pub(crate) fn absorb(&mut self) {
        if self.parked {
            if self.in_cw == 0 && self.in_acw == 0 {
                // Empty segment, no boundary arrivals: the round cannot
                // change any of its state.
                return;
            }
            // Boundary agents arrived into a parked segment: the local
            // arrivals are empty, so only the boundary application below
            // runs (this holds on delayed rounds too — a segment with no
            // occupants holds nothing back).
            self.next.reset(2);
            self.commit_fused();
            return;
        }
        if self.fused {
            self.commit_fused();
            return;
        }
        self.absorb_streams();
    }

    /// Completes a fused (or parked) round: merges the two boundary
    /// arrivals into the ends of the sorted `next` list — `lo` can only
    /// be its first entry, `hi − 1` its last — and swaps it in.
    fn commit_fused(&mut self) {
        let track = self.unvisited > 0;
        if self.in_cw > 0 {
            if self.next.len > 0 && self.next.nodes[0] == self.lo {
                self.next.counts[0] += self.in_cw;
            } else {
                // Rare: the boundary node was not a local destination
                // (the band's edge is crossing `lo` over a gap).
                let len = self.next.len;
                self.next.nodes.copy_within(0..len, 1);
                self.next.counts.copy_within(0..len, 1);
                self.next.nodes[0] = self.lo;
                self.next.counts[0] = self.in_cw;
                self.next.len += 1;
            }
            if track {
                self.mark_visited(self.lo);
            }
        }
        if self.in_acw > 0 {
            let last = self.hi - 1;
            let len = self.next.len;
            if len > 0 && self.next.nodes[len - 1] == last {
                self.next.counts[len - 1] += self.in_acw;
            } else {
                self.next.push(last, self.in_acw);
            }
            if track {
                self.mark_visited(last);
            }
        }
        std::mem::swap(&mut self.occ_nodes, &mut self.next.nodes);
        std::mem::swap(&mut self.occ_counts, &mut self.next.counts);
        self.occ_nodes.truncate(self.next.len);
        self.occ_counts.truncate(self.next.len);
        debug_assert!(
            self.occ_nodes.windows(2).all(|w| w[0] < w[1]),
            "segment occupied list sorted"
        );
    }

    /// Stream-path merge (delayed rounds): completes the CW/ACW streams
    /// with the boundary arrivals and runs the three-way branchless merge
    /// into the next occupied list.
    fn absorb_streams(&mut self) {
        let start_c = if self.in_cw > 0 {
            self.cw.nodes[0] = self.lo;
            self.cw.counts[0] = self.in_cw;
            0
        } else {
            1
        };
        self.acw.emit(self.hi - 1, self.in_acw);
        self.acw.seal();
        self.next.reset(self.held.len + self.cw.len + self.acw.len);
        if self.unvisited > 0 {
            self.merge::<true>(start_c);
        } else {
            self.merge::<false>(start_c);
        }
        std::mem::swap(&mut self.occ_nodes, &mut self.next.nodes);
        std::mem::swap(&mut self.occ_counts, &mut self.next.counts);
        self.occ_nodes.truncate(self.next.len);
        self.occ_counts.truncate(self.next.len);
        debug_assert!(
            self.occ_nodes.windows(2).all(|w| w[0] < w[1]),
            "segment occupied list sorted"
        );
    }

    /// Three-way branchless merge of the held/CW/ACW streams: the
    /// sentinels make every head load unconditional, and each stream
    /// advances by its `head == dest` flag; `TRACK` compiles the
    /// first-visit bookkeeping in or out.
    fn merge<const TRACK: bool>(&mut self, start_c: usize) {
        let held = std::mem::take(&mut self.held);
        let cw = std::mem::take(&mut self.cw);
        let acw = std::mem::take(&mut self.acw);
        let mut next = std::mem::take(&mut self.next);
        let (mut hi, mut ci, mut ai) = (0usize, start_c, 0usize);
        loop {
            let hd = held.nodes[hi];
            let cd = cw.nodes[ci];
            let ad = acw.nodes[ai];
            let dest = hd.min(cd).min(ad);
            if dest == u32::MAX {
                break;
            }
            let take_h = u32::from(hd == dest);
            let take_c = u32::from(cd == dest);
            let take_a = u32::from(ad == dest);
            let stationary = take_h * held.counts[hi];
            let arrived = take_c * cw.counts[ci] + take_a * acw.counts[ai];
            hi += take_h as usize;
            ci += take_c as usize;
            ai += take_a as usize;
            if TRACK && arrived > 0 {
                self.mark_visited(dest);
            }
            next.push(dest, stationary + arrived);
        }
        self.held = held;
        self.cw = cw;
        self.acw = acw;
        self.next = next;
    }
}

/// The multi-agent rotor-router on the ring, partitioned into `P`
/// contiguous segments that advance in parallel and exchange boundary
/// agents at a per-round barrier: the `P`-segment case of [`RingRouter`],
/// built by [`RingRouter::segmented`], [`RingRouter::with_workers`] or
/// [`RingRouter::from_env`], and reported as `"rotor_ring_seg"`.
///
/// ```
/// use rotor_core::{init::PointerInit, placement::Placement, RingRouter, SegmentedRing};
///
/// let n = 128;
/// let starts = Placement::AllOnOne(0).positions(n, 4);
/// let dirs = PointerInit::TowardNearestAgent.ring_directions(n, &starts);
/// let mut seg = SegmentedRing::segmented(n, &starts, &dirs, 4);
/// let mut one = RingRouter::new(n, &starts, &dirs);
/// let cover = seg.run_until_covered(1_000_000).expect("covers");
/// assert_eq!(Some(cover), one.run_until_covered(1_000_000));
/// assert_eq!(seg.state(), one.state());
/// ```
pub type SegmentedRing = RingRouter;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::PointerInit;
    use crate::placement::Placement;
    use crate::CoverProcess;

    #[test]
    fn env_parsing_falls_back_to_one() {
        assert_eq!(segments_from(Some("4")), 4);
        assert_eq!(segments_from(Some(" 16 ")), 16);
        assert_eq!(segments_from(Some("0")), 1);
        assert_eq!(segments_from(Some("many")), 1);
        assert_eq!(segments_from(None), 1);
    }

    #[test]
    fn partition_covers_every_node_once() {
        for n in [3usize, 7, 16, 61] {
            for p in [2usize, 3, 4, 7, 16] {
                let starts = [0u32];
                let dirs = vec![CW; n];
                let seg = SegmentedRing::segmented(n, &starts, &dirs, p);
                let eff = seg.segment_count();
                assert!(eff <= n && eff >= 1);
                let mut next_lo = 0u32;
                for (i, g) in seg.segments.iter().enumerate() {
                    assert!(g.lo < g.hi, "non-empty segment");
                    assert_eq!(g.lo, next_lo, "segments tile the ring in order");
                    next_lo = g.hi;
                    assert_eq!(seg.seg_index(g.lo), i);
                    assert_eq!(seg.seg_index(g.hi - 1), i);
                }
                assert_eq!(next_lo, n as u32);
            }
        }
    }

    #[test]
    fn p_one_is_the_serial_path() {
        let mut seg = SegmentedRing::segmented(8, &[0], &[CW; 8], 1);
        let mut serial = RingRouter::new(8, &[0], &[CW; 8]);
        assert_eq!(seg.segment_count(), 1);
        assert_eq!(serial.segment_count(), 1);
        // Same engine, different backend labels.
        assert_eq!(seg.kind_name(), "rotor_ring_seg");
        assert_eq!(serial.kind_name(), "rotor_ring");
        for _ in 0..100 {
            seg.step();
            serial.step();
            assert_eq!(seg.state(), serial.state());
        }
    }

    #[test]
    fn seg_stream_emit_compresses_zeros() {
        let mut s = SegStream::default();
        s.reset(4);
        s.emit(3, 0);
        s.emit(5, 2);
        s.emit(7, 0);
        s.seal();
        assert_eq!(&s.nodes[..s.len], &[5, u32::MAX]);
        assert_eq!(&s.counts[..s.len], &[2, 0]);
    }

    #[test]
    fn worker_count_never_changes_results() {
        let n = 96;
        let starts = Placement::Random(11).positions(n, 7);
        let dirs = PointerInit::Random(5).ring_directions(n, &starts);
        let mut one = SegmentedRing::with_workers(n, &starts, &dirs, 4, 1);
        let mut two = SegmentedRing::with_workers(n, &starts, &dirs, 4, 2);
        assert_eq!(two.worker_count(), 2);
        for _ in 0..500 {
            one.step();
            two.step();
            assert_eq!(one.state(), two.state());
            assert_eq!(one.cover_round(), two.cover_round());
        }
    }

    #[test]
    fn covers_like_the_quadratic_band() {
        let n = 64u32;
        let starts = [0u32];
        let dirs = PointerInit::TowardNearestAgent.ring_directions(n as usize, &starts);
        let mut r = SegmentedRing::segmented(n as usize, &starts, &dirs, 4);
        let c = r.run_until_covered(10_000_000).unwrap();
        assert!(
            c >= u64::from(n * n) / 4 && c <= u64::from(4 * n * n),
            "{c}"
        );
    }
}
