//! Property test for the paper's slow-down lemma (Lemma 3): delaying
//! agents never *speeds up* exploration. For any delay schedule, the set
//! of nodes the delayed deployment has visited by round `t` is contained
//! in the undelayed deployment's visited set at round `t` — so per-vertex
//! first-visit times only ever increase under delays.
//!
//! The unit test in `delays.rs` pins one hand-picked instance; this
//! integration test sweeps deterministic *random* instances (sizes,
//! agent placements, pointer initialisations and delay schedules all
//! drawn from chained `splitmix64` streams), which is where a subtle
//! break in the coupling argument would actually show up. It runs on the
//! one-segment [`RingRouter`], on [`SegmentedRing`] at `P ∈ {2, 3, 7}`
//! with holds that straddle the segment boundaries, and on the general
//! [`Engine`] over non-ring families.
//!
//! [`SegmentedRing`]: rotor_core::SegmentedRing

#![forbid(unsafe_code)]

use rotor_core::delays::{step_engine, step_ring, DelaySchedule};
use rotor_core::init::PointerInit;
use rotor_core::rng::splitmix64;
use rotor_core::{CoverProcess, Engine, NodeId, RingRouter};
use rotor_graph::{builders, PortGraph};

/// A deterministic instance drawn from `seed`: ring size, agent starts,
/// direction bits and a random hold schedule.
struct Instance {
    n: usize,
    starts: Vec<u32>,
    dirs: Vec<u8>,
    schedule: DelaySchedule,
}

fn draw_instance(seed: u64) -> Instance {
    let mut s = splitmix64(seed);
    let mut next = || {
        s = splitmix64(s);
        s
    };
    let n = 8 + (next() % 57) as usize; // 8 ..= 64
    let k = 1 + (next() % 4) as usize; // 1 ..= 4
    let starts: Vec<u32> = (0..k).map(|_| (next() % n as u64) as u32).collect();
    let dirs: Vec<u8> = (0..n).map(|_| (next() & 1) as u8).collect();
    // Up to 6 random holds: each pins up to 3 agents at a node over a
    // random window inside the observed horizon. Holding more agents than
    // the node has is fine — the delayed step clamps to the occupancy.
    let mut schedule = DelaySchedule::new();
    for _ in 0..(next() % 7) {
        let v = (next() % n as u64) as u32;
        random_hold(&mut schedule, v, &mut next);
    }
    Instance {
        n,
        starts,
        dirs,
        schedule,
    }
}

/// Holds up to 3 agents at `v` over a random window inside the observed
/// horizon. Holding more agents than the node has is fine: the delayed
/// step clamps to the occupancy.
fn random_hold(schedule: &mut DelaySchedule, v: u32, next: &mut impl FnMut() -> u64) {
    let from = 1 + next() % 180;
    let len = 1 + next() % 40;
    let count = 1 + (next() % 3) as u32;
    schedule.hold_during(v, from..from + len, count);
}

/// Runs `plain` and `delayed` `rounds` rounds in lockstep, `delayed`
/// under `step_delayed`, and checks Lemma 3: after every round the
/// delayed visited set lies inside the plain one, and the plain run
/// covers no later than the delayed run. Returns whether the delayed run
/// ever fell behind (visited strictly fewer nodes), so callers can check
/// that their schedules bite.
fn assert_slowdown<P: CoverProcess>(
    plain: &mut P,
    delayed: &mut P,
    step_delayed: impl Fn(&mut P),
    rounds: u64,
    ctx: &str,
) -> bool {
    let mut fell_behind = false;
    for round in 1..=rounds {
        plain.step();
        step_delayed(delayed);
        for v in 0..plain.node_count() {
            assert!(
                !delayed.is_node_visited(v) || plain.is_node_visited(v),
                "{ctx}: node {v} visited by the delayed run but not the plain \
                 run at round {round}"
            );
        }
        fell_behind |= delayed.visited_count() < plain.visited_count();
    }
    // Lemma 3 in terms of cover: if the delayed run covered within the
    // horizon, the plain run covered no later.
    if let Some(d) = delayed.cover_round() {
        let p = plain
            .cover_round()
            .expect("plain run covers whenever the delayed run does");
        assert!(p <= d, "{ctx}: plain cover {p} after delayed cover {d}");
    }
    fell_behind
}

#[test]
fn random_delay_schedules_never_speed_up_ring_exploration() {
    for trial in 0..50u64 {
        let inst = draw_instance(0x05DE_1A75 ^ trial);
        let mut plain = RingRouter::new(inst.n, &inst.starts, &inst.dirs);
        let mut delayed = RingRouter::new(inst.n, &inst.starts, &inst.dirs);
        let ctx = format!("trial {trial} (n = {}, k = {})", inst.n, inst.starts.len());
        assert_slowdown(
            &mut plain,
            &mut delayed,
            |r| step_ring(r, &inst.schedule),
            200,
            &ctx,
        );
        // Agent conservation under arbitrary holds.
        let held: u32 = delayed.occupied().iter().map(|&(_, c)| c).sum();
        assert_eq!(held as usize, inst.starts.len(), "{ctx}");
    }
}

/// Lemma 3 on the segmented ring: besides the random holds, every
/// segment's first node `s·n/P` and the node before it get a hold, so
/// held agents sit on both sides of each boundary exchange.
#[test]
fn random_delay_schedules_never_speed_up_segmented_ring_exploration() {
    for p in [2usize, 3, 7] {
        let mut bites = 0;
        for trial in 0..100u64 {
            let mut inst = draw_instance(0x5E6_1A75 ^ (trial << 8) ^ p as u64);
            let mut s = splitmix64(inst.n as u64 ^ trial);
            let mut next = || {
                s = splitmix64(s);
                s
            };
            for seg in 0..p {
                let first = (seg * inst.n / p) as u32;
                let before = (first + inst.n as u32 - 1) % inst.n as u32;
                random_hold(&mut inst.schedule, first, &mut next);
                random_hold(&mut inst.schedule, before, &mut next);
            }
            let mut plain = RingRouter::segmented(inst.n, &inst.starts, &inst.dirs, p);
            let mut delayed = plain.clone();
            let ctx = format!(
                "P = {p}, trial {trial} (n = {}, k = {})",
                inst.n,
                inst.starts.len()
            );
            let behind = assert_slowdown(
                &mut plain,
                &mut delayed,
                |r| step_ring(r, &inst.schedule),
                200,
                &ctx,
            );
            bites += usize::from(behind);
            let held: u32 = delayed.occupied().iter().map(|&(_, c)| c).sum();
            assert_eq!(held as usize, inst.starts.len(), "{ctx}: agents conserved");
        }
        assert!(bites > 0, "P = {p}: no schedule ever delayed exploration");
    }
}

/// One random non-ring graph per trial, cycling through the torus, a
/// random 3- or 4-regular graph, the binary tree, the complete graph, the
/// lollipop and the star, at small sizes.
fn draw_graph(trial: u64, next: &mut impl FnMut() -> u64) -> (&'static str, PortGraph) {
    let mut pick = |lo: u64, hi: u64| (lo + next() % (hi - lo + 1)) as usize;
    match trial % 6 {
        0 => ("torus", builders::torus(pick(3, 8), pick(3, 8))),
        1 => {
            let d = pick(3, 4);
            let n = 2 * pick(4, 20);
            ("random_regular", builders::random_regular(n, d, next()))
        }
        2 => ("binary_tree", builders::binary_tree(pick(3, 63))),
        3 => ("complete", builders::complete(pick(3, 16))),
        4 => ("lollipop", builders::lollipop(pick(3, 8), pick(1, 12))),
        _ => ("star", builders::star(pick(3, 32))),
    }
}

/// Lemma 3 on the general engine off the ring. Holds land on random nodes
/// and on the agents' start nodes, where agents are sure to be at first.
#[test]
fn random_delay_schedules_never_speed_up_engine_exploration() {
    let mut bites = 0;
    for trial in 0..300u64 {
        let mut s = splitmix64(0xE46_1A75 ^ trial);
        let mut next = || {
            s = splitmix64(s);
            s
        };
        let (family, g) = draw_graph(trial, &mut next);
        let n = g.node_count() as u64;
        let k = 1 + (next() % 6) as usize;
        let starts: Vec<NodeId> = (0..k).map(|_| NodeId::new((next() % n) as u32)).collect();
        let init = PointerInit::Random(next());
        let mut schedule = DelaySchedule::new();
        for start in &starts {
            random_hold(&mut schedule, start.index() as u32, &mut next);
        }
        for _ in 0..(next() % 7) {
            let v = (next() % n) as u32;
            random_hold(&mut schedule, v, &mut next);
        }
        let mut plain = Engine::new(&g, &starts, &init);
        let mut delayed = Engine::new(&g, &starts, &init);
        let ctx = format!("trial {trial} ({family}, n = {n}, k = {k})");
        let behind = assert_slowdown(
            &mut plain,
            &mut delayed,
            |e| step_engine(e, &schedule),
            250,
            &ctx,
        );
        bites += usize::from(behind);
        let held: u32 = delayed
            .occupied()
            .iter()
            .map(|&v| delayed.agents_at(NodeId::new(v)))
            .sum();
        assert_eq!(held as usize, k, "{ctx}: agents conserved");
    }
    assert!(bites > 0, "no schedule ever delayed exploration");
}

#[test]
fn empty_schedule_is_exactly_the_undelayed_process() {
    for trial in 0..10u64 {
        let inst = draw_instance(0xE4_17 ^ trial);
        let empty = DelaySchedule::new();
        let mut plain = RingRouter::new(inst.n, &inst.starts, &inst.dirs);
        let mut delayed = RingRouter::new(inst.n, &inst.starts, &inst.dirs);
        for _ in 0..100 {
            plain.step();
            step_ring(&mut delayed, &empty);
        }
        assert_eq!(plain.state(), delayed.state(), "trial {trial}");
        assert_eq!(plain.cover_round(), delayed.cover_round());
    }
}
