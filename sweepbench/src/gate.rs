//! The correctness gate behind `failed` and `fail_share`, run outside the
//! timed region on the results of the run's warm-up pass.
//!
//! A cover run fails when it panicked, did not cover within its budget,
//! disagrees with a closed form the paper fixes, or disagrees with a
//! replay. Replays run a seeded sample of cells again on an independent
//! backend where one exists (ring cells on the general `Engine`, torus
//! cells on `Engine` against `TorusSegmented`); off-ring rotor cells
//! replay on the unbatched, unobserved runner and walk cells with the same
//! seed, which pins that observation and batching do not perturb a run.

use crate::pass::{Prepared, UnitRuns};
use crate::workload::{walk_budget, Drive};
use rotor_core::rng::splitmix64;
use rotor_sweep::{run_scenario, run_sharded_checked, ProcessKind, Scenario};
use std::collections::BTreeSet;

/// Replay roughly one cell in this many (at least one per unit).
const REPLAY_ONE_IN: u64 = 8;

/// The gate's verdict.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Cover runs checked.
    pub attempted: u64,
    /// Cover runs that failed at least one check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Failed runs over attempted runs.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A cover run: unit index, column (0 rotor, 1 walk), cell index.
type RunId = (usize, usize, usize);

/// A sampled cover run to replay, with the `(cover, rounds)` it gave.
struct Replay {
    id: RunId,
    sc: Scenario,
    kind: ProcessKind,
    budget: u64,
    got: (Option<u64>, u64),
}

fn key_hash(key: &str) -> u64 {
    key.bytes()
        .fold(0x5EED, |h, b| splitmix64(h ^ u64::from(b)))
}

/// The cells of a `count`-cell unit replayed under `seed`.
fn replay_sample(seed: u64, key: &str, count: usize) -> Vec<usize> {
    let base = splitmix64(seed ^ key_hash(key));
    let mut picked: Vec<usize> = (0..count)
        .filter(|&i| splitmix64(base ^ i as u64).is_multiple_of(REPLAY_ONE_IN))
        .collect();
    if picked.is_empty() && count > 0 {
        picked.push((base % count as u64) as usize);
    }
    picked
}

/// The replay of one cover run: its kind and budget.
fn replay_plan(p: &Prepared, column: usize, i: usize) -> (ProcessKind, u64) {
    let sc = &p.scenarios[i];
    match (column, p.spec.drive) {
        (1, _) => (ProcessKind::RandomWalk, walk_budget(sc.n)),
        (_, Drive::Sharded) => (ProcessKind::RotorGeneral, u64::MAX),
        (_, Drive::Batched { .. }) if sc.family.is_ring() => {
            (ProcessKind::RotorGeneral, p.params[i].budget)
        }
        (_, Drive::Batched { .. }) => (ProcessKind::Rotor, p.params[i].budget),
    }
}

/// Checks every cover run of a pass; `expected` gives the closed-form
/// cover of a cell where one applies.
pub fn check(
    prepared: &[Prepared],
    runs: &[UnitRuns],
    seed: u64,
    shards: usize,
    expected: impl Fn(&Scenario) -> Option<u64>,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut failed: BTreeSet<RunId> = BTreeSet::new();
    let mut fail = |id: RunId, msg: String, v: &mut Verdict| {
        failed.insert(id);
        v.problems.push(msg);
    };
    let mut replays: Vec<Replay> = Vec::new();
    for (ui, (p, r)) in prepared.iter().zip(runs).enumerate() {
        let sample = replay_sample(seed, &p.spec.key, p.scenarios.len());
        for (column, results) in [&r.rotor, &r.walks].into_iter().enumerate() {
            for (i, (sc, res)) in p.scenarios.iter().zip(results.iter()).enumerate() {
                verdict.attempted += 1;
                let id = (ui, column, i);
                let what = format!(
                    "{} cell {i} (n={} k={} seed={})",
                    p.spec.key, sc.n, sc.k, sc.seed
                );
                let oc = match res {
                    Ok(oc) => oc,
                    Err(msg) => {
                        fail(id, format!("{what}: panicked: {msg}"), &mut verdict);
                        continue;
                    }
                };
                let Some(cover) = oc.sample.cover else {
                    fail(
                        id,
                        format!("{what}: no cover within {} rounds", oc.sample.rounds),
                        &mut verdict,
                    );
                    continue;
                };
                if column == 0 {
                    if let Some(want) = expected(sc) {
                        if cover != want {
                            fail(
                                id,
                                format!("{what}: cover {cover}, closed form {want}"),
                                &mut verdict,
                            );
                        }
                    }
                }
                if sample.contains(&i) {
                    let (kind, budget) = replay_plan(p, column, i);
                    replays.push(Replay {
                        id,
                        sc: *sc,
                        kind,
                        budget,
                        got: (oc.sample.cover, oc.sample.rounds),
                    });
                }
            }
        }
    }
    let replayed = run_sharded_checked(&replays, shards, |_, r| {
        let s = run_scenario(&r.sc, r.kind, r.budget);
        (s.cover, s.rounds)
    });
    for (
        Replay {
            id, sc, kind, got, ..
        },
        again,
    ) in replays.iter().zip(replayed)
    {
        let what = format!("n={} k={} seed={}", sc.n, sc.k, sc.seed);
        match again {
            Ok(again) if again == *got => {}
            Ok(again) => fail(
                *id,
                format!("{what}: (cover, rounds) {got:?}, replay on {kind:?} {again:?}"),
                &mut verdict,
            ),
            Err(msg) => fail(
                *id,
                format!("{what}: replay on {kind:?} panicked: {msg}"),
                &mut verdict,
            ),
        }
    }
    verdict.failed = failed.len() as u64;
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{run_unit, setup, Plan};
    use crate::trace::Tracer;
    use crate::workload::{closed_form_cover, Drive, UnitSpec};
    use rotor_sweep::{GraphFamily, InitSpec, PlacementSpec, ScenarioGrid};

    fn small_units() -> Vec<UnitSpec> {
        let grid = |placement, init, seeds| ScenarioGrid {
            families: vec![GraphFamily::Ring],
            ns: vec![64],
            ks: vec![1, 4, 8],
            seed_count: seeds,
            base_seed: 9,
            placement,
            init,
        };
        vec![
            UnitSpec {
                key: "worst/n64".into(),
                grids: vec![grid(
                    PlacementSpec::AllOnOne,
                    InitSpec::TowardNearestAgent,
                    1,
                )],
                drive: Drive::Batched { walks: false },
            },
            UnitSpec {
                key: "best/n64".into(),
                grids: vec![grid(
                    PlacementSpec::EquallySpaced,
                    InitSpec::TowardNearestAgent,
                    1,
                )],
                drive: Drive::Batched { walks: false },
            },
            UnitSpec {
                key: "path/n64".into(),
                grids: vec![ScenarioGrid {
                    families: vec![GraphFamily::Path],
                    ..grid(PlacementSpec::Random, InitSpec::Random, 3)
                }],
                drive: Drive::Batched { walks: true },
            },
        ]
    }

    fn plan() -> Plan {
        Plan {
            shards: 2,
            workers: 1,
            segments: 1,
            width: 1,
        }
    }

    #[test]
    fn correct_runs_pass_and_a_wrong_expected_cover_raises_fail_share() {
        let specs = small_units();
        let (prepared, _) = setup(&specs, &Tracer::new(false));
        let runs: Vec<UnitRuns> = prepared.iter().map(|p| run_unit(p, plan())).collect();
        let ok = check(&prepared, &runs, 1, 2, closed_form_cover);
        assert_eq!(ok.attempted, 3 + 3 + 2 * 9);
        assert_eq!(ok.failed, 0, "{:?}", ok.problems);
        assert_eq!(ok.fail_share(), 0.0);
        // Off by one on every closed form: the worst k = 1 cell and the
        // best k | n cells (all three) must now fail.
        let wrong = check(&prepared, &runs, 1, 2, |sc| {
            closed_form_cover(sc).map(|c| c + 1)
        });
        assert_eq!(wrong.failed, 4, "{:?}", wrong.problems);
        assert!(wrong.fail_share() > 0.0);
    }

    #[test]
    fn a_budget_overrun_and_a_panic_fail_their_cells() {
        let specs = small_units();
        let (prepared, _) = setup(&specs, &Tracer::new(false));
        let mut runs: Vec<UnitRuns> = prepared.iter().map(|p| run_unit(p, plan())).collect();
        runs[2].walks[0] = Err("boom".into());
        if let Ok(oc) = &mut runs[2].rotor[1] {
            oc.sample.cover = None;
        }
        let v = check(&prepared, &runs, 1, 2, closed_form_cover);
        // The timed-out cell also disagrees with its replay when sampled;
        // each run counts once.
        assert_eq!(v.failed, 2, "{:?}", v.problems);
    }

    #[test]
    fn replay_sample_is_seeded_and_never_empty() {
        assert_eq!(replay_sample(3, "a", 40), replay_sample(3, "a", 40));
        assert_ne!(replay_sample(3, "a", 400), replay_sample(4, "a", 400));
        assert_eq!(replay_sample(3, "a", 1), vec![0]);
        assert!(replay_sample(3, "a", 0).is_empty());
    }
}
