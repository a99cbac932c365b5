//! One pass over a workload's sweep: set-up (scenario expansion and every
//! cell's budget), then the cover runs.
//!
//! The untraced sweep calls the public entry points the campaigns call
//! (`run_scenarios_batched`, `run_sharded` + `run_scenario`), so what it
//! times is what a campaign pays. The traced sweep drives the same cells
//! through the public functions those entry points are made of, with a
//! span around each call, because spans can only be recorded from outside
//! the library: it cuts the same unit queue, fans it over
//! `run_sharded_checked`, and builds and runs the same engines. Both
//! produce bit-identical covers (checked every traced run).

use crate::trace::{Ctx, Tracer, Work};
use crate::workload::{
    edges_of, lockin_bound, params_for, sharded_kind, walk_budget, Drive, UnitSpec,
};
use rotor_core::domains::DomainSampler;
use rotor_core::rng::{stream, STREAM_WALK};
use rotor_core::{
    BatchRing, CoverProcess, Engine, LaneSpec, NodeId, SegmentedRing, SegmentedTorus,
};
use rotor_sweep::{
    run_scenario, run_scenarios_batched, run_sharded, run_sharded_checked, BatchParams,
    CoverSample, GraphFamily, ObservedCover, ProcessKind, Scenario,
};
use rotor_walks::ParallelWalk;

/// The execution plan every sweep call of a run uses.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Sweep shard threads.
    pub shards: usize,
    /// Segment worker threads per shard.
    pub workers: usize,
    /// Segment count `P` of the segmented backends.
    pub segments: usize,
    /// Batch width `W` of the batched ring driver.
    pub width: usize,
}

/// A unit after set-up: its cells and, for batched units, each cell's
/// budget and stride.
pub struct Prepared<'a> {
    /// The unit this was prepared from.
    pub spec: &'a UnitSpec,
    /// Expanded cells, in grid order.
    pub scenarios: Vec<Scenario>,
    /// Per-cell run parameters (empty for sharded units).
    pub params: Vec<BatchParams>,
}

/// Set-up of one pass: expands every unit's grids and, for batched units,
/// derives every cell's budget and stride serially, as `family-speedup`
/// does. Returns the prepared units and the graph edges built.
pub fn setup<'a>(specs: &'a [UnitSpec], tracer: &Tracer) -> (Vec<Prepared<'a>>, u64) {
    let mut edges = 0;
    let prepared = specs
        .iter()
        .map(|spec| {
            let scenarios: Vec<Scenario> = spec
                .grids
                .iter()
                .flat_map(|g| tracer.span("sweep.scenario", 0, |_| g.scenarios()))
                .collect();
            let params = match spec.drive {
                Drive::Batched { .. } => scenarios
                    .iter()
                    .map(|sc| {
                        let (bound, built) = lockin_bound(sc, tracer);
                        edges += built;
                        params_for(bound)
                    })
                    .collect(),
                Drive::Sharded => Vec::new(),
            };
            Prepared {
                spec,
                scenarios,
                params,
            }
        })
        .collect();
    (prepared, edges)
}

/// The cover runs of one unit: the rotor column, and the walk column when
/// the unit has one. A cell that panicked is `Err` with the message.
pub struct UnitRuns {
    /// Rotor (or segmented-backend) results, in cell order.
    pub rotor: Vec<Result<ObservedCover, String>>,
    /// Random-walk results, in cell order (empty without a walk column).
    pub walks: Vec<Result<ObservedCover, String>>,
}

fn unobserved(sample: CoverSample) -> ObservedCover {
    ObservedCover {
        sample,
        domain_samples: Vec::new(),
    }
}

/// Looks a cell's precomputed parameters up by its seed, as the campaign's
/// `run_scenarios_batched` closure does.
fn params_of(p: &Prepared, sc: &Scenario) -> BatchParams {
    let i = p
        .scenarios
        .iter()
        .position(|s| s.seed == sc.seed)
        .expect("scenario from this unit");
    p.params[i]
}

/// Runs a unit through the campaigns' public entry points.
pub fn run_unit(p: &Prepared, plan: Plan) -> UnitRuns {
    let sc = &p.scenarios;
    match p.spec.drive {
        Drive::Batched { walks } => {
            let rotor = run_scenarios_batched(sc, plan.shards, plan.width, |s| params_of(p, s));
            let walks = if walks {
                run_sharded(sc, plan.shards, |_, s| {
                    unobserved(run_scenario(s, ProcessKind::RandomWalk, walk_budget(s.n)))
                })
            } else {
                Vec::new()
            };
            UnitRuns {
                rotor: rotor.into_iter().map(Ok).collect(),
                walks: walks.into_iter().map(Ok).collect(),
            }
        }
        Drive::Sharded => UnitRuns {
            rotor: run_sharded(sc, plan.shards, |_, s| {
                Ok(unobserved(run_scenario(s, sharded_kind(s), u64::MAX)))
            }),
            walks: Vec::new(),
        },
    }
}

/// One entry of the batched driver's queue: a run of contiguous
/// same-`(n, k)` ring cells, or one cell run serially.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum QueueUnit {
    Batch { start: usize, len: usize },
    Serial { index: usize },
}

/// The batched driver's unit queue: maximal runs of contiguous same-shape
/// ring cells cut into batches of at most `width`, every other cell
/// serial. `rotor_sweep::batch::unit_count` pins the count.
fn queue(scenarios: &[Scenario], width: usize) -> Vec<QueueUnit> {
    let width = width.max(1);
    let mut units = Vec::new();
    let mut i = 0;
    while i < scenarios.len() {
        let sc = &scenarios[i];
        if !sc.family.is_ring() {
            units.push(QueueUnit::Serial { index: i });
            i += 1;
            continue;
        }
        let end = scenarios[i..]
            .iter()
            .position(|s| !s.family.is_ring() || (s.n, s.k) != (sc.n, sc.k))
            .map_or(scenarios.len(), |off| i + off);
        while i < end {
            let len = (end - i).min(width);
            units.push(QueueUnit::Batch { start: i, len });
            i += len;
        }
    }
    units
}

fn record_run(ctx: &mut Ctx, k: usize, rounds: u64, cover: Option<u64>) {
    ctx.work.k = k as u64;
    ctx.work.rounds = rounds;
    ctx.work.moves = k as u64 * rounds;
    ctx.work.cells = 1;
    ctx.work.covered = u64::from(cover.is_some());
}

fn sample_of(sc: &Scenario, cover: Option<u64>, rounds: u64, backend: &'static str) -> CoverSample {
    CoverSample {
        n: sc.n,
        k: sc.k,
        seed_index: sc.seed_index,
        seed: sc.seed,
        cover,
        rounds,
        nanos: 0,
        backend,
    }
}

fn agent_ids(positions: &[u32]) -> Vec<NodeId> {
    positions.iter().map(|&v| NodeId::new(v)).collect()
}

/// A cell's graph, built inside a `graph.build` span.
fn traced_graph(sc: &Scenario, tracer: &Tracer) -> rotor_graph::PortGraph {
    tracer.span("graph.build", sc.seed, |ctx| {
        let g = sc.graph();
        ctx.work.edges = g.edge_count() as u64;
        g
    })
}

/// Initial pointers of a non-ring cell, as the runners derive them.
fn pointers(sc: &Scenario, g: &rotor_graph::PortGraph, ids: &[NodeId]) -> Vec<u32> {
    sc.init.pointer_init(sc.seed).pointers(g, ids)
}

fn batch_unit(
    p: &Prepared,
    start: usize,
    len: usize,
    tracer: &Tracer,
) -> Vec<(usize, ObservedCover)> {
    let cells = &p.scenarios[start..start + len];
    let params = p.params[start];
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
    let (batch, samples) = tracer.span("core.batchring", start as u64, |ctx| {
        let mut batch = BatchRing::new(cells[0].n, &specs);
        let samples = batch.run_until_covered_sampled(params.budget, params.stride);
        let rounds: u64 = (0..len).map(|l| batch.lane_round(l)).sum();
        ctx.work = Work {
            k: cells[0].k as u64,
            rounds,
            moves: cells[0].k as u64 * rounds,
            samples: samples.iter().map(|s| s.len() as u64).sum(),
            cells: len as u64,
            covered: (0..len)
                .filter(|&l| batch.lane_cover_round(l).is_some())
                .count() as u64,
            ..Work::default()
        };
        (batch, samples)
    });
    samples
        .into_iter()
        .enumerate()
        .map(|(l, domain_samples)| {
            let sample = sample_of(
                &cells[l],
                batch.lane_cover_round(l),
                batch.lane_round(l),
                "rotor_ring_batch",
            );
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

fn engine_cell(sc: &Scenario, params: BatchParams, tracer: &Tracer) -> ObservedCover {
    let positions = sc.positions();
    let g = traced_graph(sc, tracer);
    let ids = agent_ids(&positions);
    let ptrs = pointers(sc, &g, &ids);
    tracer.span("core.engine", sc.seed, |ctx| {
        let mut engine = Engine::with_pointers(&g, &ids, ptrs);
        let mut sampler = DomainSampler::every(params.stride);
        let cover = engine.run_observed(params.budget, &mut sampler);
        record_run(ctx, sc.k, engine.round(), cover);
        ctx.work.samples = sampler.samples.len() as u64;
        ObservedCover {
            sample: sample_of(sc, cover, engine.round(), engine.kind_name()),
            domain_samples: sampler.samples,
        }
    })
}

fn walk_cell(sc: &Scenario, tracer: &Tracer) -> ObservedCover {
    let positions = sc.positions();
    let g = traced_graph(sc, tracer);
    let ids = agent_ids(&positions);
    tracer.span("walks", sc.seed, |ctx| {
        let mut walk = ParallelWalk::new(&g, &ids, stream(sc.seed, STREAM_WALK));
        let cover = walk.run_observed(walk_budget(sc.n), &mut |_: &ParallelWalk| {});
        record_run(ctx, sc.k, walk.round(), cover);
        unobserved(sample_of(sc, cover, walk.round(), walk.kind_name()))
    })
}

fn segmented_cell(sc: &Scenario, plan: Plan, tracer: &Tracer) -> ObservedCover {
    let positions = sc.positions();
    match sc.family {
        GraphFamily::Ring => {
            let dirs = sc.ring_directions(&positions);
            tracer.span("core.segring", sc.seed, |ctx| {
                let mut p = SegmentedRing::with_workers(
                    sc.n,
                    &positions,
                    &dirs,
                    plan.segments,
                    plan.workers,
                );
                let cover = p.run_observed(u64::MAX, &mut |_: &SegmentedRing| {});
                record_run(ctx, sc.k, p.round(), cover);
                unobserved(sample_of(sc, cover, p.round(), p.kind_name()))
            })
        }
        GraphFamily::Torus { rows, cols } => {
            let g = traced_graph(sc, tracer);
            let ids = agent_ids(&positions);
            let ptrs = pointers(sc, &g, &ids);
            tracer.span("core.segtorus", sc.seed, |ctx| {
                let mut p = SegmentedTorus::with_pointers(
                    rows,
                    cols,
                    &ids,
                    ptrs,
                    plan.segments,
                    plan.workers,
                );
                let cover = p.run_observed(u64::MAX, &mut |_: &SegmentedTorus| {});
                record_run(ctx, sc.k, p.round(), cover);
                unobserved(sample_of(sc, cover, p.round(), p.kind_name()))
            })
        }
        other => panic!("no segmented backend for {}", other.label()),
    }
}

/// `run_sharded_checked` inside a `sweep.driver` span. `f` gets the
/// driver span's id, to parent the span it opens around its cell on
/// whichever worker thread runs it.
fn traced_sharded<C: Sync, R: Send>(
    cells: &[C],
    plan: Plan,
    tracer: &Tracer,
    f: impl Fn(Option<u64>, usize, &C) -> R + Sync,
) -> Vec<Result<R, String>> {
    tracer.span("sweep.driver", 0, |driver| {
        driver.work.units = cells.len() as u64;
        let parent = Some(driver.id);
        run_sharded_checked(cells, plan.shards, |i, c| f(parent, i, c))
    })
}

/// Runs a unit through the traced replica of the campaigns' entry points.
/// Panics are contained per cell (per batch for batched ring cells).
pub fn run_unit_traced(p: &Prepared, plan: Plan, tracer: &Tracer) -> UnitRuns {
    let sc = &p.scenarios;
    match p.spec.drive {
        Drive::Batched { walks } => {
            let units = tracer.span("sweep.batch.plan", 0, |ctx| {
                let units = queue(sc, plan.width);
                ctx.work.units = units.len() as u64;
                units
            });
            let per_unit = traced_sharded(&units, plan, tracer, |parent, ui, u| match *u {
                QueueUnit::Batch { start, len } => {
                    tracer.span_in(parent, "sweep.batch", ui as u64, |_| {
                        batch_unit(p, start, len, tracer)
                    })
                }
                QueueUnit::Serial { index } => {
                    tracer.span_in(parent, "sweep.runners", ui as u64, |_| {
                        vec![(index, engine_cell(&sc[index], p.params[index], tracer))]
                    })
                }
            });
            let mut rotor: Vec<Result<ObservedCover, String>> =
                (0..sc.len()).map(|_| Err(String::new())).collect();
            for (u, r) in units.iter().zip(per_unit) {
                match r {
                    Ok(cells) => {
                        for (i, c) in cells {
                            rotor[i] = Ok(c);
                        }
                    }
                    Err(msg) => {
                        let range = match *u {
                            QueueUnit::Batch { start, len } => start..start + len,
                            QueueUnit::Serial { index } => index..index + 1,
                        };
                        for slot in &mut rotor[range] {
                            *slot = Err(msg.clone());
                        }
                    }
                }
            }
            let walks = if walks {
                traced_sharded(sc, plan, tracer, |parent, i, s| {
                    tracer.span_in(parent, "sweep.runners", i as u64, |_| walk_cell(s, tracer))
                })
            } else {
                Vec::new()
            };
            UnitRuns { rotor, walks }
        }
        Drive::Sharded => UnitRuns {
            rotor: traced_sharded(sc, plan, tracer, |parent, i, s| {
                tracer.span_in(parent, "sweep.runners", i as u64, |_| {
                    segmented_cell(s, plan, tracer)
                })
            }),
            walks: Vec::new(),
        },
    }
}

/// Deterministic work counters of one pass: two runs with the same seed
/// must print identical counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Cover runs (rotor and walk cells).
    pub cells: u64,
    /// Σ rounds simulated.
    pub rounds: u64,
    /// Σ agent moves (agents × rounds).
    pub agent_moves: u64,
    /// Graph edges built through the graph layer (set-up and runners).
    pub graph_edges: u64,
    /// §2.2 domain samples recorded.
    pub samples: u64,
    /// Work units of the batched driver's queues.
    pub batch_units: u64,
}

/// The counters of a pass, from its results and the edges its set-up
/// built. Runner-side graph builds follow the runners' dispatch: every
/// walk cell and every off-ring rotor cell builds its graph once (a torus
/// cell for its initial pointers; `SegmentedTorus` then builds its own
/// torus inside the kernel, which counts as kernel work).
pub fn counters(
    prepared: &[Prepared],
    runs: &[UnitRuns],
    setup_edges: u64,
    plan: Plan,
) -> Counters {
    let mut c = Counters {
        graph_edges: setup_edges,
        ..Counters::default()
    };
    for (p, r) in prepared.iter().zip(runs) {
        if matches!(p.spec.drive, Drive::Batched { .. }) {
            c.batch_units += rotor_sweep::batch::unit_count(&p.scenarios, plan.width) as u64;
        }
        for (column, results) in [("rotor", &r.rotor), ("walk", &r.walks)] {
            for (sc, res) in p.scenarios.iter().zip(results.iter()) {
                c.cells += 1;
                if column == "walk" || !sc.family.is_ring() {
                    c.graph_edges += edges_of(sc);
                }
                if let Ok(oc) = res {
                    c.rounds += oc.sample.rounds;
                    c.agent_moves += sc.k as u64 * oc.sample.rounds;
                    c.samples += oc.domain_samples.len() as u64;
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{units, Workload};

    #[test]
    fn queue_matches_the_batched_driver_unit_count() {
        let mut lists: Vec<Vec<Scenario>> = [Workload::RingSweep, Workload::GraphSweep]
            .into_iter()
            .flat_map(|w| units(w, 5))
            .map(|u| {
                u.grids
                    .iter()
                    .flat_map(rotor_sweep::ScenarioGrid::scenarios)
                    .collect()
            })
            .collect();
        // A ring run interrupted by an off-ring cell.
        let mut mixed = lists[0].clone();
        mixed[2].family = GraphFamily::Path;
        lists.push(mixed);
        for cells in &lists {
            for width in [1, 3, 64] {
                assert_eq!(
                    queue(cells, width).len(),
                    rotor_sweep::batch::unit_count(cells, width),
                    "width {width}"
                );
            }
        }
    }
}
