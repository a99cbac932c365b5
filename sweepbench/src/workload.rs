//! The three workloads, each a pure function of the benchmark seed, and
//! the per-cell parameters derived from them the way the campaigns derive
//! theirs.

use crate::trace::Tracer;
use rotor_core::rng::splitmix64;
use rotor_graph::algo;
use rotor_sweep::{
    BatchParams, GraphFamily, InitSpec, PlacementSpec, ProcessKind, Scenario, ScenarioGrid,
};

/// A named set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The ring traffic of `family-speedup` and the Table 1 columns: the
    /// batched ring kernel and the sweep driver, working set in cache.
    RingSweep,
    /// The off-ring traffic of `family-speedup`: graph builds and BFS
    /// diameters behind the budgets, the general engine and the walks.
    GraphSweep,
    /// Long single cover runs whose working sets exceed the L2 cache,
    /// driven the way `ring-large-n` and `torus-seg` drive them.
    LargeInstance,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::RingSweep,
        Workload::GraphSweep,
        Workload::LargeInstance,
    ];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RingSweep => "ring-sweep",
            Workload::GraphSweep => "graph-sweep",
            Workload::LargeInstance => "large-instance",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `bench` name of the report this workload assembles. The ring
    /// and graph sweeps reproduce the shape of the campaign reports their
    /// traffic comes from, so the validator applies those reports' rules;
    /// the large-instance report (ring and torus cells) matches no
    /// campaign and gets the generic rules.
    pub fn bench(self) -> &'static str {
        match self {
            Workload::RingSweep => "table1",
            Workload::GraphSweep => "general_graphs",
            Workload::LargeInstance => "large_instance",
        }
    }
}

/// How a unit's cells are driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// The rotor column through `run_scenarios_batched` (budget and stride
    /// from the `2·D·|E|` bound), plus, when `walks`, a paired random-walk
    /// column through `run_sharded` + `run_scenario` with a `64·n²` budget.
    Batched {
        /// Whether the unit carries a random-walk column.
        walks: bool,
    },
    /// `run_sharded` + `run_scenario` with the segmented backend of the
    /// cell's family and an unbounded budget.
    Sharded,
}

/// One campaign-style unit: a grid (or a short list of single-cell grids)
/// driven by one sweep call, persisted as one campaign-state unit.
#[derive(Clone, Debug)]
pub struct UnitSpec {
    /// State key and curve-label stem, e.g. `worst/n4096`.
    pub key: String,
    /// Grids expanded in set-up and concatenated into the unit's cells.
    pub grids: Vec<ScenarioGrid>,
    /// How the unit's cells are driven.
    pub drive: Drive,
}

/// Ring sizes of `ring-sweep`.
pub const RING_NS: [usize; 2] = [1024, 2048];
/// Agent counts of `ring-sweep`.
pub const RING_KS: [usize; 5] = [1, 4, 16, 64, 256];
/// Seeds per point of the random ring column.
pub const RING_SEEDS: usize = 8;
/// Graph sizes of `graph-sweep`.
pub const GRAPH_NS: [usize; 2] = [256, 1024];
/// Seeds per point of `graph-sweep`.
pub const GRAPH_SEEDS: usize = 2;

/// The off-ring families of `graph-sweep`.
pub fn graph_families() -> [GraphFamily; 5] {
    [
        GraphFamily::Path,
        GraphFamily::Star,
        GraphFamily::Complete,
        GraphFamily::BinaryTree,
        GraphFamily::RandomRegular { degree: 4 },
    ]
}

/// Derives a grid's base seed from the benchmark seed, separated per use.
fn base_seed(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt))
}

fn grid(
    family: GraphFamily,
    n: usize,
    ks: Vec<usize>,
    seed_count: usize,
    base_seed: u64,
    placement: PlacementSpec,
    init: InitSpec,
) -> ScenarioGrid {
    ScenarioGrid {
        families: vec![family],
        ns: vec![n],
        ks,
        seed_count,
        base_seed,
        placement,
        init,
    }
}

/// The units of `workload` under benchmark seed `seed`.
pub fn units(workload: Workload, seed: u64) -> Vec<UnitSpec> {
    use InitSpec::{Random as RandomInit, TowardNearestAgent};
    use PlacementSpec::{AllOnOne, EquallySpaced, Random};
    match workload {
        Workload::RingSweep => {
            let columns = [
                ("worst", AllOnOne, TowardNearestAgent, 1),
                ("best", EquallySpaced, TowardNearestAgent, 1),
                ("random", Random, RandomInit, RING_SEEDS),
            ];
            let mut out = Vec::new();
            for (ci, (column, placement, init, seeds)) in columns.into_iter().enumerate() {
                for n in RING_NS {
                    out.push(UnitSpec {
                        key: format!("{column}/n{n}"),
                        grids: vec![grid(
                            GraphFamily::Ring,
                            n,
                            RING_KS.to_vec(),
                            seeds,
                            base_seed(seed, ci as u64),
                            placement,
                            init,
                        )],
                        drive: Drive::Batched { walks: false },
                    });
                }
            }
            out
        }
        Workload::GraphSweep => {
            let mut out = Vec::new();
            for (fi, family) in graph_families().into_iter().enumerate() {
                for n in GRAPH_NS {
                    out.push(UnitSpec {
                        key: format!("{}/n{n}", family.label()),
                        grids: vec![grid(
                            family,
                            n,
                            xtask::campaign::ks_for(n),
                            GRAPH_SEEDS,
                            base_seed(seed, 0x100 + fi as u64),
                            Random,
                            RandomInit,
                        )],
                        drive: Drive::Batched { walks: true },
                    });
                }
            }
            out
        }
        Workload::LargeInstance => {
            let torus = GraphFamily::Torus {
                rows: 512,
                cols: 512,
            };
            // Sizes keep a pass near two seconds on a 2-core box while
            // every working set stays past the L2 cache. Two choices trade
            // fidelity to the campaigns for a steady per-seed cost:
            // - an all-on-one torus start costs about 2·D·|E| ≈ 2.8·10⁸
            //   agent moves at 512 × 512 whatever k is, so the torus cell
            //   takes the torus-seg campaign's random column;
            // - a random ring placement's cover time follows its largest
            //   gap and moves ±20% between seeds, so the 2^18 ring keeps
            //   random pointers on equally spaced agents (±4%).
            let cells = [
                (
                    GraphFamily::Ring,
                    1 << 20,
                    1 << 14,
                    EquallySpaced,
                    TowardNearestAgent,
                ),
                (GraphFamily::Ring, 1 << 18, 1024, EquallySpaced, RandomInit),
                (torus, 512 * 512, 1024, Random, RandomInit),
            ];
            let grids = cells
                .into_iter()
                .enumerate()
                .map(|(i, (family, n, k, placement, init))| {
                    grid(
                        family,
                        n,
                        vec![k],
                        1,
                        base_seed(seed, 0x200 + i as u64),
                        placement,
                        init,
                    )
                })
                .collect();
            vec![UnitSpec {
                key: "large".into(),
                grids,
                drive: Drive::Sharded,
            }]
        }
    }
}

/// The backend a [`Drive::Sharded`] cell runs on: the segmented engine of
/// its family, as `ring-large-n` and `torus-seg` choose them.
pub fn sharded_kind(sc: &Scenario) -> ProcessKind {
    if sc.family.is_ring() {
        ProcessKind::RotorSegmented
    } else {
        ProcessKind::TorusSegmented
    }
}

/// The `2·D·|E|` lock-in bound of a cell, derived as `family-speedup`
/// derives it: build the graph, then take the closed-form diameter where
/// the family has one and the all-pairs BFS otherwise. The ring uses its
/// closed form `2·⌊n/2⌋·n` outright (as `ring-large-n` does), so ring
/// cells build no graph. Builds and BFS calls are traced as the `graph`
/// layer; returns the bound and the edges built.
pub fn lockin_bound(sc: &Scenario, tracer: &Tracer) -> (u64, u64) {
    if sc.family.is_ring() {
        return (2 * (sc.n as u64 / 2) * sc.n as u64, 0);
    }
    let g = tracer.span("graph.build", sc.seed, |ctx| {
        let g = sc.graph();
        ctx.work.edges = g.edge_count() as u64;
        g
    });
    let diameter = match sc.family {
        GraphFamily::Path => (sc.n - 1) as u32,
        GraphFamily::Complete => 1,
        GraphFamily::Star => {
            if sc.n <= 2 {
                1
            } else {
                2
            }
        }
        _ => tracer.span("graph.diameter", sc.seed, |_| algo::diameter(&g)),
    };
    let edges = g.edge_count() as u64;
    (2 * u64::from(diameter) * edges, edges)
}

/// The campaign's run parameters for a bound: budget `4·2·D·|E|`, stride
/// `bound/4096` (at least 1).
pub fn params_for(bound: u64) -> BatchParams {
    BatchParams {
        budget: 4 * bound,
        stride: (bound / 4096).max(1),
    }
}

/// The campaign's random-walk budget, `64·n²`.
pub fn walk_budget(n: usize) -> u64 {
    64 * (n as u64) * (n as u64)
}

/// Edge count of a cell's graph, in closed form (checked against the
/// builders by the tests).
pub fn edges_of(sc: &Scenario) -> u64 {
    let n = sc.n as u64;
    match sc.family {
        GraphFamily::Ring => n,
        GraphFamily::Path | GraphFamily::Star | GraphFamily::BinaryTree => n - 1,
        GraphFamily::Complete => n * (n - 1) / 2,
        GraphFamily::Torus { rows, cols } => 2 * (rows * cols) as u64,
        GraphFamily::RandomRegular { degree } => n * degree as u64 / 2,
        GraphFamily::Hypercube { dim } => n * dim as u64 / 2,
        GraphFamily::Lollipop { clique, tail } => (clique * (clique - 1) / 2 + tail) as u64,
    }
}

/// The cover round the paper's closed forms fix, where one applies: with
/// pointers toward the nearest agent, `k` equally spaced agents with
/// `k | n` cover the ring at exactly `(n/k)(n/k − 1)/2`, and one agent
/// covers it at exactly `n(n − 1)/2` (the `k = 1` worst case).
pub fn closed_form_cover(sc: &Scenario) -> Option<u64> {
    if !sc.family.is_ring() || sc.init != InitSpec::TowardNearestAgent {
        return None;
    }
    let (n, k) = (sc.n as u64, sc.k as u64);
    match sc.placement {
        PlacementSpec::EquallySpaced if n % k == 0 => Some((n / k) * (n / k - 1) / 2),
        PlacementSpec::AllOnOne if k == 1 => Some(n * (n - 1) / 2),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(w: Workload, seed: u64) -> Vec<(u64, usize, usize)> {
        units(w, seed)
            .iter()
            .flat_map(|u| u.grids.iter().flat_map(ScenarioGrid::scenarios))
            .map(|sc| (sc.seed, sc.n, sc.k))
            .collect()
    }

    #[test]
    fn workloads_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(cells(w, 11), cells(w, 11), "{}", w.name());
            assert_ne!(cells(w, 11), cells(w, 12), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn closed_form_edges_and_ring_bound_match_the_builders() {
        let tracer = Tracer::new(false);
        for w in [Workload::GraphSweep, Workload::LargeInstance] {
            for u in units(w, 3) {
                let sc = u.grids[0].scenarios()[0];
                assert_eq!(edges_of(&sc), sc.graph().edge_count() as u64, "{}", u.key);
            }
        }
        for n in [5usize, 64, 1024] {
            let sc = units(Workload::RingSweep, 1)[0].grids[0].scenarios()[0];
            let sc = Scenario { n, ..sc };
            let g = sc.graph();
            let by_bfs = 2 * u64::from(algo::diameter(&g)) * g.edge_count() as u64;
            assert_eq!(lockin_bound(&sc, &tracer), (by_bfs, 0), "n = {n}");
        }
    }

    #[test]
    fn closed_forms_cover_the_paper_cases() {
        let ring = |n, k, placement| Scenario {
            family: GraphFamily::Ring,
            n,
            k,
            seed_index: 0,
            seed: 1,
            placement,
            init: InitSpec::TowardNearestAgent,
        };
        assert_eq!(
            closed_form_cover(&ring(1 << 20, 2048, PlacementSpec::EquallySpaced)),
            Some(130_816)
        );
        assert_eq!(
            closed_form_cover(&ring(1 << 20, 1 << 14, PlacementSpec::EquallySpaced)),
            Some(2016)
        );
        assert_eq!(
            closed_form_cover(&ring(1024, 1, PlacementSpec::AllOnOne)),
            Some(523_776)
        );
        assert_eq!(
            closed_form_cover(&ring(1024, 4, PlacementSpec::AllOnOne)),
            None
        );
        assert_eq!(
            closed_form_cover(&ring(100, 3, PlacementSpec::EquallySpaced)),
            None
        );
    }
}
