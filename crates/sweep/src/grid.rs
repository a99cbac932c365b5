//! Placement and pointer-init specs: the seed-bearing strategies every
//! [`Scenario`](crate::scenario::Scenario) resolves against its own seed.
//!
//! Reproducibility rule: a scenario's measurement may depend only on the
//! scenario's own fields — never on which thread ran it or in which
//! order. All randomness (random placements, random pointer inits,
//! random-walk trajectories) is derived from
//! [`Scenario::seed`](crate::scenario::Scenario::seed), which
//! [`ScenarioGrid::scenarios`](crate::scenario::ScenarioGrid::scenarios)
//! derives as a splitmix64 hash of the grid's `base_seed` and the
//! scenario's position in the enumeration, so re-running any subset of a
//! grid reproduces exactly. The tests below pin that derivation on the
//! ring lattice.

use rotor_core::init::PointerInit;
use rotor_core::placement::Placement;
use rotor_core::rng::{stream, STREAM_POINTER_INIT};

/// Agent placement strategy for a scenario (the seed-bearing variants
/// draw from the scenario seed, unlike [`Placement`] which carries its
/// own).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlacementSpec {
    /// All agents on node 0 — the worst case of Theorems 1–2.
    AllOnOne,
    /// Agents equally spaced — the best case of Theorems 3–4.
    EquallySpaced,
    /// Independent uniformly random nodes, from the scenario seed.
    Random,
}

impl PlacementSpec {
    /// The concrete [`Placement`] for a scenario with the given seed.
    pub fn placement(self, cell_seed: u64) -> Placement {
        match self {
            PlacementSpec::AllOnOne => Placement::AllOnOne(0),
            PlacementSpec::EquallySpaced => Placement::EquallySpaced { offset: 0 },
            PlacementSpec::Random => Placement::Random(cell_seed),
        }
    }
}

/// Pointer initialisation strategy for a scenario.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InitSpec {
    /// Negative initialisation (pointers toward the nearest agent).
    TowardNearestAgent,
    /// Positive initialisation (pointers away from the nearest agent).
    AwayFromNearestAgent,
    /// All pointers at the same port.
    Uniform(usize),
    /// Independent random pointers, from the scenario seed
    /// (domain-separated from the placement's stream).
    Random,
}

impl InitSpec {
    /// The concrete [`PointerInit`] for a scenario with the given seed.
    pub fn pointer_init(self, cell_seed: u64) -> PointerInit {
        match self {
            InitSpec::TowardNearestAgent => PointerInit::TowardNearestAgent,
            InitSpec::AwayFromNearestAgent => PointerInit::AwayFromNearestAgent,
            InitSpec::Uniform(p) => PointerInit::Uniform(p),
            // Separate the init's random stream from the placement's.
            InitSpec::Random => PointerInit::Random(stream(cell_seed, STREAM_POINTER_INIT)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{GraphFamily, Scenario, ScenarioGrid};

    /// The ring lattice: `ns × ks × (0..seed_count)` on the ring family.
    fn grid() -> ScenarioGrid {
        ScenarioGrid {
            families: vec![GraphFamily::Ring],
            ns: vec![32, 64],
            ks: vec![1, 2, 4],
            seed_count: 3,
            base_seed: 99,
            placement: PlacementSpec::Random,
            init: InitSpec::Random,
        }
    }

    #[test]
    fn enumeration_is_dense_and_ordered() {
        let cells = grid().scenarios();
        assert_eq!(cells.len(), 2 * 3 * 3);
        assert_eq!((cells[0].n, cells[0].k, cells[0].seed_index), (32, 1, 0));
        assert_eq!((cells[17].n, cells[17].k, cells[17].seed_index), (64, 4, 2));
        // n-major ordering
        assert!(cells.windows(2).all(|w| w[0].n <= w[1].n));
    }

    #[test]
    fn cell_seeds_are_distinct_and_reproducible() {
        let a = grid().scenarios();
        let b = grid().scenarios();
        let mut seeds: Vec<u64> = a.iter().map(|c| c.seed).collect();
        assert_eq!(seeds, b.iter().map(|c| c.seed).collect::<Vec<_>>());
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "no seed collisions");
    }

    #[test]
    fn different_base_seeds_give_different_cells() {
        let mut g2 = grid();
        g2.base_seed = 100;
        let a = grid().scenarios();
        let b = g2.scenarios();
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn adjacent_base_seeds_do_not_shift_share_streams() {
        // base 100's stream must not be base 99's stream shifted by one
        // (or any small shift) — sweeps with nearby base seeds must be
        // statistically independent repetitions.
        let mut g99 = grid();
        g99.base_seed = 99;
        let mut g100 = grid();
        g100.base_seed = 100;
        let a: Vec<u64> = g99.scenarios().iter().map(|c| c.seed).collect();
        let b: Vec<u64> = g100.scenarios().iter().map(|c| c.seed).collect();
        for shift in 0..4usize {
            assert!(
                a.iter().skip(shift).zip(&b).any(|(x, y)| x != y),
                "stream of base 100 equals base 99 shifted by {shift}"
            );
        }
    }

    #[test]
    fn positions_and_dirs_are_cell_deterministic() {
        let cells = grid().scenarios();
        for c in &cells {
            let p1 = c.positions();
            let p2 = c.positions();
            assert_eq!(p1, p2);
            assert_eq!(p1.len(), c.k);
            assert!(p1.iter().all(|&p| (p as usize) < c.n));
            assert_eq!(c.ring_directions(&p1), c.ring_directions(&p2));
        }
        // random placements actually vary across seeds (k = 1 cells may
        // coincide by chance; compare a k = 4 pair)
        let k4: Vec<&Scenario> = cells.iter().filter(|c| c.k == 4 && c.n == 64).collect();
        assert_ne!(k4[0].positions(), k4[1].positions());
    }

    #[test]
    fn deterministic_specs_ignore_seed() {
        let mk = |seed| Scenario {
            family: GraphFamily::Ring,
            n: 64,
            k: 4,
            seed_index: 0,
            seed,
            placement: PlacementSpec::AllOnOne,
            init: InitSpec::TowardNearestAgent,
        };
        assert_eq!(mk(1).positions(), mk(2).positions());
        let p = mk(1).positions();
        assert_eq!(mk(1).ring_directions(&p), mk(2).ring_directions(&p));
    }
}
