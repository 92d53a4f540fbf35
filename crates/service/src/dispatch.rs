//! The `auto` router-selection policy.
//!
//! §V of the paper (and the committed benchmark matrix) splits routing
//! workloads into three regimes with different winners: block-local
//! instances (the locality-aware router's home turf), overlapping-window
//! instances (where approximate token swapping is ahead), and global
//! instances (where the hybrid clamp — locality-aware ⊓ naive — is the
//! safe pick). This module classifies a job into one of those regimes
//! from features that cost `O(n)` to compute (one displacement pass and
//! one walk over the cycles) — orders of magnitude less than
//! trial-routing every candidate.

use qroute_core::RouterKind;
use qroute_perm::metrics::{self, Displacement};
use qroute_perm::Permutation;
use qroute_topology::{Grid, Topology};

/// Cheap instance features the policy keys off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceFeatures {
    /// Sum of L1 displacements over all tokens.
    pub total_displacement: usize,
    /// Largest single-token L1 displacement.
    pub max_displacement: usize,
    /// Number of tokens that move at all (the permutation's support
    /// size) — the density signal behind the pathfinder regime.
    pub moved_tokens: usize,
    /// `metrics::block_locality_score`: 1 − max cycle spread / diameter.
    pub block_locality_score: f64,
    /// L1 diameter of the grid.
    pub diameter: usize,
}

/// Compute the feature vector of an instance: one displacement pass and
/// one walk over the cycles, both `O(n)`.
pub fn features(grid: Grid, pi: &Permutation) -> InstanceFeatures {
    features_from(grid, pi, Displacement::of(grid, pi))
}

/// [`features`] from a displacement pass the caller already made.
fn features_from(grid: Grid, pi: &Permutation, d: Displacement) -> InstanceFeatures {
    InstanceFeatures {
        total_displacement: d.total,
        max_displacement: d.max,
        moved_tokens: d.moved,
        block_locality_score: metrics::block_locality_score(grid, pi),
        diameter: (grid.rows() - 1) + (grid.cols() - 1),
    }
}

/// Block-locality score at or above which an instance counts as
/// block-local (every cycle confined to a quarter-diameter region).
pub const LOCAL_SCORE_THRESHOLD: f64 = 0.75;

/// A permutation moving at most this fraction of its tokens counts as a
/// sparse partial permutation — the pathfinder regime, checked *before*
/// block locality because a handful of local 2-cycles is still cheaper
/// per token than any full-grid matching sweep.
pub const SPARSE_SUPPORT_FRACTION: f64 = 0.25;

/// Resolve `auto` to a concrete router for one instance:
///
/// * identity → the paper's locality-aware router (free either way);
/// * sparse partial permutation (support ≤ [`SPARSE_SUPPORT_FRACTION`]
///   of the tokens) → the pathfinder router, whose negotiated per-token
///   search pays per moved token instead of per grid sweep;
/// * block-local (score ≥ [`LOCAL_SCORE_THRESHOLD`]) → the paper's
///   locality-aware router;
/// * small average displacement (≤ 2 per token) or mid-range
///   displacement (`2 · max ≤ diameter`, the overlapping-window
///   signature) → approximate token swapping;
/// * global otherwise → the hybrid clamp, never deeper than the naive
///   3-phase bound.
///
/// Deterministic per instance, so `auto` jobs stay byte-reproducible.
pub fn select_router(grid: Grid, pi: &Permutation) -> RouterKind {
    select_router_from(grid, pi, Displacement::of(grid, pi))
}

/// [`select_router`] from a displacement pass the caller already made (the
/// engine shares it with the depth lower bound).
pub(crate) fn select_router_from(grid: Grid, pi: &Permutation, d: Displacement) -> RouterKind {
    let f = features_from(grid, pi, d);
    let picked = if f.max_displacement == 0 {
        RouterKind::locality_aware()
    } else if (f.moved_tokens as f64) <= SPARSE_SUPPORT_FRACTION * pi.len() as f64 {
        RouterKind::pathfinder()
    } else if f.block_locality_score >= LOCAL_SCORE_THRESHOLD {
        RouterKind::locality_aware()
    } else if f.total_displacement <= 2 * pi.len() || 2 * f.max_displacement <= f.diameter {
        RouterKind::Ats
    } else {
        RouterKind::hybrid()
    };
    qroute_obs::trace::event(
        "dispatch.auto",
        &[
            ("picked", qroute_obs::FieldValue::Str(picked.label())),
            (
                "total_displacement",
                qroute_obs::FieldValue::U64(f.total_displacement as u64),
            ),
            (
                "max_displacement",
                qroute_obs::FieldValue::U64(f.max_displacement as u64),
            ),
            (
                "moved_tokens",
                qroute_obs::FieldValue::U64(f.moved_tokens as u64),
            ),
            (
                "block_locality_score",
                qroute_obs::FieldValue::F64(f.block_locality_score),
            ),
            ("diameter", qroute_obs::FieldValue::U64(f.diameter as u64)),
        ],
    );
    picked
}

/// [`select_router`] generalized over a [`Topology`]: full grids go
/// through the feature-based policy; every other topology picks between
/// the two topology-generic parallel routers — pathfinder for sparse
/// partial permutations (support ≤ [`SPARSE_SUPPORT_FRACTION`]),
/// approximate token swapping otherwise. Deterministic per instance,
/// like [`select_router`].
pub fn select_router_on(topology: &Topology, pi: &Permutation) -> RouterKind {
    match topology.as_grid() {
        Some(grid) => select_router(grid, pi),
        None => {
            let moved = pi.support_size();
            let picked = if moved > 0 && (moved as f64) <= SPARSE_SUPPORT_FRACTION * pi.len() as f64
            {
                RouterKind::pathfinder()
            } else {
                RouterKind::Ats
            };
            qroute_obs::trace::event(
                "dispatch.auto",
                &[
                    ("picked", qroute_obs::FieldValue::Str(picked.label())),
                    ("moved_tokens", qroute_obs::FieldValue::U64(moved as u64)),
                ],
            );
            picked
        }
    }
}

/// The feature and lower-bound scans this module and the engine replaced,
/// kept verbatim as differential references: all-pairs cycle spreads over
/// a materialized cycle list, and one pass per displacement statistic.
#[cfg(test)]
mod reference {
    use qroute_perm::Permutation;
    use qroute_topology::Grid;

    pub fn cycle_spread(grid: Grid, cycle: &[usize]) -> usize {
        let mut best = 0;
        for (k, &u) in cycle.iter().enumerate() {
            for &v in &cycle[k + 1..] {
                best = best.max(grid.dist(u, v));
            }
        }
        best
    }

    pub fn max_cycle_spread(grid: Grid, p: &Permutation) -> usize {
        p.cycles(false)
            .iter()
            .map(|c| cycle_spread(grid, c))
            .max()
            .unwrap_or(0)
    }

    pub fn block_locality_score(grid: Grid, p: &Permutation) -> f64 {
        let diameter = (grid.rows() - 1) + (grid.cols() - 1);
        if diameter == 0 {
            return 1.0;
        }
        1.0 - max_cycle_spread(grid, p) as f64 / diameter as f64
    }

    pub fn total_displacement(grid: Grid, p: &Permutation) -> usize {
        assert_eq!(grid.len(), p.len());
        (0..p.len()).map(|v| grid.dist(v, p.apply(v))).sum()
    }

    pub fn max_displacement(grid: Grid, p: &Permutation) -> usize {
        assert_eq!(grid.len(), p.len());
        (0..p.len())
            .map(|v| grid.dist(v, p.apply(v)))
            .max()
            .unwrap_or(0)
    }

    pub fn depth_lower_bound(grid: Grid, p: &Permutation) -> usize {
        let n = p.len();
        if n == 0 {
            return 0;
        }
        let (total, maxd) = (total_displacement(grid, p), max_displacement(grid, p));
        let per_layer = 2 * (n / 2);
        let volume_bound = if per_layer == 0 {
            0
        } else {
            total.div_ceil(per_layer)
        };
        maxd.max(volume_bound)
    }

    pub fn features(grid: Grid, pi: &Permutation) -> super::InstanceFeatures {
        super::InstanceFeatures {
            total_displacement: total_displacement(grid, pi),
            max_displacement: max_displacement(grid, pi),
            moved_tokens: pi.support_size(),
            block_locality_score: block_locality_score(grid, pi),
            diameter: (grid.rows() - 1) + (grid.cols() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{generate_class, RouteJob, RouterSpec};
    use qroute_perm::generators;

    const CLASSES: [&str; 7] = [
        "random",
        "block2",
        "block4",
        "overlap4s2",
        "overlap8s4",
        "skinny",
        "sparse-pairs",
    ];

    /// Every scan the submit path makes of one grid instance agrees with
    /// its replaced reference: each cycle's spread, the maximum spread,
    /// the features field by field (the score bit for bit), the lower
    /// bound, and the router and bound `plan_route` derives from its one
    /// shared displacement pass.
    fn assert_scans_match(grid: Grid, pi: &Permutation, what: &str) {
        for cycle in pi.cycles(true) {
            assert_eq!(
                metrics::cycle_spread(grid, &cycle),
                reference::cycle_spread(grid, &cycle),
                "{what}: cycle {cycle:?}"
            );
        }
        assert_eq!(
            metrics::max_cycle_spread(grid, pi),
            reference::max_cycle_spread(grid, pi),
            "{what}"
        );
        let (got, want) = (features(grid, pi), reference::features(grid, pi));
        assert_eq!(got.total_displacement, want.total_displacement, "{what}");
        assert_eq!(got.max_displacement, want.max_displacement, "{what}");
        assert_eq!(got.moved_tokens, want.moved_tokens, "{what}");
        assert_eq!(
            got.block_locality_score.to_bits(),
            want.block_locality_score.to_bits(),
            "{what}"
        );
        assert_eq!(got.diameter, want.diameter, "{what}");
        let bound = reference::depth_lower_bound(grid, pi);
        assert_eq!(metrics::depth_lower_bound(grid, pi), bound, "{what}");
        if grid.rows() == grid.cols() {
            let job = RouteJob::explicit(grid.rows(), RouterSpec::Auto, pi);
            let plan = crate::engine::plan_route(&job, &RouterSpec::Auto).expect("grid jobs plan");
            assert_eq!(plan.lower_bound, bound, "{what}");
            assert_eq!(
                format!("{:?}", plan.router),
                format!("{:?}", select_router(grid, pi)),
                "{what}"
            );
        }
    }

    #[test]
    fn submit_scans_match_the_replaced_references_on_every_class() {
        let mut shapes: Vec<Grid> = (1..=24).map(|s| Grid::new(s, s)).collect();
        shapes.extend(
            [(1, 7), (2, 9), (3, 16), (5, 4), (7, 24), (12, 5), (17, 3)]
                .map(|(r, c)| Grid::new(r, c)),
        );
        for grid in shapes {
            for class in CLASSES {
                for seed in 0..2 {
                    let pi = generate_class(grid, class, seed).expect("class labels parse");
                    assert_scans_match(grid, &pi, &format!("{class} {grid:?} seed {seed}"));
                }
            }
        }
        for side in [25, 31, 32, 40, 48] {
            let grid = Grid::new(side, side);
            for seed in 0..2 {
                let pi = generators::random(grid.len(), seed);
                assert_scans_match(grid, &pi, &format!("random {side} seed {seed}"));
            }
        }
    }

    #[test]
    fn cycle_spread_is_the_larger_of_the_two_diagonal_ranges() {
        // Anti-diagonal corners: the `i + j` range is 0 and only `i − j`
        // sees the spread; main-diagonal corners the other way round.
        let grid = Grid::new(5, 7);
        let anti = [grid.index(0, 6), grid.index(4, 2)];
        assert_eq!(metrics::cycle_spread(grid, &anti), 8);
        let main = [grid.index(0, 0), grid.index(4, 6)];
        assert_eq!(metrics::cycle_spread(grid, &main), 10);
        assert_eq!(metrics::cycle_spread(grid, &[]), 0);
        assert_eq!(metrics::cycle_spread(grid, &[grid.index(2, 3)]), 0);
    }

    #[test]
    fn identity_and_tiny_grids_pick_locality_aware() {
        let grid = Grid::new(1, 1);
        assert_eq!(
            select_router(grid, &Permutation::identity(1)).label(),
            "locality-aware"
        );
        let grid = Grid::new(8, 8);
        assert_eq!(
            select_router(grid, &Permutation::identity(64)).label(),
            "locality-aware"
        );
    }

    #[test]
    fn block_local_instances_pick_locality_aware() {
        let grid = Grid::new(16, 16);
        for seed in 0..5 {
            let pi = generators::block_local(grid, 4, 4, seed);
            assert_eq!(
                select_router(grid, &pi).label(),
                "locality-aware",
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sparse_instances_pick_pathfinder() {
        let grid = Grid::new(16, 16);
        // 8 moved tokens out of 256: per-token search pays per token,
        // regardless of how block-local the pairs happen to be.
        for seed in 0..5 {
            let pi = generators::sparse_random(grid.len(), 8, seed);
            assert_eq!(
                select_router(grid, &pi).label(),
                "pathfinder",
                "seed {seed}"
            );
            let pairs = generators::sparse_pairs(grid, 8, 4, seed);
            assert_eq!(
                select_router(grid, &pairs).label(),
                "pathfinder",
                "local pairs seed {seed}"
            );
        }
        // Right at the density boundary: 64 of 256 still sparse, 65 not.
        let at = generators::sparse_random(grid.len(), 64, 1);
        assert_eq!(select_router(grid, &at).label(), "pathfinder");
        let above = generators::sparse_random(grid.len(), 65, 1);
        assert_ne!(select_router(grid, &above).label(), "pathfinder");
    }

    #[test]
    fn global_random_instances_pick_hybrid() {
        let grid = Grid::new(16, 16);
        for seed in 0..5 {
            let pi = generators::random(grid.len(), seed);
            assert_eq!(select_router(grid, &pi).label(), "hybrid", "seed {seed}");
        }
    }

    #[test]
    fn non_grid_topologies_split_between_ats_and_pathfinder() {
        let topology = Topology::heavy_hex(4, 4);
        let pi = generators::random(topology.len(), 0);
        assert_eq!(select_router_on(&topology, &pi).label(), "ats");
        // A sparse instance on the same topology goes to pathfinder, and
        // the identity stays with ATS (both are free on it).
        let sparse = generators::sparse_random(topology.len(), 4, 0);
        assert_eq!(select_router_on(&topology, &sparse).label(), "pathfinder");
        let id = Permutation::identity(topology.len());
        assert_eq!(select_router_on(&topology, &id).label(), "ats");
        // A full grid goes through the regular policy.
        let pi = generators::random(64, 0);
        assert_eq!(
            select_router_on(&Topology::grid(8, 8), &pi).label(),
            select_router(Grid::new(8, 8), &pi).label()
        );
    }

    #[test]
    fn policy_matches_features() {
        // The policy is a pure function of the features — spot-check that
        // the three branches are each reachable and consistent.
        let grid = Grid::new(12, 12);
        let mut labels = std::collections::BTreeSet::new();
        for seed in 0..8 {
            for pi in [
                generators::block_local(grid, 3, 3, seed),
                generators::overlapping_blocks(grid, 4, 4, 2, 2, seed),
                generators::random(grid.len(), seed),
                generators::sparse_random(grid.len(), 6, seed),
            ] {
                let f = features(grid, &pi);
                let got = select_router(grid, &pi).label();
                let expect = if f.max_displacement == 0 {
                    "locality-aware"
                } else if (f.moved_tokens as f64) <= SPARSE_SUPPORT_FRACTION * pi.len() as f64 {
                    "pathfinder"
                } else if f.block_locality_score >= LOCAL_SCORE_THRESHOLD {
                    "locality-aware"
                } else if f.total_displacement <= 2 * pi.len()
                    || 2 * f.max_displacement <= f.diameter
                {
                    "ats"
                } else {
                    "hybrid"
                };
                assert_eq!(got, expect);
                labels.insert(got);
            }
        }
        assert!(
            labels.len() >= 2,
            "workloads exercise multiple branches: {labels:?}"
        );
    }
}
