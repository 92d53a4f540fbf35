//! **`LocalGridRoute`** — the paper's locality-aware staging (Algorithm 2)
//! and, through the shared 3-phase pipeline of [`crate::grid_route`], the
//! transpose-trying main procedure (Algorithm 1).
//!
//! The naive 3-phase router decomposes the column multigraph `G[1,m]` into
//! `m` perfect matchings arbitrarily; a qubit two rows from its destination
//! may be staged at the far end of the grid (Figure 3 of the paper). The
//! locality-aware algorithm avoids this in two steps:
//!
//! 1. **Doubling window search** (lines 3–18): perfect matchings are first
//!    sought inside narrow row bands `[r, r+w]`, `w = 0, 1, 2, 4, …`, so
//!    matched qubits come from nearby rows. Because `G[1,m]` minus any set
//!    of perfect matchings stays regular, the search always completes with
//!    exactly `m` edge-disjoint perfect matchings.
//! 2. **MCBBM row assignment** (lines 19–23): matchings are assigned to
//!    staging rows by solving a maximum-cardinality *bottleneck* bipartite
//!    matching on `H(P, [m])` under the locality metric
//!    `Δ(M, r) = Σ |i_j − r| + Σ |i'_j − r|`, minimizing the worst
//!    detour any matching's qubits must take to reach their staging row.
//!
//! The staging runs on any product `F1 □ F2` with `|i − r|` replaced by
//! the distance in `F1` (row bands follow index order and do not wrap
//! around a cycle); [`crate::product_route`] routes cylinders and tori
//! with it.

use crate::grid_route::{
    algorithm1, build_column_multigraph, path_factors, route_phases, sigmas_from, LineStrategy,
    Staging,
};
use crate::product_route::FactorRouter;
use crate::schedule::RoutingSchedule;
use qroute_matching::{bottleneck_assignment, min_sum_assignment, BipartiteMultigraph, EdgeId};
use qroute_perm::Permutation;
use qroute_topology::Grid;

/// How found matchings are assigned to staging rows (line 20).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignmentStrategy {
    /// MCBBM on `H(P, [m])` minimizing the maximum `Δ(M, r)` — the paper's
    /// choice.
    #[default]
    Bottleneck,
    /// Hungarian assignment minimizing `Σ Δ(M, r)` (ablation: total
    /// instead of worst-case locality).
    MinSum,
    /// Matching `k` goes to row `k` in extraction order (ablation:
    /// windowed matchings but arbitrary assignment).
    InOrder,
}

/// How perfect matchings are searched (lines 3–18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowMode {
    /// The paper's doubling window search over row bands.
    #[default]
    Doubling,
    /// Ablation: skip banding entirely and extract all matchings from the
    /// full multigraph (locality then comes only from the row assignment).
    FullOnly,
}

/// Options for [`local_grid_route`] / [`main_procedure`].
#[derive(Debug, Clone, Copy)]
pub struct LocalRouteOptions {
    /// Row-assignment strategy (line 20).
    pub assignment: AssignmentStrategy,
    /// Matching search strategy (lines 3–18).
    pub window: WindowMode,
    /// Line routing strategy for the three phases.
    pub line: LineStrategy,
    /// Apply ASAP depth compaction to the final schedule.
    pub compact: bool,
    /// Algorithm 1: also route the transposed instance, keep the shallower.
    pub try_transpose: bool,
}

impl Default for LocalRouteOptions {
    fn default() -> LocalRouteOptions {
        LocalRouteOptions {
            assignment: AssignmentStrategy::Bottleneck,
            window: WindowMode::Doubling,
            line: LineStrategy::BestParity,
            compact: true,
            try_transpose: true,
        }
    }
}

impl LocalRouteOptions {
    /// Algorithm 2 exactly as written: bottleneck assignment, doubling
    /// windows, no compaction, no transpose (Algorithm 1 adds the
    /// transpose).
    pub fn paper() -> LocalRouteOptions {
        LocalRouteOptions {
            assignment: AssignmentStrategy::Bottleneck,
            window: WindowMode::Doubling,
            line: LineStrategy::EvenFirst,
            compact: false,
            try_transpose: false,
        }
    }
}

/// Quick necessary condition for a band to contain a perfect matching:
/// every left and every right column must be touched by at least one
/// candidate edge. Avoids a Hopcroft–Karp run on hopeless bands (the
/// common case while `w` is small).
fn band_can_match(mg: &BipartiteMultigraph, band: &[EdgeId]) -> bool {
    let n = mg.cols();
    if band.len() < n {
        return false;
    }
    let mut left = vec![false; n];
    let mut right = vec![false; n];
    let mut lc = 0;
    let mut rc = 0;
    for &id in band {
        let e = mg.edge(id);
        if !left[e.left] {
            left[e.left] = true;
            lc += 1;
        }
        if !right[e.right] {
            right[e.right] = true;
            rc += 1;
        }
    }
    lc == n && rc == n
}

/// Lines 3–18 of Algorithm 2: find `m` edge-disjoint perfect matchings of
/// the column multigraph by doubling window search. Consumes the edges of
/// `mg`; returns the matchings as edge-id vectors in discovery order.
pub fn find_local_matchings(
    grid: Grid,
    mg: &mut BipartiteMultigraph,
    window: WindowMode,
) -> Vec<Vec<EdgeId>> {
    let m = grid.rows();
    let mut found: Vec<Vec<EdgeId>> = Vec::with_capacity(m);

    if window == WindowMode::FullOnly {
        let all = mg.alive_edges();
        found = mg.extract_perfect_matchings(&all);
        assert_eq!(found.len(), m, "regular multigraph must yield m matchings");
        return found;
    }

    let mut w = 0usize;
    while found.len() < m {
        // One cooperative cancellation probe per window doubling.
        crate::budget::checkpoint();
        // Slide the window over every starting row instead of tiling the
        // rows into disjoint bands. Disjoint tiling is never aligned with
        // the workload's own locality structure (for 4-row-local
        // permutations it proposes [0,2],[3,5],… and [0,4],[5,9],… but
        // never [0,3],[4,7],…), which strands edges until the full-width
        // sweeps and produces wide, non-local matchings. Overlapping
        // starts cost extra `band_can_match` probes (cheap, and most
        // windows fail it) but let every aligned row band be tried.
        for r in 0..m {
            let hi = (r + w).min(m - 1);
            let band = mg.band_edges((r, hi));
            if band_can_match(mg, &band) {
                found.extend(mg.extract_perfect_matchings(&band));
            }
        }
        // Once the window covers all rows the remaining graph is regular,
        // so the final sweep must finish; the guard below documents the
        // invariant rather than handling a reachable state.
        if w >= m && found.len() < m {
            unreachable!("full-width window must exhaust the regular multigraph");
        }
        w = if w == 0 { 1 } else { w * 2 };
    }
    found
}

/// Redistribute parallel edges between matchings to concentrate each
/// matching's rows.
///
/// A perfect matching fixes which `(j, j')` column pairs it uses, but when
/// several qubits share a column pair (parallel edges), *which* qubit each
/// matching takes is a free choice — and the greedy extraction makes it
/// arbitrarily, which is what lets late, wide-window matchings span nearly
/// the whole grid. Swapping parallel edges between two matchings keeps
/// both perfectly matched (same column pairs), so within every parallel
/// class the rows can be reassigned at will. This pass repeatedly sorts
/// each class's rows against its user matchings' median rows until fixed
/// point, pulling every matching toward one compact row band and therefore
/// lowering the `Δ` its staging row must pay.
fn rebalance_parallel_edges(mg: &BipartiteMultigraph, matchings: &mut [Vec<EdgeId>]) {
    use std::collections::HashMap;

    /// Slots `(matching index, position)` sharing a `(left, right)` column
    /// pair, plus the interchangeable edge ids currently filling them.
    type ParallelClass = (Vec<(usize, usize)>, Vec<EdgeId>);

    // Parallel classes: all extracted edges grouped by (left, right).
    let mut classes: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for (k, matching) in matchings.iter().enumerate() {
        for (pos, &id) in matching.iter().enumerate() {
            let e = mg.edge(id);
            classes.entry((e.left, e.right)).or_default().push((k, pos));
        }
    }
    let mut classes: Vec<ParallelClass> = {
        let mut v: Vec<_> = classes.into_values().collect();
        // Deterministic processing order.
        v.sort_unstable_by_key(|users| users[0]);
        v.into_iter()
            .map(|users| {
                let ids = users.iter().map(|&(k, pos)| matchings[k][pos]).collect();
                (users, ids)
            })
            .collect()
    };

    let median = |rows: &mut Vec<usize>| -> usize {
        rows.sort_unstable();
        rows[rows.len() / 2]
    };
    let center_of = |matching: &[EdgeId]| -> usize {
        let mut rows: Vec<usize> = matching
            .iter()
            .flat_map(|&id| {
                let e = mg.edge(id);
                [e.src_row, e.dst_row]
            })
            .collect();
        median(&mut rows)
    };

    for _ in 0..8 {
        let centers: Vec<usize> = matchings.iter().map(|m| center_of(m)).collect();
        let mut changed = false;
        for (users, ids) in &mut classes {
            if ids.len() < 2 {
                continue;
            }
            // Monotone pairing: class rows in row order against user
            // matchings in center order.
            let mut by_center: Vec<(usize, usize)> = users.clone();
            by_center.sort_unstable_by_key(|&(k, _)| (centers[k], k));
            ids.sort_unstable_by_key(|&id| {
                let e = mg.edge(id);
                (e.src_row + e.dst_row, id)
            });
            for (&(k, pos), &id) in by_center.iter().zip(ids.iter()) {
                if matchings[k][pos] != id {
                    matchings[k][pos] = id;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// The locality metric of §IV-A: `Δ(M, r) = Σ_j |i_j − r| + Σ_j |i'_j − r|`
/// over the edges (qubits) of matching `M`.
pub fn delta_metric(mg: &BipartiteMultigraph, matching: &[EdgeId], row: usize) -> u64 {
    delta_in(mg, matching, row, &usize::abs_diff)
}

/// `Δ(M, r)` with `|i − r|` replaced by the column factor's distance.
fn delta_in(
    mg: &BipartiteMultigraph,
    matching: &[EdgeId],
    row: usize,
    dist: &impl Fn(usize, usize) -> usize,
) -> u64 {
    matching
        .iter()
        .map(|&id| {
            let e = mg.edge(id);
            (dist(e.src_row, row) + dist(e.dst_row, row)) as u64
        })
        .sum()
}

/// Lines 19–23: the staging row of every matching, by `Δ` measured with
/// the column factor's distance `dist`.
fn assign_rows(
    mg: &BipartiteMultigraph,
    matchings: &[Vec<EdgeId>],
    assignment: AssignmentStrategy,
    dist: impl Fn(usize, usize) -> usize,
) -> Vec<usize> {
    let m = matchings.len();
    if assignment == AssignmentStrategy::InOrder {
        return (0..m).collect();
    }
    let weights: Vec<Vec<u64>> = matchings
        .iter()
        .map(|mt| (0..m).map(|r| delta_in(mg, mt, r, &dist)).collect())
        .collect();
    let cap = match assignment {
        AssignmentStrategy::Bottleneck => {
            let res = bottleneck_assignment(&weights);
            debug_assert_eq!(
                res.cardinality, m,
                "H is complete bipartite; must be perfect"
            );
            res.bottleneck
        }
        _ => u64::MAX,
    };
    // The bottleneck solver returns *an arbitrary* assignment achieving
    // the optimal bottleneck; break ties by minimizing the total Δ among
    // assignments that respect the cap, so the non-critical matchings also
    // stage as close to home as they can. Capped pairs get a penalty
    // weight large enough never to be chosen while a cap-respecting
    // assignment exists (one does: the bottleneck solver just found it).
    // `MinSum` is the same assignment without a cap.
    const PENALTY: i64 = 1 << 40;
    let capped: Vec<Vec<i64>> = weights
        .iter()
        .map(|row| {
            row.iter()
                .map(|&w| if w <= cap { w as i64 } else { PENALTY })
                .collect()
        })
        .collect();
    let (row_of, total) = min_sum_assignment(&capped);
    debug_assert!(total < PENALTY, "cap-respecting assignment must exist");
    row_of
}

impl Staging for LocalRouteOptions {
    /// Algorithm 2 on `F1 □ F2`: locality-aware matchings, row assignment
    /// by `Δ` in `F1`'s distance, and the three line phases.
    fn route_once<A: FactorRouter, B: FactorRouter>(
        &self,
        shape: Grid,
        f1: &A,
        f2: &B,
        pi: &Permutation,
    ) -> RoutingSchedule {
        let sigmas = qroute_obs::trace::span("locality.matchings", || {
            let mut mg = build_column_multigraph(shape, pi);
            let mut matchings = find_local_matchings(shape, &mut mg, self.window);
            rebalance_parallel_edges(&mg, &mut matchings);
            let row_of = assign_rows(&mg, &matchings, self.assignment, |u, v| f1.dist(u, v));
            sigmas_from(shape, &mg, &matchings, &row_of)
        });
        qroute_obs::trace::span("locality.line_routing", || {
            route_phases(shape, f1, f2, pi, &sigmas, self.line)
        })
    }
}

/// Algorithm 2, `LocalGridRoute(G, π)`: locality-aware matchings, row
/// assignment and 3-phase routing. Does *not* try the transpose; see
/// [`main_procedure`].
pub fn local_grid_route_single(
    grid: Grid,
    pi: &Permutation,
    opts: &LocalRouteOptions,
) -> RoutingSchedule {
    let (f1, f2) = path_factors(grid);
    opts.route_once(grid, &f1, &f2, pi)
}

/// Algorithm 1, the main procedure: run `LocalGridRoute` on `(G, π)` and —
/// when `opts.try_transpose` — on `(Gᵀ, πᵀ)`, returning the shallower
/// schedule (in original vertex ids), optionally compacted.
pub fn main_procedure(grid: Grid, pi: &Permutation, opts: &LocalRouteOptions) -> RoutingSchedule {
    let (f1, f2) = path_factors(grid);
    algorithm1(grid, &f1, &f2, pi, opts, opts.try_transpose, opts.compact)
}

/// Convenience alias for [`main_procedure`] with default options.
pub fn local_grid_route(grid: Grid, pi: &Permutation) -> RoutingSchedule {
    main_procedure(grid, pi, &LocalRouteOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qroute_perm::{generators, metrics};

    fn all_option_sets() -> Vec<LocalRouteOptions> {
        let mut out = Vec::new();
        for assignment in [
            AssignmentStrategy::Bottleneck,
            AssignmentStrategy::MinSum,
            AssignmentStrategy::InOrder,
        ] {
            for window in [WindowMode::Doubling, WindowMode::FullOnly] {
                for compact in [false, true] {
                    out.push(LocalRouteOptions {
                        assignment,
                        window,
                        line: LineStrategy::BestParity,
                        compact,
                        try_transpose: true,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn identity_is_free() {
        let grid = Grid::new(5, 4);
        let s = local_grid_route(grid, &Permutation::identity(20));
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn routes_random_permutations_all_options() {
        for (m, n) in [(1, 1), (1, 6), (6, 1), (2, 3), (4, 4), (5, 3)] {
            let grid = Grid::new(m, n);
            let pi = generators::random(grid.len(), 31);
            for opts in all_option_sets() {
                let s = main_procedure(grid, &pi, &opts);
                assert!(s.realizes(&pi), "{opts:?} failed on {m}x{n}");
                s.validate_on(&grid.to_graph()).unwrap();
            }
        }
    }

    #[test]
    fn respects_lower_bound() {
        let grid = Grid::new(6, 6);
        for seed in 0..10 {
            let pi = generators::random(36, seed);
            let s = local_grid_route(grid, &pi);
            assert!(s.depth() >= metrics::max_displacement(grid, &pi));
        }
    }

    #[test]
    fn block_local_permutations_route_shallow() {
        // Cycles confined to 2x2 blocks on a big grid must not produce
        // schedules anywhere near the 3-phase worst case.
        let grid = Grid::new(12, 12);
        for seed in 0..5 {
            let pi = generators::block_local(grid, 2, 2, seed);
            let s = local_grid_route(grid, &pi);
            assert!(s.realizes(&pi));
            assert!(
                s.depth() <= 8,
                "block-local permutation took depth {} (seed {seed})",
                s.depth()
            );
        }
    }

    #[test]
    fn local_beats_or_ties_naive_on_block_workloads() {
        use crate::grid_route::{naive_grid_route, NaiveOptions};
        let grid = Grid::new(10, 10);
        let mut local_wins = 0usize;
        for seed in 0..10 {
            let pi = generators::block_local(grid, 3, 3, seed);
            let local = local_grid_route(grid, &pi);
            let naive = naive_grid_route(
                grid,
                &pi,
                &NaiveOptions { compact: true, try_transpose: true, ..Default::default() },
            );
            if local.depth() < naive.depth() {
                local_wins += 1;
            }
        }
        assert!(
            local_wins >= 6,
            "locality-aware won only {local_wins}/10 block-local instances"
        );
    }

    #[test]
    fn paper_options_realize() {
        let grid = Grid::new(7, 5);
        let pi = generators::random(35, 2);
        let s = local_grid_route_single(grid, &pi, &LocalRouteOptions::paper());
        assert!(s.realizes(&pi));
    }

    #[test]
    fn delta_metric_matches_definition() {
        let grid = Grid::new(3, 2);
        // π: swap the two columns, keep rows.
        let mut map = vec![0usize; 6];
        for i in 0..3 {
            map[grid.index(i, 0)] = grid.index(i, 1);
            map[grid.index(i, 1)] = grid.index(i, 0);
        }
        let pi = Permutation::from_vec(map).unwrap();
        let mg = build_column_multigraph(grid, &pi);
        // Take the two edges of row 1 as a matching.
        let band: Vec<_> = mg.band_edges((1, 1));
        assert_eq!(band.len(), 2);
        assert_eq!(delta_metric(&mg, &band, 1), 0);
        assert_eq!(delta_metric(&mg, &band, 0), 4); // both qubits: |1-0|+|1-0|
    }

    #[test]
    fn doubling_search_partitions_all_edges() {
        let grid = Grid::new(6, 4);
        let pi = generators::random(24, 5);
        let mut mg = build_column_multigraph(grid, &pi);
        let ms = find_local_matchings(grid, &mut mg, WindowMode::Doubling);
        assert_eq!(ms.len(), 6);
        let mut ids: Vec<_> = ms.iter().flatten().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 24, "matchings must partition all mn edges");
        assert_eq!(mg.num_alive(), 0);
    }

    #[test]
    fn skinny_cycles_still_route_correctly() {
        let grid = Grid::new(9, 9);
        let pi = generators::skinny_cycles(grid, 4);
        let s = local_grid_route(grid, &pi);
        assert!(s.realizes(&pi));
    }

    #[test]
    fn transpose_helps_on_tall_grids() {
        // On a 2xN grid with a column-local permutation, routing the
        // transpose (N x 2) can only help or tie; mostly we just check the
        // main procedure picks something valid and no deeper than the
        // single-orientation run.
        let grid = Grid::new(2, 12);
        let pi = generators::random(24, 8);
        let opts = LocalRouteOptions::default();
        let both = main_procedure(grid, &pi, &opts);
        let single = local_grid_route_single(grid, &pi, &opts).compact(24);
        assert!(both.depth() <= single.depth());
    }
}
