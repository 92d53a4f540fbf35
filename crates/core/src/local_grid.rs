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
    algorithm1, build_column_multigraph, count_pass, path_factors, sigmas_from, Layout,
    LineStrategy, Pass, RouteScratch, Staging,
};
use crate::product_route::FactorRouter;
use crate::schedule::RoutingSchedule;
use qroute_matching::{
    bottleneck_assignment, min_sum_assignment, BipartiteMultigraph, EdgeId, LabeledEdge,
};
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

/// Per-column degree counts of the alive edges in the current row band.
///
/// A band can hold a perfect matching only when every left and every
/// right column has an edge in it (which also makes at least `cols`
/// edges); the counts answer that in O(1) and follow the band as it
/// slides, so the sweep lists and extracts only the bands that pass.
struct BandCover {
    left: Vec<u32>,
    right: Vec<u32>,
    /// Columns of either side with no edge in the band.
    uncovered: usize,
}

impl BandCover {
    fn new(cols: usize) -> BandCover {
        BandCover { left: vec![0; cols], right: vec![0; cols], uncovered: 2 * cols }
    }

    fn covers_all(&self) -> bool {
        self.uncovered == 0
    }

    fn add(&mut self, e: LabeledEdge) {
        for count in [&mut self.left[e.left], &mut self.right[e.right]] {
            self.uncovered -= usize::from(*count == 0);
            *count += 1;
        }
    }

    fn sub(&mut self, e: LabeledEdge) {
        for count in [&mut self.left[e.left], &mut self.right[e.right]] {
            *count -= 1;
            self.uncovered += usize::from(*count == 0);
        }
    }

    /// A row enters the band: add its alive edges.
    fn enter(&mut self, mg: &BipartiteMultigraph, row: &[EdgeId]) {
        for &id in row.iter().filter(|&&id| mg.is_alive(id)) {
            self.add(mg.edge(id));
        }
    }

    /// A row leaves the band: subtract its alive edges.
    fn leave(&mut self, mg: &BipartiteMultigraph, row: &[EdgeId]) {
        for &id in row.iter().filter(|&&id| mg.is_alive(id)) {
            self.sub(mg.edge(id));
        }
    }
}

/// Edge ids grouped by source row, ascending within each row: row `x`
/// is `ids[start[x]..start[x + 1]]`. Rows past `rows` are dropped; no
/// band reaches them.
fn bucket_rows(mg: &BipartiteMultigraph, rows: usize) -> (Vec<usize>, Vec<EdgeId>) {
    let mut start = vec![0usize; rows + 1];
    let src = |id: EdgeId| mg.edge(id).src_row;
    for id in (0..mg.num_edges()).filter(|&id| src(id) < rows) {
        start[src(id) + 1] += 1;
    }
    for x in 0..rows {
        start[x + 1] += start[x];
    }
    let mut ids = vec![0; start[rows]];
    let mut fill = start.clone();
    for id in (0..mg.num_edges()).filter(|&id| src(id) < rows) {
        ids[fill[src(id)]] = id;
        fill[src(id)] += 1;
    }
    (start, ids)
}

/// Lines 3–18 of Algorithm 2: find `m` edge-disjoint perfect matchings of
/// the column multigraph by doubling window search. Consumes the edges of
/// `mg`; returns the matchings as edge-id vectors in discovery order.
///
/// For each width the band `[r, r+w]` slides down one row at a time
/// under per-column degree counts of its alive edges: the leaving row is
/// subtracted and the entering row added only after the band has been
/// tested, and every extracted matching is subtracted as it leaves the
/// graph. A band is listed and extracted only when it covers every
/// column — exactly the bands that have at least `cols` edges and touch
/// every left and right column — so a width costs O(edges) plus the
/// bands that can match.
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

    let (start, ids) = bucket_rows(mg, m);
    let row = |x: usize| &ids[start[x]..start[x + 1]];
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
        // starts cost extra coverage tests (O(1) each, and most windows
        // fail them) but let every aligned row band be tried.
        let mut cover = BandCover::new(mg.cols());
        for x in 0..=w.min(m - 1) {
            cover.enter(mg, row(x));
        }
        for r in 0..m {
            if cover.covers_all() {
                let band = mg.band_edges((r, (r + w).min(m - 1)));
                for matching in mg.extract_perfect_matchings(&band) {
                    for &id in &matching {
                        cover.sub(mg.edge(id));
                    }
                    found.push(matching);
                }
            }
            cover.leave(mg, row(r));
            if r + w + 1 < m {
                cover.enter(mg, row(r + w + 1));
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
    /// Slots `(matching index, position)` sharing a `(left, right)` column
    /// pair, plus the interchangeable edge ids filling them, in the row
    /// order in which they are handed out.
    type ParallelClass = (Vec<(usize, usize)>, Vec<EdgeId>);

    // Parallel classes: all extracted edges grouped by (left, right), in
    // the order of their first slot. Slots are visited in order, so a
    // class is numbered when its first slot is seen.
    let n = mg.cols();
    let mut class_of = vec![usize::MAX; n * n];
    let mut classes: Vec<ParallelClass> = Vec::new();
    for (k, matching) in matchings.iter().enumerate() {
        for (pos, &id) in matching.iter().enumerate() {
            let e = mg.edge(id);
            let class = &mut class_of[e.left * n + e.right];
            if *class == usize::MAX {
                *class = classes.len();
                classes.push(Default::default());
            }
            let (users, ids) = &mut classes[*class];
            users.push((k, pos));
            ids.push(id);
        }
    }
    // A class's edge ids never change, only which slot holds each; a
    // class of one has nothing to hand out.
    classes.retain(|(_, ids)| ids.len() >= 2);
    for (_, ids) in &mut classes {
        ids.sort_unstable_by_key(|&id| {
            let e = mg.edge(id);
            (e.src_row + e.dst_row, id)
        });
    }

    // A matching's center is the upper median of its source and
    // destination rows, which all lie below the row count
    // `matchings.len()`: the first row at which the running count of a
    // row histogram passes half of the `2·len` rows.
    let mut counts = vec![0usize; matchings.len()];
    let mut center_of = |matching: &[EdgeId]| -> usize {
        counts.fill(0);
        for &id in matching {
            let e = mg.edge(id);
            counts[e.src_row] += 1;
            counts[e.dst_row] += 1;
        }
        let mut seen = 0;
        counts
            .iter()
            .position(|&c| {
                seen += c;
                seen > matching.len()
            })
            .expect("a matching has rows")
    };

    let mut by_center = Vec::new();
    for _ in 0..8 {
        let centers: Vec<usize> = matchings.iter().map(|m| center_of(m)).collect();
        let mut changed = false;
        for (users, ids) in &classes {
            // Monotone pairing: class rows in row order against user
            // matchings in center order.
            by_center.clone_from(users);
            by_center.sort_unstable_by_key(|&(k, _)| (centers[k], k));
            for (&(k, pos), &id) in by_center.iter().zip(ids) {
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
    matching
        .iter()
        .map(|&id| {
            let e = mg.edge(id);
            (e.src_row.abs_diff(row) + e.dst_row.abs_diff(row)) as u64
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
    // `Δ(M, r)` is the sum over M's distinct rows `x` of
    // `count(x)·dist(x, r)`: one row histogram per matching instead of a
    // pass over its edges per row.
    let mut counts = vec![0u64; m];
    let mut rows = Vec::new();
    let weights: Vec<Vec<u64>> = matchings
        .iter()
        .map(|mt| {
            for &id in mt {
                let e = mg.edge(id);
                for x in [e.src_row, e.dst_row] {
                    if counts[x] == 0 {
                        rows.push(x);
                    }
                    counts[x] += 1;
                }
            }
            let delta = (0..m)
                .map(|r| rows.iter().map(|&x| counts[x] * dist(x, r) as u64).sum())
                .collect();
            for x in rows.drain(..) {
                counts[x] = 0;
            }
            delta
        })
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
    fn line(&self) -> LineStrategy {
        self.line
    }

    /// Algorithm 2's staging on `F1 □ F2`: locality-aware matchings and
    /// row assignment by `Δ` in `F1`'s distance.
    fn sigmas<A: FactorRouter>(&self, shape: Grid, f1: &A, pi: &Permutation) -> Vec<Vec<usize>> {
        use qroute_obs::trace::span;
        let mut mg = build_column_multigraph(shape, pi);
        let mut matchings = span("locality.window_search", || {
            find_local_matchings(shape, &mut mg, self.window)
        });
        span("locality.rebalance", || {
            rebalance_parallel_edges(&mg, &mut matchings)
        });
        let row_of = span("locality.assign", || {
            assign_rows(&mg, &matchings, self.assignment, |u, v| f1.dist(u, v))
        });
        sigmas_from(shape, &mg, &matchings, &row_of)
    }

    /// Algorithm 2 on `F1 □ F2`: the staging, then the three line phases
    /// counted, each under its own span.
    fn count_once<A: FactorRouter, B: FactorRouter>(
        &self,
        shape: Grid,
        f1: &A,
        f2: &B,
        pi: &Permutation,
        layout: Layout,
        scratch: &mut RouteScratch,
    ) -> Pass {
        let sigmas = qroute_obs::trace::span("locality.matchings", || self.sigmas(shape, f1, pi));
        qroute_obs::trace::span("locality.line_routing", || {
            count_pass(shape, f1, f2, pi, sigmas, self.line, layout, scratch)
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
    let mut scratch = RouteScratch::default();
    opts.count_once(grid, &f1, &f2, pi, Layout::Direct, &mut scratch)
        .emit(false, &mut scratch)
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
