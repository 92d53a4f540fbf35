//! The one 3-phase routing pipeline — the `GridRoute` of Alon, Chung and
//! Graham on any Cartesian product `F1 □ F2` — with Algorithm 1 on top of
//! it, and the *naive* staging baseline.
//!
//! `GridRoute(G, π; σ₁,…,σₙ)` routes in three rounds (§IV):
//!
//! 1. **columns** — in parallel, column `j` is permuted by `σⱼ`, staging
//!    each qubit in a row from which its destination column is unique;
//! 2. **rows** — in parallel, each row sends every staged qubit to its
//!    destination column;
//! 3. **columns** — each column sends every qubit to its destination row.
//!
//! Columns are copies of `F1` and rows copies of `F2`, each routed by its
//! [`FactorRouter`]. A grid is `P_m □ P_n`, whose factors route by odd–even
//! transposition ([`crate::line`]); cylinders and tori swap in cycle
//! factors ([`crate::product_route`]). Every product is laid out row-major
//! like a [`Grid`] of shape `|F1| × |F2|`, so the transpose retry of
//! Algorithm 1 is the factor swap `F2 □ F1`.
//!
//! The σ's come from a *staging*: a decomposition of the column multigraph
//! `G[1,m]` into `m` perfect matchings plus an assignment of matchings to
//! staging rows. The naive staging does both arbitrarily, which is exactly
//! what the locality-aware staging (in [`crate::local_grid`]) improves.

use crate::line::{FirstParity, LineRounds, LineScratch};
use crate::product_route::{FactorRouter, PathFactor};
use crate::schedule::{vertex_id, RoutingSchedule};
use qroute_matching::{decompose_regular, BipartiteMultigraph, EdgeId, LabeledEdge};
use qroute_perm::Permutation;
use qroute_topology::{Grid, Path};

/// How each row/column line permutation is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LineStrategy {
    /// Always start odd–even transposition with even-parity edges.
    EvenFirst,
    /// Run both parities and keep the shallower line schedule (default).
    #[default]
    BestParity,
}

impl LineStrategy {
    /// Route one path permutation with this strategy; the rounds live in
    /// `scratch` until its next routing call.
    pub(crate) fn route<'s>(
        self,
        targets: &[usize],
        scratch: &'s mut LineScratch,
    ) -> LineRounds<'s> {
        match self {
            LineStrategy::EvenFirst => scratch.route(targets, FirstParity::Even),
            LineStrategy::BestParity => scratch.route_best(targets),
        }
    }
}

/// A 3-phase pass under construction, plus its scratch: the line router's
/// buffers and one staged phase. Algorithm 1 routes both of its passes
/// through one `PassScratch`, so the second pass stages in memory the
/// first one already holds.
#[derive(Debug, Default)]
pub(crate) struct PassScratch {
    /// The pass's swaps so far, layer after layer.
    swaps: Vec<(u32, u32)>,
    /// End offset of every layer in `swaps`.
    ends: Vec<usize>,
    line: LineScratch,
    /// The current phase's swaps, line after line, each line's rounds in
    /// order.
    staged: Vec<(u32, u32)>,
    /// `(round index, swap count)` of every staged round, in staging order.
    rounds: Vec<(usize, usize)>,
    /// Per phase layer: its swap count, then its write cursor.
    next: Vec<usize>,
}

impl PassScratch {
    /// Route vertex-disjoint copies of `factor` in parallel and append
    /// them to the pass as its next phase. Copy `c` is an arithmetic
    /// progression of vertex ids — its position `p` is vertex
    /// `c·step + stride·p` — and `targets[c][p]` is the destination
    /// position of the token at position `p`; rows and columns of a
    /// row-major product are always progressions, so no per-line vertex
    /// vector is ever materialized.
    ///
    /// Round `k` of every copy forms the phase's layer `k`, in copy order.
    /// The copies are routed one at a time and staged; the phase is then
    /// counted per layer and scattered layer-major behind the earlier
    /// phases, growing `swaps` by exactly the phase's size. Empty layers
    /// are dropped.
    fn phase<F: FactorRouter>(
        &mut self,
        factor: &F,
        targets: &[Vec<usize>],
        (step, stride): (usize, usize),
        strategy: LineStrategy,
    ) {
        let PassScratch { swaps, ends, line: line_scratch, staged, rounds, next } = self;
        staged.clear();
        rounds.clear();
        next.clear();
        for (c, line) in targets.iter().enumerate() {
            let base = c * step;
            for (k, round) in factor
                .route_line(line, strategy, line_scratch)
                .iter()
                .enumerate()
            {
                if k == next.len() {
                    next.push(0);
                }
                next[k] += round.len();
                rounds.push((k, round.len()));
                staged.extend(round.iter().map(|&(a, b)| {
                    (
                        vertex_id(base + stride * a as usize),
                        vertex_id(base + stride * b as usize),
                    )
                }));
            }
        }
        let mut end = swaps.len();
        for cursor in next.iter_mut() {
            let start = end;
            end += *cursor;
            *cursor = start;
            if end > start {
                ends.push(end);
            }
        }
        swaps.reserve_exact(staged.len());
        swaps.resize(end, (0, 0));
        let mut from = 0;
        for &(k, len) in rounds.iter() {
            let to = next[k];
            swaps[to..to + len].copy_from_slice(&staged[from..from + len]);
            next[k] = to + len;
            from += len;
        }
    }

    /// The assembled pass; the scratch is ready for the next one.
    fn finish(&mut self) -> RoutingSchedule {
        let mut ends = std::mem::take(&mut self.ends);
        ends.shrink_to_fit();
        RoutingSchedule::from_parts(std::mem::take(&mut self.swaps), ends)
    }
}

/// Build the column multigraph `G[1,m]` of §IV-A for permutation `π`:
/// one edge `j → j'` labeled `(i, i')` per qubit at `(i, j)` destined for
/// `(i', j')`. Edges are inserted in row-major qubit order, making band
/// extraction deterministic. `grid` may be the layout of any product.
pub fn build_column_multigraph(grid: Grid, pi: &Permutation) -> BipartiteMultigraph {
    assert_eq!(grid.len(), pi.len(), "permutation size must match grid");
    let mut mg = BipartiteMultigraph::new(grid.cols());
    for i in 0..grid.rows() {
        for j in 0..grid.cols() {
            let (ip, jp) = grid.coords(pi.apply(grid.index(i, j)));
            mg.add_edge(LabeledEdge { left: j, right: jp, src_row: i, dst_row: ip });
        }
    }
    mg
}

/// A grid as the product `P_m □ P_n`: its column and row factors.
pub(crate) fn path_factors(grid: Grid) -> (PathFactor, PathFactor) {
    (
        PathFactor(Path::new(grid.rows())),
        PathFactor(Path::new(grid.cols())),
    )
}

/// `GridRoute(G, π; σ₁,…,σₙ)`: the 3-phase routing given staging
/// permutations. `sigmas[j][i]` is the staging row of the qubit at
/// `(i, j)`.
///
/// # Panics
/// Panics when the σ's are not valid staging permutations (each `σⱼ` must
/// permute rows, and staged rows must give each row one qubit per
/// destination column — the Hall property of §IV).
pub fn grid_route_with_sigmas(
    grid: Grid,
    pi: &Permutation,
    sigmas: &[Vec<usize>],
    strategy: LineStrategy,
) -> RoutingSchedule {
    let (f1, f2) = path_factors(grid);
    route_phases(
        grid,
        &f1,
        &f2,
        pi,
        sigmas,
        strategy,
        &mut PassScratch::default(),
    )
}

/// `GridRoute(F1 □ F2, π; σ₁,…,σₙ)` on the product laid out as `shape`:
/// phases 1 and 3 route the columns with `f1`, phase 2 the rows with `f2`.
/// Panics as [`grid_route_with_sigmas`] does.
pub(crate) fn route_phases<A: FactorRouter, B: FactorRouter>(
    shape: Grid,
    f1: &A,
    f2: &B,
    pi: &Permutation,
    sigmas: &[Vec<usize>],
    strategy: LineStrategy,
    scratch: &mut PassScratch,
) -> RoutingSchedule {
    let m = shape.rows();
    let n = shape.cols();
    assert_eq!(pi.len(), shape.len(), "permutation size must match grid");
    assert_eq!(sigmas.len(), n, "need one σ per column");
    for (j, sigma) in sigmas.iter().enumerate() {
        assert_eq!(sigma.len(), m, "σ_{j} must cover all rows");
        let mut seen = vec![false; m];
        for &r in sigma {
            assert!(r < m && !seen[r], "σ_{j} is not a permutation of rows");
            seen[r] = true;
        }
    }

    // Phase 2 targets: row_targets[r][j] = destination column of the qubit
    // staged at (r, j).
    let mut row_targets = vec![vec![usize::MAX; n]; m];
    // Phase 3 targets: col_targets[j'][r] = destination row of the qubit
    // sitting at (r, j') after phase 2.
    let mut col_targets = vec![vec![usize::MAX; m]; n];
    for j in 0..n {
        for (i, &r) in sigmas[j].iter().enumerate() {
            let (ip, jp) = shape.coords(pi.apply(shape.index(i, j)));
            assert_eq!(
                row_targets[r][j],
                usize::MAX,
                "two qubits of column {j} staged in row {r}"
            );
            row_targets[r][j] = jp;
            assert!(
                col_targets[jp][r] == usize::MAX,
                "σ's violate the matching property: row {r} sends two qubits to column {jp}"
            );
            col_targets[jp][r] = ip;
        }
    }

    // Column j is vertices {j, j+n, …} (step 1, stride n); row r is
    // {r·n, r·n+1, …} (step n, stride 1). Targets are borrowed straight
    // from the phase tables — no per-line clones.
    // Phase 1: columns permuted by σ.
    scratch.phase(f1, sigmas, (1, n), strategy);
    // Phase 2: rows to destination columns.
    scratch.phase(f2, &row_targets, (n, 1), strategy);
    // Phase 3: columns to destination rows.
    scratch.phase(f1, &col_targets, (1, n), strategy);
    scratch.finish()
}

/// σ from `m` perfect matchings and their staging rows: every qubit of
/// matching `k` is staged in row `row_of[k]`.
pub(crate) fn sigmas_from(
    shape: Grid,
    mg: &BipartiteMultigraph,
    matchings: &[Vec<EdgeId>],
    row_of: &[usize],
) -> Vec<Vec<usize>> {
    let mut sigmas = vec![vec![usize::MAX; shape.rows()]; shape.cols()];
    for (matching, &r) in matchings.iter().zip(row_of) {
        for &id in matching {
            let e = mg.edge(id);
            debug_assert_eq!(sigmas[e.left][e.src_row], usize::MAX);
            sigmas[e.left][e.src_row] = r;
        }
    }
    sigmas
}

/// A staging: the step of the pipeline that picks the staging rows σ.
/// [`NaiveOptions`] stages arbitrarily, [`crate::LocalRouteOptions`] by
/// locality.
pub(crate) trait Staging {
    /// The line strategy of the three phases.
    fn line(&self) -> LineStrategy;

    /// The staging rows σ for `π` on the product laid out as `shape`,
    /// whose columns are copies of `f1`.
    fn sigmas<A: FactorRouter>(&self, shape: Grid, f1: &A, pi: &Permutation) -> Vec<Vec<usize>>;

    /// One 3-phase pass on the product laid out as `shape`: pick σ for
    /// `π`, then route the three line phases with `f1` and `f2`.
    fn route_once<A: FactorRouter, B: FactorRouter>(
        &self,
        shape: Grid,
        f1: &A,
        f2: &B,
        pi: &Permutation,
        scratch: &mut PassScratch,
    ) -> RoutingSchedule {
        let sigmas = self.sigmas(shape, f1, pi);
        route_phases(shape, f1, f2, pi, &sigmas, self.line(), scratch)
    }
}

/// Algorithm 1's passes on the product `F1 □ F2` laid out as `shape`: one
/// pass with `staging`; with `try_transpose`, a second pass on the
/// transposed instance (the factor swap `F2 □ F1`), keeping the shallower
/// schedule in original vertex ids. Compaction is left to the caller.
pub(crate) fn best_pass<S: Staging, A: FactorRouter, B: FactorRouter>(
    shape: Grid,
    f1: &A,
    f2: &B,
    pi: &Permutation,
    staging: &S,
    try_transpose: bool,
) -> RoutingSchedule {
    let mut scratch = PassScratch::default();
    let best = staging.route_once(shape, f1, f2, pi, &mut scratch);
    if !try_transpose {
        return best;
    }
    let (shape_t, pi_t) = transpose_instance(shape, pi);
    let alt = staging.route_once(shape_t, f2, f1, &pi_t, &mut scratch);
    let alt = untranspose_schedule(shape_t, alt);
    if alt.depth() < best.depth() {
        alt
    } else {
        best
    }
}

/// Algorithm 1: [`best_pass`], then, with `compact`, ASAP compaction.
pub(crate) fn algorithm1<S: Staging, A: FactorRouter, B: FactorRouter>(
    shape: Grid,
    f1: &A,
    f2: &B,
    pi: &Permutation,
    staging: &S,
    try_transpose: bool,
    compact: bool,
) -> RoutingSchedule {
    let best = best_pass(shape, f1, f2, pi, staging, try_transpose);
    if compact {
        best.compact(shape.len())
    } else {
        best
    }
}

/// Options for the naive grid router.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveOptions {
    /// Line routing strategy for all three phases.
    pub line: LineStrategy,
    /// Apply ASAP depth compaction to the final schedule.
    pub compact: bool,
    /// Also route the transposed instance and keep the shallower result.
    pub try_transpose: bool,
    /// When set, matchings are extracted in a seeded-random edge order and
    /// assigned to rows in seeded-random order — *adversarially* arbitrary
    /// choices, the scenario Figure 3 of the paper warns about. When
    /// `None`, the deterministic Hopcroft–Karp order is used, which turns
    /// out to be "lucky arbitrary" (it favors low rows first).
    pub randomize: Option<u64>,
}

impl NaiveOptions {
    /// The configuration used as the paper's baseline: compaction off,
    /// transpose off, even-first lines — the plain 3-phase algorithm.
    pub fn plain() -> NaiveOptions {
        NaiveOptions {
            line: LineStrategy::EvenFirst,
            compact: false,
            try_transpose: false,
            randomize: None,
        }
    }
}

/// Deterministic splitmix64 stream (no external RNG dependency in this
/// crate; only used to make the naive baseline's arbitrary choices
/// reproducibly random).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Fisher–Yates with a splitmix64 stream.
fn seeded_shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed ^ 0xD1B54A32D192ED03;
    for i in (1..v.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Transpose a routing instance: `πᵀ(j, i) = (j', i')` iff
/// `π(i, j) = (i', j')`.
pub fn transpose_instance(grid: Grid, pi: &Permutation) -> (Grid, Permutation) {
    let gt = grid.transpose();
    let mut map = vec![0usize; pi.len()];
    for v in 0..pi.len() {
        map[grid.transpose_vertex(v)] = grid.transpose_vertex(pi.apply(v));
    }
    (gt, Permutation::from_vec_unchecked(map))
}

/// Map a schedule computed on the transposed grid back to original vertex
/// ids.
pub fn untranspose_schedule(grid_t: Grid, mut schedule: RoutingSchedule) -> RoutingSchedule {
    // In place: a side-128 schedule holds over a million swaps, and
    // `best_pass` still holds the other orientation's schedule.
    schedule.relabel(|v| grid_t.transpose_vertex(v));
    schedule
}

impl Staging for NaiveOptions {
    fn line(&self) -> LineStrategy {
        self.line
    }

    /// Decompose `G[1,m]` into `m` perfect matchings *arbitrarily* and
    /// stage matching `k` in row `k` in extraction order.
    fn sigmas<A: FactorRouter>(&self, shape: Grid, _f1: &A, pi: &Permutation) -> Vec<Vec<usize>> {
        // One cooperative cancellation probe per 3-phase pass.
        crate::budget::checkpoint();
        let mut mg = build_column_multigraph(shape, pi);
        let m = shape.rows();
        let matchings = match self.randomize {
            None => decompose_regular(&mut mg).expect("column multigraph is always m-regular"),
            Some(seed) => {
                // Adversarially arbitrary: shuffle the candidate edge
                // order so representative-edge choices (and therefore the
                // matchings) are random; regularity still guarantees m
                // perfect matchings.
                let mut out = Vec::with_capacity(m);
                while mg.num_alive() > 0 {
                    let mut all = mg.alive_edges();
                    seeded_shuffle(&mut all, seed ^ out.len() as u64);
                    let found = mg.extract_perfect_matchings(&all);
                    assert!(!found.is_empty(), "regular multigraph must keep matching");
                    out.extend(found);
                }
                out
            }
        };
        debug_assert_eq!(matchings.len(), m);
        // Row assignment: extraction order, or random when randomized.
        let mut row_of: Vec<usize> = (0..m).collect();
        if let Some(seed) = self.randomize {
            seeded_shuffle(&mut row_of, seed ^ 0xABCD);
        }
        sigmas_from(shape, &mg, &matchings, &row_of)
    }
}

/// The naive 3-phase grid router: decompose `G[1,m]` into `m` perfect
/// matchings *arbitrarily* and assign matching `k` to staging row `k` in
/// extraction order — the Alon–Chung–Graham baseline the paper improves.
pub fn naive_grid_route(grid: Grid, pi: &Permutation, opts: &NaiveOptions) -> RoutingSchedule {
    let (f1, f2) = path_factors(grid);
    algorithm1(grid, &f1, &f2, pi, opts, opts.try_transpose, opts.compact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qroute_perm::generators;

    fn check_route(grid: Grid, pi: &Permutation, opts: &NaiveOptions) -> RoutingSchedule {
        let s = naive_grid_route(grid, pi, opts);
        assert!(s.realizes(pi), "schedule does not realize π on {grid:?}");
        s.validate_on(&grid.to_graph()).expect("invalid layers");
        s
    }

    #[test]
    fn identity_routes_to_empty() {
        let grid = Grid::new(4, 5);
        let s = check_route(grid, &Permutation::identity(20), &NaiveOptions::default());
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn routes_random_permutations_on_many_shapes() {
        for (m, n) in [
            (1, 1),
            (1, 8),
            (8, 1),
            (2, 2),
            (3, 4),
            (4, 3),
            (5, 5),
            (7, 3),
        ] {
            let grid = Grid::new(m, n);
            for seed in 0..4 {
                let pi = generators::random(grid.len(), seed);
                for opts in [
                    NaiveOptions::plain(),
                    NaiveOptions { compact: true, try_transpose: true, ..Default::default() },
                ] {
                    check_route(grid, &pi, &opts);
                }
            }
        }
    }

    #[test]
    fn depth_bound_three_phases() {
        // Each phase is at most max(m, n) rounds, so depth <= 2m + n (or
        // with transpose min(2m+n, 2n+m)).
        let grid = Grid::new(6, 6);
        for seed in 0..8 {
            let pi = generators::random(36, seed);
            let s = naive_grid_route(grid, &pi, &NaiveOptions::plain());
            assert!(
                s.depth() <= 2 * 6 + 6,
                "depth {} exceeds 3-phase bound",
                s.depth()
            );
        }
    }

    #[test]
    fn compaction_never_hurts() {
        let grid = Grid::new(5, 4);
        for seed in 0..6 {
            let pi = generators::random(20, seed);
            let plain = naive_grid_route(grid, &pi, &NaiveOptions::plain());
            let compacted = naive_grid_route(
                grid,
                &pi,
                &NaiveOptions { compact: true, ..NaiveOptions::plain() },
            );
            assert!(compacted.depth() <= plain.depth());
            assert!(compacted.realizes(&pi));
        }
    }

    #[test]
    fn transpose_instance_round_trip() {
        let grid = Grid::new(3, 5);
        let pi = generators::random(15, 9);
        let (gt, pit) = transpose_instance(grid, &pi);
        let (gtt, pitt) = transpose_instance(gt, &pit);
        assert_eq!(gtt, grid);
        assert_eq!(pitt, pi);
    }

    #[test]
    fn grid_route_with_explicit_sigmas() {
        // 2x2 grid, permutation = swap the two columns in row 0 only...
        // Use a full column swap: (i, 0) <-> (i, 1).
        let grid = Grid::new(2, 2);
        let pi = Permutation::from_vec(vec![1, 0, 3, 2]).unwrap();
        // Identity sigmas suffice: every row already has distinct dest
        // columns.
        let sigmas = vec![vec![0, 1], vec![0, 1]];
        let s = grid_route_with_sigmas(grid, &pi, &sigmas, LineStrategy::BestParity);
        assert!(s.realizes(&pi));
        assert_eq!(s.depth(), 1, "pure row swap should take one layer");
    }

    #[test]
    #[should_panic(expected = "not a permutation of rows")]
    fn invalid_sigma_panics() {
        let grid = Grid::new(2, 2);
        let pi = Permutation::identity(4);
        let sigmas = vec![vec![0, 0], vec![0, 1]];
        let _ = grid_route_with_sigmas(grid, &pi, &sigmas, LineStrategy::EvenFirst);
    }

    #[test]
    #[should_panic(expected = "matching property")]
    fn sigma_violating_hall_panics() {
        // Both columns stage their (0,*) qubit in row 0, but both qubits
        // target column 0 -> phase 2 collision.
        let grid = Grid::new(2, 2);
        // π: (0,0)->(0,0), (0,1)->(1,0), (1,0)->(0,1), (1,1)->(1,1)
        let pi = Permutation::from_vec(vec![0, 2, 1, 3]).unwrap();
        let sigmas = vec![vec![0, 1], vec![0, 1]];
        let _ = grid_route_with_sigmas(grid, &pi, &sigmas, LineStrategy::EvenFirst);
    }

    #[test]
    fn randomized_naive_still_realizes() {
        let grid = Grid::new(5, 4);
        for seed in 0..4 {
            let pi = generators::random(20, seed);
            let opts = NaiveOptions { randomize: Some(seed), ..NaiveOptions::plain() };
            let s = naive_grid_route(grid, &pi, &opts);
            assert!(s.realizes(&pi), "seed {seed}");
            s.validate_on(&grid.to_graph()).unwrap();
        }
    }

    #[test]
    fn randomized_naive_shows_figure3_overhead_on_local_workloads() {
        // Figure 3 of the paper: arbitrary matching choices can route a
        // nearby qubit the long way around. On block-local permutations
        // the adversarially arbitrary naive router should be far deeper
        // than the locality-aware one.
        use crate::local_grid::local_grid_route;
        let grid = Grid::new(12, 12);
        let mut naive_total = 0usize;
        let mut local_total = 0usize;
        for seed in 0..5 {
            let pi = generators::block_local(grid, 3, 3, seed);
            let opts = NaiveOptions {
                randomize: Some(seed),
                compact: true,
                try_transpose: true,
                ..Default::default()
            };
            naive_total += naive_grid_route(grid, &pi, &opts).depth();
            local_total += local_grid_route(grid, &pi).depth();
        }
        assert!(
            naive_total >= 2 * local_total,
            "random-arbitrary naive ({naive_total}) should dwarf locality-aware ({local_total})"
        );
    }

    #[test]
    fn single_row_grid_reduces_to_line_routing() {
        let grid = Grid::new(1, 9);
        let pi = generators::reversal(9);
        let s = naive_grid_route(grid, &pi, &NaiveOptions::plain());
        assert!(s.realizes(&pi));
        assert!(s.depth() <= 9);
        assert!(s.depth() >= 8);
    }

    #[test]
    fn torus_shift_depth_reasonable() {
        let grid = Grid::new(8, 8);
        let pi = generators::torus_shift(grid, 0, 1);
        let s = naive_grid_route(
            grid,
            &pi,
            &NaiveOptions { compact: true, try_transpose: true, ..Default::default() },
        );
        assert!(s.realizes(&pi));
        // A horizontal cyclic shift needs ~n layers on a path-row.
        assert!(
            s.depth() <= 16,
            "depth {} too large for unit shift",
            s.depth()
        );
    }
}
