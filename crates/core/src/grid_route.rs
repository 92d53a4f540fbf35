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
//!
//! A route is decided from counts and laid out once:
//!
//! 1. **Count.** Every line of a candidate pass is planned depth-only
//!    by its factor router ([`FactorRouter::plan`]): where its path
//!    starts, its first parity, its depth and its swap count. A phase is
//!    as deep as its deepest line, and a pass's depth and size are sums.
//! 2. **Decide.** Algorithm 1 keeps the transposed pass only when it is
//!    strictly shallower; `hybrid` compares compacted depths, each from
//!    an ASAP walk that streams the pass's swaps without storing them.
//! 3. **Emit.** The one returned pass runs its lines again, each phase
//!    in lockstep: step `k` advances every line by its `k`-th non-empty
//!    round, lines in order, positions ascending. That is the pass's
//!    sequence order — phase, layer, line, position — so the walk writes
//!    the uncompacted layers as they close, or places each swap at its
//!    ASAP layer's cursor in an exact-sized buffer. A swap's ASAP layer
//!    depends only on earlier swaps at its endpoints, and the lines of a
//!    phase are vertex-disjoint, so any walk that keeps phase order gives
//!    every swap the same layer; the placing walk must be the lockstep
//!    one, because it also fixes the order within each layer.
//!
//! A pass counted on the transposed layout writes the instance's own
//! vertex ids: a column of the transposed layout is a row of the
//! instance, and a row of it is a column. No losing pass, staged phase or
//! relabeling pass is ever laid out.

use crate::line::{FirstParity, LineCost, LinePlan, LineScratch};
use crate::product_route::{FactorRouter, PathFactor};
use crate::schedule::{vertex_id, Asap, LayerFill, RoutingSchedule};
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
    /// Plan a line whose positions start at factor vertex `start`:
    /// even-first, or the shallower first parity. `None` when the plan is
    /// not strictly shallower than `cap`.
    pub(crate) fn plan_below(
        self,
        targets: &[usize],
        start: usize,
        cap: usize,
        scratch: &mut LineScratch,
    ) -> Option<(LinePlan, LineCost)> {
        match self {
            LineStrategy::EvenFirst => {
                let plan = LinePlan { start, first: FirstParity::Even };
                scratch
                    .count_below(targets, plan, cap)
                    .map(|cost| (plan, cost))
            }
            LineStrategy::BestParity => scratch.best_below(targets, start, cap),
        }
    }

    /// [`LineStrategy::plan_below`] without a cap.
    pub(crate) fn plan(
        self,
        targets: &[usize],
        start: usize,
        scratch: &mut LineScratch,
    ) -> (LinePlan, LineCost) {
        self.plan_below(targets, start, usize::MAX, scratch)
            .expect("no line is deeper than usize::MAX")
    }
}

/// The buffers one route's counting and emission walks share.
#[derive(Debug, Default)]
pub(crate) struct RouteScratch {
    lines: LineScratch,
    asap: Asap,
}

/// Which layout a pass is counted on: the instance's own, or its
/// transpose, whose swaps are written in the instance's vertex ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// The instance's own layout.
    Direct,
    /// The transposed instance's layout: the factor swap `F2 □ F1`.
    Transposed,
}

/// One line phase of a counted pass.
#[derive(Debug)]
struct Phase {
    /// `targets[c][p]`: the destination of the token at factor vertex `p`
    /// of line `c`.
    targets: Vec<Vec<usize>>,
    /// How each line is routed.
    plans: Vec<LinePlan>,
    /// Factor vertex `p` of line `c` is vertex `c·step + stride·p` of the
    /// output.
    step: usize,
    stride: usize,
}

/// A 3-phase pass, counted but not laid out.
#[derive(Debug)]
pub(crate) struct Pass {
    phases: [Phase; 3],
    /// Vertices of the product.
    n: usize,
    /// Layers of every phase.
    depths: [usize; 3],
    size: usize,
    /// The swap count of every compacted layer, once counted.
    asap: Option<Vec<usize>>,
}

/// What a walk over a pass's swaps does with them.
trait Sink {
    /// The next swaps of the sequence: one line's round.
    fn swaps(&mut self, swaps: impl ExactSizeIterator<Item = (u32, u32)>);
    /// A phase layer is complete.
    fn close_layer(&mut self) {}
}

/// The uncompacted layers, written as they close.
struct Layers {
    swaps: Vec<(u32, u32)>,
    ends: Vec<usize>,
}

impl Sink for Layers {
    fn swaps(&mut self, swaps: impl ExactSizeIterator<Item = (u32, u32)>) {
        self.swaps.extend(swaps);
    }

    fn close_layer(&mut self) {
        self.ends.push(self.swaps.len());
    }
}

impl Sink for Asap {
    fn swaps(&mut self, swaps: impl ExactSizeIterator<Item = (u32, u32)>) {
        for (u, v) in swaps {
            self.layer(u as usize, v as usize);
        }
    }
}

/// Every swap placed at its ASAP layer's cursor.
struct Place<'a> {
    asap: &'a mut Asap,
    fill: LayerFill,
}

impl Sink for Place<'_> {
    fn swaps(&mut self, swaps: impl ExactSizeIterator<Item = (u32, u32)>) {
        for (u, v) in swaps {
            let t = self.asap.layer(u as usize, v as usize);
            self.fill.place(t, (u, v));
        }
    }
}

/// Plan every line of a phase: its factor vertex `p` of line `c` is
/// vertex `c·step + stride·p`. Returns the phase and its depth and size.
fn count_phase<F: FactorRouter>(
    factor: &F,
    targets: Vec<Vec<usize>>,
    (step, stride): (usize, usize),
    strategy: LineStrategy,
    lines: &mut LineScratch,
) -> (Phase, LineCost) {
    crate::budget::checkpoint();
    let mut cost = LineCost::default();
    let plans = targets
        .iter()
        .map(|line| {
            let (plan, line_cost) = factor.plan(line, strategy, lines);
            cost.depth = cost.depth.max(line_cost.depth);
            cost.swaps += line_cost.swaps;
            plan
        })
        .collect();
    (Phase { targets, plans, step, stride }, cost)
}

impl Pass {
    /// Number of layers of the uncompacted pass.
    pub(crate) fn depth(&self) -> usize {
        self.depths.iter().sum()
    }

    /// Every swap in the pass's sequence order — phase, layer, line,
    /// position — each phase's lines routed in lockstep.
    fn walk(&self, lines: &mut LineScratch, sink: &mut impl Sink) {
        for (phase, &depth) in self.phases.iter().zip(&self.depths) {
            crate::budget::checkpoint();
            let batch = lines.batch();
            let len = phase.targets[0].len();
            batch.load(
                phase
                    .targets
                    .iter()
                    .map(Vec::as_slice)
                    .zip(phase.plans.iter().copied()),
                len,
            );
            let (step, stride) = (phase.step, phase.stride);
            let mut layers = 0;
            // Every id was checked into u32 when the pass was counted.
            while batch.step(|round| {
                let base = round.line * step;
                let vertex = |a: usize| (base + stride * a) as u32;
                sink.swaps(round.swaps().map(|(a, b)| (vertex(a), vertex(b))));
            }) {
                sink.close_layer();
                layers += 1;
            }
            assert_eq!(layers, depth, "a phase laid out deeper than counted");
        }
    }

    /// The swap count of every layer of the pass compacted ASAP, from a
    /// walk that streams the pass's swaps without storing them.
    fn asap_layers(&self, scratch: &mut RouteScratch) -> Vec<usize> {
        let RouteScratch { lines, asap } = scratch;
        asap.reset(self.n);
        self.walk(lines, asap);
        asap.counts().to_vec()
    }

    /// The depth of the pass compacted ASAP; [`Pass::emit`] reuses the
    /// layer counts.
    pub(crate) fn asap_depth(&mut self, scratch: &mut RouteScratch) -> usize {
        let layers = self.asap_layers(scratch);
        let depth = layers.len();
        self.asap = Some(layers);
        depth
    }

    /// The pass as a schedule, compacted ASAP when `compact`, laid out
    /// by one walk into exact-sized buffers under the `grid.emit` span.
    pub(crate) fn emit(mut self, compact: bool, scratch: &mut RouteScratch) -> RoutingSchedule {
        qroute_obs::trace::span("grid.emit", || {
            if !compact {
                let mut layers = Layers {
                    swaps: Vec::with_capacity(self.size),
                    ends: Vec::with_capacity(self.depth()),
                };
                self.walk(&mut scratch.lines, &mut layers);
                assert_eq!(
                    layers.swaps.len(),
                    self.size,
                    "a pass laid out larger than counted"
                );
                return RoutingSchedule::from_parts(layers.swaps, layers.ends);
            }
            let counts = self
                .asap
                .take()
                .unwrap_or_else(|| self.asap_layers(scratch));
            let RouteScratch { lines, asap } = scratch;
            asap.reset(self.n);
            let fill = LayerFill::new(vec![(0, 0); self.size], &counts);
            let mut place = Place { asap, fill };
            self.walk(lines, &mut place);
            place.fill.finish()
        })
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
    let mut scratch = RouteScratch::default();
    let pass = count_pass(
        grid,
        &f1,
        &f2,
        pi,
        sigmas.to_vec(),
        strategy,
        Layout::Direct,
        &mut scratch,
    );
    pass.emit(false, &mut scratch)
}

/// `GridRoute(F1 □ F2, π; σ₁,…,σₙ)` on the product laid out as `shape`,
/// counted: phases 1 and 3 plan the columns with `f1`, phase 2 the rows
/// with `f2`. With [`Layout::Transposed`], `shape` is the transpose of
/// the instance and the pass writes the instance's vertex ids. Panics as
/// [`grid_route_with_sigmas`] does.
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_pass<A: FactorRouter, B: FactorRouter>(
    shape: Grid,
    f1: &A,
    f2: &B,
    pi: &Permutation,
    sigmas: Vec<Vec<usize>>,
    strategy: LineStrategy,
    layout: Layout,
    scratch: &mut RouteScratch,
) -> Pass {
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
    // Every vertex id of the product fits a schedule's u32.
    vertex_id(shape.len() - 1);

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

    // Column j of `shape` is vertices {j, j+n, …} (step 1, stride n) and
    // row r is {r·n, r·n+1, …} (step n, stride 1). A column of the
    // transposed layout is a row of the instance (step m, stride 1) and a
    // row of it is a column (step 1, stride m).
    let (cols, rows) = match layout {
        Layout::Direct => ((1, n), (n, 1)),
        Layout::Transposed => ((m, 1), (1, m)),
    };
    let lines = &mut scratch.lines;
    // Phase 1: columns permuted by σ.
    let (phase1, cost1) = count_phase(f1, sigmas, cols, strategy, lines);
    // Phase 2: rows to destination columns.
    let (phase2, cost2) = count_phase(f2, row_targets, rows, strategy, lines);
    // Phase 3: columns to destination rows.
    let (phase3, cost3) = count_phase(f1, col_targets, cols, strategy, lines);
    Pass {
        phases: [phase1, phase2, phase3],
        n: shape.len(),
        depths: [cost1.depth, cost2.depth, cost3.depth],
        size: cost1.swaps + cost2.swaps + cost3.swaps,
        asap: None,
    }
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

    /// One 3-phase pass on the product laid out as `shape`, counted: pick
    /// σ for `π`, then plan the three line phases with `f1` and `f2`.
    fn count_once<A: FactorRouter, B: FactorRouter>(
        &self,
        shape: Grid,
        f1: &A,
        f2: &B,
        pi: &Permutation,
        layout: Layout,
        scratch: &mut RouteScratch,
    ) -> Pass {
        let sigmas = self.sigmas(shape, f1, pi);
        count_pass(shape, f1, f2, pi, sigmas, self.line(), layout, scratch)
    }
}

/// Algorithm 1's passes on the product `F1 □ F2` laid out as `shape`,
/// counted: one pass with `staging`; with `try_transpose`, a second pass
/// on the transposed instance (the factor swap `F2 □ F1`), kept only when
/// it is strictly shallower. Nothing is laid out.
pub(crate) fn best_pass<S: Staging, A: FactorRouter, B: FactorRouter>(
    shape: Grid,
    f1: &A,
    f2: &B,
    pi: &Permutation,
    staging: &S,
    try_transpose: bool,
    scratch: &mut RouteScratch,
) -> Pass {
    let best = staging.count_once(shape, f1, f2, pi, Layout::Direct, scratch);
    if !try_transpose {
        return best;
    }
    let (shape_t, pi_t) = transpose_instance(shape, pi);
    let alt = staging.count_once(shape_t, f2, f1, &pi_t, Layout::Transposed, scratch);
    if alt.depth() < best.depth() {
        alt
    } else {
        best
    }
}

/// Algorithm 1: [`best_pass`], laid out once — compacted ASAP with
/// `compact`.
pub(crate) fn algorithm1<S: Staging, A: FactorRouter, B: FactorRouter>(
    shape: Grid,
    f1: &A,
    f2: &B,
    pi: &Permutation,
    staging: &S,
    try_transpose: bool,
    compact: bool,
) -> RoutingSchedule {
    let mut scratch = RouteScratch::default();
    best_pass(shape, f1, f2, pi, staging, try_transpose, &mut scratch).emit(compact, &mut scratch)
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
    // In place: a side-128 schedule holds over a million swaps.
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
    fn an_expired_deadline_stops_the_line_phases() {
        // Each row permuted within itself: the identity σ stages it, so
        // no staging runs and every probe the route meets sits in its
        // line phases.
        use crate::budget::{self, BudgetExceeded, RouteBudget};
        use std::time::{Duration, Instant};
        let grid = Grid::new(32, 32);
        let pi = Permutation::from_vec(
            (0..grid.len())
                .map(|v| {
                    let (i, j) = grid.coords(v);
                    grid.index(i, generators::random(32, i as u64).apply(j))
                })
                .collect(),
        )
        .unwrap();
        let sigmas = vec![(0..32).collect::<Vec<usize>>(); 32];
        let route = || grid_route_with_sigmas(grid, &pi, &sigmas, LineStrategy::BestParity);
        assert!(route().realizes(&pi));
        let expired = RouteBudget::unlimited().deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(budget::with_budget(&expired, route), Err(BudgetExceeded));
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
