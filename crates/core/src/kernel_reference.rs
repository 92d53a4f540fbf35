//! Differential test of the grid routing engine and its kernels:
//! verbatim copies of the code they replaced run beside the real routers,
//! and every schedule must match layer by layer, swap for swap.
//!
//! [`parent`] holds the replaced kernels: the doubling window sweep that
//! probed every band with `band_can_match`, the parallel-edge rebalance
//! with sorted medians, the `Δ` loop over every (matching, row) pair, the
//! odd–even kernel that rescanned the whole line every round, and the
//! peel extraction without its early exit. The extraction reads the
//! multigraph through its public accessors instead of its fields, and the
//! sweep calls that copy instead of the method.
//!
//! [`engine`] holds the 3-phase engine that counting and lockstep emission
//! replaced: each phase's lines routed one at a time, staged and scattered
//! layer-major into the pass, both orientations laid out, the transposed
//! one relabeled, the kept pass compacted, `hybrid` laying out both
//! routers' winners, and the cycle factor routing its cuts to rounds. Its
//! factor routers return rounds, from the replaced line kernel. The
//! `hybrid` arm reads the naive pass's compacted depth from `compact`
//! instead of the deleted `compacted_depth`, which counted the same
//! layers; nothing else is edited but names and paths.

use crate::grid_route::{build_column_multigraph, sigmas_from, LineStrategy, NaiveOptions};
use crate::line::{FirstParity, LineScratch};
use crate::local_grid::{main_procedure, AssignmentStrategy, LocalRouteOptions, WindowMode};
use crate::product_route::{product_route, CycleFactor, PathFactor};
use crate::router::{GridRouter, RouterKind};
use crate::schedule::RoutingSchedule;
use crate::snake::{serpentine_order, snake_route};
use qroute_perm::{generators, Permutation};
use qroute_topology::{Cycle, Grid, Path, Product};

/// The replaced kernels, verbatim but for the extraction's field reads and
/// the sweep's calls to that extraction.
mod parent {
    use super::*;
    use qroute_matching::hopcroft_karp::{hopcroft_karp, Matching};
    use qroute_matching::{bottleneck_assignment, min_sum_assignment, BipartiteMultigraph, EdgeId};

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
    fn find_local_matchings(
        grid: Grid,
        mg: &mut BipartiteMultigraph,
        window: WindowMode,
    ) -> Vec<Vec<EdgeId>> {
        let m = grid.rows();
        let mut found: Vec<Vec<EdgeId>> = Vec::with_capacity(m);

        if window == WindowMode::FullOnly {
            let all = mg.alive_edges();
            found = extract_perfect_matchings(mg, &all);
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
                    found.extend(extract_perfect_matchings(mg, &band));
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

    /// Greedily extract edge-disjoint perfect matchings from `candidate`.
    fn extract_perfect_matchings(
        mg: &mut BipartiteMultigraph,
        candidate: &[EdgeId],
    ) -> Vec<Vec<EdgeId>> {
        const END: usize = usize::MAX;
        let n = mg.cols();
        let mut out = Vec::new();
        if n == 0 {
            return out;
        }
        // Alive candidates in candidate order; a "position" indexes this.
        let listed: Vec<EdgeId> = candidate
            .iter()
            .copied()
            .filter(|&id| mg.is_alive(id))
            .collect();
        // Positions grouped by left column, ascending within each group.
        let mut start = vec![0usize; n + 1];
        for &id in &listed {
            start[mg.edge(id).left + 1] += 1;
        }
        for l in 0..n {
            start[l + 1] += start[l];
        }
        let mut by_left = vec![0usize; listed.len()];
        let mut fill = start.clone();
        for (pos, &id) in listed.iter().enumerate() {
            let l = mg.edge(id).left;
            by_left[fill[l]] = pos;
            fill[l] += 1;
        }
        // `next[pos]` links each position to the next one of its pair.
        // `adj[l]` lists `l`'s rights in order of their pairs' current
        // representative positions, which `heads[l]` holds alongside.
        // While left `l` is listed, `tail[r]` is the last position seen
        // of pair `(l, r)`.
        let mut next = vec![END; listed.len()];
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut heads: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut tail = vec![END; n];
        for l in 0..n {
            for &pos in &by_left[start[l]..start[l + 1]] {
                let r = mg.edge(listed[pos]).right;
                if tail[r] == END {
                    adj[l].push(r as u32);
                    heads[l].push(pos);
                } else {
                    next[tail[r]] = pos;
                }
                tail[r] = pos;
            }
            for &r in &adj[l] {
                tail[r as usize] = END;
            }
        }
        loop {
            let m: Matching = hopcroft_karp(n, n, &adj);
            if !m.is_perfect() {
                break;
            }
            let mut matching_ids = Vec::with_capacity(n);
            for (l, r) in m.pairs() {
                let k = adj[l]
                    .iter()
                    .position(|&rr| rr as usize == r)
                    .expect("matched pair must have a representative");
                let head = heads[l][k];
                let id = listed[head];
                mg.remove_edge(id);
                matching_ids.push(id);
                adj[l].remove(k);
                heads[l].remove(k);
                // Later listings of `id` itself are dead now too.
                let mut pos = next[head];
                while pos != END && !mg.is_alive(listed[pos]) {
                    pos = next[pos];
                }
                if pos != END {
                    let k = heads[l].partition_point(|&h| h < pos);
                    heads[l].insert(k, pos);
                    adj[l].insert(k, r as u32);
                }
            }
            out.push(matching_ids);
        }
        out
    }

    /// Recycled round storage: `rounds[..depth]` hold the current routing,
    /// later entries keep their capacity for the next routing.
    #[derive(Debug, Default)]
    struct RoundBuf {
        rounds: Vec<Vec<(usize, usize)>>,
        depth: usize,
    }

    impl RoundBuf {
        fn as_slice(&self) -> &[Vec<(usize, usize)>] {
            &self.rounds[..self.depth]
        }
    }

    /// The odd–even transposition core, writing rounds into recycled buffers.
    fn route_into(targets: &[usize], first: FirstParity, key: &mut Vec<usize>, buf: &mut RoundBuf) {
        let l = targets.len();
        debug_assert!({
            let mut seen = vec![false; l];
            targets
                .iter()
                .all(|&t| t < l && !std::mem::replace(&mut seen[t], true))
        });
        buf.depth = 0;
        if l <= 1 {
            return;
        }
        key.clear();
        key.extend_from_slice(targets);
        let mut parity = match first {
            FirstParity::Even => 0usize,
            FirstParity::Odd => 1usize,
        };
        // Odd-even transposition sort completes within l rounds; we allow one
        // extra slack round for the parity offset and assert completion.
        for _ in 0..=l {
            if key.iter().enumerate().all(|(p, &k)| p == k) {
                break;
            }
            if buf.depth == buf.rounds.len() {
                buf.rounds.push(Vec::new());
            }
            let round = &mut buf.rounds[buf.depth];
            round.clear();
            let mut p = parity;
            while p + 1 < l {
                if key[p] > key[p + 1] {
                    key.swap(p, p + 1);
                    round.push((p, p + 1));
                }
                p += 2;
            }
            if !round.is_empty() {
                buf.depth += 1;
            }
            parity ^= 1;
        }
        debug_assert!(
            key.iter().enumerate().all(|(p, &k)| p == k),
            "odd-even transposition failed to sort within L+1 rounds"
        );
    }

    /// One line routed by the replaced kernel from parity `first`.
    pub fn route_from(targets: &[usize], first: FirstParity) -> Vec<Vec<(usize, usize)>> {
        let mut buf = RoundBuf::default();
        route_into(targets, first, &mut Vec::new(), &mut buf);
        buf.as_slice().to_vec()
    }

    /// One line routed by the replaced kernel with the parity (or the
    /// shallower of both, ties to even) that `strategy` picks.
    pub fn route(targets: &[usize], strategy: LineStrategy) -> Vec<Vec<(usize, usize)>> {
        let even = route_from(targets, FirstParity::Even);
        if strategy == LineStrategy::EvenFirst {
            return even;
        }
        let odd = route_from(targets, FirstParity::Odd);
        if odd.len() < even.len() {
            odd
        } else {
            even
        }
    }

    /// The locality-aware staging with the replaced kernels.
    pub fn sigmas(
        opts: &LocalRouteOptions,
        shape: Grid,
        dist: impl Fn(usize, usize) -> usize,
        pi: &Permutation,
    ) -> Vec<Vec<usize>> {
        let mut mg = build_column_multigraph(shape, pi);
        let mut matchings = find_local_matchings(shape, &mut mg, opts.window);
        rebalance_parallel_edges(&mg, &mut matchings);
        let row_of = assign_rows(&mg, &matchings, opts.assignment, dist);
        sigmas_from(shape, &mg, &matchings, &row_of)
    }
}

/// The replaced 3-phase engine, over factor routers that return rounds.
mod engine {
    use super::*;
    use crate::grid_route::{transpose_instance, untranspose_schedule};
    use crate::schedule::vertex_id;

    /// Rounds of disjoint swaps on a line, stored flat.
    pub struct LineRounds {
        swaps: Vec<(u32, u32)>,
        ends: Vec<usize>,
    }

    impl LineRounds {
        pub fn new(swaps: Vec<(u32, u32)>, ends: Vec<usize>) -> LineRounds {
            LineRounds { swaps, ends }
        }

        pub fn depth(&self) -> usize {
            self.ends.len()
        }

        pub fn swaps(&self) -> &[(u32, u32)] {
            &self.swaps
        }

        pub fn ends(&self) -> &[usize] {
            &self.ends
        }

        pub fn iter(&self) -> impl Iterator<Item = &[(u32, u32)]> + '_ {
            let starts = std::iter::once(0).chain(self.ends.iter().copied());
            starts
                .zip(self.ends.iter().copied())
                .map(|(from, to)| &self.swaps[from..to])
        }
    }

    /// A permutation router for a one-dimensional factor graph that
    /// returns its rounds.
    pub trait FactorRouter {
        fn len(&self) -> usize;
        fn dist(&self, u: usize, v: usize) -> usize;
        fn route_line(&self, targets: &[usize], strategy: LineStrategy) -> LineRounds;
    }

    /// A staging: the step of the pipeline that picks the staging rows σ.
    pub trait Staging {
        fn line(&self) -> LineStrategy;

        fn sigmas<A: FactorRouter>(&self, shape: Grid, f1: &A, pi: &Permutation)
            -> Vec<Vec<usize>>;

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

    #[derive(Debug, Default)]
    pub struct PassScratch {
        swaps: Vec<(u32, u32)>,
        ends: Vec<usize>,
        staged: Vec<(u32, u32)>,
        rounds: Vec<(usize, usize)>,
        next: Vec<usize>,
    }

    impl PassScratch {
        fn phase<F: FactorRouter>(
            &mut self,
            factor: &F,
            targets: &[Vec<usize>],
            (step, stride): (usize, usize),
            strategy: LineStrategy,
        ) {
            let PassScratch { swaps, ends, staged, rounds, next } = self;
            staged.clear();
            rounds.clear();
            next.clear();
            for (c, line) in targets.iter().enumerate() {
                let base = c * step;
                for (k, round) in factor.route_line(line, strategy).iter().enumerate() {
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

        fn finish(&mut self) -> RoutingSchedule {
            let mut ends = std::mem::take(&mut self.ends);
            ends.shrink_to_fit();
            RoutingSchedule::from_parts(std::mem::take(&mut self.swaps), ends)
        }
    }

    pub fn route_phases<A: FactorRouter, B: FactorRouter>(
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
        let mut row_targets = vec![vec![usize::MAX; n]; m];
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
        scratch.phase(f1, sigmas, (1, n), strategy);
        scratch.phase(f2, &row_targets, (n, 1), strategy);
        scratch.phase(f1, &col_targets, (1, n), strategy);
        scratch.finish()
    }

    pub fn best_pass<S: Staging, A: FactorRouter, B: FactorRouter>(
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

    pub fn algorithm1<S: Staging, A: FactorRouter, B: FactorRouter>(
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

    /// The `Hybrid` arm of `route_on_untraced`; `local` is the
    /// locality-aware router's `main_procedure`.
    pub fn hybrid<S: Staging, A: FactorRouter>(
        grid: Grid,
        pi: &Permutation,
        local: RoutingSchedule,
        (f1, f2): (&A, &A),
        no: &S,
        no_compact: bool,
        no_try_transpose: bool,
    ) -> RoutingSchedule {
        let naive = best_pass(grid, f1, f2, pi, no, no_try_transpose);
        let naive_depth = if no_compact {
            naive.compact(grid.len()).depth()
        } else {
            naive.depth()
        };
        if naive_depth < local.depth() {
            drop(local);
            if no_compact {
                naive.compact(grid.len())
            } else {
                naive
            }
        } else {
            local
        }
    }
}

/// Rounds in the flat form the replaced engine takes.
fn flat(rounds: Vec<Vec<(usize, usize)>>) -> engine::LineRounds {
    let mut swaps = Vec::new();
    let mut ends = Vec::with_capacity(rounds.len());
    for round in rounds {
        swaps.extend(round.into_iter().map(|(a, b)| (a as u32, b as u32)));
        ends.push(swaps.len());
    }
    engine::LineRounds::new(swaps, ends)
}

/// A path factor routed by the replaced kernel.
struct ParentPath(Path);

impl engine::FactorRouter for ParentPath {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn dist(&self, u: usize, v: usize) -> usize {
        self.0.dist(u, v)
    }

    fn route_line(&self, targets: &[usize], strategy: LineStrategy) -> engine::LineRounds {
        flat(parent::route(targets, strategy))
    }
}

/// The replaced cycle factor: `CycleFactor::route_line` and
/// `route_with_cut`, each cut routed by the replaced kernel.
struct ParentCycle(Cycle);

impl ParentCycle {
    fn route_with_cut(
        &self,
        targets: &[usize],
        cut: usize,
        strategy: LineStrategy,
    ) -> engine::LineRounds {
        let n = self.0.len();
        let start = (cut + 1) % n;
        let to_path = |v: usize| (v + n - start) % n;
        let to_cycle = |p: u32| ((p as usize + start) % n) as u32;
        let mut path_targets = vec![0usize; n];
        for v in 0..n {
            path_targets[to_path(v)] = to_path(targets[v]);
        }
        let rounds = flat(parent::route(&path_targets, strategy));
        engine::LineRounds::new(
            rounds
                .swaps()
                .iter()
                .map(|&(a, b)| (to_cycle(a), to_cycle(b)))
                .collect(),
            rounds.ends().to_vec(),
        )
    }
}

impl engine::FactorRouter for ParentCycle {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn dist(&self, u: usize, v: usize) -> usize {
        self.0.dist(u, v)
    }

    fn route_line(&self, targets: &[usize], strategy: LineStrategy) -> engine::LineRounds {
        let best_cut = CycleFactor(self.0).least_crossed_cut(targets);
        let a = self.route_with_cut(targets, best_cut, strategy);
        if best_cut == self.len() - 1 {
            return a;
        }
        let b = self.route_with_cut(targets, self.len() - 1, strategy);
        if b.depth() < a.depth() {
            b
        } else {
            a
        }
    }
}

/// The locality-aware staging with the replaced kernels.
struct ParentStaging(LocalRouteOptions);

impl engine::Staging for ParentStaging {
    fn line(&self) -> LineStrategy {
        self.0.line
    }

    fn sigmas<A: engine::FactorRouter>(
        &self,
        shape: Grid,
        f1: &A,
        pi: &Permutation,
    ) -> Vec<Vec<usize>> {
        parent::sigmas(&self.0, shape, |u, v| f1.dist(u, v), pi)
    }
}

/// The naive staging, which no kernel change touched.
struct ParentNaive(NaiveOptions);

impl engine::Staging for ParentNaive {
    fn line(&self) -> LineStrategy {
        self.0.line
    }

    fn sigmas<A: engine::FactorRouter>(
        &self,
        shape: Grid,
        _f1: &A,
        pi: &Permutation,
    ) -> Vec<Vec<usize>> {
        let f1 = PathFactor(Path::new(shape.rows()));
        crate::grid_route::Staging::sigmas(&self.0, shape, &f1, pi)
    }
}

fn parent_factors(grid: Grid) -> (ParentPath, ParentPath) {
    (
        ParentPath(Path::new(grid.rows())),
        ParentPath(Path::new(grid.cols())),
    )
}

/// `main_procedure` on the replaced engine and kernels.
fn parent_local(grid: Grid, pi: &Permutation, opts: &LocalRouteOptions) -> RoutingSchedule {
    let (f1, f2) = parent_factors(grid);
    engine::algorithm1(
        grid,
        &f1,
        &f2,
        pi,
        &ParentStaging(*opts),
        opts.try_transpose,
        opts.compact,
    )
}

/// `naive_grid_route` on the replaced engine and line kernel.
fn parent_naive(grid: Grid, pi: &Permutation, opts: &NaiveOptions) -> RoutingSchedule {
    let (f1, f2) = parent_factors(grid);
    engine::algorithm1(
        grid,
        &f1,
        &f2,
        pi,
        &ParentNaive(*opts),
        opts.try_transpose,
        opts.compact,
    )
}

/// `RouterKind::Hybrid` on the replaced engine and kernels.
fn parent_hybrid(
    grid: Grid,
    pi: &Permutation,
    lo: &LocalRouteOptions,
    no: &NaiveOptions,
) -> RoutingSchedule {
    let local = parent_local(grid, pi, lo);
    let (f1, f2) = parent_factors(grid);
    engine::hybrid(
        grid,
        pi,
        local,
        (&f1, &f2),
        &ParentNaive(*no),
        no.compact,
        no.try_transpose,
    )
}

/// `snake_route` with the replaced line kernel.
fn parent_snake(grid: Grid, pi: &Permutation) -> RoutingSchedule {
    let order = serpentine_order(grid);
    let mut pos = vec![0usize; grid.len()];
    for (p, &v) in order.iter().enumerate() {
        pos[v] = p;
    }
    let targets: Vec<usize> = order.iter().map(|&v| pos[pi.apply(v)]).collect();
    let rounds = parent::route(&targets, LineStrategy::BestParity);
    RoutingSchedule::from_layers(
        rounds
            .iter()
            .map(|round| round.iter().map(|&(a, b)| (order[a], order[b]))),
    )
}

/// Assert `got` holds exactly `want`'s layers, reporting the first layer
/// that differs.
fn assert_same(got: &RoutingSchedule, want: &RoutingSchedule, at: &str) {
    for (k, (g, w)) in got.layers().zip(want.layers()).enumerate() {
        assert_eq!(g, w, "{at}: layer {k}");
    }
    assert_eq!(got.depth(), want.depth(), "{at}: depth");
}

/// The service's benchmark classes, on any grid shape.
fn classes(grid: Grid, seed: u64) -> Vec<(&'static str, Permutation)> {
    let n = grid.len();
    vec![
        ("random", generators::random(n, seed)),
        ("reversal", generators::reversal(n)),
        ("block2", generators::block_local(grid, 2, 2, seed)),
        ("block4", generators::block_local(grid, 4, 4, seed)),
        (
            "overlap4s2",
            generators::overlapping_blocks(grid, 4, 4, 2, 2, seed),
        ),
        ("skinny", generators::skinny_cycles(grid, seed)),
        (
            "sparse-pairs",
            generators::sparse_pairs(
                grid,
                (n / 16).max(1),
                (grid.rows().max(grid.cols()) / 4).max(2),
                seed,
            ),
        ),
    ]
}

/// Locality-aware option sets: the default, the paper's, one per
/// ablation of the assignment, the window search and the line strategy,
/// and the default without compaction and without the transpose retry.
fn local_options() -> [LocalRouteOptions; 7] {
    let base = LocalRouteOptions::default();
    [
        base,
        LocalRouteOptions::paper(),
        LocalRouteOptions { assignment: AssignmentStrategy::MinSum, ..base },
        LocalRouteOptions { window: WindowMode::FullOnly, ..base },
        LocalRouteOptions {
            assignment: AssignmentStrategy::InOrder,
            line: LineStrategy::EvenFirst,
            ..base
        },
        LocalRouteOptions { compact: false, ..base },
        LocalRouteOptions { try_transpose: false, ..base },
    ]
}

/// The two hybrids: the default, and the paper's locality-aware options
/// clamped by the plain naive router, neither compacting.
fn hybrids() -> [(LocalRouteOptions, NaiveOptions); 2] {
    let RouterKind::Hybrid(lo, no) = RouterKind::hybrid() else {
        unreachable!("hybrid() builds the hybrid router")
    };
    [
        (lo, no),
        (LocalRouteOptions::paper(), NaiveOptions::plain()),
    ]
}

/// Every grid router on `(grid, pi)` against its reference: each
/// locality-aware option set, naive plain, default and randomized, both
/// hybrids and snake. Returns the number of schedules compared.
fn compare_grid_routers(grid: Grid, pi: &Permutation, seed: u64, at: &str) -> usize {
    let mut compared = 0;
    for opts in local_options() {
        let at = format!("{at} locality-aware {opts:?}");
        assert_same(
            &main_procedure(grid, pi, &opts),
            &parent_local(grid, pi, &opts),
            &at,
        );
        compared += 1;
    }
    for opts in [
        NaiveOptions::plain(),
        NaiveOptions { compact: true, try_transpose: true, ..Default::default() },
        NaiveOptions { randomize: Some(seed), ..NaiveOptions::plain() },
    ] {
        let at = format!("{at} naive {opts:?}");
        let got = RouterKind::NaiveGrid(opts).route(grid, pi);
        assert_same(&got, &parent_naive(grid, pi, &opts), &at);
        compared += 1;
    }
    for (lo, no) in hybrids() {
        assert_same(
            &RouterKind::Hybrid(lo, no).route(grid, pi),
            &parent_hybrid(grid, pi, &lo, &no),
            &format!("{at} hybrid {lo:?} {no:?}"),
        );
        compared += 1;
    }
    assert_same(
        &snake_route(grid, pi),
        &parent_snake(grid, pi),
        &format!("{at} snake"),
    );
    compared + 1
}

/// Every grid router on `shapes`, seven classes and `seeds` seeds (the
/// reversal, which ignores the seed, once). Returns the number of
/// schedules compared.
fn compare_on_shapes(shapes: &[(usize, usize)], seeds: u64) -> usize {
    let mut compared = 0;
    for &(m, n) in shapes {
        let grid = Grid::new(m, n);
        for seed in 0..seeds {
            for (class, pi) in classes(grid, seed) {
                if class == "reversal" && seed > 0 {
                    continue;
                }
                let at = format!("{m}x{n} {class} seed {seed}");
                compared += compare_grid_routers(grid, &pi, seed, &at);
            }
        }
    }
    compared
}

/// Schedules [`compare_grid_routers`] compares per instance.
const PER_INSTANCE: usize = 7 + 3 + 2 + 1;

/// Instances per shape over `seeds` seeds: six seeded classes per seed,
/// one reversal.
fn instances(seeds: u64) -> usize {
    6 * seeds as usize + 1
}

/// Every grid router on grids 1×1 to 14×14 and non-square shapes up to
/// 20×13, against the replaced engine and kernels.
#[test]
fn grid_routes_match_the_replaced_kernels() {
    let mut shapes: Vec<(usize, usize)> = (1..=14).map(|s| (s, s)).collect();
    shapes.extend([
        (1, 7),
        (7, 1),
        (2, 5),
        (5, 2),
        (3, 8),
        (8, 3),
        (4, 11),
        (11, 4),
        (6, 9),
        (9, 6),
        (13, 20),
        (20, 13),
    ]);
    assert_eq!(
        compare_on_shapes(&shapes, 3),
        shapes.len() * instances(3) * PER_INSTANCE
    );
}

/// Shapes past 32 rows, where the sweep runs more doublings and lines
/// outgrow the small grids' windows. Optimized builds add 64×64 and
/// seeds 1 and 2; unoptimized ones, where a comparison costs far more,
/// take seed 0.
#[test]
fn large_grid_routes_match_the_replaced_kernels() {
    let mut shapes = vec![(32, 48), (48, 32), (40, 40)];
    let mut seeds = 1;
    if !cfg!(debug_assertions) {
        shapes.push((64, 64));
        seeds = 3;
    }
    assert_eq!(
        compare_on_shapes(&shapes, seeds),
        shapes.len() * instances(seeds) * PER_INSTANCE
    );
}

/// Algorithm 1 on tori and cylinders (cycle factors cut and routed as
/// paths) and on cycle × path products, against the replaced engine and
/// kernels.
#[test]
fn product_routes_match_the_replaced_kernels() {
    let mut compared = 0;
    for (m, n) in [(3, 3), (4, 6), (5, 4), (7, 7), (8, 5), (3, 10), (10, 3)] {
        let shape = Grid::new(m, n);
        let (pm, pn) = (Path::new(m), Path::new(n));
        let (cm, cn) = (Cycle::new(m), Cycle::new(n));
        for seed in 0..3 {
            for (class, pi) in classes(shape, seed) {
                for opts in local_options() {
                    let at = format!("{m}x{n} {class} seed {seed} {opts:?}");
                    let staging = ParentStaging(opts);
                    let torus = Product::new(cm.to_graph(), cn.to_graph());
                    assert_same(
                        &product_route(&torus, &CycleFactor(cm), &CycleFactor(cn), &pi, &opts),
                        &engine::algorithm1(
                            shape,
                            &ParentCycle(cm),
                            &ParentCycle(cn),
                            &pi,
                            &staging,
                            opts.try_transpose,
                            opts.compact,
                        ),
                        &format!("torus {at}"),
                    );
                    let cylinder = Product::new(pm.to_graph(), cn.to_graph());
                    assert_same(
                        &product_route(&cylinder, &PathFactor(pm), &CycleFactor(cn), &pi, &opts),
                        &engine::algorithm1(
                            shape,
                            &ParentPath(pm),
                            &ParentCycle(cn),
                            &pi,
                            &staging,
                            opts.try_transpose,
                            opts.compact,
                        ),
                        &format!("cylinder {at}"),
                    );
                    let cylinder_t = Product::new(cm.to_graph(), pn.to_graph());
                    assert_same(
                        &product_route(&cylinder_t, &CycleFactor(cm), &PathFactor(pn), &pi, &opts),
                        &engine::algorithm1(
                            shape,
                            &ParentCycle(cm),
                            &ParentPath(pn),
                            &pi,
                            &staging,
                            opts.try_transpose,
                            opts.compact,
                        ),
                        &format!("cycle-path {at}"),
                    );
                    compared += 3;
                }
            }
        }
    }
    assert_eq!(compared, 7 * 3 * 7 * 7 * 3);
}

/// Every permutation of `0..l`.
fn permutations(l: usize) -> Vec<Vec<usize>> {
    if l == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for p in permutations(l - 1) {
        for pos in 0..=p.len() {
            let mut q = p.clone();
            q.insert(pos, l - 1);
            out.push(q);
        }
    }
    out
}

/// The kernel on one line against the replaced one: both parities and
/// the best of both, through one warm scratch.
fn assert_same_line(scratch: &mut LineScratch, targets: &[usize]) {
    for first in [FirstParity::Even, FirstParity::Odd] {
        assert_eq!(
            scratch.route(targets, first).to_vecs(),
            parent::route_from(targets, first),
            "{targets:?} {first:?}"
        );
    }
    assert_eq!(
        scratch.route_best(targets).to_vecs(),
        parent::route(targets, LineStrategy::BestParity),
        "{targets:?} best"
    );
}

/// Every permutation of every line up to 8 positions, then random,
/// block-shuffled and near-sorted lines up to 300 positions.
#[test]
fn line_kernel_matches_the_replaced_kernel() {
    let mut scratch = LineScratch::new();
    let mut lines = 0;
    for l in 0..=8 {
        for targets in permutations(l) {
            assert_same_line(&mut scratch, &targets);
            lines += 1;
        }
    }
    assert_eq!(
        lines,
        (0..=8).map(|l| (1..=l).product::<usize>()).sum::<usize>()
    );
    for l in [9, 10, 17, 31, 64, 99, 128, 255, 256, 300] {
        let row = Grid::new(1, l);
        for seed in 0..4 {
            let cases = vec![
                generators::random(l, seed),
                generators::block_local(row, 1, 8, seed),
                generators::block_local(row, 1, 3, seed),
                generators::sparse_pairs(row, (l / 16).max(1), 2, seed),
                generators::sparse_pairs(row, 1, l / 2, seed),
            ];
            for pi in cases {
                assert_same_line(&mut scratch, pi.as_slice());
            }
        }
        // Cyclic shifts: one token crosses the line, the rest move by k.
        for k in [1, l / 2, l - 1] {
            let shift: Vec<usize> = (0..l).map(|p| (p + k) % l).collect();
            assert_same_line(&mut scratch, &shift);
        }
    }
}
