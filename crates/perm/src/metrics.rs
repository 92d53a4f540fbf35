//! Locality metrics of permutations on grids.
//!
//! These quantify "how local" a routing instance is and provide the depth
//! lower bounds used in tests and experiment reports:
//! any swap-layer schedule realizing `π` needs at least
//! `max_v dist(v, π(v))` layers (a token moves at most one edge per layer),
//! and at least `ceil(Σ_v dist(v, π(v)) / ⌊n/2⌋)` layers (each layer moves
//! at most `⌊n/2⌋` tokens one step each... conservatively `Σ/2` per layer of
//! swaps, since a layer on an n-vertex graph has at most ⌊n/2⌋ swaps and a
//! swap reduces total remaining distance by at most 2).

use crate::permutation::Permutation;
use qroute_topology::{dist, DistanceOracle, Graph, Grid};

/// One pass over every token's L1 displacement: the sum, the maximum and
/// the number of tokens that move at all. The routing service computes it
/// once per grid job and feeds both `auto`'s features and the depth lower
/// bound from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Displacement {
    /// Sum over all tokens of the L1 distance to their destination.
    pub total: usize,
    /// Largest single-token L1 distance.
    pub max: usize,
    /// Tokens whose destination is not their own vertex (the support size).
    pub moved: usize,
}

impl Displacement {
    /// Scan `p` on `grid` once.
    pub fn of(grid: Grid, p: &Permutation) -> Displacement {
        assert_eq!(grid.len(), p.len());
        let mut out = Displacement::default();
        for (v, &img) in p.as_slice().iter().enumerate() {
            let d = grid.dist(v, img);
            out.total += d;
            out.max = out.max.max(d);
            out.moved += usize::from(d != 0);
        }
        out
    }

    /// `max(max, ceil(total / 2⌊n/2⌋))` for an instance on `n` vertices
    /// (see [`depth_lower_bound`]).
    pub fn depth_lower_bound(&self, n: usize) -> usize {
        combine_depth_bounds(self.total, self.max, n)
    }
}

/// Sum over all tokens of the L1 distance to their destination.
pub fn total_displacement(grid: Grid, p: &Permutation) -> usize {
    Displacement::of(grid, p).total
}

/// Largest single-token L1 distance — a lower bound on routing depth.
pub fn max_displacement(grid: Grid, p: &Permutation) -> usize {
    Displacement::of(grid, p).max
}

/// Combine the two depth bounds: `max(maxd, ceil(total / 2⌊n/2⌋))`.
///
/// A layer contains at most `⌊n/2⌋` swaps and each swap moves two tokens
/// one step, so a layer reduces total remaining displacement by at most
/// `2⌊n/2⌋`. Shared by every `depth_lower_bound*` variant so the formula
/// lives in one place.
fn combine_depth_bounds(total: usize, maxd: usize, n: usize) -> usize {
    let per_layer = 2 * (n / 2);
    let volume_bound = if per_layer == 0 {
        0
    } else {
        total.div_ceil(per_layer)
    };
    maxd.max(volume_bound)
}

/// Depth lower bound on a grid: `max(max_displacement, ceil(total / 2*⌊n/2⌋))`,
/// from one [`Displacement`] pass.
pub fn depth_lower_bound(grid: Grid, p: &Permutation) -> usize {
    if p.is_empty() {
        return 0;
    }
    Displacement::of(grid, p).depth_lower_bound(p.len())
}

/// Same bounds on an arbitrary graph, using BFS distances (one scratch
/// buffer reused across the `n` single-source passes; no `n × n` table).
pub fn depth_lower_bound_graph(graph: &Graph, p: &Permutation) -> usize {
    assert_eq!(graph.len(), p.len());
    let n = p.len();
    if n == 0 {
        return 0;
    }
    let mut row = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    let mut total = 0usize;
    let mut maxd = 0usize;
    for v in 0..n {
        dist::bfs_into(graph, v, &mut row, &mut queue);
        let d = row[p.apply(v)];
        assert_ne!(d, dist::UNREACHABLE, "destination unreachable from source");
        total += d as usize;
        maxd = maxd.max(d as usize);
    }
    combine_depth_bounds(total, maxd, n)
}

/// [`depth_lower_bound_graph`] with distances served by an oracle — the
/// hot-path form: on a grid pass a `GridOracle` and the bound costs `O(n)`
/// time and `O(1)` extra memory instead of `n` BFS runs.
///
/// # Panics
/// Panics when the sizes disagree or some destination is unreachable.
pub fn depth_lower_bound_oracle(oracle: &impl DistanceOracle, p: &Permutation) -> usize {
    assert_eq!(oracle.len(), p.len());
    let n = p.len();
    if n == 0 {
        return 0;
    }
    let mut total = 0usize;
    let mut maxd = 0usize;
    for v in 0..n {
        let d = oracle.dist(v, p.apply(v));
        assert_ne!(d, dist::UNREACHABLE, "destination unreachable from source");
        total += d as usize;
        maxd = maxd.max(d as usize);
    }
    combine_depth_bounds(total, maxd, n)
}

/// Total distance on an arbitrary graph (the ATS potential function `Φ`),
/// with one reused BFS scratch buffer.
pub fn total_distance_graph(graph: &Graph, p: &Permutation) -> usize {
    assert_eq!(graph.len(), p.len());
    let mut row = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    (0..p.len())
        .map(|v| {
            dist::bfs_into(graph, v, &mut row, &mut queue);
            row[p.apply(v)] as usize
        })
        .sum()
}

/// Total distance `Φ` with distances served by an oracle.
pub fn total_distance_oracle(oracle: &impl DistanceOracle, p: &Permutation) -> usize {
    assert_eq!(oracle.len(), p.len());
    (0..p.len())
        .map(|v| oracle.dist(v, p.apply(v)) as usize)
        .sum()
}

/// Histogram of cycle lengths (index = length, value = count); index 0 is
/// unused, index 1 counts fixed points.
pub fn cycle_length_histogram(p: &Permutation) -> Vec<usize> {
    let mut hist = vec![0usize; p.len() + 1];
    for c in p.cycles(true) {
        hist[c.len()] += 1;
    }
    hist
}

/// Running ranges of `i + j` and `i − j` over a set of grid vertices.
///
/// For two vertices `|Δi| + |Δj| = max(|Δ(i + j)|, |Δ(i − j)|)`, so the L1
/// diameter of a set is the larger of the two ranges: one pass, no pairs.
struct Extent {
    /// Smallest and largest `i + j`.
    sum: (usize, usize),
    /// Smallest and largest `i + cols − j` (`i − j`, shifted to stay
    /// unsigned).
    diff: (usize, usize),
}

impl Extent {
    const EMPTY: Extent = Extent { sum: (usize::MAX, 0), diff: (usize::MAX, 0) };

    fn add(&mut self, grid: Grid, v: usize) {
        let (i, j) = grid.coords(v);
        let (s, d) = (i + j, i + grid.cols() - j);
        self.sum = (self.sum.0.min(s), self.sum.1.max(s));
        self.diff = (self.diff.0.min(d), self.diff.1.max(d));
    }

    /// L1 diameter of the vertices added so far (0 for none).
    fn diameter(&self) -> usize {
        if self.sum.0 == usize::MAX {
            return 0;
        }
        (self.sum.1 - self.sum.0).max(self.diff.1 - self.diff.0)
    }
}

/// The *spread* of a cycle on the grid: the L1 diameter of its vertex set
/// (max pairwise L1 distance). Local workloads have small spreads.
///
/// Linear in the cycle length: the diameter is the larger of the ranges of
/// `i + j` and `i − j` over the cycle's coordinates.
pub fn cycle_spread(grid: Grid, cycle: &[usize]) -> usize {
    let mut extent = Extent::EMPTY;
    for &v in cycle {
        extent.add(grid, v);
    }
    extent.diameter()
}

/// Maximum cycle spread over all non-trivial cycles of `p` — the paper's
/// notion of "cycles contained within small regions" is `max_spread ≪
/// diameter`. Walks each cycle in place, so the whole scan is `O(n)`.
pub fn max_cycle_spread(grid: Grid, p: &Permutation) -> usize {
    let map = p.as_slice();
    let mut seen = vec![false; map.len()];
    let mut best = 0;
    for start in 0..map.len() {
        if seen[start] || map[start] == start {
            continue;
        }
        let mut extent = Extent::EMPTY;
        let mut v = start;
        while !seen[v] {
            seen[v] = true;
            extent.add(grid, v);
            v = map[v];
        }
        best = best.max(extent.diameter());
    }
    best
}

/// Block-locality score in `[0, 1]`: how well the instance matches the
/// paper's "cycles contained within small regions" regime.
///
/// Defined as `1 − max_cycle_spread / diameter`: `1.0` means every cycle
/// fits a single vertex (the identity), values near `1` mean all cycles
/// are confined to blocks far smaller than the grid, and `0` means some
/// cycle spans the full L1 diameter. The routing service's `auto`
/// dispatch policy keys off this feature — one `O(n)` walk over the
/// cycles ([`max_cycle_spread`]), far cheaper than trial-routing.
pub fn block_locality_score(grid: Grid, p: &Permutation) -> f64 {
    let diameter = (grid.rows() - 1) + (grid.cols() - 1);
    if diameter == 0 {
        return 1.0;
    }
    1.0 - max_cycle_spread(grid, p) as f64 / diameter as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn identity_metrics_are_zero() {
        let grid = Grid::new(4, 4);
        let p = Permutation::identity(16);
        assert_eq!(total_displacement(grid, &p), 0);
        assert_eq!(max_displacement(grid, &p), 0);
        assert_eq!(depth_lower_bound(grid, &p), 0);
        assert_eq!(max_cycle_spread(grid, &p), 0);
    }

    #[test]
    fn reversal_bounds() {
        let grid = Grid::new(1, 8);
        let p = generators::reversal(8);
        assert_eq!(max_displacement(grid, &p), 7);
        // total = 2*(7+5+3+1) = 32; per layer 2*4 = 8 -> volume bound 4.
        assert_eq!(total_displacement(grid, &p), 32);
        assert_eq!(depth_lower_bound(grid, &p), 7);
    }

    #[test]
    fn volume_term_binds_when_every_token_moves_the_maximum() {
        // The cycles (0 2 8 6 4) and (1 5 7 3) on 3×3: every token moves
        // exactly 2, so the max displacement is 2, but 18 units of
        // displacement at most 8 per layer need ⌈18/8⌉ = 3 layers.
        let grid = Grid::new(3, 3);
        let p = Permutation::from_vec(vec![2, 5, 8, 1, 0, 7, 4, 3, 6]).unwrap();
        let d = Displacement::of(grid, &p);
        assert_eq!((d.total, d.max, d.moved), (18, 2, 9));
        assert_eq!(d.depth_lower_bound(grid.len()), 3);
        assert_eq!(depth_lower_bound(grid, &p), 3);
    }

    #[test]
    fn graph_and_grid_bounds_agree_on_grid() {
        use qroute_topology::{GridOracle, LazyBfsOracle};
        let grid = Grid::new(3, 5);
        let g = grid.to_graph();
        for seed in 0..5 {
            let p = generators::random(grid.len(), seed);
            assert_eq!(
                depth_lower_bound(grid, &p),
                depth_lower_bound_graph(&g, &p),
                "seed {seed}"
            );
            assert_eq!(
                total_displacement(grid, &p),
                total_distance_graph(&g, &p),
                "seed {seed}"
            );
            // Oracle-served variants agree with both.
            let grid_oracle = GridOracle::new(grid);
            let lazy = LazyBfsOracle::new(&g);
            assert_eq!(
                depth_lower_bound(grid, &p),
                depth_lower_bound_oracle(&grid_oracle, &p),
                "seed {seed}"
            );
            assert_eq!(
                depth_lower_bound(grid, &p),
                depth_lower_bound_oracle(&lazy, &p),
                "seed {seed}"
            );
            assert_eq!(
                total_displacement(grid, &p),
                total_distance_oracle(&grid_oracle, &p),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn cycle_histogram_counts() {
        let p = Permutation::from_cycles(6, &[vec![0, 1, 2], vec![3, 4]]);
        let h = cycle_length_histogram(&p);
        assert_eq!(h[1], 1); // fixed point 5
        assert_eq!(h[2], 1);
        assert_eq!(h[3], 1);
    }

    #[test]
    fn block_local_has_bounded_spread() {
        let grid = Grid::new(12, 12);
        let p = generators::block_local(grid, 3, 3, 17);
        // A 3x3 block has L1 diameter 4.
        assert!(max_cycle_spread(grid, &p) <= 4);
    }

    #[test]
    fn block_locality_score_separates_regimes() {
        let grid = Grid::new(12, 12);
        assert_eq!(block_locality_score(grid, &Permutation::identity(144)), 1.0);
        assert_eq!(
            block_locality_score(Grid::new(1, 1), &Permutation::identity(1)),
            1.0
        );
        // Disjoint 3x3 blocks: spread <= 4, diameter 22 -> score >= 1 - 4/22.
        let local = generators::block_local(grid, 3, 3, 7);
        assert!(block_locality_score(grid, &local) >= 1.0 - 4.0 / 22.0);
        // The full reversal moves the corner token across the diameter.
        let global = generators::reversal(144);
        assert_eq!(block_locality_score(grid, &global), 0.0);
        for seed in 0..4 {
            let p = generators::random(144, seed);
            let s = block_locality_score(grid, &p);
            assert!((0.0..=1.0).contains(&s), "seed {seed}: {s}");
        }
    }

    #[test]
    fn spread_of_explicit_cycle() {
        let grid = Grid::new(4, 4);
        let cycle = vec![grid.index(0, 0), grid.index(3, 3), grid.index(0, 3)];
        assert_eq!(cycle_spread(grid, &cycle), 6);
    }
}
