//! Routing on Cartesian products `G1 □ G2` (§IV): the factor routers the
//! one 3-phase pipeline of [`crate::grid_route`] runs on, and
//! [`product_route`], Algorithm 1 on a product.
//!
//! The grid algorithm only uses two properties of rows/columns: each
//! "column" is a copy of `G1`, each "row" a copy of `G2`, and both factors
//! admit a permutation router. A grid is `P □ P`, both factors routed by
//! odd–even transposition ([`PathFactor`]). Replacing a factor with a
//! cycle ([`CycleFactor`]), and `|i − r|` with the factor's graph distance
//! in the `Δ` metric, yields routing for cylinders (`P □ C`), tori
//! (`C □ C`) and any other product. [`product_route`] takes the same
//! [`LocalRouteOptions`] as the grid router, so on `P_m □ P_n` it is
//! swap-for-swap [`crate::local_grid::main_procedure`] on the `m × n`
//! grid. As the paper notes, the locality optimization is most meaningful
//! when the factors are path-like.

use crate::grid_route::{algorithm1, LineStrategy};
use crate::line::LineScratch;
use crate::local_grid::LocalRouteOptions;
use crate::schedule::RoutingSchedule;
use qroute_perm::Permutation;
use qroute_topology::{Cycle, Grid, Path, Product};
use std::borrow::Cow;

/// A permutation router for a one-dimensional factor graph.
pub trait FactorRouter {
    /// Number of vertices of the factor graph.
    fn len(&self) -> usize;
    /// `true` when the factor has no vertices (never, for paths/cycles).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Graph distance in the factor.
    fn dist(&self, u: usize, v: usize) -> usize;
    /// Route a permutation of the factor's vertices: rounds of disjoint
    /// swaps over factor edges realizing `targets[p]` = destination of the
    /// token at factor vertex `p`. The rounds may borrow `scratch`, so one
    /// phase routes every copy of the factor through the same buffers.
    fn route_line<'s>(
        &self,
        targets: &[usize],
        strategy: LineStrategy,
        scratch: &'s mut LineScratch,
    ) -> Cow<'s, [Vec<(usize, usize)>]>;
}

/// Path factor routed by odd–even transposition.
#[derive(Debug, Clone, Copy)]
pub struct PathFactor(pub Path);

impl FactorRouter for PathFactor {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn dist(&self, u: usize, v: usize) -> usize {
        self.0.dist(u, v)
    }
    fn route_line<'s>(
        &self,
        targets: &[usize],
        strategy: LineStrategy,
        scratch: &'s mut LineScratch,
    ) -> Cow<'s, [Vec<(usize, usize)>]> {
        Cow::Borrowed(strategy.route(targets, scratch))
    }
}

/// Cycle factor routed by cutting one edge and running odd–even
/// transposition on the remaining path.
///
/// Cut selection is a heuristic: we count, for every cycle edge, how many
/// tokens' shorter arcs cross it, and cut the least-crossed edge (ties to
/// the smallest index); we also try the trivial cut and keep the shallower
/// routing. Any cut yields a correct routing.
#[derive(Debug, Clone, Copy)]
pub struct CycleFactor(pub Cycle);

impl CycleFactor {
    /// Route after cutting the edge `(c, c+1 mod n)`.
    fn route_with_cut(
        &self,
        targets: &[usize],
        cut: usize,
        strategy: LineStrategy,
        scratch: &mut LineScratch,
    ) -> Vec<Vec<(usize, usize)>> {
        let n = self.0.len();
        // Path order after cutting (c, c+1): c+1, c+2, …, c.
        let start = (cut + 1) % n;
        let to_path = |v: usize| (v + n - start) % n;
        let to_cycle = |p: usize| (p + start) % n;
        let mut path_targets = vec![0usize; n];
        for v in 0..n {
            path_targets[to_path(v)] = to_path(targets[v]);
        }
        strategy
            .route(&path_targets, scratch)
            .iter()
            .map(|round| {
                round
                    .iter()
                    .map(|&(a, b)| (to_cycle(a), to_cycle(b)))
                    .collect()
            })
            .collect()
    }

    fn least_crossed_cut(&self, targets: &[usize]) -> usize {
        let n = self.0.len();
        let mut crossings = vec![0usize; n]; // edge e = (e, e+1 mod n)
        for (v, &t) in targets.iter().enumerate() {
            if v == t {
                continue;
            }
            let fwd = (t + n - v) % n;
            if fwd <= n - fwd {
                // Forward arc v -> t crosses edges v, v+1, …, t-1.
                let mut e = v;
                while e != t {
                    crossings[e] += 1;
                    e = (e + 1) % n;
                }
            } else {
                // Backward arc crosses edges v-1, v-2, …, t.
                let mut e = (v + n - 1) % n;
                loop {
                    crossings[e] += 1;
                    if e == t {
                        break;
                    }
                    e = (e + n - 1) % n;
                }
            }
        }
        (0..n).min_by_key(|&e| (crossings[e], e)).unwrap_or(0)
    }
}

impl FactorRouter for CycleFactor {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn dist(&self, u: usize, v: usize) -> usize {
        self.0.dist(u, v)
    }
    fn route_line<'s>(
        &self,
        targets: &[usize],
        strategy: LineStrategy,
        scratch: &'s mut LineScratch,
    ) -> Cow<'s, [Vec<(usize, usize)>]> {
        let best_cut = self.least_crossed_cut(targets);
        let a = self.route_with_cut(targets, best_cut, strategy, scratch);
        if best_cut == self.len() - 1 {
            return Cow::Owned(a);
        }
        let b = self.route_with_cut(targets, self.len() - 1, strategy, scratch);
        Cow::Owned(if b.len() < a.len() { b } else { a })
    }
}

/// Algorithm 1 on `G1 □ G2`: the locality-aware staging with `Δ` in `G1`'s
/// distance, three line phases, the factor swap `G2 □ G1` as the transpose
/// retry, and compaction, each as `opts` selects.
///
/// `f1` routes within copies of `G1` (the "columns", indexed by the second
/// coordinate); `f2` routes within copies of `G2` (the "rows").
///
/// # Panics
/// Panics when factor sizes disagree with the product or the permutation.
pub fn product_route<F1: FactorRouter, F2: FactorRouter>(
    product: &Product,
    f1: &F1,
    f2: &F2,
    pi: &Permutation,
    opts: &LocalRouteOptions,
) -> RoutingSchedule {
    assert_eq!(f1.len(), product.factor1().len(), "f1 size mismatch");
    assert_eq!(f2.len(), product.factor2().len(), "f2 size mismatch");
    assert_eq!(pi.len(), product.len(), "permutation size mismatch");
    let shape = Grid::new(f1.len(), f2.len());
    algorithm1(shape, f1, f2, pi, opts, opts.try_transpose, opts.compact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_grid::{AssignmentStrategy, WindowMode};
    use qroute_perm::generators;

    fn route(f: &CycleFactor, targets: &[usize]) -> Vec<Vec<(usize, usize)>> {
        f.route_line(targets, LineStrategy::BestParity, &mut LineScratch::new())
            .into_owned()
    }

    #[test]
    fn routes_on_torus() {
        let c1 = Cycle::new(4);
        let c2 = Cycle::new(6);
        let product = Product::new(c1.to_graph(), c2.to_graph());
        let graph = product.to_graph();
        for seed in 0..5 {
            let pi = generators::random(24, seed);
            let s = product_route(
                &product,
                &CycleFactor(c1),
                &CycleFactor(c2),
                &pi,
                &LocalRouteOptions::default(),
            );
            assert!(s.realizes(&pi), "torus seed {seed}");
            s.validate_on(&graph).unwrap();
        }
    }

    #[test]
    fn routes_on_cylinder() {
        let p = Path::new(3);
        let c = Cycle::new(7);
        let product = Product::new(p.to_graph(), c.to_graph());
        let graph = product.to_graph();
        for seed in 0..5 {
            let pi = generators::random(21, seed);
            for opts in [
                LocalRouteOptions::default(),
                LocalRouteOptions::paper(),
                LocalRouteOptions {
                    assignment: AssignmentStrategy::MinSum,
                    window: WindowMode::FullOnly,
                    compact: false,
                    ..Default::default()
                },
            ] {
                let s = product_route(&product, &PathFactor(p), &CycleFactor(c), &pi, &opts);
                assert!(s.realizes(&pi), "cylinder seed {seed} opts {opts:?}");
                s.validate_on(&graph).unwrap();
            }
        }
    }

    #[test]
    fn cycle_factor_routes_all_small_permutations() {
        fn perms(n: usize) -> Vec<Vec<usize>> {
            if n == 0 {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            for p in perms(n - 1) {
                for pos in 0..=p.len() {
                    let mut q = p.clone();
                    q.insert(pos, n - 1);
                    out.push(q);
                }
            }
            out
        }
        for n in [3, 4, 5] {
            let f = CycleFactor(Cycle::new(n));
            for t in perms(n) {
                let rounds = route(&f, &t);
                let mut at: Vec<usize> = (0..n).collect();
                for round in &rounds {
                    let mut used = vec![false; n];
                    for &(a, b) in round {
                        assert_eq!(f.dist(a, b), 1, "swap on non-edge");
                        assert!(!used[a] && !used[b]);
                        used[a] = true;
                        used[b] = true;
                        at.swap(a, b);
                    }
                }
                for (pos, &tok) in at.iter().enumerate() {
                    assert_eq!(t[tok], pos, "targets {t:?}");
                }
            }
        }
    }

    #[test]
    fn cycle_rotation_depth_is_near_the_conservation_bound() {
        // Swaps conserve total signed displacement, so a rotation by +1 on
        // C_n forces some token to travel n-1 steps the other way: depth is
        // at least n-1 no matter the router. The cut router should land
        // within one round of that bound (and never exceed the path bound).
        let n = 16;
        let f = CycleFactor(Cycle::new(n));
        let targets: Vec<usize> = (0..n).map(|v| (v + 1) % n).collect();
        let rounds = route(&f, &targets);
        assert!(
            rounds.len() >= n - 1,
            "impossible: beat the conservation bound"
        );
        assert!(rounds.len() <= n, "rotation took {} rounds", rounds.len());
    }

    #[test]
    fn cycle_local_permutation_is_shallow() {
        // Two far-apart adjacent transpositions across the wrap edge: the
        // least-crossed cut avoids separating them.
        let n = 12;
        let f = CycleFactor(Cycle::new(n));
        let mut targets: Vec<usize> = (0..n).collect();
        targets.swap(0, 11); // swap across the wrap edge
        targets.swap(5, 6);
        let rounds = route(&f, &targets);
        assert!(
            rounds.len() <= 2,
            "local swaps took {} rounds",
            rounds.len()
        );
    }
}
