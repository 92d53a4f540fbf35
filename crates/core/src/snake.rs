//! Serpentine (boustrophedon) routing: emulate a path on the grid.
//!
//! Every grid has a Hamiltonian path snaking row by row (left-to-right,
//! then right-to-left). Routing a permutation with odd–even transposition
//! along that path is the classic "1-D emulation" baseline: trivially
//! correct, depth up to `m·n` — it makes the case for genuinely
//! two-dimensional routing, where the 3-phase scheme needs only
//! `O(m + n)` layers. Included as a baseline and as a fallback that works
//! on any grid without matching machinery.

use crate::line::LineScratch;
use crate::schedule::RoutingSchedule;
use qroute_perm::Permutation;
use qroute_topology::Grid;

/// The serpentine Hamiltonian path of the grid: row 0 left-to-right,
/// row 1 right-to-left, and so on. Consecutive entries are grid-adjacent.
pub fn serpentine_order(grid: Grid) -> Vec<usize> {
    let mut order = Vec::with_capacity(grid.len());
    for i in 0..grid.rows() {
        if i % 2 == 0 {
            for j in 0..grid.cols() {
                order.push(grid.index(i, j));
            }
        } else {
            for j in (0..grid.cols()).rev() {
                order.push(grid.index(i, j));
            }
        }
    }
    order
}

/// Route `π` by odd–even transposition along the serpentine path.
pub fn snake_route(grid: Grid, pi: &Permutation) -> RoutingSchedule {
    assert_eq!(grid.len(), pi.len(), "permutation size must match grid");
    let order = serpentine_order(grid);
    // Position of each vertex along the snake.
    let mut pos = vec![0usize; grid.len()];
    for (p, &v) in order.iter().enumerate() {
        pos[v] = p;
    }
    // Token at snake position p must reach position pos[π(order[p])].
    let targets: Vec<usize> = order.iter().map(|&v| pos[pi.apply(v)]).collect();
    let mut scratch = LineScratch::new();
    let rounds = scratch.route_best(&targets);
    RoutingSchedule::from_layers(rounds.iter().map(|round| {
        round
            .iter()
            .map(|&(a, b)| (order[a as usize], order[b as usize]))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qroute_perm::generators;

    #[test]
    fn serpentine_is_hamiltonian() {
        for (m, n) in [(1, 1), (1, 5), (5, 1), (3, 4), (4, 3)] {
            let grid = Grid::new(m, n);
            let order = serpentine_order(grid);
            assert_eq!(order.len(), grid.len());
            let mut seen = vec![false; grid.len()];
            for &v in &order {
                assert!(!seen[v]);
                seen[v] = true;
            }
            for w in order.windows(2) {
                assert_eq!(grid.dist(w[0], w[1]), 1, "snake broken at {w:?}");
            }
        }
    }

    #[test]
    fn snake_routes_random_permutations() {
        for (m, n) in [(1, 6), (4, 4), (3, 5)] {
            let grid = Grid::new(m, n);
            let graph = grid.to_graph();
            for seed in 0..4 {
                let pi = generators::random(grid.len(), seed);
                let s = snake_route(grid, &pi);
                assert!(s.realizes(&pi), "{m}x{n} seed {seed}");
                s.validate_on(&graph).unwrap();
                assert!(s.depth() <= grid.len());
            }
        }
    }

    #[test]
    fn snake_identity_is_free() {
        let grid = Grid::new(4, 4);
        assert_eq!(snake_route(grid, &Permutation::identity(16)).depth(), 0);
    }

    #[test]
    fn snake_is_much_deeper_than_two_dimensional_routing() {
        // The whole point of the paper: 1-D emulation wastes the second
        // dimension. On random permutations the snake should be several
        // times deeper than the 3-phase router.
        use crate::local_grid::local_grid_route;
        let grid = Grid::new(8, 8);
        let mut snake_total = 0usize;
        let mut local_total = 0usize;
        for seed in 0..4 {
            let pi = generators::random(64, seed);
            snake_total += snake_route(grid, &pi).depth();
            local_total += local_grid_route(grid, &pi).depth();
        }
        assert!(
            snake_total > 2 * local_total,
            "snake {snake_total} vs 3-phase {local_total}"
        );
    }
}
