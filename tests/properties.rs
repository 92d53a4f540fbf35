//! Property-based tests over the whole stack.

use proptest::prelude::*;
use qroute::perm::{metrics, Permutation};
use qroute::prelude::*;
use qroute::routing::line::{route_line, route_line_best, FirstParity};
use qroute::routing::token_swap;
use qroute::topology::{dist, DistanceOracle, GridOracle, LazyBfsOracle};

/// Strategy: a grid shape and a random permutation of its vertices.
fn grid_and_perm() -> impl Strategy<Value = (usize, usize, Vec<usize>)> {
    (1usize..=6, 1usize..=6).prop_flat_map(|(m, n)| {
        let len = m * n;
        (
            Just(m),
            Just(n),
            Just((0..len).collect::<Vec<usize>>()).prop_shuffle(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn locality_router_realizes_any_permutation((m, n, map) in grid_and_perm()) {
        let grid = Grid::new(m, n);
        let pi = Permutation::from_vec(map).unwrap();
        let s = RouterKind::locality_aware().route(grid, &pi);
        prop_assert!(s.realizes(&pi));
        prop_assert!(s.validate_on(&grid.to_graph()).is_ok());
        prop_assert!(s.depth() >= metrics::max_displacement(grid, &pi));
        // 3-phase envelope (each phase <= line length, on either
        // orientation thanks to the transpose trick).
        prop_assert!(s.depth() <= 2 * m.max(n) + m + n);
    }

    #[test]
    fn naive_router_realizes_any_permutation((m, n, map) in grid_and_perm()) {
        let grid = Grid::new(m, n);
        let pi = Permutation::from_vec(map).unwrap();
        let s = RouterKind::naive().route(grid, &pi);
        prop_assert!(s.realizes(&pi));
        prop_assert!(s.validate_on(&grid.to_graph()).is_ok());
    }

    #[test]
    fn ats_realizes_any_permutation((m, n, map) in grid_and_perm()) {
        let grid = Grid::new(m, n);
        let pi = Permutation::from_vec(map).unwrap();
        let s = RouterKind::Ats.route(grid, &pi);
        prop_assert!(s.realizes(&pi));
        prop_assert!(s.validate_on(&grid.to_graph()).is_ok());
    }

    #[test]
    fn serial_ats_never_uses_fallback((m, n, map) in grid_and_perm()) {
        let grid = Grid::new(m, n);
        let pi = Permutation::from_vec(map).unwrap();
        let out = token_swap::approximate_token_swapping(&grid.to_graph(), &pi);
        prop_assert!(!out.fallback_used);
        // Serial swap count within the 4-approx envelope of the distance
        // lower bound: opt >= phi/2, so swaps <= 4*opt means
        // swaps <= 2*phi ... plus slack for tiny instances.
        let phi = metrics::total_displacement(grid, &pi);
        prop_assert!(out.num_swaps() <= 2 * phi + 4);
    }

    #[test]
    fn grid_oracle_agrees_with_apsp_on_random_grids((m, n) in (1usize..=10, 1usize..=10)) {
        // Grids up to n = 100 vertices: the closed-form Manhattan oracle
        // must agree pairwise with the test-only BFS all-pairs table.
        let grid = Grid::new(m, n);
        let graph = grid.to_graph();
        let oracle = GridOracle::new(grid);
        let apsp = dist::all_pairs(&graph);
        for (u, row) in apsp.iter().enumerate() {
            for (v, &duv) in row.iter().enumerate() {
                prop_assert_eq!(oracle.dist(u, v), duv);
            }
        }
    }

    #[test]
    fn lazy_bfs_oracle_agrees_with_apsp_on_random_connected_graphs(
        (n, seed) in (2usize..=100, 0u64..1 << 32)
    ) {
        // Random connected graph: a random spanning tree (vertex i hangs
        // off a random j < i) plus ~n/2 random extra edges.
        let mut state = seed ^ 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let mut edges: Vec<(usize, usize)> = (1..n)
            .map(|i| (i, (next() % i as u64) as usize))
            .collect();
        for _ in 0..n / 2 {
            let u = (next() % n as u64) as usize;
            let v = (next() % n as u64) as usize;
            if u != v {
                edges.push((u, v));
            }
        }
        let graph = Graph::from_edges(n, edges).unwrap();
        prop_assert!(graph.is_connected());
        let oracle = LazyBfsOracle::new(&graph);
        let apsp = dist::all_pairs(&graph);
        for (u, row) in apsp.iter().enumerate() {
            for (v, &duv) in row.iter().enumerate() {
                prop_assert_eq!(oracle.dist(u, v), duv);
            }
        }
    }

    #[test]
    fn hybrid_clamp_always_holds((m, n, map) in grid_and_perm()) {
        let grid = Grid::new(m, n);
        let pi = Permutation::from_vec(map).unwrap();
        let h = RouterKind::hybrid().route(grid, &pi).depth();
        let l = RouterKind::locality_aware().route(grid, &pi).depth();
        let nv = RouterKind::naive().route(grid, &pi).depth();
        prop_assert!(h <= l.min(nv));
    }

    #[test]
    fn compaction_preserves_realized_permutation((m, n, map) in grid_and_perm()) {
        let grid = Grid::new(m, n);
        let pi = Permutation::from_vec(map).unwrap();
        let s = RouterKind::Tree.route(grid, &pi);
        let c = s.compact(grid.len());
        prop_assert!(c.depth() <= s.depth());
        prop_assert_eq!(
            s.realized_permutation(grid.len()),
            c.realized_permutation(grid.len())
        );
    }

    #[test]
    fn odd_even_line_router_sorts_any_permutation(targets in proptest::collection::vec(0usize..1, 0..1).prop_flat_map(|_| (0usize..9).prop_flat_map(|l| Just((0..l).collect::<Vec<usize>>()).prop_shuffle()))) {
        for first in [FirstParity::Even, FirstParity::Odd] {
            let rounds = route_line(&targets, first);
            prop_assert!(rounds.len() <= targets.len());
            // Verify realization.
            let l = targets.len();
            let mut at: Vec<usize> = (0..l).collect();
            for round in &rounds {
                for &(a, b) in round {
                    at.swap(a, b);
                }
            }
            for (pos, &tok) in at.iter().enumerate() {
                prop_assert_eq!(targets[tok], pos);
            }
        }
        prop_assert!(route_line_best(&targets).len() <= targets.len());
    }

    #[test]
    fn permutation_algebra(map in Just((0..20usize).collect::<Vec<usize>>()).prop_shuffle()) {
        let p = Permutation::from_vec(map).unwrap();
        prop_assert!(p.compose(&p.inverse()).is_identity());
        prop_assert!(p.inverse().compose(&p).is_identity());
        let cycles = p.cycles(false);
        let rebuilt = Permutation::from_cycles(20, &cycles);
        prop_assert_eq!(rebuilt, p.clone());
        // Support = sum of non-trivial cycle lengths.
        let support: usize = cycles.iter().map(Vec::len).sum();
        prop_assert_eq!(support, p.support_size());
    }

    #[test]
    fn schedule_size_counts_swaps((m, n, map) in grid_and_perm()) {
        let grid = Grid::new(m, n);
        let pi = Permutation::from_vec(map).unwrap();
        let s = RouterKind::locality_aware().route(grid, &pi);
        let counted: usize = s.layers().map(<[_]>::len).sum();
        prop_assert_eq!(s.size(), counted);
        prop_assert_eq!(s.depth(), s.layers().count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn transpiler_output_always_feasible(seed in 0u64..1000, gates in 5usize..30) {
        let grid = Grid::new(3, 3);
        let logical = qroute::circuit::builders::random_two_qubit_circuit(9, gates, seed);
        let t = Transpiler::new(grid, TranspileOptions::default());
        let res = t.run(&logical);
        prop_assert!(res.physical.is_feasible(|a, b| grid.dist(a, b) == 1));
        prop_assert_eq!(res.physical.size(), logical.size() + res.swap_count);
    }
}
