//! Exact minimum-depth routing for tiny instances.
//!
//! Computing an optimal matching sequence is NP-hard (Banerjee & Richards,
//! cited as \[2\] by the paper), but tiny instances are exactly solvable by
//! breadth-first search over token configurations, where one step applies
//! any matching of the coupling graph. This gives ground truth for
//! *optimality gap* measurements of every router (the `repro -- optgap`
//! experiment) and for tests.

use crate::schedule::RoutingSchedule;
use qroute_perm::Permutation;
use qroute_topology::{Edge, Graph};
use std::collections::HashMap;

/// All non-empty matchings of `graph` (sets of pairwise-disjoint edges),
/// enumerated recursively. Exponential in general — intended for graphs
/// with at most ~12 edges.
pub fn all_matchings(graph: &Graph) -> Vec<Vec<Edge>> {
    let edges = graph.edges();
    let mut out = Vec::new();
    let mut current: Vec<Edge> = Vec::new();
    fn rec(
        k: usize,
        edges: &[Edge],
        used: &mut Vec<bool>,
        current: &mut Vec<Edge>,
        out: &mut Vec<Vec<Edge>>,
    ) {
        if k == edges.len() {
            if !current.is_empty() {
                out.push(current.clone());
            }
            return;
        }
        // Skip edge k.
        rec(k + 1, edges, used, current, out);
        // Take edge k if disjoint.
        let (u, v) = edges[k];
        if !used[u] && !used[v] {
            used[u] = true;
            used[v] = true;
            current.push((u, v));
            rec(k + 1, edges, used, current, out);
            current.pop();
            used[u] = false;
            used[v] = false;
        }
    }
    let mut used = vec![false; graph.len()];
    rec(0, edges, &mut used, &mut current, &mut out);
    out
}

/// Exact minimum number of swap layers realizing `π` on `graph`, with the
/// witnessing schedule, or `None` if not reachable within `max_depth`
/// layers (only possible for disconnected graphs or a too-small budget).
///
/// Complexity: `O(n! · #matchings)` states in the worst case — keep
/// `graph.len()` at 9 or below.
///
/// # Panics
/// Panics when sizes mismatch or the graph is too large (> 10 vertices).
pub fn optimal_schedule(
    graph: &Graph,
    pi: &Permutation,
    max_depth: usize,
) -> Option<RoutingSchedule> {
    let n = graph.len();
    assert_eq!(pi.len(), n, "permutation size must match graph");
    assert!(n <= 10, "exact search is limited to 10 vertices");

    // Configurations are `at` arrays: at[pos] = token. Start: identity.
    // Goal: token v at π(v), i.e. at[π(v)] = v.
    let start: Vec<u8> = (0..n as u8).collect();
    let mut goal = vec![0u8; n];
    for v in 0..n {
        goal[pi.apply(v)] = v as u8;
    }
    if start == goal {
        return Some(RoutingSchedule::empty());
    }

    let matchings = all_matchings(graph);
    // BFS with parent pointers for schedule reconstruction. States are
    // indexed by discovery order; `seen` maps configurations to indices.
    let mut seen: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut cfgs: Vec<Vec<u8>> = vec![start.clone()];
    let mut parents: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX)];
    let mut frontier: Vec<usize> = vec![0];
    seen.insert(start, 0);

    for _depth in 1..=max_depth {
        let mut next: Vec<usize> = Vec::new();
        for &idx in &frontier {
            for (mi, matching) in matchings.iter().enumerate() {
                let mut nc = cfgs[idx].clone();
                for &(u, v) in matching {
                    nc.swap(u, v);
                }
                if seen.contains_key(&nc) {
                    continue;
                }
                let new_idx = cfgs.len();
                seen.insert(nc.clone(), new_idx);
                parents.push((idx, mi));
                let done = nc == goal;
                cfgs.push(nc);
                if done {
                    let mut layers: Vec<&[Edge]> = Vec::new();
                    let mut cur = new_idx;
                    while parents[cur].0 != usize::MAX {
                        let (p, m) = parents[cur];
                        layers.push(&matchings[m]);
                        cur = p;
                    }
                    layers.reverse();
                    return Some(RoutingSchedule::from_layers(
                        layers.into_iter().map(|m| m.iter().copied()),
                    ));
                }
                next.push(new_idx);
            }
        }
        if next.is_empty() {
            return None;
        }
        frontier = next;
    }
    None
}

/// Exact minimum depth (see [`optimal_schedule`]).
pub fn optimal_depth(graph: &Graph, pi: &Permutation, max_depth: usize) -> Option<usize> {
    optimal_schedule(graph, pi, max_depth).map(|s| s.depth())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qroute_perm::generators;
    use qroute_topology::{Grid, Path};

    #[test]
    fn matchings_of_a_path() {
        // P4 edges: (0,1),(1,2),(2,3). Non-empty matchings:
        // {01},{12},{23},{01,23} = 4.
        let g = Path::new(4).to_graph();
        let ms = all_matchings(&g);
        assert_eq!(ms.len(), 4);
        for m in &ms {
            assert!(g.is_matching(m));
        }
    }

    #[test]
    fn identity_is_depth_zero() {
        let g = Grid::new(2, 2).to_graph();
        assert_eq!(optimal_depth(&g, &Permutation::identity(4), 5), Some(0));
    }

    #[test]
    fn single_swap_is_depth_one() {
        let g = Grid::new(2, 2).to_graph();
        let pi = Permutation::from_vec(vec![1, 0, 2, 3]).unwrap();
        assert_eq!(optimal_depth(&g, &pi, 5), Some(1));
    }

    #[test]
    fn double_disjoint_swap_is_still_depth_one() {
        let g = Grid::new(2, 2).to_graph();
        // Swap both horizontal pairs at once.
        let pi = Permutation::from_vec(vec![1, 0, 3, 2]).unwrap();
        assert_eq!(optimal_depth(&g, &pi, 5), Some(1));
    }

    #[test]
    fn four_cycle_rotation_needs_three_layers() {
        // On the 4-cycle (2x2 grid), rotating all four tokens: conservation
        // forces one token backward through 3 edges -> depth 3.
        let grid = Grid::new(2, 2);
        let g = grid.to_graph();
        // Rotation: 0 -> 1 -> 3 -> 2 -> 0 (following grid edges).
        let pi = Permutation::from_vec(vec![1, 3, 0, 2]).unwrap();
        assert_eq!(optimal_depth(&g, &pi, 6), Some(3));
    }

    #[test]
    fn optimal_schedule_realizes_and_validates() {
        let grid = Grid::new(2, 3);
        let g = grid.to_graph();
        for seed in 0..4 {
            let pi = generators::random(6, seed);
            let s = optimal_schedule(&g, &pi, 10).expect("2x3 routes within 10 layers");
            assert!(s.realizes(&pi), "seed {seed}");
            s.validate_on(&g).unwrap();
        }
    }

    #[test]
    fn routers_respect_the_exact_optimum() {
        use crate::router::{GridRouter, RouterKind};
        let grid = Grid::new(2, 3);
        let g = grid.to_graph();
        for seed in 0..4 {
            let pi = generators::random(6, seed);
            let opt = optimal_depth(&g, &pi, 10).unwrap();
            for router in [
                RouterKind::locality_aware(),
                RouterKind::naive(),
                RouterKind::Ats,
            ] {
                let d = router.route(grid, &pi).depth();
                assert!(d >= opt, "{} beat the optimum?!", router.name());
                assert!(
                    d <= 3 * opt.max(1) + 2,
                    "{} is {d} vs optimal {opt} (seed {seed})",
                    router.name()
                );
            }
        }
    }

    #[test]
    fn unreachable_within_budget() {
        let g = Path::new(4).to_graph();
        let pi = generators::reversal(4);
        // Reversal of P4 needs 4 layers (odd-even bound is tight-ish);
        // budget 1 must fail, generous budget succeeds.
        assert_eq!(optimal_depth(&g, &pi, 1), None);
        let d = optimal_depth(&g, &pi, 8).unwrap();
        assert!((3..=4).contains(&d), "reversal depth {d}");
    }
}
