//! Euler-split decomposition of regular bipartite multigraphs.
//!
//! [`crate::decompose_regular`] peels perfect matchings with Hopcroft–Karp,
//! costing `k` full matching runs on a `k`-regular multigraph. The classic
//! improvement: when the degree is even, orient an Euler circuit and split
//! the edges alternately into two half-degree multigraphs — each split is
//! linear in the number of edges, so a `k`-regular graph decomposes with
//! only `O(log k)` levels of Hopcroft–Karp work (one matching peel per odd
//! degree encountered). This is the standard trick behind the
//! near-linear-time claims for the first phase of grid routing.
//!
//! No router calls it. On the column multigraphs the routers build (sides
//! up to 128), `decompose_regular`'s incremental peel is faster, and its
//! matchings are the ones the naive router's schedules are pinned to.

use crate::hopcroft_karp::hopcroft_karp;
use crate::multigraph::{BipartiteMultigraph, EdgeId};

/// Split a multiset of edges whose induced degrees are all even into two
/// halves such that every vertex keeps exactly half its degree in each
/// half (Euler-circuit alternation). Edges are given by id; the
/// multigraph supplies endpoints.
///
/// # Panics
/// Panics (debug) if some induced degree is odd.
pub fn euler_split(mg: &BipartiteMultigraph, edges: &[EdgeId]) -> (Vec<EdgeId>, Vec<EdgeId>) {
    let cols = mg.cols();
    // Vertex ids: left j -> j, right j -> cols + j.
    let nv = 2 * cols;
    // Incidence lists of (edge id, other endpoint).
    let mut inc: Vec<Vec<(EdgeId, usize)>> = vec![Vec::new(); nv];
    for &id in edges {
        let e = mg.edge(id);
        let (l, r) = (e.left, cols + e.right);
        inc[l].push((id, r));
        inc[r].push((id, l));
    }
    debug_assert!(inc.iter().all(|v| v.len() % 2 == 0), "degrees must be even");

    let mut used = vec![false; mg.num_edges()];
    let mut cursor = vec![0usize; nv];
    let mut half_a = Vec::with_capacity(edges.len() / 2);
    let mut half_b = Vec::with_capacity(edges.len() / 2);

    // Hierholzer over each component; alternate circuit edges into the
    // two halves. Circuits in a bipartite graph have even length, and at
    // every vertex the circuit pairs consecutive incident edges, so each
    // vertex's degree splits evenly.
    for start in 0..nv {
        loop {
            // Find an unused edge at `start`.
            while cursor[start] < inc[start].len() && used[inc[start][cursor[start]].0] {
                cursor[start] += 1;
            }
            if cursor[start] >= inc[start].len() {
                break;
            }
            // Trace a circuit from `start`.
            let mut circuit: Vec<EdgeId> = Vec::new();
            let mut v = start;
            loop {
                while cursor[v] < inc[v].len() && used[inc[v][cursor[v]].0] {
                    cursor[v] += 1;
                }
                if cursor[v] >= inc[v].len() {
                    break; // circuit closed back at a saturated vertex
                }
                let (id, w) = inc[v][cursor[v]];
                used[id] = true;
                circuit.push(id);
                v = w;
                if v == start {
                    // Circuit closed; keep extending only via the outer
                    // loop (Hierholzer splice is unnecessary for
                    // splitting: any partition of the edge set into
                    // closed circuits alternates consistently because
                    // every circuit has even length).
                    break;
                }
            }
            debug_assert!(
                circuit.len().is_multiple_of(2),
                "bipartite circuits have even length"
            );
            for (k, id) in circuit.into_iter().enumerate() {
                if k % 2 == 0 {
                    half_a.push(id);
                } else {
                    half_b.push(id);
                }
            }
        }
    }
    (half_a, half_b)
}

/// Decompose the alive edges of a `k`-regular bipartite multigraph into
/// `k` perfect matchings using Euler splits, peeling a Hopcroft–Karp
/// matching only at odd degrees. Edges are consumed from `mg`.
///
/// Produces the same *kind* of output as [`crate::decompose_regular`] —
/// `k` edge-disjoint perfect matchings partitioning the edges — typically
/// different matchings, asymptotically faster.
pub fn decompose_regular_euler(
    mg: &mut BipartiteMultigraph,
) -> Result<Vec<Vec<EdgeId>>, crate::decompose::DecomposeError> {
    let (dl, dr) = mg.degrees();
    let k = dl.first().copied().unwrap_or(0);
    for (col, &d) in dl.iter().enumerate() {
        if d != k {
            return Err(crate::decompose::DecomposeError::NotRegular { side_left: true, col });
        }
    }
    for (col, &d) in dr.iter().enumerate() {
        if d != k {
            return Err(crate::decompose::DecomposeError::NotRegular { side_left: false, col });
        }
    }

    fn rec(mg: &BipartiteMultigraph, edges: Vec<EdgeId>, k: usize, out: &mut Vec<Vec<EdgeId>>) {
        if k == 0 {
            debug_assert!(edges.is_empty());
            return;
        }
        if k == 1 {
            out.push(edges);
            return;
        }
        if k % 2 == 1 {
            // Peel one perfect matching with Hopcroft-Karp, then the rest
            // is even-regular.
            let cols = mg.cols();
            let mut rep: Vec<Vec<(u32, EdgeId)>> = vec![Vec::new(); cols];
            for &id in &edges {
                let e = mg.edge(id);
                if !rep[e.left].iter().any(|&(r, _)| r == e.right as u32) {
                    rep[e.left].push((e.right as u32, id));
                }
            }
            let adj: Vec<Vec<u32>> = rep
                .iter()
                .map(|v| v.iter().map(|&(r, _)| r).collect())
                .collect();
            let m = hopcroft_karp(cols, cols, &adj);
            debug_assert!(m.is_perfect(), "regular multigraph always has a PM");
            let mut matching = Vec::with_capacity(cols);
            let mut taken = vec![false; mg.num_edges()];
            for (l, r) in m.pairs() {
                let &(_, id) = rep[l].iter().find(|&&(rr, _)| rr as usize == r).unwrap();
                matching.push(id);
                taken[id] = true;
            }
            matching.sort_unstable_by_key(|&id| mg.edge(id).left);
            out.push(matching);
            let rest: Vec<EdgeId> = edges.into_iter().filter(|&id| !taken[id]).collect();
            rec(mg, rest, k - 1, out);
        } else {
            let (a, b) = euler_split(mg, &edges);
            rec(mg, a, k / 2, out);
            rec(mg, b, k / 2, out);
        }
    }

    let edges = mg.alive_edges();
    let mut out = Vec::with_capacity(k);
    rec(mg, edges, k, &mut out);
    for matching in &out {
        for &id in matching {
            mg.remove_edge(id);
        }
    }
    debug_assert_eq!(out.len(), k);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::LabeledEdge;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn random_regular(cols: usize, k: usize, seed: u64) -> BipartiteMultigraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = BipartiteMultigraph::new(cols);
        for layer in 0..k {
            let mut rights: Vec<usize> = (0..cols).collect();
            rights.shuffle(&mut rng);
            for (l, &r) in rights.iter().enumerate() {
                g.add_edge(LabeledEdge { left: l, right: r, src_row: layer, dst_row: layer });
            }
        }
        g
    }

    fn assert_valid(g: &BipartiteMultigraph, ms: &[Vec<EdgeId>], cols: usize, k: usize) {
        assert_eq!(ms.len(), k);
        let mut seen = std::collections::HashSet::new();
        for m in ms {
            assert_eq!(m.len(), cols);
            let mut lu = vec![false; cols];
            let mut ru = vec![false; cols];
            for &id in m {
                assert!(seen.insert(id));
                let e = g.edge(id);
                assert!(!lu[e.left] && !ru[e.right]);
                lu[e.left] = true;
                ru[e.right] = true;
            }
        }
    }

    #[test]
    fn euler_split_halves_degrees() {
        let g = random_regular(6, 4, 1);
        let edges = g.alive_edges();
        let (a, b) = euler_split(&g, &edges);
        assert_eq!(a.len(), 12);
        assert_eq!(b.len(), 12);
        for half in [&a, &b] {
            let mut dl = vec![0usize; 6];
            let mut dr = vec![0usize; 6];
            for &id in half.iter() {
                let e = g.edge(id);
                dl[e.left] += 1;
                dr[e.right] += 1;
            }
            assert!(dl.iter().all(|&d| d == 2), "left degrees {dl:?}");
            assert!(dr.iter().all(|&d| d == 2), "right degrees {dr:?}");
        }
    }

    #[test]
    fn decomposes_power_of_two_regular() {
        for (cols, k, seed) in [(4, 2, 0), (5, 4, 1), (8, 8, 2), (3, 16, 3)] {
            let mut g = random_regular(cols, k, seed);
            let before = g.save_alive();
            let ms = decompose_regular_euler(&mut g).unwrap();
            assert_valid(&g, &ms, cols, k);
            assert_eq!(g.num_alive(), 0);
            // The alive snapshot rewinds edge consumption for a re-run.
            g.restore_alive(&before);
            let again = decompose_regular_euler(&mut g).unwrap();
            assert_eq!(ms, again, "Euler decomposition must be deterministic");
        }
    }

    #[test]
    fn decomposes_odd_regular() {
        for (cols, k, seed) in [(4, 1, 0), (5, 3, 1), (6, 5, 2), (4, 7, 3)] {
            let mut g = random_regular(cols, k, seed);
            let ms = decompose_regular_euler(&mut g).unwrap();
            assert_valid(&g, &ms, cols, k);
        }
    }

    #[test]
    fn rejects_irregular() {
        let mut g = BipartiteMultigraph::new(2);
        g.add_edge(LabeledEdge { left: 0, right: 0, src_row: 0, dst_row: 0 });
        assert!(decompose_regular_euler(&mut g).is_err());
    }

    #[test]
    fn agrees_with_slow_decomposition_on_validity() {
        use crate::decompose::decompose_regular;
        for seed in 0..5 {
            // One multigraph, decomposed both ways via snapshot rewind.
            let mut g = random_regular(6, 6, seed);
            let before = g.save_alive();
            let slow = decompose_regular(&mut g).unwrap();
            g.restore_alive(&before);
            let fast = decompose_regular_euler(&mut g).unwrap();
            assert_valid(&g, &slow, 6, 6);
            assert_valid(&g, &fast, 6, 6);
        }
    }
}
