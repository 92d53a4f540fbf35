//! Decomposition of a regular bipartite multigraph into perfect matchings.
//!
//! A `k`-regular bipartite multigraph decomposes into exactly `k` perfect
//! matchings (repeated application of Hall's theorem / König's
//! edge-coloring theorem). The naive `GridRoute` baseline of Alon, Chung
//! and Graham decomposes `G[1,m]` this way with *arbitrary* matchings —
//! precisely the step the paper replaces with locality-aware selection.

use crate::multigraph::{BipartiteMultigraph, EdgeId};

/// Failure modes of [`decompose_regular`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecomposeError {
    /// The multigraph's alive edges are not regular: some vertex degree
    /// differs from another.
    NotRegular {
        /// A vertex (side, index) with deviating degree.
        side_left: bool,
        /// The offending column index.
        col: usize,
    },
}

impl std::fmt::Display for DecomposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecomposeError::NotRegular { side_left, col } => write!(
                f,
                "multigraph is not regular at {} vertex {col}",
                if *side_left { "left" } else { "right" }
            ),
        }
    }
}

impl std::error::Error for DecomposeError {}

/// Decompose the alive edges of a `k`-regular bipartite multigraph into
/// exactly `k` perfect matchings, consuming the edges.
///
/// Returns the matchings as vectors of edge ids (each of length
/// `g.cols()`), in extraction order.
pub fn decompose_regular(g: &mut BipartiteMultigraph) -> Result<Vec<Vec<EdgeId>>, DecomposeError> {
    let (dl, dr) = g.degrees();
    let k = dl.first().copied().unwrap_or(0);
    for (col, &d) in dl.iter().enumerate() {
        if d != k {
            return Err(DecomposeError::NotRegular { side_left: true, col });
        }
    }
    for (col, &d) in dr.iter().enumerate() {
        if d != k {
            return Err(DecomposeError::NotRegular { side_left: false, col });
        }
    }
    let all = g.alive_edges();
    let matchings = g.extract_perfect_matchings(&all);
    debug_assert_eq!(
        matchings.len(),
        k,
        "regular multigraph must decompose into exactly k matchings"
    );
    Ok(matchings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::LabeledEdge;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Build a k-regular multigraph as a union of k random perfect
    /// matchings (then `decompose_regular` must recover *some* k perfect
    /// matchings, not necessarily the same ones).
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

    fn assert_valid_decomposition(g: &BipartiteMultigraph, ms: &[Vec<EdgeId>], cols: usize) {
        let mut seen = std::collections::HashSet::new();
        for m in ms {
            assert_eq!(m.len(), cols);
            let mut left_used = vec![false; cols];
            let mut right_used = vec![false; cols];
            for &id in m {
                assert!(seen.insert(id), "edge {id} reused across matchings");
                let e = g.edge(id);
                assert!(!left_used[e.left] && !right_used[e.right], "not a matching");
                left_used[e.left] = true;
                right_used[e.right] = true;
            }
        }
    }

    #[test]
    fn decomposes_random_regular_multigraphs() {
        for (cols, k, seed) in [(1, 1, 0), (2, 3, 1), (5, 4, 2), (8, 8, 3), (12, 3, 4)] {
            let mut g = random_regular(cols, k, seed);
            // Tombstoned edges keep their labels, so validity checks read
            // `g` directly; the alive snapshot (not a full clone) rewinds
            // the consumption for a second pass.
            let before = g.save_alive();
            let ms = decompose_regular(&mut g).unwrap();
            assert_eq!(ms.len(), k, "cols={cols} k={k}");
            assert_valid_decomposition(&g, &ms, cols);
            assert_eq!(g.num_alive(), 0);
            g.restore_alive(&before);
            assert_eq!(g.num_alive(), cols * k);
            let again = decompose_regular(&mut g).unwrap();
            assert_eq!(ms, again, "decomposition must be deterministic");
        }
    }

    #[test]
    fn rejects_irregular() {
        let mut g = BipartiteMultigraph::new(2);
        g.add_edge(LabeledEdge { left: 0, right: 0, src_row: 0, dst_row: 0 });
        let err = decompose_regular(&mut g).unwrap_err();
        assert!(matches!(err, DecomposeError::NotRegular { .. }));
    }

    #[test]
    fn zero_regular_is_empty_decomposition() {
        // With no columns, Hopcroft–Karp calls the empty matching
        // perfect; the peel loop must still stop.
        for cols in [0, 3] {
            let mut g = BipartiteMultigraph::new(cols);
            assert_eq!(decompose_regular(&mut g), Ok(vec![]));
        }
    }

    #[test]
    fn parallel_heavy_multigraph() {
        // All k edges of each left vertex point to the same right vertex
        // (a permutation multigraph with multiplicity k).
        let cols = 4;
        let k = 5;
        let mut g = BipartiteMultigraph::new(cols);
        for l in 0..cols {
            for c in 0..k {
                g.add_edge(LabeledEdge { left: l, right: (l + 1) % cols, src_row: c, dst_row: c });
            }
        }
        let ms = decompose_regular(&mut g).unwrap();
        assert_eq!(ms.len(), k);
        assert_valid_decomposition(&g, &ms, cols);
    }
}
