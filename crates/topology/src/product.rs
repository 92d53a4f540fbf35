//! Cartesian products `G1 □ G2`.
//!
//! Vertices of the product are pairs `(u, v)` with `u ∈ G1`, `v ∈ G2`;
//! `(u, v) ~ (u', v')` iff (`u = u'` and `v ~ v'` in `G2`) or (`v = v'` and
//! `u ~ u'` in `G1`). The `m × n` grid is `P_m □ P_n`; replacing either
//! factor with a cycle yields cylinders and tori. The paper's routing
//! algorithm generalizes to any product (§IV), treating copies of `G1` as
//! "columns" and copies of `G2` as "rows".

use crate::graph::Graph;

/// The Cartesian product of two graphs with row-major pair indexing:
/// vertex `(u, v)` has id `u * g2.len() + v`.
#[derive(Debug, Clone)]
pub struct Product {
    g1: Graph,
    g2: Graph,
}

impl Product {
    /// Form `g1 □ g2`.
    pub fn new(g1: Graph, g2: Graph) -> Product {
        Product { g1, g2 }
    }

    /// First factor (indexes "rows" of the product; copies of `g1` are the
    /// *columns*, in grid terminology).
    #[inline]
    pub fn factor1(&self) -> &Graph {
        &self.g1
    }

    /// Second factor.
    #[inline]
    pub fn factor2(&self) -> &Graph {
        &self.g2
    }

    /// Total number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.g1.len() * self.g2.len()
    }

    /// `true` iff either factor is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear id of pair `(u, v)`.
    #[inline]
    pub fn index(&self, u: usize, v: usize) -> usize {
        debug_assert!(u < self.g1.len() && v < self.g2.len());
        u * self.g2.len() + v
    }

    /// Pair `(u, v)` of linear id `x`.
    #[inline]
    pub fn coords(&self, x: usize) -> (usize, usize) {
        debug_assert!(x < self.len());
        (x / self.g2.len(), x % self.g2.len())
    }

    /// Materialize the product as a flat [`Graph`].
    pub fn to_graph(&self) -> Graph {
        let n1 = self.g1.len();
        let n2 = self.g2.len();
        let mut edges = Vec::with_capacity(n1 * self.g2.num_edges() + n2 * self.g1.num_edges());
        for u in 0..n1 {
            for &(a, b) in self.g2.edges() {
                edges.push((self.index(u, a), self.index(u, b)));
            }
        }
        for v in 0..n2 {
            for &(a, b) in self.g1.edges() {
                edges.push((self.index(a, v), self.index(b, v)));
            }
        }
        Graph::from_edges(self.len(), edges).expect("product edges are always valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::path::Path;

    #[test]
    fn product_of_paths_is_grid() {
        let p = Product::new(Path::new(3).to_graph(), Path::new(4).to_graph());
        let from_product = p.to_graph();
        let from_grid = Grid::new(3, 4).to_graph();
        assert_eq!(from_product.len(), from_grid.len());
        assert_eq!(from_product.edges(), from_grid.edges());
    }

    #[test]
    fn torus_degrees() {
        use crate::cycle::Cycle;
        let t = Product::new(Cycle::new(4).to_graph(), Cycle::new(5).to_graph());
        let g = t.to_graph();
        for v in 0..g.len() {
            assert_eq!(g.degree(v), 4);
        }
        assert_eq!(g.num_edges(), 2 * 20);
    }

    #[test]
    fn cylinder_structure() {
        use crate::cycle::Cycle;
        let c = Product::new(Path::new(3).to_graph(), Cycle::new(4).to_graph());
        let g = c.to_graph();
        // Path endpoints contribute degree 3 vertices; middle row degree 4.
        assert_eq!(g.degree(c.index(0, 0)), 3);
        assert_eq!(g.degree(c.index(1, 0)), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn index_coords_round_trip() {
        let p = Product::new(Path::new(5).to_graph(), Path::new(2).to_graph());
        for x in 0..p.len() {
            let (u, v) = p.coords(x);
            assert_eq!(p.index(u, v), x);
        }
    }
}
