//! The bipartite multigraph `G[a,b]` of §IV-A.
//!
//! Left and right vertex sets are both the columns `[n]` of the grid. For
//! every qubit at `(i, j)` with destination `π(i, j) = (i', j')` and
//! `i ∈ {a,…,b}` there is one parallel edge `j → j'` carrying the label
//! `(i, i')` — the source and destination *rows* of that qubit. A perfect
//! matching of the full `G[1,m]` selects, for each column, one qubit that
//! will be staged in a common row.

use crate::hopcroft_karp::{hopcroft_karp, Matching};

/// Identifier of a parallel edge (index into the edge array).
pub type EdgeId = usize;

/// One parallel edge of the multigraph: a single qubit's column movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledEdge {
    /// Source column `j`.
    pub left: usize,
    /// Destination column `j'`.
    pub right: usize,
    /// Source row `i` (the paper's band restriction filters on this).
    pub src_row: usize,
    /// Destination row `i'`.
    pub dst_row: usize,
}

/// A bipartite multigraph on `cols + cols` vertices with labeled parallel
/// edges and tombstone deletion.
#[derive(Debug, Clone)]
pub struct BipartiteMultigraph {
    cols: usize,
    edges: Vec<LabeledEdge>,
    alive: Vec<bool>,
    num_alive: usize,
    /// One `(source row, first edge id)` run per row while edges arrive
    /// in row-major order (source rows never decrease), as the column
    /// multigraph's do: a row's edges are then the ids from its run's
    /// start to the next run's, and [`BipartiteMultigraph::band_edges`]
    /// visits only the band's rows. `None` once an edge arrives out of
    /// row order.
    row_runs: Option<Vec<(usize, EdgeId)>>,
}

/// A snapshot of a multigraph's alive-edge set.
///
/// Decomposition consumes edges by tombstoning; callers that want to
/// rewind (re-decompose with a different strategy, validate against the
/// pre-decomposition state) used to `clone()` the whole multigraph —
/// edge labels included — even though only the tombstones change. A
/// snapshot copies just the alive bitset, and
/// [`BipartiteMultigraph::restore_alive`] writes it back in place.
#[derive(Debug, Clone)]
pub struct AliveSnapshot {
    alive: Vec<bool>,
    num_alive: usize,
}

impl BipartiteMultigraph {
    /// Create an empty multigraph on `cols` columns per side.
    pub fn new(cols: usize) -> BipartiteMultigraph {
        BipartiteMultigraph {
            cols,
            edges: Vec::new(),
            alive: Vec::new(),
            num_alive: 0,
            row_runs: Some(Vec::new()),
        }
    }

    /// Number of columns per side.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Add a labeled parallel edge; returns its id.
    ///
    /// # Panics
    /// Panics when a column endpoint is out of range.
    pub fn add_edge(&mut self, e: LabeledEdge) -> EdgeId {
        assert!(
            e.left < self.cols && e.right < self.cols,
            "column out of range"
        );
        let id = self.edges.len();
        if let Some(runs) = &mut self.row_runs {
            match runs.last() {
                Some(&(row, _)) if row > e.src_row => self.row_runs = None,
                Some(&(row, _)) if row == e.src_row => {}
                _ => runs.push((e.src_row, id)),
            }
        }
        self.edges.push(e);
        self.alive.push(true);
        self.num_alive += 1;
        id
    }

    /// Total number of edges ever added.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of edges not yet removed.
    #[inline]
    pub fn num_alive(&self) -> usize {
        self.num_alive
    }

    /// Edge data by id (dead edges remain accessible).
    #[inline]
    pub fn edge(&self, id: EdgeId) -> LabeledEdge {
        self.edges[id]
    }

    /// `true` when the edge has not been removed.
    #[inline]
    pub fn is_alive(&self, id: EdgeId) -> bool {
        self.alive[id]
    }

    /// Remove an edge (idempotent).
    pub fn remove_edge(&mut self, id: EdgeId) {
        if self.alive[id] {
            self.alive[id] = false;
            self.num_alive -= 1;
        }
    }

    /// Capture the current alive-edge set (see [`AliveSnapshot`]).
    pub fn save_alive(&self) -> AliveSnapshot {
        AliveSnapshot { alive: self.alive.clone(), num_alive: self.num_alive }
    }

    /// Restore a previously captured alive-edge set, undoing every
    /// removal (and resurrecting nothing that was already dead at capture
    /// time). The edge array itself is append-only, so a snapshot stays
    /// valid as long as no edges were added after it was taken.
    ///
    /// # Panics
    /// Panics when edges were added since the snapshot was captured.
    pub fn restore_alive(&mut self, snapshot: &AliveSnapshot) {
        assert_eq!(
            snapshot.alive.len(),
            self.alive.len(),
            "snapshot predates {} added edges",
            self.alive.len().saturating_sub(snapshot.alive.len())
        );
        self.alive.copy_from_slice(&snapshot.alive);
        self.num_alive = snapshot.num_alive;
    }

    /// Ids of alive edges whose *source row* lies in `band` (inclusive),
    /// the restriction `G[a,b]` of the paper, in ascending id order.
    ///
    /// On a multigraph built in row-major order the band is one id range,
    /// so a probe visits only the band's edges; otherwise every edge is
    /// scanned.
    pub fn band_edges(&self, band: (usize, usize)) -> Vec<EdgeId> {
        let (a, b) = band;
        let Some(runs) = &self.row_runs else {
            return (0..self.edges.len())
                .filter(|&id| self.alive[id] && (a..=b).contains(&self.edges[id].src_row))
                .collect();
        };
        let start = |run: usize| runs.get(run).map_or(self.edges.len(), |&(_, id)| id);
        let first = start(runs.partition_point(|&(row, _)| row < a));
        let end = start(runs.partition_point(|&(row, _)| row <= b));
        (first..end).filter(|&id| self.alive[id]).collect()
    }

    /// Ids of all alive edges.
    pub fn alive_edges(&self) -> Vec<EdgeId> {
        (0..self.edges.len()).filter(|&id| self.alive[id]).collect()
    }

    /// Left-degree and right-degree arrays over alive edges.
    pub fn degrees(&self) -> (Vec<usize>, Vec<usize>) {
        let mut dl = vec![0usize; self.cols];
        let mut dr = vec![0usize; self.cols];
        for (id, e) in self.edges.iter().enumerate() {
            if self.alive[id] {
                dl[e.left] += 1;
                dr[e.right] += 1;
            }
        }
        (dl, dr)
    }

    /// Greedily extract *edge-disjoint perfect matchings* from the listed
    /// edge subset: repeatedly run Hopcroft–Karp on the surviving subset
    /// until no perfect matching exists. Extracted edges are removed from
    /// the multigraph. Returns the extracted matchings as vectors of edge
    /// ids (each of length `cols`, ordered by left column); a graph with
    /// no columns yields none.
    ///
    /// This implements line 8 of Algorithm 2 ("Find all perfect matchings
    /// (if any) in `G[r, min(r+w, m)]`") together with the edge removal of
    /// line 9.
    ///
    /// Hopcroft–Karp runs on the simple graph of `(left, right)` pairs.
    /// Each pair is represented by its first alive edge in `candidate`
    /// order, and each left vertex lists its rights in the order of their
    /// representatives. With row-major candidates this stratifies
    /// successive extractions from low rows upward — matching the paper's
    /// arbitrary choice within a band while keeping extractions spread
    /// across rows. Every pair's parallel edges are listed once per call;
    /// a peel removes only the `cols` matched representatives, so only
    /// those pairs advance to their next alive edge and move within their
    /// left vertex's list.
    pub fn extract_perfect_matchings(&mut self, candidate: &[EdgeId]) -> Vec<Vec<EdgeId>> {
        const END: usize = usize::MAX;
        let n = self.cols;
        let mut out = Vec::new();
        if n == 0 {
            return out;
        }
        // Alive candidates in candidate order; a "position" indexes this.
        let listed: Vec<EdgeId> = candidate
            .iter()
            .copied()
            .filter(|&id| self.alive[id])
            .collect();
        // Positions grouped by left column, ascending within each group.
        let mut start = vec![0usize; n + 1];
        for &id in &listed {
            start[self.edges[id].left + 1] += 1;
        }
        for l in 0..n {
            start[l + 1] += start[l];
        }
        let mut by_left = vec![0usize; listed.len()];
        let mut fill = start.clone();
        for (pos, &id) in listed.iter().enumerate() {
            let l = self.edges[id].left;
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
                let r = self.edges[listed[pos]].right;
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
                self.remove_edge(id);
                matching_ids.push(id);
                adj[l].remove(k);
                heads[l].remove(k);
                // Later listings of `id` itself are dead now too.
                let mut pos = next[head];
                while pos != END && !self.alive[listed[pos]] {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(left: usize, right: usize, src_row: usize, dst_row: usize) -> LabeledEdge {
        LabeledEdge { left, right, src_row, dst_row }
    }

    /// Verbatim copies of the scan-based kernels this module used before
    /// the row runs and the incremental representatives: `band_edges`
    /// rescanned every edge, and `extract_perfect_matchings` rebuilt every
    /// pair's representative on every peel. The differential tests below
    /// pin the indexed kernels to the same ids in the same order. (The
    /// extraction copy never returns on a 0-column graph.)
    impl BipartiteMultigraph {
        fn band_edges_reference(&self, band: (usize, usize)) -> Vec<EdgeId> {
            let (a, b) = band;
            (0..self.edges.len())
                .filter(|&id| {
                    self.alive[id] && self.edges[id].src_row >= a && self.edges[id].src_row <= b
                })
                .collect()
        }

        fn extract_perfect_matchings_reference(
            &mut self,
            candidate: &[EdgeId],
        ) -> Vec<Vec<EdgeId>> {
            let mut available: Vec<EdgeId> = candidate
                .iter()
                .copied()
                .filter(|&id| self.alive[id])
                .collect();
            let mut out = Vec::new();
            // Representative and adjacency buffers are recycled across the
            // peel iterations — only the first iteration allocates.
            let mut rep: Vec<Vec<(u32, EdgeId)>> = vec![Vec::new(); self.cols];
            let mut adj: Vec<Vec<u32>> = vec![Vec::new(); self.cols];
            loop {
                // Collapse parallel edges; remember one representative edge id
                // per (left, right) pair. The first listed edge wins, so the
                // row-major insertion order stratifies successive extractions
                // from low rows upward — matching the paper's arbitrary choice
                // within a band while keeping extractions spread across rows.
                for r in rep.iter_mut() {
                    r.clear();
                }
                for &id in &available {
                    let e = self.edges[id];
                    if !rep[e.left].iter().any(|&(r, _)| r == e.right as u32) {
                        rep[e.left].push((e.right as u32, id));
                    }
                }
                for (a, r) in adj.iter_mut().zip(rep.iter()) {
                    a.clear();
                    a.extend(r.iter().map(|&(rr, _)| rr));
                }
                let m: Matching = hopcroft_karp(self.cols, self.cols, &adj);
                if !m.is_perfect() {
                    break;
                }
                let mut matching_ids = Vec::with_capacity(self.cols);
                for (l, r) in m.pairs() {
                    let &(_, id) = rep[l]
                        .iter()
                        .find(|&&(rr, _)| rr as usize == r)
                        .expect("matched pair must have a representative");
                    matching_ids.push(id);
                }
                for &id in &matching_ids {
                    self.remove_edge(id);
                }
                available.retain(|&id| self.alive[id]);
                matching_ids.sort_unstable_by_key(|&id| self.edges[id].left);
                out.push(matching_ids);
            }
            out
        }
    }

    #[test]
    fn add_remove_band() {
        let mut g = BipartiteMultigraph::new(3);
        let a = g.add_edge(e(0, 1, 0, 2));
        let b = g.add_edge(e(1, 2, 1, 0));
        let c = g.add_edge(e(2, 0, 2, 1));
        assert_eq!(g.num_alive(), 3);
        assert_eq!(g.band_edges((0, 1)), vec![a, b]);
        g.remove_edge(a);
        g.remove_edge(a); // idempotent
        assert_eq!(g.num_alive(), 2);
        assert_eq!(g.band_edges((0, 2)), vec![b, c]);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = BipartiteMultigraph::new(2);
        g.add_edge(e(0, 1, 0, 0));
        g.add_edge(e(0, 1, 1, 1));
        assert_eq!(g.num_edges(), 2);
        let (dl, dr) = g.degrees();
        assert_eq!(dl, vec![2, 0]);
        assert_eq!(dr, vec![0, 2]);
    }

    #[test]
    fn extract_from_identity_multigraph() {
        // Two columns, two rows, identity permutation: edges (0,0) twice
        // and (1,1) twice -> two perfect matchings.
        let mut g = BipartiteMultigraph::new(2);
        for row in 0..2 {
            g.add_edge(e(0, 0, row, row));
            g.add_edge(e(1, 1, row, row));
        }
        let all = g.alive_edges();
        let ms = g.extract_perfect_matchings(&all);
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert_eq!(m.len(), 2);
        }
        assert_eq!(g.num_alive(), 0);
    }

    #[test]
    fn extract_respects_band() {
        let mut g = BipartiteMultigraph::new(2);
        g.add_edge(e(0, 0, 0, 0));
        g.add_edge(e(1, 1, 0, 0));
        g.add_edge(e(0, 1, 1, 1));
        g.add_edge(e(1, 0, 1, 1));
        // Band row 0 only: one perfect matching {(0,0),(1,1)}.
        let band = g.band_edges((0, 0));
        let ms = g.extract_perfect_matchings(&band);
        assert_eq!(ms.len(), 1);
        assert_eq!(g.num_alive(), 2);
        // Remaining band row 1: the crossing matching.
        let band = g.band_edges((1, 1));
        let ms = g.extract_perfect_matchings(&band);
        assert_eq!(ms.len(), 1);
        assert_eq!(g.num_alive(), 0);
    }

    #[test]
    fn no_perfect_matching_in_deficient_band() {
        let mut g = BipartiteMultigraph::new(2);
        g.add_edge(e(0, 0, 0, 0));
        g.add_edge(e(1, 0, 0, 0)); // both columns target column 0
        let band = g.alive_edges();
        let ms = g.extract_perfect_matchings(&band);
        assert!(ms.is_empty());
        assert_eq!(g.num_alive(), 2, "failed extraction must not consume edges");
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let mut g = BipartiteMultigraph::new(2);
        g.add_edge(e(0, 5, 0, 0));
    }

    #[test]
    fn alive_snapshot_round_trips() {
        let mut g = BipartiteMultigraph::new(2);
        let a = g.add_edge(e(0, 0, 0, 0));
        let b = g.add_edge(e(1, 1, 0, 0));
        g.remove_edge(a);
        let snap = g.save_alive();
        g.remove_edge(b);
        assert_eq!(g.num_alive(), 0);
        g.restore_alive(&snap);
        // `b` resurrects, `a` stays dead (it was dead at capture time).
        assert_eq!(g.num_alive(), 1);
        assert!(!g.is_alive(a));
        assert!(g.is_alive(b));
    }

    #[test]
    #[should_panic(expected = "snapshot predates")]
    fn stale_snapshot_panics() {
        let mut g = BipartiteMultigraph::new(2);
        g.add_edge(e(0, 0, 0, 0));
        let snap = g.save_alive();
        g.add_edge(e(1, 1, 0, 0));
        g.restore_alive(&snap);
    }

    #[test]
    fn zero_column_graph_extracts_nothing() {
        let mut g = BipartiteMultigraph::new(0);
        assert!(g.extract_perfect_matchings(&[]).is_empty());
        assert!(g.band_edges((0, 3)).is_empty());
    }

    #[test]
    fn band_edges_on_both_insertion_orders() {
        // Out of row order: ids still come back ascending.
        let mut g = BipartiteMultigraph::new(2);
        let late = g.add_edge(e(0, 1, 2, 0));
        let early = g.add_edge(e(1, 0, 0, 2));
        let mid = g.add_edge(e(1, 1, 1, 1));
        assert_eq!(g.band_edges((0, 2)), vec![late, early, mid]);
        assert_eq!(g.band_edges((0, 1)), vec![early, mid]);
        assert_eq!(g.band_edges((2, usize::MAX)), vec![late]);
        // Row-major with row 1 skipped.
        let mut g = BipartiteMultigraph::new(2);
        let a = g.add_edge(e(0, 1, 0, 0));
        let b = g.add_edge(e(1, 0, 2, 0));
        let c = g.add_edge(e(0, 0, 2, 1));
        assert!(g.band_edges((1, 1)).is_empty());
        assert_eq!(g.band_edges((0, 1)), vec![a]);
        assert_eq!(g.band_edges((1, usize::MAX)), vec![b, c]);
        assert!(g.band_edges((2, 1)).is_empty(), "reversed band is empty");
        assert!(
            g.band_edges((3, 9)).is_empty(),
            "rows past the last are empty"
        );
    }

    mod differential {
        use super::*;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        /// The column multigraph of a `rows × cols` grid permutation
        /// (edge `j → j'` labeled `(i, i')` per qubit), row-major or in
        /// shuffled insertion order.
        fn grid_multigraph(
            rows: usize,
            cols: usize,
            dest: &[usize],
            row_major: bool,
            rng: &mut StdRng,
        ) -> BipartiteMultigraph {
            let mut cells: Vec<usize> = (0..rows * cols).collect();
            if !row_major {
                cells.shuffle(rng);
            }
            let mut g = BipartiteMultigraph::new(cols);
            for v in cells {
                let to = dest[v];
                g.add_edge(e(v % cols, to % cols, v / cols, to / cols));
            }
            g
        }

        fn random_perm(n: usize, rng: &mut StdRng) -> Vec<usize> {
            let mut p: Vec<usize> = (0..n).collect();
            p.shuffle(rng);
            p
        }

        /// Every qubit stays inside its `b × b` block: the locality the
        /// window sweep peels from narrow bands.
        fn block_local_perm(rows: usize, cols: usize, b: usize, rng: &mut StdRng) -> Vec<usize> {
            let mut dest: Vec<usize> = (0..rows * cols).collect();
            for r0 in (0..rows).step_by(b) {
                for c0 in (0..cols).step_by(b) {
                    let block: Vec<usize> = (r0..(r0 + b).min(rows))
                        .flat_map(|r| (c0..(c0 + b).min(cols)).map(move |c| r * cols + c))
                        .collect();
                    let mut image = block.clone();
                    image.shuffle(rng);
                    for (&v, &to) in block.iter().zip(&image) {
                        dest[v] = to;
                    }
                }
            }
            dest
        }

        /// `k` layers, each one of two fixed permutation matchings:
        /// `k`-regular with every pair carrying about `k/2` parallel edges.
        fn heavy_parallel(
            cols: usize,
            k: usize,
            row_major: bool,
            rng: &mut StdRng,
        ) -> BipartiteMultigraph {
            let perms = [random_perm(cols, rng), random_perm(cols, rng)];
            let mut edges: Vec<LabeledEdge> = (0..k)
                .flat_map(|layer| {
                    let p = &perms[layer % 2];
                    (0..cols).map(move |l| e(l, p[l], layer, layer))
                })
                .collect();
            if !row_major {
                edges.shuffle(rng);
            }
            let mut g = BipartiteMultigraph::new(cols);
            for edge in edges {
                g.add_edge(edge);
            }
            g
        }

        /// Edges with uniform random endpoints and rows: degrees differ,
        /// so extractions stop early. Row-major insertion may skip rows.
        fn irregular(
            cols: usize,
            rows: usize,
            edges: usize,
            row_major: bool,
            rng: &mut StdRng,
        ) -> BipartiteMultigraph {
            let mut edges: Vec<LabeledEdge> = (0..edges)
                .map(|_| {
                    e(
                        rng.gen_range(0..cols),
                        rng.gen_range(0..cols),
                        rng.gen_range(0..rows),
                        rng.gen_range(0..rows),
                    )
                })
                .collect();
            if row_major {
                edges.sort_by_key(|edge| edge.src_row);
            }
            let mut g = BipartiteMultigraph::new(cols);
            for edge in edges {
                g.add_edge(edge);
            }
            g
        }

        /// Extract from `candidate` with the indexed kernel on `g` and the
        /// reference kernel on a clone: same matchings in the same order,
        /// same alive set afterwards.
        fn assert_same_extraction(g: &mut BipartiteMultigraph, candidate: &[EdgeId]) -> usize {
            let mut reference = g.clone();
            let want = reference.extract_perfect_matchings_reference(candidate);
            let got = g.extract_perfect_matchings(candidate);
            assert_eq!(got, want, "candidate {candidate:?}");
            assert_eq!(g.alive, reference.alive);
            assert_eq!(g.num_alive, reference.num_alive);
            got.len()
        }

        /// Every band the doubling window sweep probes, checked against
        /// the reference scan and extracted by both kernels.
        fn sweep(g: &mut BipartiteMultigraph, rows: usize) {
            let mut w = 0usize;
            loop {
                for r in 0..rows {
                    let band = (r, (r + w).min(rows - 1));
                    let ids = g.band_edges(band);
                    assert_eq!(ids, g.band_edges_reference(band), "band {band:?}");
                    assert_same_extraction(g, &ids);
                }
                if w >= rows {
                    break;
                }
                w = if w == 0 { 1 } else { w * 2 };
            }
        }

        /// Naive's randomized path: shuffle the alive edges before each
        /// extraction, then also feed dead and duplicate ids.
        fn shuffled_peels(g: &mut BipartiteMultigraph, rng: &mut StdRng) {
            while g.num_alive() > 0 {
                let mut all = g.alive_edges();
                all.shuffle(rng);
                if assert_same_extraction(g, &all) == 0 {
                    break;
                }
            }
        }

        fn noisy_candidates(g: &mut BipartiteMultigraph, rng: &mut StdRng) {
            for _ in 0..g.num_edges() / 4 {
                let id = rng.gen_range(0..g.num_edges());
                g.remove_edge(id);
            }
            let mut candidate: Vec<EdgeId> = (0..g.num_edges()).collect();
            for _ in 0..g.num_edges() / 2 {
                candidate.push(rng.gen_range(0..g.num_edges()));
            }
            candidate.shuffle(rng);
            assert_same_extraction(g, &candidate);
            let mut all = g.alive_edges();
            let dups = all.clone();
            all.extend(dups);
            all.shuffle(rng);
            assert_same_extraction(g, &all);
        }

        #[test]
        fn window_sweep_bands_match_the_reference() {
            let mut rng = StdRng::seed_from_u64(0x5eed_0001);
            for &(rows, cols) in &[(1, 1), (2, 3), (4, 4), (7, 5), (8, 8), (12, 9), (16, 16)] {
                for row_major in [true, false] {
                    let dest = random_perm(rows * cols, &mut rng);
                    let mut g = grid_multigraph(rows, cols, &dest, row_major, &mut rng);
                    sweep(&mut g, rows);
                    assert_eq!(
                        g.num_alive(),
                        0,
                        "the full-width sweep exhausts a regular graph"
                    );
                    for b in [2, 3, 4] {
                        let dest = block_local_perm(rows, cols, b, &mut rng);
                        let mut g = grid_multigraph(rows, cols, &dest, row_major, &mut rng);
                        sweep(&mut g, rows);
                        assert_eq!(g.num_alive(), 0);
                    }
                }
            }
        }

        #[test]
        fn full_decompositions_match_the_reference() {
            let mut rng = StdRng::seed_from_u64(0x5eed_0002);
            for &(rows, cols) in &[(3, 3), (8, 8), (5, 11), (16, 16), (24, 20)] {
                for row_major in [true, false] {
                    let dest = random_perm(rows * cols, &mut rng);
                    let mut g = grid_multigraph(rows, cols, &dest, row_major, &mut rng);
                    let all = g.alive_edges();
                    assert_eq!(assert_same_extraction(&mut g, &all), rows);
                    let mut g = grid_multigraph(rows, cols, &dest, row_major, &mut rng);
                    shuffled_peels(&mut g, &mut rng);
                    assert_eq!(g.num_alive(), 0);
                }
            }
            for &(cols, k) in &[(1, 4), (4, 5), (6, 9), (13, 16)] {
                for row_major in [true, false] {
                    let mut g = heavy_parallel(cols, k, row_major, &mut rng);
                    let all = g.alive_edges();
                    assert_eq!(assert_same_extraction(&mut g, &all), k);
                    let mut g = heavy_parallel(cols, k, row_major, &mut rng);
                    sweep(&mut g, k);
                    let mut g = heavy_parallel(cols, k, row_major, &mut rng);
                    shuffled_peels(&mut g, &mut rng);
                }
            }
        }

        #[test]
        fn irregular_graphs_and_noisy_candidates_match_the_reference() {
            let mut rng = StdRng::seed_from_u64(0x5eed_0003);
            for trial in 0..60 {
                let cols = rng.gen_range(1..9);
                let rows = rng.gen_range(1..7);
                let edges = rng.gen_range(0..cols * rows * 3);
                let mut g = irregular(cols, rows, edges, trial % 2 == 0, &mut rng);
                for _ in 0..8 {
                    let a = rng.gen_range(0..rows + 2);
                    let b = rng.gen_range(0..rows + 2);
                    assert_eq!(
                        g.band_edges((a, b)),
                        g.band_edges_reference((a, b)),
                        "trial {trial}"
                    );
                }
                let mut h = g.clone();
                sweep(&mut g, rows);
                shuffled_peels(&mut h, &mut rng);
            }
            for &(rows, cols) in &[(4, 4), (8, 6), (12, 12)] {
                for row_major in [true, false] {
                    let dest = random_perm(rows * cols, &mut rng);
                    let mut g = grid_multigraph(rows, cols, &dest, row_major, &mut rng);
                    noisy_candidates(&mut g, &mut rng);
                    let mut g = heavy_parallel(cols, rows, row_major, &mut rng);
                    noisy_candidates(&mut g, &mut rng);
                }
            }
        }
    }
}
