//! Routing schedules, verification and depth compaction.
//!
//! A schedule is stored flat: every swap, layer after layer, in one
//! `(u32, u32)` buffer, plus the end offset of each layer. Vertex ids are
//! checked into `u32` on the way in (jobs stay far below `2³²` vertices),
//! which halves a swap against `(usize, usize)`. Every schedule a router
//! returns, and every relabeled replay, is exact-sized: the buffers hold
//! no growth slack.

use qroute_perm::Permutation;
use qroute_topology::Graph;

/// Errors from [`RoutingSchedule::validate_on`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A swap used a pair that is not an edge of the coupling graph.
    NotAnEdge {
        /// Index of the offending layer.
        layer: usize,
        /// The offending pair.
        pair: (usize, usize),
    },
    /// Two swaps in one layer share a vertex.
    NotAMatching {
        /// Index of the offending layer.
        layer: usize,
        /// The shared vertex.
        vertex: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NotAnEdge { layer, pair } => {
                write!(f, "layer {layer}: pair {pair:?} is not a coupling edge")
            }
            ScheduleError::NotAMatching { layer, vertex } => {
                write!(f, "layer {layer}: vertex {vertex} used by two swaps")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A vertex id as stored in a schedule.
///
/// # Panics
/// Panics when `v` does not fit in `u32`.
pub(crate) fn vertex_id(v: usize) -> u32 {
    u32::try_from(v).expect("vertex id exceeds u32::MAX")
}

/// A routing schedule: an ordered sequence of swap layers. Each layer is
/// a set of vertex-disjoint swaps — a matching of the coupling graph —
/// executable in a single time step; no layer is empty.
///
/// Token semantics: vertices hold tokens; initially the token at vertex `v`
/// is labeled `v`. Applying a layer exchanges the tokens on each swapped
/// pair. The schedule *realizes* `π` when the token labeled `v` ends at
/// vertex `π(v)` for every `v`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingSchedule {
    /// Every swap, layer by layer, in execution order.
    swaps: Vec<(u32, u32)>,
    /// `ends[k]` is one past the last swap of layer `k`; strictly
    /// increasing, and the last entry is `swaps.len()`.
    ends: Vec<usize>,
}

impl RoutingSchedule {
    /// The empty schedule (realizes the identity).
    pub fn empty() -> RoutingSchedule {
        RoutingSchedule::default()
    }

    /// A schedule from its layers, in execution order; empty layers are
    /// dropped.
    pub fn from_layers<L: IntoIterator<Item = (usize, usize)>>(
        layers: impl IntoIterator<Item = L>,
    ) -> RoutingSchedule {
        let mut schedule = RoutingSchedule::empty();
        for layer in layers {
            schedule.push_layer(layer);
        }
        schedule.swaps.shrink_to_fit();
        schedule.ends.shrink_to_fit();
        schedule
    }

    /// A schedule from its flat parts (see the field docs).
    pub(crate) fn from_parts(swaps: Vec<(u32, u32)>, ends: Vec<usize>) -> RoutingSchedule {
        debug_assert!(ends.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(ends.last().map_or(0, |&e| e), swaps.len());
        debug_assert!(ends.first().is_none_or(|&e| e > 0));
        RoutingSchedule { swaps, ends }
    }

    /// Number of layers — the depth overhead added to the circuit.
    pub fn depth(&self) -> usize {
        self.ends.len()
    }

    /// Total number of SWAP gates — the size overhead.
    pub fn size(&self) -> usize {
        self.swaps.len()
    }

    /// Append a layer of disjoint swaps (dropped silently when empty;
    /// disjointness is the caller's responsibility, see
    /// [`RoutingSchedule::validate_on`]).
    ///
    /// # Panics
    /// Panics when a vertex id does not fit in `u32`.
    pub fn push_layer(&mut self, swaps: impl IntoIterator<Item = (usize, usize)>) {
        self.swaps
            .extend(swaps.into_iter().map(|(u, v)| (vertex_id(u), vertex_id(v))));
        if self.swaps.len() > self.ends.last().map_or(0, |&e| e) {
            self.ends.push(self.swaps.len());
        }
    }

    /// The swaps of layer `k`.
    ///
    /// # Panics
    /// Panics when `k >= self.depth()`.
    pub fn layer(&self, k: usize) -> &[(u32, u32)] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.swaps[start..self.ends[k]]
    }

    /// The layers, in execution order.
    pub fn layers(&self) -> impl ExactSizeIterator<Item = &[(u32, u32)]> + '_ {
        (0..self.depth()).map(|k| self.layer(k))
    }

    /// All swaps in execution order (layer by layer).
    pub fn swaps(&self) -> &[(u32, u32)] {
        &self.swaps
    }

    /// Apply the schedule to a token configuration `at` (`at[v]` = token at
    /// vertex `v`).
    ///
    /// # Panics
    /// Panics when a swap endpoint is out of range.
    pub fn apply_to(&self, at: &mut [usize]) {
        for &(u, v) in &self.swaps {
            at.swap(u as usize, v as usize);
        }
    }

    /// The permutation realized by the schedule on `n` vertices: token `v`
    /// ends at `realized.apply(v)`.
    pub fn realized_permutation(&self, n: usize) -> Permutation {
        let mut at: Vec<usize> = (0..n).collect();
        self.apply_to(&mut at);
        // at[pos] = token  =>  token `t` is at `pos`, i.e. realized(t) = pos.
        let mut map = vec![0usize; n];
        for (pos, &token) in at.iter().enumerate() {
            map[token] = pos;
        }
        Permutation::from_vec_unchecked(map)
    }

    /// `true` iff the schedule moves the token starting at `v` to `π(v)`
    /// for every vertex.
    pub fn realizes(&self, pi: &Permutation) -> bool {
        self.realized_permutation(pi.len()) == *pi
    }

    /// Check that every layer is a matching of `graph` (disjoint swaps over
    /// actual coupling edges).
    pub fn validate_on(&self, graph: &Graph) -> Result<(), ScheduleError> {
        let mut used = vec![usize::MAX; graph.len()];
        for (k, layer) in self.layers().enumerate() {
            for &(u, v) in layer {
                let (u, v) = (u as usize, v as usize);
                if !graph.has_edge(u, v) {
                    return Err(ScheduleError::NotAnEdge { layer: k, pair: (u, v) });
                }
                for w in [u, v] {
                    if used[w] == k {
                        return Err(ScheduleError::NotAMatching { layer: k, vertex: w });
                    }
                    used[w] = k;
                }
            }
        }
        Ok(())
    }

    /// Greedy ASAP depth compaction: every swap is rescheduled to the
    /// earliest layer after the last layer touching either endpoint.
    ///
    /// Per-vertex swap order is preserved, and vertex-disjoint swaps
    /// commute, so the compacted schedule realizes the same permutation
    /// (and the same circuit semantics when swaps carry gates). Depth never
    /// increases.
    pub fn compact(&self, n: usize) -> RoutingSchedule {
        RoutingSchedule::compact_swaps(n, self.vertex_pairs())
    }

    /// The swaps as `usize` vertex pairs, in execution order.
    fn vertex_pairs(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + Clone + '_ {
        self.swaps.iter().map(|&(u, v)| (u as usize, v as usize))
    }

    /// The greedy ASAP pass over a bare swap sequence: the single shared
    /// implementation behind [`RoutingSchedule::compact`] and the
    /// borrow-based `AtsOutcome::parallelized` (which skips building an
    /// intermediate one-layer schedule).
    ///
    /// A stable counting sort by ASAP layer: one walk records each swap's
    /// layer and counts every layer's swaps, a second walk places each
    /// swap behind the earlier swaps of its layer. So the sequence is
    /// walked twice (hence `Clone`), its length sizes the output up front,
    /// and the result is exact-sized.
    ///
    /// # Panics
    /// Panics when a vertex id is `>= n` or does not fit in `u32`.
    pub fn compact_swaps<I>(n: usize, swaps: I) -> RoutingSchedule
    where
        I: IntoIterator<Item = (usize, usize)>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let swaps = swaps.into_iter();
        // The output is allocated before the scratch, so it is the one
        // that lands in memory the caller has just freed.
        let out = vec![(0u32, 0u32); swaps.len()];
        let mut layer_of: Vec<u32> = Vec::with_capacity(swaps.len());
        let mut asap = Asap::default();
        asap.reset(n);
        for (u, v) in swaps.clone() {
            let t = asap.layer(u, v);
            layer_of.push(u32::try_from(t).expect("layer index exceeds u32::MAX"));
        }
        let mut fill = LayerFill::new(out, asap.counts());
        for ((u, v), &t) in swaps.zip(&layer_of) {
            fill.place(t as usize, (vertex_id(u), vertex_id(v)));
        }
        fill.finish()
    }

    /// Fuse another schedule after this one and compact the result.
    pub fn then(mut self, other: RoutingSchedule, n: usize) -> RoutingSchedule {
        // Compaction reads only the swap sequence, not the layer offsets.
        self.swaps.extend(other.swaps);
        self.compact(n)
    }

    /// The schedule with every swap endpoint mapped through `f`, layer
    /// structure untouched — depth and size are invariant.
    ///
    /// When `f` is injective and maps coupling edges of the source graph
    /// to coupling edges of the target graph (a graph embedding — e.g. a
    /// [`qroute_topology::GridSymmetry`] vertex map, or a translated
    /// block placement), validity is preserved, and the relabeled
    /// schedule realizes the conjugated permutation `f ∘ π ∘ f⁻¹`. This
    /// is how the routing service replays cached canonical schedules back
    /// into a job's original frame.
    ///
    /// # Panics
    /// Panics when an image does not fit in `u32`.
    pub fn relabeled(&self, mut f: impl FnMut(usize) -> usize) -> RoutingSchedule {
        RoutingSchedule {
            swaps: self
                .swaps
                .iter()
                .map(|&(u, v)| (vertex_id(f(u as usize)), vertex_id(f(v as usize))))
                .collect(),
            ends: self.ends.clone(),
        }
    }

    /// [`RoutingSchedule::relabeled`] in place.
    pub(crate) fn relabel(&mut self, mut f: impl FnMut(usize) -> usize) {
        for (u, v) in &mut self.swaps {
            (*u, *v) = (vertex_id(f(*u as usize)), vertex_id(f(*v as usize)));
        }
    }
}

/// The greedy ASAP rule over a swap sequence: each swap goes to the layer
/// after the last one touching either endpoint. Fed a sequence swap by
/// swap, it also counts every layer's swaps.
#[derive(Debug, Default)]
pub(crate) struct Asap {
    /// One past the last layer touching each vertex.
    avail: Vec<usize>,
    /// The swap count of every layer so far.
    counts: Vec<usize>,
}

impl Asap {
    /// Start a sequence on `n` vertices.
    pub(crate) fn reset(&mut self, n: usize) {
        self.avail.clear();
        self.avail.resize(n, 0);
        self.counts.clear();
    }

    /// The layer of the sequence's next swap `(u, v)`.
    #[inline]
    pub(crate) fn layer(&mut self, u: usize, v: usize) -> usize {
        let t = self.avail[u].max(self.avail[v]);
        self.avail[u] = t + 1;
        self.avail[v] = t + 1;
        if t == self.counts.len() {
            self.counts.push(0);
        }
        self.counts[t] += 1;
        t
    }

    /// The swap count of every layer so far.
    pub(crate) fn counts(&self) -> &[usize] {
        &self.counts
    }
}

/// The placing walk of a stable counting sort by layer: each swap goes
/// behind the earlier swaps of its layer, in a buffer sized up front.
pub(crate) struct LayerFill {
    swaps: Vec<(u32, u32)>,
    /// Every layer's write cursor.
    next: Vec<usize>,
    ends: Vec<usize>,
}

impl LayerFill {
    /// Fill `swaps`, as long as the layer sizes `counts` add up to, with
    /// layers of `counts[t]` swaps each.
    pub(crate) fn new(swaps: Vec<(u32, u32)>, counts: &[usize]) -> LayerFill {
        let mut next = Vec::with_capacity(counts.len());
        let mut ends = Vec::with_capacity(counts.len());
        let mut end = 0;
        for &count in counts {
            next.push(end);
            end += count;
            ends.push(end);
        }
        assert_eq!(end, swaps.len(), "layer sizes must add up to the buffer");
        LayerFill { swaps, next, ends }
    }

    /// Place the next swap of layer `t`.
    #[inline]
    pub(crate) fn place(&mut self, t: usize, swap: (u32, u32)) {
        let cursor = &mut self.next[t];
        self.swaps[*cursor] = swap;
        *cursor += 1;
    }

    /// The filled schedule; every layer must be full.
    pub(crate) fn finish(self) -> RoutingSchedule {
        assert_eq!(self.next, self.ends, "every layer must be filled");
        RoutingSchedule::from_parts(self.swaps, self.ends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{GridRouter, RouterKind};
    use qroute_perm::generators;
    use qroute_topology::{Grid, GridSymmetry};

    fn layers(schedule: &RoutingSchedule) -> Vec<Vec<(u32, u32)>> {
        schedule.layers().map(<[_]>::to_vec).collect()
    }

    #[test]
    fn empty_schedule_is_identity() {
        let s = RoutingSchedule::empty();
        assert_eq!(s.depth(), 0);
        assert_eq!(s.size(), 0);
        assert!(s.realizes(&Permutation::identity(5)));
    }

    #[test]
    fn single_swap_realization() {
        let mut s = RoutingSchedule::empty();
        s.push_layer([(0, 1)]);
        let p = Permutation::from_vec(vec![1, 0, 2]).unwrap();
        assert!(s.realizes(&p));
        assert!(!s.realizes(&Permutation::identity(3)));
    }

    #[test]
    fn three_swaps_cycle() {
        // Swaps (0,1) then (1,2): token0 -> 1 -> 2? Let's check:
        // after (0,1): at = [1,0,2]; after (1,2): at = [1,2,0].
        // token 0 at vertex 2, token 1 at vertex 0, token 2 at vertex 1.
        let mut s = RoutingSchedule::empty();
        s.push_layer([(0, 1)]);
        s.push_layer([(1, 2)]);
        let realized = s.realized_permutation(3);
        assert_eq!(realized.as_slice(), &[2, 0, 1]);
    }

    #[test]
    fn empty_layers_are_dropped() {
        let mut s = RoutingSchedule::empty();
        s.push_layer([]);
        s.push_layer([(0, 1)]);
        s.push_layer([]);
        assert_eq!(s.depth(), 1);
        let built = RoutingSchedule::from_layers([vec![], vec![(0, 1)], vec![], vec![(1, 2)]]);
        assert_eq!(layers(&built), vec![vec![(0, 1)], vec![(1, 2)]]);
    }

    #[test]
    fn layer_accessors_agree() {
        let s = RoutingSchedule::from_layers([vec![(0, 1), (2, 3)], vec![(1, 2)], vec![(0, 1)]]);
        assert_eq!(s.depth(), 3);
        assert_eq!(s.size(), 4);
        assert_eq!(s.layer(0), &[(0, 1), (2, 3)]);
        assert_eq!(s.layer(1), &[(1, 2)]);
        assert_eq!(s.layer(2), &[(0, 1)]);
        assert_eq!(s.swaps(), &[(0, 1), (2, 3), (1, 2), (0, 1)]);
        assert_eq!(s.layers().len(), 3);
    }

    #[test]
    fn validate_catches_non_edges_and_overlaps() {
        let g = Grid::new(2, 2).to_graph(); // edges: (0,1),(0,2),(1,3),(2,3)
        let ok = RoutingSchedule::from_layers([[(0, 1), (2, 3)]]);
        assert!(ok.validate_on(&g).is_ok());

        let bad_edge = RoutingSchedule::from_layers([[(0, 3)]]);
        assert_eq!(
            bad_edge.validate_on(&g),
            Err(ScheduleError::NotAnEdge { layer: 0, pair: (0, 3) })
        );

        let overlap = RoutingSchedule::from_layers([[(0, 1), (1, 3)]]);
        assert_eq!(
            overlap.validate_on(&g),
            Err(ScheduleError::NotAMatching { layer: 0, vertex: 1 })
        );
    }

    #[test]
    fn compact_preserves_semantics_and_reduces_depth() {
        // Serial swaps on disjoint pairs should compact to depth 1.
        let s = RoutingSchedule::from_layers([[(0, 1)], [(2, 3)], [(4, 5)]]);
        let c = s.compact(6);
        assert_eq!(c.depth(), 1);
        assert_eq!(c.size(), 3);
        assert_eq!(s.realized_permutation(6), c.realized_permutation(6));
    }

    #[test]
    fn compact_respects_dependencies() {
        // (0,1) then (1,2) share vertex 1: cannot be merged.
        let s = RoutingSchedule::from_layers([[(0, 1)], [(1, 2)]]);
        let c = s.compact(3);
        assert_eq!(c.depth(), 2);
        assert_eq!(s.realized_permutation(3), c.realized_permutation(3));
    }

    #[test]
    fn compact_never_increases_depth() {
        let s = RoutingSchedule::from_layers([
            vec![(0, 1), (2, 3)],
            vec![(1, 2)],
            vec![(0, 1), (2, 3)],
        ]);
        let c = s.compact(4);
        assert!(c.depth() <= s.depth());
        assert_eq!(s.realized_permutation(4), c.realized_permutation(4));
    }

    #[test]
    fn compact_keeps_sequence_order_within_a_layer() {
        // (4,5) follows (1,2) in the sequence but joins (0,1) in layer 0,
        // behind it: each layer lists its swaps in sequence order.
        let c = RoutingSchedule::compact_swaps(6, [(0, 1), (1, 2), (4, 5), (2, 3)]);
        assert_eq!(
            layers(&c),
            vec![vec![(0, 1), (4, 5)], vec![(1, 2)], vec![(2, 3)]]
        );
    }

    #[test]
    fn then_concatenates_and_compacts() {
        let a = RoutingSchedule::from_layers([[(0, 1)]]);
        let b = RoutingSchedule::from_layers([[(2, 3)]]);
        let c = a.then(b, 4);
        assert_eq!(c.depth(), 1);
        assert_eq!(c.size(), 2);
    }

    #[test]
    fn relabeled_conjugates_the_realized_permutation() {
        // Map the top row of a 2x3 grid onto the bottom row (a graph
        // embedding); the relabeled schedule must realize the conjugated
        // permutation and stay valid.
        let g = Grid::new(2, 3);
        let s = RoutingSchedule::from_layers([[(0, 1)], [(1, 2)]]);
        let f = |v: usize| v + 3;
        let r = s.relabeled(f);
        assert_eq!(r.depth(), s.depth());
        assert_eq!(r.size(), s.size());
        r.validate_on(&g.to_graph()).unwrap();
        let base = s.realized_permutation(3);
        let lifted = r.realized_permutation(6);
        for v in 0..3 {
            assert_eq!(lifted.apply(f(v)), f(base.apply(v)));
            assert_eq!(lifted.apply(v), v, "untouched vertices stay fixed");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn vertex_ids_past_u32_are_refused() {
        RoutingSchedule::empty().push_layer([(0, 1 << 32)]);
    }

    #[test]
    fn realized_permutation_inverse_relation() {
        // Applying a schedule for π to the identity configuration leaves
        // token v at π(v).
        let mut s = RoutingSchedule::empty();
        s.push_layer([(0, 1)]);
        s.push_layer([(0, 1)]);
        assert!(s.realizes(&Permutation::identity(2)));
    }

    /// `schedule` holds exactly its swaps and its layer offsets: no
    /// growth slack in either buffer.
    fn assert_exact(schedule: &RoutingSchedule, what: &str) {
        assert_eq!(schedule.swaps.capacity(), schedule.size(), "{what}: swaps");
        assert_eq!(
            schedule.ends.capacity(),
            schedule.depth(),
            "{what}: offsets"
        );
    }

    #[test]
    fn routed_compacted_and_relabeled_schedules_are_exact_sized() {
        let grid = Grid::new(32, 32);
        let pi = generators::random(grid.len(), 0);
        for router in [
            RouterKind::locality_aware(),
            RouterKind::naive(),
            RouterKind::hybrid(),
        ] {
            let s = router.route(grid, &pi);
            assert_exact(&s, router.label());
            let uncompacted = match &router {
                RouterKind::LocalityAware(opts) => crate::local_grid::main_procedure(
                    grid,
                    &pi,
                    &crate::LocalRouteOptions { compact: false, ..*opts },
                ),
                _ => crate::grid_route::naive_grid_route(
                    grid,
                    &pi,
                    &crate::grid_route::NaiveOptions::plain(),
                ),
            };
            assert_exact(&uncompacted, "uncompacted pass");
            assert_exact(&uncompacted.compact(grid.len()), "compact");
            for g in GridSymmetry::all() {
                assert_exact(&s.relabeled(|v| g.apply(grid, v)), "relabeled");
            }
        }
    }
}
