//! Congestion-negotiated per-token routing (the PathFinder idiom).
//!
//! The matching-based routers of the paper pay for full-permutation
//! structure even when almost every token is already home. Cowtan et
//! al. ("On the qubit routing problem") observe that greedy per-token
//! search wins on sparse instances; this module ports the classic
//! *PathFinder* negotiated-congestion loop of McMurchie & Ebeling from
//! FPGA routing to token routing:
//!
//! 1. every misplaced token independently plans a shortest path to its
//!    target with A* (the [`DistanceOracle`] is the admissible
//!    heuristic — every step costs at least 1);
//! 2. vertices claimed by more than one path are *contested*: the
//!    contested token is ripped up, the contested vertices' **history
//!    cost** rises, and the token re-plans in the next round (so
//!    persistent congestion is priced in and paths spread out);
//! 3. paths that survive negotiation are *committed* and executed as a
//!    transport — a forward swap walk followed by a restoring walk —
//!    that exchanges the path's endpoints and provably restores every
//!    interior vertex.
//!
//! Committed paths within a round are pairwise vertex-disjoint, so the
//! greedy ASAP pass ([`RoutingSchedule::compact_swaps`]) executes them
//! in parallel layers. Each transport homes at least one token — two
//! when the evicted occupant's home is the freed source, as in a
//! 2-cycle — and never unhomes another (a transport's destination
//! always holds a misplaced token, and interiors are restored), so the
//! misplaced count strictly
//! decreases every round and the loop terminates in at most `n` rounds.
//! A configurable round cap bounds the worst case anyway: on cap, the
//! *residual* permutation is handed to the ATS baseline
//! ([`approximate_token_swapping_with`]), which terminates
//! unconditionally on connected graphs.
//!
//! The router is topology-generic: it only needs a connected [`Graph`]
//! and a consistent [`DistanceOracle`], so it routes defective grids,
//! heavy hexagons, brick walls and tori through the same
//! routing-frame path as ATS.

use crate::schedule::RoutingSchedule;
use crate::token_swap::approximate_token_swapping_with;
use qroute_perm::Permutation;
use qroute_topology::{dist, DistanceOracle, Graph, Grid, GridOracle};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// In-round rip-up attempts per token before it defers to the next
/// negotiation round.
const ROUND_RETRIES: u32 = 1;

/// Tuning knobs for the negotiation loop. `Default` is the
/// configuration benchmarked as `RouterKind::Pathfinder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathfinderOptions {
    /// Hard cap on negotiation rounds before the residual permutation
    /// falls back to ATS. `0` selects the automatic cap
    /// `4·⌈√n⌉ + 32`, which comfortably covers every instance the
    /// progress argument admits while bounding adversarial blowups.
    pub max_rounds: usize,
    /// How much a contested vertex's history cost grows per rip-up.
    /// Larger values spread paths faster but may detour more than
    /// necessary.
    pub history_increment: u32,
    /// Present-congestion surcharge for stepping onto a vertex already
    /// claimed by a committed path this round. A* prefers a detour of
    /// up to this many extra steps over crossing a claimed vertex.
    pub claim_penalty: u32,
    /// Surcharge (per marker) for stepping onto the current position or
    /// the home of a still-pending token. A transport crossing a pending
    /// token's endpoint raises that vertex's release layer and therefore
    /// delays the *entire* later transport — a cost the plain layer-time
    /// model cannot see, because a token's own start time is fixed at
    /// `avail[src]` and never subject to search.
    pub pending_penalty: u32,
}

impl Default for PathfinderOptions {
    fn default() -> PathfinderOptions {
        PathfinderOptions {
            max_rounds: 0,
            history_increment: 1,
            claim_penalty: 2,
            pending_penalty: 2,
        }
    }
}

impl PathfinderOptions {
    fn round_cap(&self, n: usize) -> usize {
        if self.max_rounds != 0 {
            return self.max_rounds;
        }
        let isqrt = (n as f64).sqrt().ceil() as usize;
        4 * isqrt + 32
    }
}

/// The per-vertex cost fields a negotiation-round search reads, borrowed
/// together so [`AstarScratch::search`] stays call-site friendly.
struct RoundCosts<'a> {
    history: &'a [u32],
    avail: &'a [u64],
    claimed: &'a [bool],
    /// Endpoint multiplicity: how many still-pending tokens have their
    /// current position or home on each vertex.
    blocked: &'a [u32],
    claim_penalty: u32,
    pending_penalty: u32,
}

/// Reusable A* scratch space with epoch stamping, so per-token searches
/// never pay an `O(n)` clear.
struct AstarScratch {
    g: Vec<u64>,
    parent: Vec<usize>,
    g_epoch: Vec<u32>,
    closed: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<(Reverse<u64>, usize)>,
    /// Lifetime count of heap pops, for per-round trace deltas.
    pops: u64,
}

impl AstarScratch {
    fn new(n: usize) -> AstarScratch {
        AstarScratch {
            g: vec![0; n],
            parent: vec![usize::MAX; n],
            g_epoch: vec![0; n],
            closed: vec![0; n],
            epoch: 0,
            heap: BinaryHeap::new(),
            pops: 0,
        }
    }

    /// Cheapest path `src → dst` in *layer time*: `g[w]` is the earliest
    /// schedule layer by which the travelling token can have arrived at
    /// `w`, given the per-vertex release times (`avail`, mirroring the
    /// greedy ASAP rule of [`RoutingSchedule::compact_swaps`]) of every
    /// transport committed so far — stepping onto a busy corridor prices
    /// its true serialization cost. Negotiation surcharges
    /// (`history[w]`, `claim_penalty·claimed[w]`, and
    /// `pending_penalty·blocked[w]` for endpoints of still-pending
    /// tokens) are added on top. The oracle's true distance is
    /// admissible because every further step costs at least one layer.
    /// Returns the vertex sequence `src..=dst`.
    fn search(
        &mut self,
        graph: &Graph,
        oracle: &impl DistanceOracle,
        costs: &RoundCosts<'_>,
        src: usize,
        dst: usize,
    ) -> Vec<usize> {
        let avail = costs.avail;
        self.epoch += 1;
        self.heap.clear();
        self.g[src] = avail[src];
        self.g_epoch[src] = self.epoch;
        self.parent[src] = usize::MAX;
        self.heap
            .push((Reverse(avail[src] + oracle.dist(src, dst) as u64), src));
        while let Some((_, v)) = self.heap.pop() {
            self.pops += 1;
            if self.closed[v] == self.epoch {
                continue;
            }
            self.closed[v] = self.epoch;
            if v == dst {
                let mut path = vec![dst];
                let mut cur = dst;
                while self.parent[cur] != usize::MAX {
                    cur = self.parent[cur];
                    path.push(cur);
                }
                path.reverse();
                return path;
            }
            for w in graph.neighbors(v) {
                // The swap onto `w` can only run once both the traveller
                // and `w` are free — waiting behind a committed
                // transport costs exactly the layers it still occupies.
                let ng = self.g[v].max(avail[w])
                    + 1
                    + u64::from(costs.history[w])
                    + if costs.claimed[w] {
                        u64::from(costs.claim_penalty)
                    } else {
                        0
                    }
                    + if w == dst {
                        // Our own target inevitably carries our and its
                        // occupant's endpoint markers; arriving is the
                        // point, not a detour-worthy nuisance.
                        0
                    } else {
                        u64::from(costs.pending_penalty) * u64::from(costs.blocked[w])
                    };
                if self.g_epoch[w] != self.epoch || ng < self.g[w] {
                    self.g[w] = ng;
                    self.g_epoch[w] = self.epoch;
                    self.parent[w] = v;
                    self.heap
                        .push((Reverse(ng + oracle.dist(w, dst) as u64), w));
                }
            }
        }
        unreachable!("A* target {dst} unreachable from {src}; connectivity was checked upfront")
    }
}

/// Append the transport executing path `p₀ … p_k`: the occupants of `p₀`
/// and `p_k` bubble toward each other simultaneously, pass with one
/// shared swap, and keep bubbling to the far ends. Net effect: the
/// contents of `p₀` and `p_k` exchange and every interior vertex is
/// restored (each interior token is crossed once by each traveller,
/// shifting it one step each way) — `2k−1` swaps total, like the naive
/// forward-then-restore chain, but the travellers move on vertex-disjoint
/// edges, so [`RoutingSchedule::compact_swaps`] packs the transport into
/// `≈ k+1` layers instead of `2k−1`.
fn emit_transport(path: &[usize], swaps: &mut Vec<(usize, usize)>, avail: &mut [u64]) {
    let mut push = |u: usize, v: usize, swaps: &mut Vec<(usize, usize)>| {
        swaps.push((u, v));
        // Mirror the greedy ASAP rule of `compact_swaps`, so `avail`
        // stays an exact account of when each vertex goes quiet.
        let t = avail[u].max(avail[v]);
        avail[u] = t + 1;
        avail[v] = t + 1;
    };
    let k = path.len() - 1;
    // `a` = left traveller's index on the path, `b` = right traveller's.
    let (mut a, mut b) = (0usize, k);
    while a < k || b > 0 {
        if a + 1 == b {
            // Adjacent: one swap moves both travellers past each other.
            push(path[a], path[b], swaps);
            a += 1;
            b -= 1;
        } else if a + 2 == b {
            // Edges would collide at `path[a+1]`: advance one side, the
            // shared pass happens next iteration.
            push(path[a], path[a + 1], swaps);
            a += 1;
        } else {
            // Disjoint edges (or one traveller already home): these
            // swaps compact into the same layer.
            if a < k {
                push(path[a], path[a + 1], swaps);
                a += 1;
            }
            if b > 0 {
                push(path[b - 1], path[b], swaps);
                b -= 1;
            }
        }
    }
}

/// Route `π` on a connected `graph` with negotiated-congestion per-token
/// search, falling back to ATS for any residual past the round cap.
///
/// The oracle must answer shortest-path distances of `graph`; it steers
/// both the A* heuristic and the round-priority order, so an
/// inconsistent oracle degrades quality (the realized permutation stays
/// correct — legality never depends on the oracle).
///
/// # Panics
/// Panics when `π`, `graph` and `oracle` disagree in size, or when some
/// destination is unreachable (disconnected graph).
pub fn pathfinder_route_with(
    graph: &Graph,
    oracle: &impl DistanceOracle,
    pi: &Permutation,
    opts: &PathfinderOptions,
) -> RoutingSchedule {
    let swaps = pathfinder_swaps(graph, oracle, pi, opts);
    RoutingSchedule::compact_swaps(graph.len(), swaps.iter().copied())
}

/// The serial swap sequence of [`pathfinder_route_with`], before the
/// ASAP pass lays it out in layers.
pub(crate) fn pathfinder_swaps(
    graph: &Graph,
    oracle: &impl DistanceOracle,
    pi: &Permutation,
    opts: &PathfinderOptions,
) -> Vec<(usize, usize)> {
    let n = graph.len();
    assert_eq!(pi.len(), n, "permutation size must match graph");
    assert_eq!(oracle.len(), n, "oracle size must match graph");
    for v in 0..n {
        assert_ne!(
            oracle.dist(v, pi.apply(v)),
            dist::UNREACHABLE,
            "destination of {v} unreachable; pathfinder needs a connected graph"
        );
    }

    // Token `t` starts at vertex `t` and must reach `π(t)`.
    let mut at: Vec<usize> = (0..n).collect(); // token → current vertex
    let mut tok: Vec<usize> = (0..n).collect(); // vertex → current token
    let mut history: Vec<u32> = vec![0; n];
    // Per-vertex release layer of everything committed so far, mirroring
    // the ASAP compaction: a path crossing a busy corridor pays exactly
    // the layers it would wait, so searches steer disjoint whenever a
    // detour is cheaper than queueing.
    let mut avail: Vec<u64> = vec![0; n];
    let mut claimed: Vec<bool> = vec![false; n];
    let mut blocked: Vec<u32> = vec![0; n];
    let mut swaps: Vec<(usize, usize)> = Vec::new();
    let mut scratch = AstarScratch::new(n);
    let cap = opts.round_cap(n);

    let mut rounds = 0;
    loop {
        let mut pending: Vec<usize> = (0..n).filter(|&t| at[t] != pi.apply(t)).collect();
        if pending.is_empty() {
            break;
        }
        if rounds >= cap {
            qroute_obs::trace::event(
                "pathfinder.fallback",
                &[
                    ("round", qroute_obs::FieldValue::U64(rounds as u64)),
                    (
                        "residual",
                        qroute_obs::FieldValue::U64(pending.len() as u64),
                    ),
                ],
            );
            // Hand the residual to ATS: the token at `v` still has to
            // reach `π(tok[v])`, which is a permutation of positions.
            let residual =
                Permutation::from_vec_unchecked((0..n).map(|v| pi.apply(tok[v])).collect());
            let fallback = approximate_token_swapping_with(graph, oracle, &residual);
            swaps.extend_from_slice(&fallback.serial_swaps);
            break;
        }
        rounds += 1;
        crate::budget::checkpoint();

        // Deterministic negotiation order: closest token first, ties by
        // token id. Short hops commit cheaply and long hauls negotiate
        // around them.
        pending.sort_by_key(|&t| (oracle.dist(at[t], pi.apply(t)), t));
        claimed.iter_mut().for_each(|c| *c = false);
        // Mark every pending token's position and home: a transport
        // stepping on one raises its release layer and stalls the whole
        // later transport, so searches should pay to avoid them.
        blocked.iter_mut().for_each(|b| *b = 0);
        for &t in &pending {
            blocked[at[t]] += 1;
            blocked[pi.apply(t)] += 1;
        }
        let mut queue: VecDeque<(usize, u32)> = pending.iter().map(|&t| (t, 0)).collect();
        let round_pops_base = scratch.pops;
        let mut ripups: u64 = 0;
        while let Some((t, tries)) = queue.pop_front() {
            let (src, dst) = (at[t], pi.apply(t));
            if src == dst {
                // Homed mid-round by an earlier transport's endpoint
                // exchange (its 2-cycle partner): nothing to negotiate.
                continue;
            }
            let costs = RoundCosts {
                history: &history,
                avail: &avail,
                claimed: &claimed,
                blocked: &blocked,
                claim_penalty: opts.claim_penalty,
                pending_penalty: opts.pending_penalty,
            };
            let path = scratch.search(graph, oracle, &costs, src, dst);
            if path.iter().any(|&v| claimed[v]) {
                // Contested: rip up and raise the price of the contested
                // vertices. The token retries *within* the round — the
                // claim surcharge now steers it onto a disjoint detour
                // that commits into the same parallel layers — and only
                // drops to the next round once its in-round retry budget
                // is spent. (The first token of a round always commits —
                // nothing is claimed yet — so every round makes
                // progress.)
                ripups += 1;
                for &v in &path {
                    if claimed[v] {
                        history[v] = history[v].saturating_add(opts.history_increment);
                    }
                }
                if tries + 1 < ROUND_RETRIES {
                    queue.push_back((t, tries + 1));
                }
                continue;
            }
            for &v in &path {
                claimed[v] = true;
            }
            emit_transport(&path, &mut swaps, &mut avail);
            // The transport exchanges the endpoint occupants and
            // restores every interior vertex. The destination's
            // occupant is always misplaced (a homed token there would
            // share `t`'s target), so no commit ever unhomes a token.
            let evicted = tok[dst];
            tok[dst] = t;
            at[t] = dst;
            tok[src] = evicted;
            at[evicted] = src;
            // Keep the endpoint markers in sync: `t` is homed (drop its
            // position and home marks), the evicted occupant's position
            // moved `dst → src` — and when that homes it too (the
            // 2-cycle case), its home mark at `src` goes as well.
            blocked[src] -= 1;
            blocked[dst] -= 2;
            if pi.apply(evicted) == src {
                blocked[src] -= 1;
            } else {
                blocked[src] += 1;
            }
        }
        if qroute_obs::trace::armed() {
            // The `O(n)` history scan only runs with a subscriber armed.
            let max_history = history.iter().copied().max().unwrap_or(0);
            qroute_obs::trace::event(
                "pathfinder.round",
                &[
                    ("round", qroute_obs::FieldValue::U64(rounds as u64)),
                    (
                        "pops",
                        qroute_obs::FieldValue::U64(scratch.pops - round_pops_base),
                    ),
                    ("ripups", qroute_obs::FieldValue::U64(ripups)),
                    (
                        "max_history",
                        qroute_obs::FieldValue::U64(u64::from(max_history)),
                    ),
                    ("pending", qroute_obs::FieldValue::U64(pending.len() as u64)),
                ],
            );
        }
    }

    swaps
}

/// [`pathfinder_route_with`] on a full grid with the `O(1)` closed-form
/// [`GridOracle`] — the `RouterKind::Pathfinder` grid entry point.
pub fn pathfinder_route_grid(
    grid: Grid,
    pi: &Permutation,
    opts: &PathfinderOptions,
) -> RoutingSchedule {
    let graph = grid.to_graph();
    pathfinder_route_with(&graph, &GridOracle::new(grid), pi, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qroute_perm::partial::Completion;
    use qroute_perm::{generators, PartialPermutation};

    fn route(grid: Grid, pi: &Permutation) -> RoutingSchedule {
        pathfinder_route_grid(grid, pi, &PathfinderOptions::default())
    }

    #[test]
    fn identity_routes_to_empty_schedule() {
        let grid = Grid::new(4, 4);
        let s = route(grid, &Permutation::identity(16));
        assert_eq!(s.depth(), 0);
        assert_eq!(s.size(), 0);
    }

    #[test]
    fn single_swap_routes_in_one_layer() {
        let grid = Grid::new(3, 3);
        let mut table: Vec<usize> = (0..9).collect();
        table.swap(0, 1);
        let pi = Permutation::from_vec(table).unwrap();
        let s = route(grid, &pi);
        assert!(s.realizes(&pi));
        assert_eq!(s.depth(), 1);
        assert_eq!(s.size(), 1);
    }

    #[test]
    fn transport_exchanges_endpoints_and_restores_interior() {
        // One long 2-cycle across a path-shaped grid: 0 ↔ 4 on a 1×5
        // grid. The transport must cost 2·4−1 = 7 swaps and leave
        // vertices 1..=3 untouched.
        let grid = Grid::new(1, 5);
        let pi = Permutation::from_vec(vec![4, 1, 2, 3, 0]).unwrap();
        let s = route(grid, &pi);
        assert!(s.realizes(&pi));
        assert_eq!(s.size(), 7);
    }

    #[test]
    fn realizes_every_class_on_small_grids() {
        for (rows, cols) in [(2, 4), (3, 3), (4, 5), (6, 5)] {
            let grid = Grid::new(rows, cols);
            let graph = grid.to_graph();
            let n = grid.len();
            let workloads = [
                generators::random(n, 1),
                generators::random(n, 2),
                generators::reversal(n),
                generators::block_local(grid, 2, 2, 3),
                generators::skinny_cycles(grid, 4),
            ];
            for (k, pi) in workloads.iter().enumerate() {
                let s = route(grid, pi);
                assert!(s.realizes(pi), "{rows}x{cols} workload {k}");
                s.validate_on(&graph).unwrap();
            }
        }
    }

    #[test]
    fn same_input_gives_byte_identical_schedules() {
        let grid = Grid::new(8, 8);
        for seed in 0..4 {
            let pi = generators::random(64, seed);
            let a = route(grid, &pi);
            let b = route(grid, &pi);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn tiny_round_cap_falls_back_to_ats_and_still_realizes() {
        let grid = Grid::new(6, 6);
        let graph = grid.to_graph();
        let opts = PathfinderOptions { max_rounds: 1, ..Default::default() };
        for seed in 0..4 {
            let pi = generators::random(36, seed);
            let s = pathfinder_route_grid(grid, &pi, &opts);
            assert!(s.realizes(&pi), "seed {seed}");
            s.validate_on(&graph).unwrap();
        }
    }

    #[test]
    fn sparse_partial_permutations_route_shallow() {
        // A partial permutation pinning two short 2-cycles, completed
        // with fixed points: depth must scale with the pinned pairs'
        // distance, not with the side of the grid.
        let grid = Grid::new(16, 16);
        let mut partial = PartialPermutation::new(256);
        // (r0,c0)=(2,2) ↔ (2,5) and (10,10) ↔ (13,10): distance 3 each.
        let pairs = [(2 * 16 + 2, 2 * 16 + 5), (10 * 16 + 10, 13 * 16 + 10)];
        for (u, v) in pairs {
            partial.pin(u, v).unwrap();
            partial.pin(v, u).unwrap();
        }
        let pi = partial.complete(&Completion::StayInPlace);
        let s = route(grid, &pi);
        assert!(s.realizes(&pi));
        // Each transport is 2·3−1 = 5 swaps; the pairs are disjoint so
        // they parallelize. Matching-based routers pay Θ(side) here.
        assert!(
            s.depth() <= 5,
            "depth {} should not scale with side",
            s.depth()
        );
    }

    #[test]
    fn partial_permutation_on_a_defective_grid_routes_around_holes() {
        use crate::GridRouter;
        use qroute_topology::Topology;
        // Kill the straight corridor between the pinned pair: the
        // negotiated search must detour around the dead vertices and
        // still realize the permutation legally.
        let grid = Grid::new(6, 6);
        // (2,0) ↔ (2,5) with (2,2) and (2,3) dead.
        let topology = Topology::grid_with_defects(grid, &[2 * 6 + 2, 2 * 6 + 3], &[]).unwrap();
        let mut partial = PartialPermutation::new(36);
        partial.pin(2 * 6, 2 * 6 + 5).unwrap();
        partial.pin(2 * 6 + 5, 2 * 6).unwrap();
        let pi = partial.complete(&Completion::StayInPlace);
        let s = crate::router::RouterKind::pathfinder()
            .route_on(&topology, &pi)
            .unwrap();
        assert!(s.realizes(&pi));
        s.validate_on(&topology.graph()).unwrap();
        // The alive detour has length 7 (down-across-up), so the
        // transport is 13 swaps bubbling into ≈ 8 layers — nowhere near
        // a full-grid sweep, and crucially it terminates without
        // touching the dead corridor.
        assert!(
            s.depth() <= 10,
            "depth {} should track the detour",
            s.depth()
        );
    }

    #[test]
    fn congestion_negotiation_spreads_crossing_paths() {
        // Four tokens crossing the same center of a 5×5 grid. Whatever
        // the negotiation does, the result must stay legal and the
        // depth bounded well under the serial sum of transports.
        let grid = Grid::new(5, 5);
        let mut table: Vec<usize> = (0..25).collect();
        // corners cycle: TL→TR→BR→BL→TL (all shortest paths cross the
        // middle region).
        let (tl, tr, br, bl) = (0, 4, 24, 20);
        table[tl] = tr;
        table[tr] = br;
        table[br] = bl;
        table[bl] = tl;
        let pi = Permutation::from_vec(table).unwrap();
        let s = route(grid, &pi);
        assert!(s.realizes(&pi));
        s.validate_on(&grid.to_graph()).unwrap();
        // Serial execution of four 7-swap transports would be depth 28.
        assert!(s.depth() < 28, "negotiation should recover parallelism");
    }
}
