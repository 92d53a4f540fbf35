//! Approximate token swapping (ATS) — the baseline the paper compares
//! against — plus a guaranteed-terminating tree router.
//!
//! ATS is the 4-approximation of Miltzow, Narins, Okamoto, Rote, Thomas
//! and Uno ("Approximation and hardness for token swapping", 2016), used
//! as the routing primitive in the Childs–Schoute–Unsal transpiler that
//! §V benchmarks against. The serial algorithm repeatedly:
//!
//! * walks from an unfinished token along "strictly closer to target"
//!   arcs;
//! * on revisiting a vertex, cyclically shifts the discovered directed
//!   cycle (every token on it advances one step; a 2-cycle is exactly a
//!   *happy swap*);
//! * on reaching a vertex whose token is already home, performs one
//!   *unhappy swap* across the final arc.
//!
//! The swap list is then *parallelized* into layers with the greedy ASAP
//! pass ([`RoutingSchedule::compact`]) to measure depth, mirroring how
//! depth is extracted from token swapping in qubit-routing practice.
//!
//! [`tree_route`] provides a simple `O(n²)`-swap router with an
//! unconditional termination proof (place tokens onto the leaves of a
//! shrinking spanning tree); it serves as a crude baseline and as the
//! safety fallback behind ATS's swap budget.
//!
//! Distances are served by a [`DistanceOracle`] instead of a
//! materialized all-pairs table: `O(1)` closed-form on grids
//! ([`GridOracle`]), lazily cached BFS rows on arbitrary graphs
//! ([`LazyBfsOracle`]). The serial walk additionally *resumes in place*
//! after each swap event rather than re-walking its deterministic
//! prefix; both changes are behavior-preserving (pinned by tests against
//! a verbatim copy of the table-based implementation) and are what let
//! the benchmark matrix route side-64 grids.
//!
//! The parallel form ([`parallel_token_swapping_with`]) costs what
//! changes from round to round, not `O(n + m)` per round, by two
//! invariants:
//!
//! * **Happy status is local to an edge's endpoints.** Whether swapping
//!   across `(u, v)` moves both tokens closer depends only on `dest[u]`
//!   and `dest[v]`. So the set of happy edges is kept by canonical edge
//!   id and, after each batch of swaps, recomputed only on the edges at
//!   swapped endpoints; walking it in id order picks the same greedy
//!   layer as a scan of every edge.
//! * **A failed walk stays failed within its phase.** In a stuck phase
//!   `dest` is fixed and claims only grow. A walk's next hop from `v` is
//!   the first unclaimed neighbour strictly closer to `dest[v]`, so two
//!   walks that share a vertex share the rest of the walk. A chain claims
//!   only vertices of the walk that found it (its cycle, or the unhappy
//!   pair whose far end is home), so no successful walk ever touches a
//!   failed walk's vertices, and every later walk that reaches one is
//!   boxed in the same way. Such vertices are stamped dead for the rest of
//!   the phase, and failed walks cost `O(n)` per phase in total.
//!
//! Both are exact: a test pins the schedules against a verbatim copy of
//! the full-scan implementation on every oracle.

use crate::schedule::RoutingSchedule;
use qroute_perm::Permutation;
use qroute_topology::{dist, DistanceOracle, Graph, Grid, GridOracle, LazyBfsOracle};

/// Outcome of the serial ATS run.
#[derive(Debug, Clone)]
pub struct AtsOutcome {
    /// The serial swap sequence, in execution order.
    pub serial_swaps: Vec<(usize, usize)>,
    /// `true` if the safety budget was hit and [`tree_route`] finished the
    /// instance (never observed on connected coupling graphs; kept for
    /// honesty).
    pub fallback_used: bool,
}

impl AtsOutcome {
    /// Parallelize the serial swaps into disjoint layers (greedy ASAP),
    /// preserving per-vertex order and hence the realized permutation.
    ///
    /// Runs [`RoutingSchedule::compact_swaps`] directly over the borrowed
    /// swap list — no intermediate schedule, no clone of `serial_swaps`.
    pub fn parallelized(&self, n: usize) -> RoutingSchedule {
        RoutingSchedule::compact_swaps(n, self.serial_swaps.iter().copied())
    }

    /// The serial swap count (the objective ATS approximates).
    pub fn num_swaps(&self) -> usize {
        self.serial_swaps.len()
    }
}

/// Serial approximate token swapping on a connected graph, with distances
/// served by a [`LazyBfsOracle`] (one BFS per destination actually
/// walked, instead of the full `O(n²)` APSP table this function used to
/// materialize). Grid callers should prefer
/// [`approximate_token_swapping_with`] + [`GridOracle`] for `O(1)`
/// closed-form distances and zero distance-table memory.
///
/// # Panics
/// Panics when `π` and `graph` disagree in size, or when some destination
/// is unreachable (disconnected graph).
pub fn approximate_token_swapping(graph: &Graph, pi: &Permutation) -> AtsOutcome {
    approximate_token_swapping_with(graph, &LazyBfsOracle::new(graph), pi)
}

/// [`approximate_token_swapping`] with an explicit [`DistanceOracle`].
///
/// The oracle must answer shortest-path distances of `graph` (the
/// property tests pin [`GridOracle`]/[`LazyBfsOracle`] against BFS);
/// distances drive *which* swap is chosen, so an inconsistent oracle
/// produces wrong routings, not just slow ones.
///
/// # Panics
/// Panics when `π`, `graph` and `oracle` disagree in size, or when some
/// destination is unreachable (disconnected graph).
pub fn approximate_token_swapping_with(
    graph: &Graph,
    oracle: &impl DistanceOracle,
    pi: &Permutation,
) -> AtsOutcome {
    let n = graph.len();
    assert_eq!(pi.len(), n, "permutation size must match graph");
    assert_eq!(oracle.len(), n, "oracle size must match graph");
    for v in 0..n {
        assert_ne!(
            oracle.dist(v, pi.apply(v)),
            dist::UNREACHABLE,
            "destination of {v} unreachable; ATS needs a connected graph"
        );
    }

    // dest[v] = destination of the token currently at v.
    let mut dest: Vec<usize> = (0..n).map(|v| pi.apply(v)).collect();
    let mut swaps: Vec<(usize, usize)> = Vec::new();

    // Unfinished-vertex set with O(1) insert/remove.
    let mut todo: Vec<usize> = (0..n).filter(|&v| dest[v] != v).collect();
    let mut todo_pos: Vec<usize> = vec![usize::MAX; n];
    for (k, &v) in todo.iter().enumerate() {
        todo_pos[v] = k;
    }

    let phi0: usize = (0..n).map(|v| oracle.dist(v, dest[v]) as usize).sum();
    let budget = 4 * phi0 + 8 * n + 64;

    // Walk bookkeeping with epoch stamping (no per-iteration clearing).
    let mut visited_epoch: Vec<u64> = vec![0; n];
    let mut path_pos: Vec<usize> = vec![0; n];
    let mut epoch: u64 = 0;
    let mut path: Vec<usize> = Vec::with_capacity(n);

    macro_rules! do_swap {
        ($u:expr, $v:expr) => {{
            let (u, v) = ($u, $v);
            swaps.push((u, v));
            dest.swap(u, v);
            for w in [u, v] {
                let finished = dest[w] == w;
                let listed = todo_pos[w] != usize::MAX;
                if finished && listed {
                    let k = todo_pos[w];
                    let last = *todo.last().expect("nonempty");
                    todo.swap_remove(k);
                    todo_pos[w] = usize::MAX;
                    if last != w {
                        todo_pos[last] = k;
                    }
                } else if !finished && !listed {
                    todo_pos[w] = todo.len();
                    todo.push(w);
                }
            }
        }};
    }

    let mut fallback_used = false;
    while !todo.is_empty() {
        // One cooperative cancellation probe per cycle walk.
        crate::budget::checkpoint();
        if swaps.len() > budget {
            // Theoretically unreachable per Miltzow et al.; guaranteed
            // finisher keeps the library total regardless. `dest` is not
            // consulted after the handoff, so move it instead of cloning.
            fallback_used = true;
            let rest = Permutation::from_vec_unchecked(std::mem::take(&mut dest));
            for (u, v) in tree_route(graph, &rest) {
                swaps.push((u, v));
            }
            break;
        }

        epoch += 1;
        path.clear();
        let start = todo[0];
        visited_epoch[start] = epoch;
        path_pos[start] = 0;
        path.push(start);
        let mut cur = start;
        // Walk-resumption invariant: `visited_epoch[v] == epoch ⟺ v ∈
        // path`, and `path` is exactly the prefix a *fresh* walk from
        // `start` would deterministically retrace (every arc depends only
        // on the walked vertex's own dest). After a swap event that leaves
        // `start` at `todo[0]` and the prefix dests untouched, the next
        // scheduled walk is therefore this walk's continuation — so we
        // continue in place instead of re-walking the prefix, which turns
        // the O(walk-length) restart cost per cycle into O(1).
        loop {
            let target = dest[cur];
            let dcur = oracle.dist(cur, target);
            // Deterministic choice: smallest-id neighbor strictly closer.
            let next = graph
                .neighbors(cur)
                .find(|&w| oracle.dist(w, target) < dcur)
                .expect("connected graph: an unfinished token has a closer neighbor");
            if dest[next] == next {
                // Unhappy swap: displace a finished token by one. Neither
                // endpoint finishes (cur's token now targets next), so
                // `start` keeps todo slot 0 and no prefix dest changed:
                // resume from cur with its new token.
                do_swap!(cur, next);
                if swaps.len() <= budget {
                    debug_assert_eq!(todo[0], start);
                    continue;
                }
                break;
            }
            if visited_epoch[next] == epoch {
                // Directed cycle path[pos..]: advance every token one arc.
                let pos = path_pos[next];
                let cycle = &path[pos..];
                for k in (1..cycle.len()).rev() {
                    do_swap!(cycle[k - 1], cycle[k]);
                }
                if pos > 0 && swaps.len() <= budget {
                    // Only cycle vertices changed, and `start ∉ cycle`
                    // (pos > 0), so the fresh walk would retrace
                    // path[..pos] unchanged and then re-evaluate the
                    // rotated cycle head. Rewind to that state: unmark the
                    // cycle, keep the prefix, step again from path[pos-1].
                    for &v in &path[pos..] {
                        visited_epoch[v] = 0;
                    }
                    path.truncate(pos);
                    cur = path[pos - 1];
                    debug_assert_eq!(todo[0], start);
                    continue;
                }
                break;
            }
            visited_epoch[next] = epoch;
            path_pos[next] = path.len();
            path.push(next);
            cur = next;
        }
    }

    // On the fallback path `dest` was moved out (empty), which passes
    // trivially; tree_route's own invariants cover that case.
    debug_assert!(dest.iter().enumerate().all(|(v, &d)| v == d));
    AtsOutcome { serial_swaps: swaps, fallback_used }
}

/// **Parallel** approximate token swapping, the form benchmarked in the
/// paper's Figures 4–5 (the ATS implementation of Childs–Schoute–Unsal
/// produces swap *layers*, not a serial list):
///
/// * each round greedily applies a maximal vertex-disjoint set of *happy*
///   swaps (both tokens strictly closer) as one layer;
/// * when no happy swap exists anywhere, one serial Miltzow step (cycle
///   shift or unhappy swap) unsticks the configuration;
/// * a final ASAP compaction merges whatever independent chains remain.
///
/// Termination mirrors the serial algorithm (happy layers strictly
/// decrease `Φ = Σ dist`; stuck steps are exactly the serial case), with
/// the same guaranteed-finisher budget.
pub fn parallel_token_swapping(graph: &Graph, pi: &Permutation) -> RoutingSchedule {
    parallel_token_swapping_with(graph, &LazyBfsOracle::new(graph), pi)
}

/// [`parallel_token_swapping`] with an explicit [`DistanceOracle`] (see
/// [`approximate_token_swapping_with`] for the oracle contract).
///
/// # Panics
/// Panics when `π`, `graph` and `oracle` disagree in size, or when some
/// destination is unreachable (disconnected graph).
pub fn parallel_token_swapping_with(
    graph: &Graph,
    oracle: &impl DistanceOracle,
    pi: &Permutation,
) -> RoutingSchedule {
    parallel_rounds(graph, oracle, pi).compact(graph.len())
}

/// The round loop of [`parallel_token_swapping_with`]: one layer per
/// happy round or stuck-phase step, before the final compaction.
pub(crate) fn parallel_rounds(
    graph: &Graph,
    oracle: &impl DistanceOracle,
    pi: &Permutation,
) -> RoutingSchedule {
    let n = graph.len();
    assert_eq!(pi.len(), n, "permutation size must match graph");
    assert_eq!(oracle.len(), n, "oracle size must match graph");
    for v in 0..n {
        assert_ne!(
            oracle.dist(v, pi.apply(v)),
            dist::UNREACHABLE,
            "destination of {v} unreachable; ATS needs a connected graph"
        );
    }

    let mut dest: Vec<usize> = (0..n).map(|v| pi.apply(v)).collect();
    let mut schedule = RoutingSchedule::empty();
    let phi0: usize = (0..n).map(|v| oracle.dist(v, dest[v]) as usize).sum();
    let budget_layers = 4 * phi0 + 8 * n + 64;

    let mut state = AtsState::new(graph, oracle, &dest);
    let mut used = vec![u64::MAX; n];
    let mut round: u64 = 0;
    let mut visited_epoch = vec![0u64; n];
    let mut path_pos = vec![0usize; n];
    let mut epoch = 0u64;
    let mut path: Vec<usize> = Vec::with_capacity(n);
    // Per-phase vertex marks, stamped with the round (never 0) so a new
    // phase starts with both sets empty at no cost.
    let mut claimed = vec![0u64; n];
    let mut dead = vec![0u64; n];
    let mut chain_swaps: Vec<(usize, usize)> = Vec::new();
    let mut chains: Vec<std::ops::Range<usize>> = Vec::new();
    let mut layer: Vec<(usize, usize)> = Vec::new();

    while state.num_unfinished > 0 {
        // One cooperative cancellation probe per parallel round.
        crate::budget::checkpoint();
        if schedule.depth() > budget_layers {
            qroute_obs::trace::event(
                "ats.fallback",
                &[
                    ("round", qroute_obs::FieldValue::U64(round)),
                    (
                        "depth",
                        qroute_obs::FieldValue::U64(schedule.depth() as u64),
                    ),
                ],
            );
            let rest = Permutation::from_vec_unchecked(dest.clone());
            for (u, v) in tree_route(graph, &rest) {
                schedule.push_layer([(u, v)]);
                dest.swap(u, v);
            }
            break;
        }
        round += 1;
        // Happy layer: maximal disjoint set in canonical edge order. Only
        // happy edges can join it, so walking the happy set in ascending
        // id order picks exactly what a scan of every edge would.
        layer.clear();
        for e in state.happy.iter() {
            let (u, v) = graph.edges()[e];
            if used[u] == round || used[v] == round {
                continue;
            }
            layer.push((u, v));
            used[u] = round;
            used[v] = round;
        }
        if !layer.is_empty() {
            qroute_obs::trace::event(
                "ats.round",
                &[
                    ("round", qroute_obs::FieldValue::U64(round)),
                    ("kind", qroute_obs::FieldValue::Str("happy")),
                    ("swaps", qroute_obs::FieldValue::U64(layer.len() as u64)),
                ],
            );
            for &(u, v) in &layer {
                dest.swap(u, v);
            }
            state.refresh(graph, oracle, &dest, layer.iter().copied());
            schedule.push_layer(layer.iter().copied());
            continue;
        }

        // Stuck: no happy swap anywhere. Run Miltzow walks from *every*
        // unfinished token, in ascending order, over vertices not yet
        // claimed in this phase; each walk yields a swap chain (cycle
        // shift or unhappy step) or gets boxed in by claims. Chains are
        // vertex-disjoint, so chain i's j-th swap shares a layer with
        // chain k's j-th swap — regions unstick in parallel. A boxed-in
        // walk marks its whole path dead: any later walk that steps onto
        // it would follow the same path into the same box (see the module
        // docs), so it stops there instead.
        chain_swaps.clear();
        chains.clear();
        for s in state.unfinished.iter() {
            if claimed[s] == round || dead[s] == round {
                continue;
            }
            epoch += 1;
            path.clear();
            visited_epoch[s] = epoch;
            path_pos[s] = 0;
            path.push(s);
            let mut cur = s;
            let found = loop {
                let target = dest[cur];
                let dcur = oracle.dist(cur, target);
                let next = graph
                    .neighbors(cur)
                    .find(|&w| claimed[w] != round && oracle.dist(w, target) < dcur);
                let Some(next) = next else { break false }; // boxed in by claims
                if dest[next] == next {
                    chain_swaps.push((cur, next)); // unhappy swap
                    break true;
                }
                if visited_epoch[next] == epoch {
                    let cycle = &path[path_pos[next]..];
                    chain_swaps.extend((1..cycle.len()).rev().map(|k| (cycle[k - 1], cycle[k])));
                    break true;
                }
                if dead[next] == round {
                    break false; // joins a walk already boxed in
                }
                visited_epoch[next] = epoch;
                path_pos[next] = path.len();
                path.push(next);
                cur = next;
            };
            if found {
                let begin = chains.last().map_or(0, |c| c.end);
                for &(a, b) in &chain_swaps[begin..] {
                    claimed[a] = round;
                    claimed[b] = round;
                }
                chains.push(begin..chain_swaps.len());
            } else {
                for &v in &path {
                    dead[v] = round;
                }
            }
        }
        // The first walk runs over a claim-free graph and always finds a
        // cycle or a home token, so every stuck phase makes progress.
        debug_assert!(!chains.is_empty());
        let maxlen = chains.iter().map(|c| c.len()).max().unwrap_or(0);
        qroute_obs::trace::event(
            "ats.round",
            &[
                ("round", qroute_obs::FieldValue::U64(round)),
                ("kind", qroute_obs::FieldValue::Str("stuck")),
                ("chains", qroute_obs::FieldValue::U64(chains.len() as u64)),
                ("max_chain", qroute_obs::FieldValue::U64(maxlen as u64)),
            ],
        );
        // Layer j holds every chain's j-th swap, in chain order; `chains`
        // keeps each chain's not-yet-layered rest.
        while !chains.is_empty() {
            schedule.push_layer(chains.iter_mut().map(|c| {
                let (a, b) = chain_swaps[c.start];
                dest.swap(a, b);
                c.start += 1;
                (a, b)
            }));
            chains.retain(|c| !c.is_empty());
        }
        state.refresh(graph, oracle, &dest, chain_swaps.iter().copied());
    }

    schedule
}

/// Whether swapping across edge `(u, v)` moves both tokens strictly
/// closer to their destinations — a function of `dest[u]` and `dest[v]`
/// only.
fn is_happy(oracle: &impl DistanceOracle, dest: &[usize], u: usize, v: usize) -> bool {
    let (du, dv) = (dest[u], dest[v]);
    du != u
        && dv != v
        && oracle.dist(v, du) < oracle.dist(u, du)
        && oracle.dist(u, dv) < oracle.dist(v, dv)
}

/// The round-to-round view of parallel ATS, kept incrementally: the happy
/// edges (by canonical edge id) and the unfinished vertices. Both depend
/// only on `dest` at the vertices involved, so after a batch of swaps only
/// the swapped endpoints and their incident edges are recomputed.
struct AtsState {
    happy: IdSet,
    unfinished: IdSet,
    num_unfinished: usize,
    /// `incident[incident_at[v]..incident_at[v + 1]]` are the ids of the
    /// edges at `v`.
    incident_at: Vec<u32>,
    incident: Vec<u32>,
}

impl AtsState {
    fn new(graph: &Graph, oracle: &impl DistanceOracle, dest: &[usize]) -> AtsState {
        let n = graph.len();
        let edges = graph.edges();
        let mut incident_at = vec![0u32; n + 1];
        for &(u, v) in edges {
            incident_at[u + 1] += 1;
            incident_at[v + 1] += 1;
        }
        for v in 0..n {
            incident_at[v + 1] += incident_at[v];
        }
        let mut cursor = incident_at.clone();
        let mut incident = vec![0u32; 2 * edges.len()];
        for (e, &(u, v)) in edges.iter().enumerate() {
            for w in [u, v] {
                incident[cursor[w] as usize] = e as u32;
                cursor[w] += 1;
            }
        }
        let mut happy = IdSet::new(edges.len());
        for (e, &(u, v)) in edges.iter().enumerate() {
            happy.set(e, is_happy(oracle, dest, u, v));
        }
        let mut unfinished = IdSet::new(n);
        let mut num_unfinished = 0;
        for (v, &d) in dest.iter().enumerate() {
            if d != v {
                unfinished.set(v, true);
                num_unfinished += 1;
            }
        }
        AtsState { happy, unfinished, num_unfinished, incident_at, incident }
    }

    /// Recompute everything that depends on the endpoints of `swaps`,
    /// which have all been applied to `dest`.
    fn refresh(
        &mut self,
        graph: &Graph,
        oracle: &impl DistanceOracle,
        dest: &[usize],
        swaps: impl Iterator<Item = (usize, usize)>,
    ) {
        for (a, b) in swaps {
            for w in [a, b] {
                let (was, now) = (self.unfinished.contains(w), dest[w] != w);
                self.unfinished.set(w, now);
                self.num_unfinished = self.num_unfinished + usize::from(now) - usize::from(was);
                let lo = self.incident_at[w] as usize;
                let hi = self.incident_at[w + 1] as usize;
                for &e in &self.incident[lo..hi] {
                    let (u, v) = graph.edges()[e as usize];
                    self.happy.set(e as usize, is_happy(oracle, dest, u, v));
                }
            }
        }
    }
}

/// A fixed-universe set of ids, iterated in ascending order.
struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    fn new(len: usize) -> IdSet {
        IdSet { words: vec![0; len.div_ceil(64)] }
    }

    fn contains(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    fn set(&mut self, i: usize, on: bool) {
        let bit = 1u64 << (i % 64);
        if on {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    64 * k + bit
                })
            })
        })
    }
}

/// ATS on a grid, in the parallel, depth-measured form the paper's
/// Figures 4 and 5 evaluate. Distances come from the closed-form
/// [`GridOracle`] — no BFS, no distance table — which is what lets the
/// benchmark matrix reach side 64 (a side-64 APSP table alone is 64 MiB).
pub fn ats_route_grid(grid: Grid, pi: &Permutation) -> RoutingSchedule {
    let graph = grid.to_graph();
    parallel_token_swapping_with(&graph, &GridOracle::new(grid), pi)
}

/// Guaranteed-terminating token router on any connected graph.
///
/// Strategy: take a BFS spanning tree; process vertices in reverse BFS
/// order (so the current vertex is always a leaf of the remaining tree);
/// bubble the token destined for that vertex to it along the tree path;
/// then retire the vertex. Each retirement is permanent, so the algorithm
/// terminates after at most `n` placements of at most `n-1` swaps each.
pub fn tree_route(graph: &Graph, pi: &Permutation) -> Vec<(usize, usize)> {
    let n = graph.len();
    assert_eq!(pi.len(), n);
    if n == 0 {
        return Vec::new();
    }
    assert!(graph.is_connected(), "tree routing needs a connected graph");

    // BFS tree from vertex 0.
    let mut parent = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[0] = true;
    queue.push_back(0);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for w in graph.neighbors(v) {
            if !seen[w] {
                seen[w] = true;
                parent[w] = v;
                queue.push_back(w);
            }
        }
    }

    let mut dest: Vec<usize> = (0..n).map(|v| pi.apply(v)).collect();
    let mut at_of_token_dest: Vec<usize> = vec![usize::MAX; n];
    for v in 0..n {
        at_of_token_dest[dest[v]] = v;
    }
    let mut swaps = Vec::new();
    // Reverse BFS order: children retire before parents, so the remaining
    // vertex set is always connected in the tree and tree paths between
    // active vertices avoid retired ones... path to the *root side* only.
    for &target in order.iter().rev() {
        // One cooperative cancellation probe per retirement.
        crate::budget::checkpoint();
        let mut cur = at_of_token_dest[target];
        // Bubble along tree path cur -> target. Both endpoints are active;
        // the tree path runs through their common ancestor, all of which
        // are active (ancestors retire later in reverse BFS order).
        let path = tree_path(&parent, cur, target);
        for &next in &path[1..] {
            swaps.push((cur, next));
            dest.swap(cur, next);
            at_of_token_dest[dest[cur]] = cur;
            at_of_token_dest[dest[next]] = next;
            cur = next;
        }
        debug_assert_eq!(dest[target], target);
    }
    swaps
}

/// Path between two vertices in a rooted tree (via lowest common
/// ancestor walk), inclusive of both endpoints.
fn tree_path(parent: &[usize], a: usize, b: usize) -> Vec<usize> {
    // Climb both to the root, recording ancestors.
    let climb = |mut v: usize| {
        let mut up = vec![v];
        while parent[v] != usize::MAX {
            v = parent[v];
            up.push(v);
        }
        up
    };
    let ua = climb(a);
    let ub = climb(b);
    // Find LCA: longest common suffix.
    let mut ia = ua.len();
    let mut ib = ub.len();
    while ia > 0 && ib > 0 && ua[ia - 1] == ub[ib - 1] {
        ia -= 1;
        ib -= 1;
    }
    // ua[..=ia] is a's side up to LCA (inclusive at index ia), ub[..ib]
    // reversed comes back down to b.
    let mut path = ua[..=ia].to_vec();
    path.extend(ub[..ib].iter().rev());
    path
}

/// Realize a serial swap list as a (serial) schedule: one layer per swap.
pub fn serial_schedule(swaps: &[(usize, usize)]) -> RoutingSchedule {
    RoutingSchedule::from_layers(swaps.iter().map(|&swap| [swap]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qroute_perm::{generators, metrics};
    use qroute_topology::{gridlike, ApspOracle, Cycle, CycleOracle, Path, Product, ProductOracle};

    /// The pre-overhaul serial ATS, verbatim: full APSP table, generic
    /// neighbor scan, and a fresh walk from `todo[0]` after every swap
    /// event. The optimized implementation (closed-form closer-neighbor
    /// steps, walk resumption) must reproduce its swap sequence *exactly*
    /// — routing behavior is pinned, only speed may differ.
    fn reference_serial_ats(graph: &Graph, pi: &Permutation) -> Vec<(usize, usize)> {
        let n = graph.len();
        let apsp = dist::all_pairs(graph);
        let mut dest: Vec<usize> = (0..n).map(|v| pi.apply(v)).collect();
        let mut swaps = Vec::new();
        let mut visited = vec![false; n];
        let mut path_pos = vec![0usize; n];
        // The todo ordering is intrinsic to the algorithm, so the
        // reference replays the same list discipline.
        let mut todo: Vec<usize> = (0..n).filter(|&v| dest[v] != v).collect();
        let mut todo_pos: Vec<usize> = vec![usize::MAX; n];
        for (k, &v) in todo.iter().enumerate() {
            todo_pos[v] = k;
        }
        macro_rules! ref_swap {
            ($u:expr, $v:expr) => {{
                let (u, v) = ($u, $v);
                swaps.push((u, v));
                dest.swap(u, v);
                for w in [u, v] {
                    let finished = dest[w] == w;
                    let listed = todo_pos[w] != usize::MAX;
                    if finished && listed {
                        let k = todo_pos[w];
                        let last = *todo.last().unwrap();
                        todo.swap_remove(k);
                        todo_pos[w] = usize::MAX;
                        if last != w {
                            todo_pos[last] = k;
                        }
                    } else if !finished && !listed {
                        todo_pos[w] = todo.len();
                        todo.push(w);
                    }
                }
            }};
        }
        let mut path: Vec<usize> = Vec::new();
        while !todo.is_empty() {
            for &v in &path {
                visited[v] = false;
            }
            path.clear();
            let start = todo[0];
            visited[start] = true;
            path_pos[start] = 0;
            path.push(start);
            let mut cur = start;
            loop {
                let target = dest[cur];
                let dcur = apsp[cur][target];
                let next = graph
                    .neighbors(cur)
                    .find(|&w| apsp[w][target] < dcur)
                    .expect("connected");
                if dest[next] == next {
                    ref_swap!(cur, next);
                    break;
                }
                if visited[next] {
                    let pos = path_pos[next];
                    let cycle = &path[pos..];
                    for k in (1..cycle.len()).rev() {
                        ref_swap!(cycle[k - 1], cycle[k]);
                    }
                    break;
                }
                visited[next] = true;
                path_pos[next] = path.len();
                path.push(next);
                cur = next;
            }
        }
        swaps
    }

    /// Parallel ATS as it was before the incremental happy-edge set and
    /// the dead-walk memo, verbatim: a full edge scan and a `(0..n).find`
    /// per round, and a fresh `claimed` vector plus a walk from every
    /// unfinished vertex per stuck phase. The optimized implementation
    /// must reproduce its schedule exactly.
    fn reference_parallel_ats(
        graph: &Graph,
        oracle: &impl DistanceOracle,
        pi: &Permutation,
    ) -> RoutingSchedule {
        let n = graph.len();
        assert_eq!(pi.len(), n, "permutation size must match graph");
        assert_eq!(oracle.len(), n, "oracle size must match graph");
        for v in 0..n {
            assert_ne!(
                oracle.dist(v, pi.apply(v)),
                dist::UNREACHABLE,
                "destination of {v} unreachable; ATS needs a connected graph"
            );
        }

        let mut dest: Vec<usize> = (0..n).map(|v| pi.apply(v)).collect();
        let mut schedule = RoutingSchedule::empty();
        let phi0: usize = (0..n).map(|v| oracle.dist(v, dest[v]) as usize).sum();
        let budget_layers = 4 * phi0 + 8 * n + 64;

        let mut used = vec![u64::MAX; n];
        let mut round: u64 = 0;
        let mut visited_epoch = vec![0u64; n];
        let mut path_pos = vec![0usize; n];
        let mut epoch = 0u64;
        let mut path: Vec<usize> = Vec::with_capacity(n);

        while let Some(start) = (0..n).find(|&v| dest[v] != v) {
            // One cooperative cancellation probe per parallel round.
            crate::budget::checkpoint();
            if schedule.depth() > budget_layers {
                qroute_obs::trace::event(
                    "ats.fallback",
                    &[
                        ("round", qroute_obs::FieldValue::U64(round)),
                        (
                            "depth",
                            qroute_obs::FieldValue::U64(schedule.depth() as u64),
                        ),
                    ],
                );
                let rest = Permutation::from_vec_unchecked(dest.clone());
                for (u, v) in tree_route(graph, &rest) {
                    schedule.push_layer([(u, v)]);
                    dest.swap(u, v);
                }
                break;
            }
            round += 1;
            // Happy layer: maximal disjoint set in canonical edge order.
            let mut layer: Vec<(usize, usize)> = Vec::new();
            for &(u, v) in graph.edges() {
                if used[u] == round || used[v] == round {
                    continue;
                }
                let (du, dv) = (dest[u], dest[v]);
                if du != u
                    && dv != v
                    && oracle.dist(v, du) < oracle.dist(u, du)
                    && oracle.dist(u, dv) < oracle.dist(v, dv)
                {
                    layer.push((u, v));
                    used[u] = round;
                    used[v] = round;
                }
            }
            if !layer.is_empty() {
                qroute_obs::trace::event(
                    "ats.round",
                    &[
                        ("round", qroute_obs::FieldValue::U64(round)),
                        ("kind", qroute_obs::FieldValue::Str("happy")),
                        ("swaps", qroute_obs::FieldValue::U64(layer.len() as u64)),
                    ],
                );
                for &(u, v) in &layer {
                    dest.swap(u, v);
                }
                schedule.push_layer(layer);
                continue;
            }

            // Stuck: no happy swap anywhere. Run Miltzow walks from *every*
            // unfinished token over vertices not yet claimed in this phase;
            // each walk yields a swap chain (cycle shift or unhappy step).
            // Chains are vertex-disjoint, so chain i's j-th swap shares a
            // layer with chain k's j-th swap — regions unstick in parallel.
            let mut claimed = vec![false; n];
            let mut chains: Vec<Vec<(usize, usize)>> = Vec::new();
            for s in start..n {
                if dest[s] == s || claimed[s] {
                    continue;
                }
                epoch += 1;
                path.clear();
                visited_epoch[s] = epoch;
                path_pos[s] = 0;
                path.push(s);
                let mut cur = s;
                let chain: Option<Vec<(usize, usize)>> = loop {
                    let target = dest[cur];
                    let dcur = oracle.dist(cur, target);
                    let next = graph
                        .neighbors(cur)
                        .find(|&w| !claimed[w] && oracle.dist(w, target) < dcur);
                    let Some(next) = next else { break None }; // boxed in by claims
                    if dest[next] == next {
                        break Some(vec![(cur, next)]); // unhappy swap
                    }
                    if visited_epoch[next] == epoch {
                        let pos = path_pos[next];
                        let cycle = &path[pos..];
                        break Some(
                            (1..cycle.len())
                                .rev()
                                .map(|k| (cycle[k - 1], cycle[k]))
                                .collect(),
                        );
                    }
                    visited_epoch[next] = epoch;
                    path_pos[next] = path.len();
                    path.push(next);
                    cur = next;
                };
                if let Some(swaps) = chain {
                    for &(a, b) in &swaps {
                        claimed[a] = true;
                        claimed[b] = true;
                    }
                    chains.push(swaps);
                }
            }
            // The first walk runs over a claim-free graph and always finds a
            // cycle or a home token, so every stuck phase makes progress.
            debug_assert!(!chains.is_empty());
            let maxlen = chains.iter().map(Vec::len).max().unwrap_or(0);
            qroute_obs::trace::event(
                "ats.round",
                &[
                    ("round", qroute_obs::FieldValue::U64(round)),
                    ("kind", qroute_obs::FieldValue::Str("stuck")),
                    ("chains", qroute_obs::FieldValue::U64(chains.len() as u64)),
                    ("max_chain", qroute_obs::FieldValue::U64(maxlen as u64)),
                ],
            );
            for j in 0..maxlen {
                let mut layer: Vec<(usize, usize)> = Vec::new();
                for ch in &chains {
                    if let Some(&s) = ch.get(j) {
                        layer.push(s);
                    }
                }
                for &(a, b) in &layer {
                    dest.swap(a, b);
                }
                schedule.push_layer(layer);
            }
        }

        schedule.compact(n)
    }

    #[test]
    fn optimized_serial_walk_matches_reference() {
        // Grids (closed-form fast path + resumption) against the verbatim
        // old implementation, across shapes that exercise 1-D grids,
        // squares and tall/wide rectangles.
        for (m, n) in [(1, 9), (4, 4), (3, 7), (8, 8), (6, 2)] {
            let grid = Grid::new(m, n);
            let g = grid.to_graph();
            for seed in 0..4 {
                let pi = generators::random(grid.len(), seed);
                let reference = reference_serial_ats(&g, &pi);
                let fast = approximate_token_swapping_with(&g, &GridOracle::new(grid), &pi);
                assert_eq!(fast.serial_swaps, reference, "{m}x{n} seed {seed}");
                // Every oracle backend must agree swap-for-swap.
                let lazy = approximate_token_swapping(&g, &pi);
                assert_eq!(lazy.serial_swaps, reference, "{m}x{n} seed {seed} lazy");
                let apsp = approximate_token_swapping_with(&g, &ApspOracle::new(&g), &pi);
                assert_eq!(apsp.serial_swaps, reference, "{m}x{n} seed {seed} apsp");
            }
        }
        // Generic graphs (scan path + resumption) and cycles (closed-form
        // cycle fast path).
        for g in [gridlike::brick_wall(4, 5), gridlike::heavy_hex(3, 9)] {
            for seed in 0..3 {
                let pi = generators::random(g.len(), seed);
                let reference = reference_serial_ats(&g, &pi);
                assert_eq!(
                    approximate_token_swapping(&g, &pi).serial_swaps,
                    reference,
                    "seed {seed}"
                );
            }
        }
        let c = Cycle::new(8);
        let g = c.to_graph();
        for seed in 0..3 {
            let pi = generators::random(8, seed);
            let reference = reference_serial_ats(&g, &pi);
            let fast = approximate_token_swapping_with(&g, &CycleOracle::new(c), &pi);
            assert_eq!(fast.serial_swaps, reference, "cycle seed {seed}");
        }
    }

    #[test]
    fn parallel_ats_oracle_backends_agree() {
        for (m, n) in [(4, 4), (5, 7), (1, 8)] {
            let grid = Grid::new(m, n);
            let g = grid.to_graph();
            for seed in 0..3 {
                let pi = generators::random(grid.len(), seed);
                let fast = parallel_token_swapping_with(&g, &GridOracle::new(grid), &pi);
                let lazy = parallel_token_swapping(&g, &pi);
                let apsp = parallel_token_swapping_with(&g, &ApspOracle::new(&g), &pi);
                assert_eq!(fast, lazy, "{m}x{n} seed {seed}");
                assert_eq!(fast, apsp, "{m}x{n} seed {seed}");
            }
        }
    }

    /// The differential classes: dense, sparse at 25% and 10% support,
    /// and reversal on any vertex set; block-local (2/3/4) and
    /// overlapping blocks where the vertex ids form a `grid`.
    fn differential_cases(n: usize, grid: Option<Grid>, seed: u64) -> Vec<(String, Permutation)> {
        let mut cases = vec![
            ("random".to_string(), generators::random(n, seed)),
            (
                "sparse25".to_string(),
                generators::sparse_random(n, n / 4, seed),
            ),
            (
                "sparse10".to_string(),
                generators::sparse_random(n, n / 10, seed),
            ),
            ("reversal".to_string(), generators::reversal(n)),
        ];
        if let Some(grid) = grid {
            for b in [2, 3, 4] {
                cases.push((
                    format!("block{b}"),
                    generators::block_local(grid, b, b, seed),
                ));
            }
            let overlap = generators::overlapping_blocks(grid, 4, 4, 2, 2, seed);
            cases.push(("overlap4s2".to_string(), overlap));
        }
        cases
    }

    #[test]
    fn parallel_ats_matches_reference() {
        let mut compared = 0;
        let shapes = [
            (1, 9),
            (2, 2),
            (2, 6),
            (3, 3),
            (3, 7),
            (7, 3),
            (4, 4),
            (5, 5),
            (4, 9),
            (6, 9),
            (8, 8),
            (11, 5),
            (12, 12),
            (16, 16),
            (20, 13),
        ];
        for (m, n) in shapes {
            let grid = Grid::new(m, n);
            let g = grid.to_graph();
            let apsp = ApspOracle::new(&g);
            for seed in 0..3 {
                for (class, pi) in differential_cases(grid.len(), Some(grid), seed) {
                    let reference = reference_parallel_ats(&g, &GridOracle::new(grid), &pi);
                    let at = format!("{m}x{n} {class} seed {seed}");
                    let grid_oracle = parallel_token_swapping_with(&g, &GridOracle::new(grid), &pi);
                    assert_eq!(grid_oracle, reference, "{at} grid oracle");
                    assert_eq!(parallel_token_swapping(&g, &pi), reference, "{at} lazy");
                    assert_eq!(
                        parallel_token_swapping_with(&g, &apsp, &pi),
                        reference,
                        "{at} apsp"
                    );
                    compared += 3;
                }
            }
        }
        let defect = |side: usize, dead: &[usize]| {
            gridlike::grid_with_defects(Grid::new(side, side), dead).0
        };
        let others = [
            (
                "brick 7x9",
                gridlike::brick_wall(7, 9),
                Some(Grid::new(7, 9)),
            ),
            (
                "brick 12x10",
                gridlike::brick_wall(12, 10),
                Some(Grid::new(12, 10)),
            ),
            ("heavy-hex 3x9", gridlike::heavy_hex(3, 9), None),
            ("heavy-hex 5x13", gridlike::heavy_hex(5, 13), None),
            ("defect 9", defect(9, &[10, 30, 41, 52, 70]), None),
            (
                "defect 14",
                defect(14, &[15, 33, 60, 97, 98, 150, 181]),
                None,
            ),
        ];
        for (name, g, grid) in &others {
            assert!(g.is_connected(), "{name}");
            for seed in 0..3 {
                for (class, pi) in differential_cases(g.len(), *grid, seed) {
                    let reference = reference_parallel_ats(g, &LazyBfsOracle::new(g), &pi);
                    let got = parallel_token_swapping(g, &pi);
                    assert_eq!(got, reference, "{name} {class} seed {seed}");
                    compared += 1;
                }
            }
        }
        for (rows, cols) in [(6, 7), (9, 5)] {
            let g =
                Product::new(Cycle::new(rows).to_graph(), Cycle::new(cols).to_graph()).to_graph();
            let oracle = ProductOracle::new(
                CycleOracle::new(Cycle::new(rows)),
                CycleOracle::new(Cycle::new(cols)),
            );
            for seed in 0..3 {
                for (class, pi) in differential_cases(g.len(), Some(Grid::new(rows, cols)), seed) {
                    let reference = reference_parallel_ats(&g, &oracle, &pi);
                    let got = parallel_token_swapping_with(&g, &oracle, &pi);
                    assert_eq!(got, reference, "torus {rows}x{cols} {class} seed {seed}");
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 1224);
    }

    fn check_ats(graph: &Graph, pi: &Permutation) -> AtsOutcome {
        let out = approximate_token_swapping(graph, pi);
        assert!(!out.fallback_used, "fallback triggered unexpectedly");
        let sched = serial_schedule(&out.serial_swaps);
        assert!(sched.realizes(pi), "ATS does not realize π");
        sched.validate_on(graph).unwrap();
        out
    }

    #[test]
    fn identity_needs_no_swaps() {
        let g = Grid::new(3, 3).to_graph();
        let out = check_ats(&g, &Permutation::identity(9));
        assert_eq!(out.num_swaps(), 0);
    }

    #[test]
    fn single_transposition_on_edge() {
        let g = Path::new(4).to_graph();
        let pi = Permutation::from_vec(vec![1, 0, 2, 3]).unwrap();
        let out = check_ats(&g, &pi);
        assert_eq!(
            out.num_swaps(),
            1,
            "adjacent transposition is one happy swap"
        );
    }

    #[test]
    fn rotation_on_cycle_graph() {
        let c = Cycle::new(6);
        let g = c.to_graph();
        let map: Vec<usize> = (0..6).map(|v| (v + 1) % 6).collect();
        let pi = Permutation::from_vec(map).unwrap();
        let out = check_ats(&g, &pi);
        // A cyclic rotation of C6 takes 5 swaps (cycle shift).
        assert_eq!(out.num_swaps(), 5);
    }

    #[test]
    fn routes_random_instances_on_grids() {
        for (m, n) in [(2, 2), (3, 4), (5, 5), (1, 9)] {
            let grid = Grid::new(m, n);
            let g = grid.to_graph();
            for seed in 0..6 {
                let pi = generators::random(grid.len(), seed);
                let out = check_ats(&g, &pi);
                // 4-approx sanity: OPT >= total_distance / 2... actually
                // each swap reduces Φ by at most 2, so swaps >= Φ/2; the
                // 4-approx then gives swaps <= 4·OPT <= ... we verify the
                // weaker certified bound swaps <= 2Φ (OPT <= Φ since
                // moving tokens one-by-one costs Φ... loosely) — in
                // practice the ratio is near 1.
                let phi = metrics::total_distance_graph(&g, &pi);
                assert!(out.num_swaps() >= phi.div_ceil(2));
                assert!(out.num_swaps() <= 2 * phi + grid.len());
            }
        }
    }

    #[test]
    fn routes_on_gridlike_graphs() {
        let g = gridlike::brick_wall(4, 5);
        for seed in 0..4 {
            let pi = generators::random(20, seed);
            check_ats(&g, &pi);
        }
        let (dg, _) = gridlike::grid_with_defects(Grid::new(4, 4), &[5, 10]);
        assert!(dg.is_connected());
        for seed in 0..4 {
            let pi = generators::random(14, seed);
            check_ats(&dg, &pi);
        }
    }

    #[test]
    fn near_optimal_on_tiny_instances() {
        // Exact optimum by BFS over token configurations; ATS must be
        // within factor 4 (it is usually equal on these sizes).
        fn opt_swaps(g: &Graph, pi: &Permutation) -> usize {
            use std::collections::{HashMap, VecDeque};
            let start: Vec<usize> = (0..pi.len()).collect();
            let goal: Vec<usize> = {
                // token v must be at pi(v): at[pi(v)] = v.
                let mut at = vec![0; pi.len()];
                for v in 0..pi.len() {
                    at[pi.apply(v)] = v;
                }
                at
            };
            let mut seen: HashMap<Vec<usize>, usize> = HashMap::new();
            let mut q = VecDeque::new();
            seen.insert(start.clone(), 0);
            q.push_back(start);
            while let Some(cfg) = q.pop_front() {
                let d = seen[&cfg];
                if cfg == goal {
                    return d;
                }
                for &(u, v) in g.edges() {
                    let mut next = cfg.clone();
                    next.swap(u, v);
                    if !seen.contains_key(&next) {
                        seen.insert(next.clone(), d + 1);
                        q.push_back(next);
                    }
                }
            }
            unreachable!("connected graph must reach the goal");
        }

        let shapes = [Grid::new(2, 2), Grid::new(2, 3), Grid::new(1, 5)];
        for grid in shapes {
            let g = grid.to_graph();
            for seed in 0..5 {
                let pi = generators::random(grid.len(), seed);
                let out = check_ats(&g, &pi);
                let opt = opt_swaps(&g, &pi);
                assert!(
                    out.num_swaps() <= 4 * opt.max(1),
                    "{:?} seed {seed}: ats {} vs opt {opt}",
                    grid,
                    out.num_swaps()
                );
            }
        }
    }

    #[test]
    fn parallelized_schedule_realizes_and_is_shallower() {
        let grid = Grid::new(5, 5);
        let g = grid.to_graph();
        let pi = generators::random(25, 11);
        let out = check_ats(&g, &pi);
        let par = out.parallelized(25);
        assert!(par.realizes(&pi));
        par.validate_on(&g).unwrap();
        assert!(par.depth() <= out.num_swaps());
        assert_eq!(par.size(), out.num_swaps());
        assert!(par.depth() >= metrics::max_displacement(grid, &pi));
    }

    #[test]
    fn parallel_ats_realizes_and_is_much_shallower() {
        let grid = Grid::new(8, 8);
        let g = grid.to_graph();
        for seed in 0..5 {
            let pi = generators::random(64, seed);
            let par = parallel_token_swapping(&g, &pi);
            assert!(par.realizes(&pi), "seed {seed}");
            par.validate_on(&g).unwrap();
            assert!(par.depth() >= metrics::max_displacement(grid, &pi));
            // Shallower than (or equal to) the post-hoc serialized form.
            // The win is bounded: Miltzow-style cycle rotation has an
            // inherent critical path proportional to the walk-cycle
            // length, which parallel chain extraction cannot beat (see
            // EXPERIMENTS.md).
            let serial = approximate_token_swapping(&g, &pi).parallelized(64);
            assert!(
                par.depth() <= serial.depth(),
                "seed {seed}: parallel {} vs serialized {}",
                par.depth(),
                serial.depth()
            );
        }
    }

    #[test]
    fn parallel_ats_on_identity_and_single_swap() {
        let g = Grid::new(3, 3).to_graph();
        assert_eq!(
            parallel_token_swapping(&g, &Permutation::identity(9)).depth(),
            0
        );
        let pi = Permutation::from_vec(vec![1, 0, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let s = parallel_token_swapping(&g, &pi);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.size(), 1);
    }

    #[test]
    fn parallel_ats_block_local_is_shallow() {
        // Disjoint local blocks: happy swaps across blocks parallelize, so
        // depth stays near the block diameter, independent of grid size.
        let grid = Grid::new(12, 12);
        let g = grid.to_graph();
        for seed in 0..3 {
            let pi = generators::block_local(grid, 3, 3, seed);
            let s = parallel_token_swapping(&g, &pi);
            assert!(s.realizes(&pi));
            assert!(s.depth() <= 16, "seed {seed}: depth {}", s.depth());
        }
    }

    #[test]
    fn parallel_ats_works_on_gridlike_graphs() {
        for g in [gridlike::brick_wall(4, 5), gridlike::heavy_hex(3, 9)] {
            for seed in 0..3 {
                let pi = generators::random(g.len(), seed);
                let s = parallel_token_swapping(&g, &pi);
                assert!(s.realizes(&pi));
                s.validate_on(&g).unwrap();
            }
        }
    }

    #[test]
    fn tree_route_realizes_on_many_graphs() {
        let graphs: Vec<Graph> = vec![
            Path::new(7).to_graph(),
            Cycle::new(8).to_graph(),
            Grid::new(4, 4).to_graph(),
            gridlike::brick_wall(3, 6),
            Graph::complete(6),
        ];
        for g in &graphs {
            for seed in 0..4 {
                let pi = generators::random(g.len(), seed);
                let swaps = tree_route(g, &pi);
                let sched = serial_schedule(&swaps);
                assert!(sched.realizes(&pi));
                sched.validate_on(g).unwrap();
                assert!(swaps.len() <= g.len() * g.len());
            }
        }
    }

    #[test]
    fn tree_route_empty_and_singleton() {
        assert!(tree_route(&Graph::edgeless(0), &Permutation::identity(0)).is_empty());
        assert!(tree_route(&Graph::edgeless(1), &Permutation::identity(1)).is_empty());
    }

    #[test]
    fn ats_beats_tree_route_on_swap_count() {
        let grid = Grid::new(5, 5);
        let g = grid.to_graph();
        let mut ats_total = 0usize;
        let mut tree_total = 0usize;
        for seed in 0..6 {
            let pi = generators::random(25, seed);
            ats_total += check_ats(&g, &pi).num_swaps();
            tree_total += tree_route(&g, &pi).len();
        }
        assert!(
            ats_total < tree_total,
            "ATS ({ats_total}) should beat tree ({tree_total})"
        );
    }
}
