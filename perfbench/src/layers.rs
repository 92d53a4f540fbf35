//! The traced layer replay: the workload's own jobs pushed through each
//! layer's public functions by the harness, one timed call at a time.
//!
//! For every job the replay times the job layer (parse, resolve), the
//! dispatch layer (`select_router_on`, `auto` jobs only), the lower bound,
//! canonicalization, and a lookup in a harness-built `ShardedLru` with the
//! engine's capacity and shard count. For every distinct canonical key it
//! routes the canonical instance once (timing `route_on` per router) and
//! then times the replay and the outcome serialization per job. Routing
//! stops after a time budget (at least one chunk is always routed); the
//! cheap per-job layers always cover every replayed job.
//!
//! `grid-cold`'s locality-aware routes are broken down further into the
//! multigraph, window search, MCBBM assignment, three line phases,
//! transpose retry and compaction, with the existing `locality.*` spans
//! captured around the route. `ats` and `pathfinder` routes are also
//! timed at their router functions, and `grid-cold` routes its side-32
//! and `block4` instances with ATS for the paper's comparison.

use crate::stats::{timed, GeoMean, Mean};
use crate::tally::Tally;
use crate::workload::{Generator, JobLine, Serving, Workload};
use qroute_core::grid_route::{
    build_column_multigraph, grid_route_with_sigmas, transpose_instance, untranspose_schedule,
    LineStrategy,
};
use qroute_core::local_grid::{delta_metric, find_local_matchings, local_grid_route_single};
use qroute_core::token_swap::parallel_token_swapping_with;
use qroute_core::{
    pathfinder_route_with, GridRouter, LocalRouteOptions, RouterKind, RoutingSchedule, WindowMode,
};
use qroute_matching::{
    bottleneck_assignment, decompose_regular, decompose_regular_euler, min_sum_assignment,
    BipartiteMultigraph, EdgeId,
};
use qroute_obs::trace::{self, Subscriber};
use qroute_perm::{metrics, Permutation};
use qroute_service::{
    canonicalize_topology, select_router_on, CanonicalKey, RouteJob, RouteOutcome, RouterSpec,
    ShardedLru,
};
use qroute_topology::{Graph, Grid, Topology};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Distinct `auto` instances routed with `hybrid` too, for the regret.
const REGRET_LIMIT: usize = 200;
/// Canonical schedules larger than this are not kept for replay reuse.
const MEMO_MAX_SWAPS: usize = 200_000;

/// Per-call times of the locality-aware pipeline, per route (both
/// orientations summed where the router runs both).
#[derive(Debug, Default)]
pub struct GridBreakdown {
    /// Full `route_on` calls (traced).
    pub route_ms: Mean,
    /// `locality.matchings` span time.
    pub matchings_ms: Mean,
    /// `locality.line_routing` span time.
    pub line_routing_ms: Mean,
    /// `build_column_multigraph`.
    pub multigraph_ms: Mean,
    /// `find_local_matchings`.
    pub window_search_ms: Mean,
    /// `bottleneck_assignment` + `min_sum_assignment`.
    pub mcbbm_ms: Mean,
    /// `grid_route_with_sigmas`.
    pub three_phase_ms: Mean,
    /// `decompose_regular`.
    pub hk_decompose_ms: Mean,
    /// `decompose_regular_euler`.
    pub euler_decompose_ms: Mean,
    /// `local_grid_route_single`.
    pub single_pass_ms: Mean,
    /// `transpose_instance` + `untranspose_schedule`.
    pub transpose_ms: Mean,
    /// `RoutingSchedule::compact`.
    pub compact_ms: Mean,
}

impl GridBreakdown {
    /// `locality.matchings` minus the multigraph and window-search parts.
    pub fn rebalance_assign_ms(&self) -> f64 {
        self.matchings_ms.value() - self.multigraph_ms.value() - self.window_search_ms.value()
    }

    /// Relative gap between the route and the sum of its measured parts
    /// (multigraph + window search + rebalance/assign + line routing +
    /// transpose + compact); `None` before any route. The multigraph and
    /// window-search parts cancel against rebalance/assign, so this
    /// covers the two spans plus transpose and compact.
    pub fn gap_frac(&self) -> Option<f64> {
        if self.route_ms.count() == 0 {
            return None;
        }
        let parts = self.multigraph_ms.value()
            + self.window_search_ms.value()
            + self.rebalance_assign_ms()
            + self.line_routing_ms.value()
            + self.transpose_ms.value()
            + self.compact_ms.value();
        Some((parts - self.route_ms.value()).abs() / self.route_ms.value())
    }

    /// Every way the breakdown fails to add up, beyond `tolerance`: the
    /// parts against the route ([`GridBreakdown::gap_frac`]), and the
    /// separately timed multigraph, window search and MCBBM against the
    /// `locality.matchings` span they run inside (which also holds the
    /// router's private rebalancing step, so they may fall short of it
    /// but not exceed it).
    pub fn inconsistencies(&self, tolerance: f64) -> Vec<String> {
        let mut problems = Vec::new();
        let Some(gap) = self.gap_frac() else {
            return problems;
        };
        if gap > tolerance {
            problems.push(format!(
                "locality-aware parts miss the route time by {:.1}%",
                gap * 100.0
            ));
        }
        let matchings = self.matchings_ms.value();
        let inside =
            self.multigraph_ms.value() + self.window_search_ms.value() + self.mcbbm_ms.value();
        if inside > matchings * (1.0 + tolerance) {
            problems.push(format!(
                "multigraph + window search + MCBBM take {inside:.3} ms, more than the {matchings:.3} ms matchings span"
            ));
        }
        problems
    }
}

/// Everything the layer replay measured.
#[derive(Debug, Default)]
pub struct LayerStats {
    /// Jobs replayed.
    pub jobs: u64,
    /// `RouteJob::from_json_line`, µs.
    pub parse_us: Mean,
    /// `RouteJob::resolve`, µs.
    pub resolve_us: Mean,
    /// `select_router_on` on `auto` jobs, µs.
    pub select_us: Mean,
    /// `depth_lower_bound` / `depth_lower_bound_oracle`, µs.
    pub lower_bound_us: Mean,
    /// `Topology::graph` + `Topology::oracle` on non-grid topologies, ms.
    pub oracle_build_ms: Mean,
    /// `canonicalize_topology` + `CanonicalForm::key`, µs.
    pub canonicalize_us: Mean,
    /// `ShardedLru::get`, µs.
    pub lookup_us: Mean,
    /// `CanonicalForm::replay`, µs.
    pub replay_us: Mean,
    /// `RouteOutcome::to_json_line`, µs.
    pub serialize_us: Mean,
    /// Distinct canonical keys among the replayed jobs.
    pub distinct_keys: u64,
    /// `route_on` per router label, ms.
    pub route_ms: BTreeMap<&'static str, Mean>,
    /// Geometric mean of `auto` depth over `hybrid` depth.
    pub regret: GeoMean,
    /// The locality-aware breakdown (`grid-cold`).
    pub grid: GridBreakdown,
    /// Locality-aware depth over ATS depth (`grid-cold` reference set).
    pub paper_depth: GeoMean,
    /// ATS time over locality-aware time (same set).
    pub paper_speedup: GeoMean,
    /// `parallel_token_swapping_with`, ms.
    pub ats_ms: Mean,
    /// `pathfinder_route_with`, ms.
    pub pathfinder_ms: Mean,
}

struct Replay<'a> {
    workload: Workload,
    /// Smallest grid side of the workload (the paper reference's side).
    min_side: usize,
    lru: ShardedLru<()>,
    keys: HashSet<CanonicalKey>,
    memo: HashMap<CanonicalKey, Rc<RoutingSchedule>>,
    regret_seen: HashSet<CanonicalKey>,
    budget_end: Option<Instant>,
    stats: &'a mut LayerStats,
}

/// Replay chunks `0..chunks` of `generator`'s stream through the layers.
/// Routing new instances stops once `route_budget_s` seconds have passed
/// after the first chunk (`None`: no budget).
pub fn replay(
    workload: Workload,
    generator: &Generator,
    serving: &Serving,
    chunks: usize,
    route_budget_s: Option<f64>,
) -> LayerStats {
    let mut stats = LayerStats::default();
    let first = generator.chunk(0);
    let min_side = first.iter().flatten().map(|j| j.side).min().unwrap_or(0);
    let mut replay = Replay {
        workload,
        min_side,
        lru: ShardedLru::new(serving.cache_capacity, serving.cache_shards),
        keys: HashSet::new(),
        memo: HashMap::new(),
        regret_seen: HashSet::new(),
        budget_end: None,
        stats: &mut stats,
    };
    for k in 0..chunks {
        let chunk = if k == 0 {
            first.clone()
        } else {
            generator.chunk(k)
        };
        let longest = chunk.iter().map(Vec::len).max().unwrap_or(0);
        // Interleave callers job by job, as their streams interleave at
        // the shared cache.
        for i in 0..longest {
            for jobs in &chunk {
                if let Some(job) = jobs.get(i) {
                    replay.job(job);
                }
            }
        }
        if k == 0 {
            replay.budget_end =
                route_budget_s.map(|s| Instant::now() + std::time::Duration::from_secs_f64(s));
        }
    }
    stats.distinct_keys = replay.keys.len() as u64;
    stats
}

impl Replay<'_> {
    fn job(&mut self, line: &JobLine) {
        let stats = &mut *self.stats;
        stats.jobs += 1;
        let (job, t) = timed(|| RouteJob::from_json_line(&line.text));
        stats.parse_us.push(t * 1e6);
        let job = job.expect("generated job lines parse");
        let (resolved, t) = timed(|| job.resolve());
        stats.resolve_us.push(t * 1e6);
        let (topology, pi) = resolved.expect("generated jobs resolve");
        let auto = !matches!(job.router, Some(RouterSpec::Fixed(_)));
        let router = match &job.router {
            Some(RouterSpec::Fixed(kind)) => kind.clone(),
            _ => {
                let (kind, t) = timed(|| select_router_on(&topology, &pi));
                stats.select_us.push(t * 1e6);
                kind
            }
        };
        let lower_bound = match topology.as_grid() {
            Some(grid) => {
                let (lb, t) = timed(|| metrics::depth_lower_bound(grid, &pi));
                stats.lower_bound_us.push(t * 1e6);
                lb
            }
            None => {
                let start = Instant::now();
                let graph = topology.graph();
                let oracle = topology.oracle(&graph);
                stats
                    .oracle_build_ms
                    .push(start.elapsed().as_secs_f64() * 1e3);
                let (lb, t) = timed(|| metrics::depth_lower_bound_oracle(&oracle, &pi));
                stats.lower_bound_us.push(t * 1e6);
                lb
            }
        };
        let ((canonical, key), t) = timed(|| {
            let canonical = canonicalize_topology(&topology, &pi);
            let key = canonical.key(format!("{router:?}"));
            (canonical, key)
        });
        stats.canonicalize_us.push(t * 1e6);
        let (hit, t) = timed(|| self.lru.get(&key).is_some());
        stats.lookup_us.push(t * 1e6);
        if !hit {
            self.lru.insert(key.clone(), ());
        }
        self.keys.insert(key.clone());

        let schedule = match self.memo.get(&key) {
            Some(schedule) => Some(Rc::clone(schedule)),
            None if self.budget_end.is_some_and(|end| Instant::now() >= end) => None,
            None => {
                let schedule =
                    Rc::new(self.route(line, &router, &canonical.topology, &canonical.pi));
                if auto {
                    self.regret(&router, &schedule, &canonical.topology, &canonical.pi);
                }
                if schedule.size() <= MEMO_MAX_SWAPS {
                    self.memo.insert(key, Rc::clone(&schedule));
                }
                Some(schedule)
            }
        };
        let Some(schedule) = schedule else { return };
        let stats = &mut *self.stats;
        let (_, t) = timed(|| canonical.replay(&schedule));
        stats.replay_us.push(t * 1e6);
        let outcome = RouteOutcome {
            v: job.v,
            id: stats.jobs - 1,
            side: Some(job.side),
            router: Some(router.label().to_string()),
            cache: Some(if hit { "hit" } else { "miss" }.to_string()),
            depth: Some(schedule.depth()),
            size: Some(schedule.size()),
            lower_bound: Some(lower_bound),
            time_ms: None,
            code: None,
            error: None,
        };
        let (_, t) = timed(|| outcome.to_json_line());
        stats.serialize_us.push(t * 1e6);
    }

    /// Route one canonical instance the first time its key appears.
    fn route(
        &mut self,
        line: &JobLine,
        router: &RouterKind,
        topology: &Topology,
        pi: &Permutation,
    ) -> RoutingSchedule {
        let label = router.label();
        let breakdown = self.workload == Workload::GridCold && label == "locality-aware";
        let tally = Arc::new(Tally::new());
        let (routed, route_s) = timed(|| {
            if breakdown {
                trace::with_subscriber(Arc::clone(&tally) as Arc<dyn Subscriber>, || {
                    router.route_on(topology, pi)
                })
            } else {
                router.route_on(topology, pi)
            }
        });
        let schedule = routed.expect("the engine routed this pairing, so it is supported");
        let stats = &mut *self.stats;
        stats.route_ms.entry(label).or_default().push(route_s * 1e3);
        match router {
            RouterKind::Ats => {
                let (graph, frame_pi) = routing_frame(topology, pi);
                let oracle = topology.oracle(&graph);
                let (_, t) = timed(|| parallel_token_swapping_with(&graph, &oracle, &frame_pi));
                stats.ats_ms.push(t * 1e3);
            }
            RouterKind::Pathfinder(opts) => {
                let (graph, frame_pi) = routing_frame(topology, pi);
                let oracle = topology.oracle(&graph);
                let (_, t) = timed(|| pathfinder_route_with(&graph, &oracle, &frame_pi, opts));
                stats.pathfinder_ms.push(t * 1e3);
            }
            _ => {}
        }
        if breakdown {
            let grid = topology
                .as_grid()
                .expect("locality-aware routes full grids");
            let counts = tally.counts();
            let g = &mut stats.grid;
            g.route_ms.push(route_s * 1e3);
            g.matchings_ms
                .push(counts.span_us("locality.matchings") as f64 / 1e3);
            g.line_routing_ms
                .push(counts.span_us("locality.line_routing") as f64 / 1e3);
            locality_breakdown(g, grid, pi);
            if line.side == self.min_side || line.class == "block4" {
                let (ats, ats_s) = timed(|| RouterKind::Ats.route_on(topology, pi));
                let ats = ats.expect("ATS routes every grid");
                if ats.depth() > 0 {
                    stats
                        .paper_depth
                        .push(schedule.depth() as f64 / ats.depth() as f64);
                }
                stats.paper_speedup.push(ats_s / route_s);
            }
        }
        schedule
    }

    /// Record `auto`'s depth over `hybrid`'s for a new canonical instance.
    fn regret(
        &mut self,
        router: &RouterKind,
        schedule: &RoutingSchedule,
        topology: &Topology,
        pi: &Permutation,
    ) {
        if topology.as_grid().is_none() || self.regret_seen.len() >= REGRET_LIMIT {
            return;
        }
        if !self.regret_seen.insert(CanonicalKey {
            router: String::new(),
            topology: topology.clone(),
            perm: pi.as_slice().to_vec(),
        }) {
            return;
        }
        let hybrid_depth = if router.label() == "hybrid" {
            schedule.depth()
        } else {
            RouterKind::hybrid()
                .route_on(topology, pi)
                .expect("hybrid routes full grids")
                .depth()
        };
        if hybrid_depth > 0 {
            self.stats
                .regret
                .push(schedule.depth() as f64 / hybrid_depth as f64);
        }
    }
}

/// The compacted routing frame of `topology` and `pi` restricted to it —
/// the graph and permutation the topology-generic routers run on.
fn routing_frame(topology: &Topology, pi: &Permutation) -> (Graph, Permutation) {
    let frame = topology.routing_frame();
    let frame_pi = match &frame.to_topology {
        None => pi.clone(),
        Some(to_topology) => {
            let mut frame_id = vec![usize::MAX; pi.len()];
            for (f, &t) in to_topology.iter().enumerate() {
                frame_id[t] = f;
            }
            Permutation::from_vec_unchecked(
                to_topology.iter().map(|&t| frame_id[pi.apply(t)]).collect(),
            )
        }
    };
    (frame.graph, frame_pi)
}

/// Time each stage of the locality-aware pipeline on `(grid, pi)` and its
/// transpose, as `main_procedure` runs them.
fn locality_breakdown(g: &mut GridBreakdown, grid: Grid, pi: &Permutation) {
    let opts = LocalRouteOptions::default();
    let ((gt, pit), transpose_s) = timed(|| transpose_instance(grid, pi));
    let mut sums = [0.0f64; 7];
    let mut singles = Vec::with_capacity(2);
    for (g_, p) in [(grid, pi), (gt, &pit)] {
        let (_, t) = timed(|| build_column_multigraph(g_, p));
        sums[0] += t;
        let mut mg = build_column_multigraph(g_, p);
        let (matchings, t) = timed(|| find_local_matchings(g_, &mut mg, WindowMode::Doubling));
        sums[1] += t;
        let weights: Vec<Vec<u64>> = matchings
            .iter()
            .map(|m| (0..g_.rows()).map(|r| delta_metric(&mg, m, r)).collect())
            .collect();
        let (row_of, t) = timed(|| assign_rows(&weights));
        sums[2] += t;
        let sigmas = staging_rows(g_, &mg, &matchings, &row_of);
        let (_, t) = timed(|| grid_route_with_sigmas(g_, p, &sigmas, LineStrategy::BestParity));
        sums[3] += t;
        let mut mg = build_column_multigraph(g_, p);
        let (_, t) = timed(|| decompose_regular(&mut mg));
        sums[4] += t;
        let mut mg = build_column_multigraph(g_, p);
        let (_, t) = timed(|| decompose_regular_euler(&mut mg));
        sums[5] += t;
        let (single, t) = timed(|| local_grid_route_single(g_, p, &opts));
        sums[6] += t;
        singles.push(single);
    }
    let transposed = singles.pop().expect("two orientations");
    let direct = singles.pop().expect("two orientations");
    let (alt, untranspose_s) = timed(|| untranspose_schedule(gt, transposed));
    let best = if alt.depth() < direct.depth() {
        alt
    } else {
        direct
    };
    let (_, compact_s) = timed(|| best.compact(grid.len()));
    for (mean, s) in [
        (&mut g.multigraph_ms, sums[0]),
        (&mut g.window_search_ms, sums[1]),
        (&mut g.mcbbm_ms, sums[2]),
        (&mut g.three_phase_ms, sums[3]),
        (&mut g.hk_decompose_ms, sums[4]),
        (&mut g.euler_decompose_ms, sums[5]),
        (&mut g.single_pass_ms, sums[6]),
        (&mut g.transpose_ms, transpose_s + untranspose_s),
        (&mut g.compact_ms, compact_s),
    ] {
        mean.push(s * 1e3);
    }
}

/// The MCBBM row assignment of the locality-aware router: the optimal
/// bottleneck, ties broken by the least total `Δ` under that cap.
fn assign_rows(weights: &[Vec<u64>]) -> Vec<usize> {
    const PENALTY: i64 = 1 << 40;
    let cap = bottleneck_assignment(weights).bottleneck;
    let capped: Vec<Vec<i64>> = weights
        .iter()
        .map(|row| {
            row.iter()
                .map(|&w| if w <= cap { w as i64 } else { PENALTY })
                .collect()
        })
        .collect();
    min_sum_assignment(&capped).0
}

/// Staging permutations `σ_j` from matchings and their assigned rows.
fn staging_rows(
    grid: Grid,
    mg: &BipartiteMultigraph,
    matchings: &[Vec<EdgeId>],
    row_of: &[usize],
) -> Vec<Vec<usize>> {
    let mut sigmas = vec![vec![usize::MAX; grid.rows()]; grid.cols()];
    for (matching, &row) in matchings.iter().zip(row_of) {
        for &id in matching {
            let e = mg.edge(id);
            sigmas[e.left][e.src_row] = row;
        }
    }
    sigmas
}
