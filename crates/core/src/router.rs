//! A uniform interface over all grid routers, plus the hybrid clamp.
//!
//! §V: "Our locality-aware algorithm can always be made to produce a
//! routing scheme with a smaller or equal depth as opposed to the naive
//! grid routing algorithm. Otherwise, we can replace the output of the
//! locality aware algorithm by that of the naive algorithm. This has
//! virtually no computational overhead." — that is [`RouterKind::Hybrid`].

use crate::grid_route::{best_pass, naive_grid_route, path_factors, NaiveOptions, RouteScratch};
use crate::local_grid::{main_procedure, LocalRouteOptions};
use crate::pathfinder::{pathfinder_route_grid, pathfinder_route_with, PathfinderOptions};
use crate::schedule::RoutingSchedule;
use crate::token_swap::{
    approximate_token_swapping_with, ats_route_grid, parallel_token_swapping_with, tree_route,
};
use qroute_perm::Permutation;
use qroute_topology::{Grid, GridOracle, Topology};

/// A router was asked to route a topology it does not support. The
/// matching-based routers (locality-aware, naive-grid, hybrid) and the
/// serpentine baseline are defined in grid coordinates and require a full
/// grid; the token-swapping routers accept any connected topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedTopology {
    /// The router's stable label.
    pub router: &'static str,
    /// Human-readable description of the rejected topology.
    pub topology: String,
}

impl std::fmt::Display for UnsupportedTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "router {} supports only full grids, not {} (topology-generic routers: ats, ats-serial, tree, pathfinder)",
            self.router, self.topology
        )
    }
}

impl std::error::Error for UnsupportedTopology {}

/// An object-safe router interface over [`Topology`] instances.
pub trait GridRouter {
    /// Short stable identifier (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Produce a schedule realizing `π` on `topology`, or a typed
    /// [`UnsupportedTopology`] error when this router is grid-only and
    /// the topology is not a full grid.
    fn route_on(
        &self,
        topology: &Topology,
        pi: &Permutation,
    ) -> Result<RoutingSchedule, UnsupportedTopology>;

    /// Produce a schedule realizing `π` on a full `grid` — the
    /// historical entry point; every router supports full grids, so this
    /// cannot fail.
    fn route(&self, grid: Grid, pi: &Permutation) -> RoutingSchedule {
        self.route_on(&Topology::Grid(grid), pi)
            .expect("every router supports full grids")
    }
}

/// The routers evaluated in the paper (and our extra baselines), as a
/// value type convenient for sweeps.
#[derive(Debug, Clone)]
pub enum RouterKind {
    /// The paper's contribution: Algorithm 1/2.
    LocalityAware(LocalRouteOptions),
    /// Alon–Chung–Graham 3-phase with arbitrary matchings.
    NaiveGrid(NaiveOptions),
    /// Locality-aware clamped by the naive router (take the shallower).
    Hybrid(LocalRouteOptions, NaiveOptions),
    /// Parallel approximate token swapping (Miltzow et al. steps, happy
    /// swaps batched into maximal disjoint layers) — the form benchmarked
    /// in the paper's figures.
    Ats,
    /// Serial approximate token swapping, post-hoc parallelized with the
    /// ASAP pass — much deeper; kept to expose how much the parallel
    /// construction matters.
    AtsSerial,
    /// Guaranteed-terminating tree placement (crude baseline; serial
    /// schedule parallelized by the ASAP pass).
    Tree,
    /// Odd–even transposition along the serpentine Hamiltonian path —
    /// the 1-D emulation baseline showing why 2-D routing matters.
    Snake,
    /// Congestion-negotiated per-token A* routing (the PathFinder
    /// rip-up-and-reroute idiom), with an ATS fallback past the round
    /// cap. Shines on sparse partial permutations where the
    /// matching-based routers pay full-permutation cost.
    Pathfinder(PathfinderOptions),
}

impl RouterKind {
    /// Default locality-aware configuration.
    pub fn locality_aware() -> RouterKind {
        RouterKind::LocalityAware(LocalRouteOptions::default())
    }

    /// Default naive configuration (with compaction and transpose, so the
    /// comparison against the locality-aware router is apples-to-apples).
    pub fn naive() -> RouterKind {
        RouterKind::NaiveGrid(NaiveOptions {
            compact: true,
            try_transpose: true,
            ..Default::default()
        })
    }

    /// Default hybrid configuration.
    pub fn hybrid() -> RouterKind {
        RouterKind::Hybrid(
            LocalRouteOptions::default(),
            NaiveOptions { compact: true, try_transpose: true, ..Default::default() },
        )
    }

    /// Default pathfinder configuration.
    pub fn pathfinder() -> RouterKind {
        RouterKind::Pathfinder(PathfinderOptions::default())
    }

    /// Every kind in its default configuration — the canonical router
    /// axis for sweeps and exhaustive test matrices. Adding a variant to
    /// the enum and registering it here enrolls it in the benchmark
    /// matrix and every cross-router property test at once.
    pub fn all_default() -> Vec<RouterKind> {
        vec![
            RouterKind::locality_aware(),
            RouterKind::naive(),
            RouterKind::hybrid(),
            RouterKind::Ats,
            RouterKind::AtsSerial,
            RouterKind::Tree,
            RouterKind::Snake,
            RouterKind::pathfinder(),
        ]
    }

    /// Whether this kind can route the given topology: every kind
    /// handles full grids; only the topology-generic kinds (`ats`,
    /// `ats-serial`, `tree`, `pathfinder`) handle defective grids,
    /// heavy-hex, brick walls and tori. The routing service checks this
    /// at submit time so unsupported combinations become typed per-job
    /// errors instead of worker panics.
    pub fn supports(&self, topology: &Topology) -> bool {
        topology.as_grid().is_some()
            || matches!(
                self,
                RouterKind::Ats
                    | RouterKind::AtsSerial
                    | RouterKind::Tree
                    | RouterKind::Pathfinder(_)
            )
    }

    /// The stable string label of this kind — the single source of truth
    /// for every router↔label mapping in the workspace (benchmark cells,
    /// JSONL service jobs, report tables). [`GridRouter::name`] delegates
    /// here; the [`std::str::FromStr`] impl parses it back.
    pub fn label(&self) -> &'static str {
        match self {
            RouterKind::LocalityAware(_) => "locality-aware",
            RouterKind::NaiveGrid(_) => "naive-grid",
            RouterKind::Hybrid(_, _) => "hybrid",
            RouterKind::Ats => "ats",
            RouterKind::AtsSerial => "ats-serial",
            RouterKind::Tree => "tree",
            RouterKind::Snake => "snake",
            RouterKind::Pathfinder(_) => "pathfinder",
        }
    }
}

impl std::str::FromStr for RouterKind {
    type Err = String;

    /// Parse a [`RouterKind::label`] back into the kind in its default
    /// configuration. Unknown labels list the accepted set in the error.
    fn from_str(s: &str) -> Result<RouterKind, String> {
        RouterKind::all_default()
            .into_iter()
            .find(|kind| kind.label() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = RouterKind::all_default()
                    .iter()
                    .map(|kind| kind.label())
                    .collect();
                format!("unknown router label {s:?}; expected one of {known:?}")
            })
    }
}

impl GridRouter for RouterKind {
    fn name(&self) -> &'static str {
        self.label()
    }

    fn route_on(
        &self,
        topology: &Topology,
        pi: &Permutation,
    ) -> Result<RoutingSchedule, UnsupportedTopology> {
        // The top-level routing span: with no subscriber installed this
        // is one TLS read before the real body runs (no clock reads, no
        // allocations), so the disarmed path is byte- and
        // behavior-identical to the uninstrumented router.
        qroute_obs::trace::span_with(
            "route",
            &[
                ("router", qroute_obs::FieldValue::Str(self.label())),
                ("n", qroute_obs::FieldValue::U64(topology.len() as u64)),
            ],
            || self.route_on_untraced(topology, pi),
        )
    }
}

impl RouterKind {
    /// [`GridRouter::route_on`] minus the tracing span.
    fn route_on_untraced(
        &self,
        topology: &Topology,
        pi: &Permutation,
    ) -> Result<RoutingSchedule, UnsupportedTopology> {
        if let Some(grid) = topology.as_grid() {
            return Ok(match self {
                RouterKind::LocalityAware(opts) => main_procedure(grid, pi, opts),
                RouterKind::NaiveGrid(opts) => naive_grid_route(grid, pi, opts),
                RouterKind::Hybrid(lo, no) => {
                    // Both routers' winning passes are decided from counts,
                    // a compacting side's depth from a streamed ASAP walk,
                    // and only the returned pass is ever laid out.
                    let (f1, f2) = path_factors(grid);
                    let mut scratch = RouteScratch::default();
                    let mut local =
                        best_pass(grid, &f1, &f2, pi, lo, lo.try_transpose, &mut scratch);
                    let mut naive =
                        best_pass(grid, &f1, &f2, pi, no, no.try_transpose, &mut scratch);
                    let local_depth = if lo.compact {
                        local.asap_depth(&mut scratch)
                    } else {
                        local.depth()
                    };
                    let naive_depth = if no.compact {
                        naive.asap_depth(&mut scratch)
                    } else {
                        naive.depth()
                    };
                    if naive_depth < local_depth {
                        naive.emit(no.compact, &mut scratch)
                    } else {
                        local.emit(lo.compact, &mut scratch)
                    }
                }
                RouterKind::Ats => ats_route_grid(grid, pi),
                RouterKind::AtsSerial => {
                    let graph = grid.to_graph();
                    approximate_token_swapping_with(&graph, &GridOracle::new(grid), pi)
                        .parallelized(grid.len())
                }
                RouterKind::Tree => {
                    let swaps = tree_route(&grid.to_graph(), pi);
                    RoutingSchedule::compact_swaps(grid.len(), swaps.iter().copied())
                }
                RouterKind::Snake => crate::snake::snake_route(grid, pi).compact(grid.len()),
                RouterKind::Pathfinder(opts) => pathfinder_route_grid(grid, pi, opts),
            });
        }
        if !self.supports(topology) {
            return Err(UnsupportedTopology {
                router: self.label(),
                topology: topology.to_string(),
            });
        }
        // Token-swapping path on an arbitrary topology. Route on the
        // compacted frame (dead vertices removed) so the spanning-tree
        // machinery inside ATS and the tree router never sees isolated
        // dead vertices, then relabel the schedule back to topology ids.
        let n = topology.len();
        assert_eq!(pi.len(), n, "permutation size must match the topology");
        if let Err(reason) = topology.permutation_fits(pi.as_slice()) {
            panic!("cannot route on {topology}: {reason}");
        }
        let frame = topology.routing_frame();
        let frame_pi = match &frame.to_topology {
            None => pi.clone(),
            Some(to_topology) => {
                // Invert the frame map and restrict π to alive vertices
                // (dead vertices are fixed points, checked above).
                let mut frame_id = vec![usize::MAX; n];
                for (f, &t) in to_topology.iter().enumerate() {
                    frame_id[t] = f;
                }
                Permutation::from_vec_unchecked(
                    to_topology.iter().map(|&t| frame_id[pi.apply(t)]).collect(),
                )
            }
        };
        let oracle = topology.oracle(&frame.graph);
        let schedule = match self {
            RouterKind::Ats => parallel_token_swapping_with(&frame.graph, &oracle, &frame_pi),
            RouterKind::AtsSerial => {
                approximate_token_swapping_with(&frame.graph, &oracle, &frame_pi)
                    .parallelized(frame.graph.len())
            }
            RouterKind::Tree => {
                let swaps = tree_route(&frame.graph, &frame_pi);
                RoutingSchedule::compact_swaps(frame.graph.len(), swaps.iter().copied())
            }
            RouterKind::Pathfinder(opts) => {
                pathfinder_route_with(&frame.graph, &oracle, &frame_pi, opts)
            }
            _ => unreachable!("supports() admitted only topology-generic kinds"),
        };
        Ok(match &frame.to_topology {
            None => schedule,
            Some(to_topology) => schedule.relabeled(|v| to_topology[v]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qroute_perm::{generators, metrics};

    fn all_routers() -> Vec<RouterKind> {
        RouterKind::all_default()
    }

    #[test]
    fn every_router_realizes_every_workload() {
        let grid = Grid::new(6, 5);
        let graph = grid.to_graph();
        let workloads = [
            Permutation::identity(30),
            generators::random(30, 1),
            generators::block_local(grid, 2, 2, 2),
            generators::overlapping_blocks(grid, 3, 3, 2, 2, 3),
            generators::skinny_cycles(grid, 4),
            generators::reversal(30),
        ];
        for router in all_routers() {
            for (k, pi) in workloads.iter().enumerate() {
                let s = router.route(grid, pi);
                assert!(s.realizes(pi), "{} failed workload {k}", router.name());
                s.validate_on(&graph).unwrap();
                assert!(s.depth() >= metrics::max_displacement(grid, pi));
            }
        }
    }

    #[test]
    fn hybrid_never_deeper_than_naive() {
        let grid = Grid::new(8, 8);
        for seed in 0..8 {
            let pi = generators::random(64, seed);
            let hybrid = RouterKind::hybrid().route(grid, &pi);
            let naive = RouterKind::naive().route(grid, &pi);
            assert!(hybrid.depth() <= naive.depth(), "seed {seed}");
        }
    }

    #[test]
    fn hybrid_never_deeper_than_local() {
        let grid = Grid::new(8, 8);
        for seed in 0..8 {
            let pi = generators::overlapping_blocks(grid, 4, 4, 2, 2, seed);
            let hybrid = RouterKind::hybrid().route(grid, &pi);
            let local = RouterKind::locality_aware().route(grid, &pi);
            assert!(hybrid.depth() <= local.depth(), "seed {seed}");
        }
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = all_routers().iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec![
                "locality-aware",
                "naive-grid",
                "hybrid",
                "ats",
                "ats-serial",
                "tree",
                "snake",
                "pathfinder"
            ]
        );
    }

    #[test]
    fn debug_text_is_pinned() {
        // The routing service keys its schedule cache on this exact text
        // (`format!("{router:?}")`), and the key's router string seeds the
        // FNV-1a shard hash: changing it moves entries between shards and
        // so changes evictions under capacity pressure.
        let debug: Vec<String> = all_routers().iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(
            debug,
            vec![
                "LocalityAware(LocalRouteOptions { assignment: Bottleneck, window: Doubling, \
                 line: BestParity, compact: true, try_transpose: true })",
                "NaiveGrid(NaiveOptions { line: BestParity, compact: true, try_transpose: true, \
                 randomize: None })",
                "Hybrid(LocalRouteOptions { assignment: Bottleneck, window: Doubling, \
                 line: BestParity, compact: true, try_transpose: true }, NaiveOptions { \
                 line: BestParity, compact: true, try_transpose: true, randomize: None })",
                "Ats",
                "AtsSerial",
                "Tree",
                "Snake",
                "Pathfinder(PathfinderOptions { max_rounds: 0, history_increment: 1, \
                 claim_penalty: 2, pending_penalty: 2 })",
            ]
        );
    }

    #[test]
    fn labels_round_trip_through_from_str() {
        for router in all_routers() {
            let parsed: RouterKind = router.label().parse().expect("label parses");
            assert_eq!(parsed.label(), router.label());
            assert_eq!(parsed.name(), router.name(), "name() delegates to label()");
        }
        let err = "no-such-router".parse::<RouterKind>().unwrap_err();
        assert!(err.contains("no-such-router"), "{err}");
        assert!(err.contains("locality-aware"), "error lists labels: {err}");
    }

    #[test]
    fn single_cell_grid() {
        let grid = Grid::new(1, 1);
        for router in all_routers() {
            let s = router.route(grid, &Permutation::identity(1));
            assert_eq!(s.depth(), 0, "{}", router.name());
        }
    }

    /// π over a topology's ids that permutes alive vertices randomly and
    /// fixes every dead one.
    fn alive_random(topology: &Topology, seed: u64) -> Permutation {
        let n = topology.len();
        let alive: Vec<usize> = (0..n).filter(|&v| topology.is_alive(v)).collect();
        let shuffle = generators::random(alive.len(), seed);
        let mut table: Vec<usize> = (0..n).collect();
        for (k, &v) in alive.iter().enumerate() {
            table[v] = alive[shuffle.apply(k)];
        }
        Permutation::from_vec(table).unwrap()
    }

    #[test]
    fn token_swap_routers_realize_pi_on_every_topology() {
        let topologies = [
            Topology::grid_with_defects(Grid::new(5, 5), &[6, 18], &[(0, 1)]).unwrap(),
            Topology::heavy_hex(3, 9),
            Topology::brick_wall(4, 5),
            Topology::torus(3, 5).unwrap(),
        ];
        for topology in &topologies {
            let graph = topology.graph();
            for router in [
                RouterKind::Ats,
                RouterKind::AtsSerial,
                RouterKind::Tree,
                RouterKind::pathfinder(),
            ] {
                for seed in 0..3 {
                    let pi = alive_random(topology, seed);
                    let s = router.route_on(topology, &pi).unwrap();
                    assert!(s.realizes(&pi), "{router:?} on {topology} seed {seed}");
                    s.validate_on(&graph).unwrap();
                }
            }
        }
    }

    #[test]
    fn grid_only_routers_return_typed_errors_off_grid() {
        let topology = Topology::heavy_hex(2, 5);
        let pi = Permutation::identity(topology.len());
        for router in [
            RouterKind::locality_aware(),
            RouterKind::naive(),
            RouterKind::hybrid(),
            RouterKind::Snake,
        ] {
            assert!(!router.supports(&topology));
            let err = router.route_on(&topology, &pi).unwrap_err();
            assert_eq!(err.router, router.label());
            let msg = err.to_string();
            assert!(msg.contains("full grids"), "{msg}");
            assert!(msg.contains("heavy-hex"), "{msg}");
        }
        for router in [
            RouterKind::Ats,
            RouterKind::AtsSerial,
            RouterKind::Tree,
            RouterKind::pathfinder(),
        ] {
            assert!(router.supports(&topology));
        }
    }

    #[test]
    fn route_on_a_full_grid_matches_route() {
        let grid = Grid::new(5, 4);
        let topology = Topology::from(grid);
        for router in all_routers() {
            for seed in 0..2 {
                let pi = generators::random(grid.len(), seed);
                let via_topology = router.route_on(&topology, &pi).unwrap();
                let via_grid = router.route(grid, &pi);
                assert_eq!(via_topology.depth(), via_grid.depth(), "{}", router.name());
                assert_eq!(via_topology.size(), via_grid.size(), "{}", router.name());
            }
        }
    }
}
