//! Differential test of the flat schedule representation: verbatim copies
//! of the per-layer schedule code it replaced — the layer type, the 3-phase
//! assembly, the transpose retry, `compact_swaps` and `relabeled` — run
//! every router's pipeline beside the real one, and every schedule must
//! match swap for swap, in the same order within each layer. Their lines
//! are routed one at a time by [`LineScratch`].

use crate::grid_route::{path_factors, LineStrategy, NaiveOptions, Staging};
use crate::line::{route_line_best, FirstParity, LineScratch};
use crate::local_grid::LocalRouteOptions;
use crate::pathfinder::pathfinder_swaps;
use crate::product_route::{product_route, FactorRouter, PathFactor};
use crate::router::{GridRouter, RouterKind};
use crate::schedule::RoutingSchedule;
use crate::snake::serpentine_order;
use crate::token_swap::{approximate_token_swapping_with, parallel_rounds, tree_route};
use qroute_perm::{generators, Permutation};
use qroute_topology::{Grid, GridOracle, GridSymmetry, Path, Product};

/// The old layer type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SwapLayer {
    swaps: Vec<(usize, usize)>,
}

impl SwapLayer {
    fn new(swaps: Vec<(usize, usize)>) -> SwapLayer {
        SwapLayer { swaps }
    }

    fn is_empty(&self) -> bool {
        self.swaps.is_empty()
    }
}

/// The old schedule: one vector per layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LayeredSchedule {
    layers: Vec<SwapLayer>,
}

impl LayeredSchedule {
    fn empty() -> LayeredSchedule {
        LayeredSchedule { layers: Vec::new() }
    }

    fn from_layers(layers: Vec<SwapLayer>) -> LayeredSchedule {
        LayeredSchedule { layers }
    }

    fn depth(&self) -> usize {
        self.layers.len()
    }

    fn push_layer(&mut self, layer: SwapLayer) {
        if !layer.is_empty() {
            self.layers.push(layer);
        }
    }

    fn extend(&mut self, other: LayeredSchedule) {
        for layer in other.layers {
            self.push_layer(layer);
        }
    }

    fn swaps(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.layers.iter().flat_map(|l| l.swaps.iter().copied())
    }

    fn compact(&self, n: usize) -> LayeredSchedule {
        LayeredSchedule::compact_swaps(n, self.swaps())
    }

    fn compact_swaps(n: usize, swaps: impl IntoIterator<Item = (usize, usize)>) -> LayeredSchedule {
        let mut avail = vec![0usize; n];
        let mut layers: Vec<SwapLayer> = Vec::new();
        for (u, v) in swaps {
            let t = avail[u].max(avail[v]);
            if t == layers.len() {
                layers.push(SwapLayer::default());
            }
            layers[t].swaps.push((u, v));
            avail[u] = t + 1;
            avail[v] = t + 1;
        }
        LayeredSchedule { layers }
    }

    fn relabeled(&self, mut f: impl FnMut(usize) -> usize) -> LayeredSchedule {
        LayeredSchedule {
            layers: self
                .layers
                .iter()
                .map(|layer| {
                    SwapLayer::new(layer.swaps.iter().map(|&(u, v)| (f(u), f(v))).collect())
                })
                .collect(),
        }
    }
}

fn route_parallel_lines(
    targets: &[Vec<usize>],
    (step, stride): (usize, usize),
    strategy: LineStrategy,
    scratch: &mut LineScratch,
) -> LayeredSchedule {
    let mut layers: Vec<SwapLayer> = Vec::new();
    for (c, line) in targets.iter().enumerate() {
        let base = c * step;
        let rounds = match strategy {
            LineStrategy::EvenFirst => scratch.route(line, FirstParity::Even),
            LineStrategy::BestParity => scratch.route_best(line),
        };
        for (k, round) in rounds.iter().enumerate() {
            if k == layers.len() {
                layers.push(SwapLayer::default());
            }
            layers[k].swaps.extend(
                round
                    .iter()
                    .map(|&(a, b)| (base + stride * a as usize, base + stride * b as usize)),
            );
        }
    }
    LayeredSchedule::from_layers(layers)
}

fn route_phases(
    shape: Grid,
    pi: &Permutation,
    sigmas: &[Vec<usize>],
    strategy: LineStrategy,
) -> LayeredSchedule {
    let m = shape.rows();
    let n = shape.cols();
    let mut row_targets = vec![vec![usize::MAX; n]; m];
    let mut col_targets = vec![vec![usize::MAX; m]; n];
    for j in 0..n {
        for (i, &r) in sigmas[j].iter().enumerate() {
            let (ip, jp) = shape.coords(pi.apply(shape.index(i, j)));
            row_targets[r][j] = jp;
            col_targets[jp][r] = ip;
        }
    }
    let mut scratch = LineScratch::new();
    let phase1 = route_parallel_lines(sigmas, (1, n), strategy, &mut scratch);
    let phase2 = route_parallel_lines(&row_targets, (n, 1), strategy, &mut scratch);
    let phase3 = route_parallel_lines(&col_targets, (1, n), strategy, &mut scratch);
    let mut schedule = LayeredSchedule::empty();
    for phase in [phase1, phase2, phase3] {
        schedule.extend(phase);
    }
    schedule
}

fn untranspose_schedule(grid_t: Grid, mut schedule: LayeredSchedule) -> LayeredSchedule {
    for layer in &mut schedule.layers {
        for (u, v) in &mut layer.swaps {
            (*u, *v) = (grid_t.transpose_vertex(*u), grid_t.transpose_vertex(*v));
        }
    }
    schedule
}

/// Algorithm 1 with the old assembly; the staging rows σ come from the
/// shared staging code, which the flat representation does not touch.
fn algorithm1<S: Staging, A: FactorRouter, B: FactorRouter>(
    shape: Grid,
    f1: &A,
    f2: &B,
    pi: &Permutation,
    staging: &S,
    try_transpose: bool,
    compact: bool,
) -> LayeredSchedule {
    let once = |shape: Grid, pi: &Permutation, flip: bool| {
        if flip {
            route_phases(shape, pi, &staging.sigmas(shape, f2, pi), staging.line())
        } else {
            route_phases(shape, pi, &staging.sigmas(shape, f1, pi), staging.line())
        }
    };
    let mut best = once(shape, pi, false);
    if try_transpose {
        let (shape_t, pi_t) = crate::grid_route::transpose_instance(shape, pi);
        let alt = untranspose_schedule(shape_t, once(shape_t, &pi_t, true));
        if alt.depth() < best.depth() {
            best = alt;
        }
    }
    if compact {
        best = best.compact(shape.len());
    }
    best
}

fn local(grid: Grid, pi: &Permutation, opts: &LocalRouteOptions) -> LayeredSchedule {
    let (f1, f2) = path_factors(grid);
    algorithm1(grid, &f1, &f2, pi, opts, opts.try_transpose, opts.compact)
}

fn naive(grid: Grid, pi: &Permutation, opts: &NaiveOptions) -> LayeredSchedule {
    let (f1, f2) = path_factors(grid);
    algorithm1(grid, &f1, &f2, pi, opts, opts.try_transpose, opts.compact)
}

fn snake(grid: Grid, pi: &Permutation) -> LayeredSchedule {
    let order = serpentine_order(grid);
    let mut pos = vec![0usize; grid.len()];
    for (p, &v) in order.iter().enumerate() {
        pos[v] = p;
    }
    let targets: Vec<usize> = order.iter().map(|&v| pos[pi.apply(v)]).collect();
    let rounds = route_line_best(&targets);
    let layers = rounds
        .into_iter()
        .map(|round| {
            SwapLayer::new(
                round
                    .into_iter()
                    .map(|(a, b)| (order[a], order[b]))
                    .collect(),
            )
        })
        .collect();
    LayeredSchedule::from_layers(layers)
}

/// `router` on a full grid, through the old representation. The token
/// swappers' serial sequences are computed by the shared code; only their
/// layering goes through the copied `compact_swaps`.
fn reference_route(router: &RouterKind, grid: Grid, pi: &Permutation) -> LayeredSchedule {
    let n = grid.len();
    let graph = grid.to_graph();
    let oracle = GridOracle::new(grid);
    match router {
        RouterKind::LocalityAware(opts) => local(grid, pi, opts),
        RouterKind::NaiveGrid(opts) => naive(grid, pi, opts),
        RouterKind::Hybrid(lo, no) => {
            let local = local(grid, pi, lo);
            let naive = naive(grid, pi, no);
            if naive.depth() < local.depth() {
                naive
            } else {
                local
            }
        }
        RouterKind::Ats => {
            let rounds = parallel_rounds(&graph, &oracle, pi);
            let serial = rounds
                .swaps()
                .iter()
                .map(|&(u, v)| (u as usize, v as usize));
            LayeredSchedule::compact_swaps(n, serial)
        }
        RouterKind::AtsSerial => LayeredSchedule::compact_swaps(
            n,
            approximate_token_swapping_with(&graph, &oracle, pi).serial_swaps,
        ),
        RouterKind::Tree => LayeredSchedule::compact_swaps(n, tree_route(&graph, pi)),
        RouterKind::Snake => snake(grid, pi).compact(n),
        RouterKind::Pathfinder(opts) => {
            LayeredSchedule::compact_swaps(n, pathfinder_swaps(&graph, &oracle, pi, opts))
        }
    }
}

/// Assert `flat` holds exactly `reference`'s layers.
fn assert_same(flat: &RoutingSchedule, reference: &LayeredSchedule, at: &str) {
    assert_eq!(flat.depth(), reference.depth(), "{at}: depth");
    for (k, (got, want)) in flat.layers().zip(&reference.layers).enumerate() {
        let got: Vec<(usize, usize)> = got.iter().map(|&(u, v)| (u as usize, v as usize)).collect();
        assert_eq!(got, want.swaps, "{at}: layer {k}");
    }
}

/// The benchmark classes of the routing service, on any grid shape.
fn classes(grid: Grid, seed: u64) -> [(&'static str, Permutation); 5] {
    let n = grid.len();
    [
        ("random", generators::random(n, seed)),
        ("block4", generators::block_local(grid, 4, 4, seed)),
        (
            "overlap8s4",
            generators::overlapping_blocks(grid, 8, 8, 4, 4, seed),
        ),
        ("reversal", generators::reversal(n)),
        (
            "sparse-pairs",
            generators::sparse_pairs(
                grid,
                (n / 16).max(1),
                (grid.rows().max(grid.cols()) / 4).max(2),
                seed,
            ),
        ),
    ]
}

/// Every router of `RouterKind::all_default()` on grids from 1×9 to 20×13,
/// five classes and three seeds, each schedule also replayed through the
/// eight grid symmetries; plus Algorithm 1 on path products.
#[test]
fn flat_schedules_match_reference() {
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
    let mut compared = 0;
    for (m, n) in shapes {
        let grid = Grid::new(m, n);
        for seed in 0..3 {
            for (class, pi) in classes(grid, seed) {
                for router in RouterKind::all_default() {
                    let at = format!("{} {m}x{n} {class} seed {seed}", router.label());
                    let flat = router.route(grid, &pi);
                    let reference = reference_route(&router, grid, &pi);
                    assert_same(&flat, &reference, &at);
                    for g in GridSymmetry::all() {
                        let f = |v: usize| g.apply(grid, v);
                        assert_same(&flat.relabeled(f), &reference.relabeled(f), &at);
                    }
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, 15 * 3 * 5 * 8);

    for (m, n) in [(3, 7), (8, 8), (11, 5)] {
        let product = Product::new(Path::new(m).to_graph(), Path::new(n).to_graph());
        let f1 = PathFactor(Path::new(m));
        let f2 = PathFactor(Path::new(n));
        let shape = Grid::new(m, n);
        for seed in 0..3 {
            for (class, pi) in classes(shape, seed) {
                for opts in [LocalRouteOptions::default(), LocalRouteOptions::paper()] {
                    let at = format!("path product {m}x{n} {class} seed {seed} {opts:?}");
                    let flat = product_route(&product, &f1, &f2, &pi, &opts);
                    let reference = algorithm1(
                        shape,
                        &f1,
                        &f2,
                        &pi,
                        &opts,
                        opts.try_transpose,
                        opts.compact,
                    );
                    assert_same(&flat, &reference, &at);
                }
            }
        }
    }
}
