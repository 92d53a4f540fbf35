//! The line phases the 3-phase routers share, in both regimes of the
//! windowed odd–even kernel: lines shuffled end to end, where the window
//! spans the line for most rounds, and lines shuffled only within 8-blocks,
//! where it closes fast.
//!
//! `line_routing` routes batches of such lines through one reusable
//! [`LineScratch`]; `three_phase` times one whole pass
//! (`grid_route_with_sigmas`) with the naive staging on `random` and
//! `block4` grid instances; `grid_routers` times the three 3-phase
//! routers end to end on the same classes, from side 8, where staging
//! and fixed costs dominate, to side 128.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qroute_core::grid_route::{build_column_multigraph, grid_route_with_sigmas, LineStrategy};
use qroute_core::line::LineScratch;
use qroute_core::{GridRouter, RouterKind};
use qroute_matching::decompose_regular;
use qroute_perm::generators;
use qroute_topology::Grid;
use std::hint::black_box;
use std::time::Duration;

/// A deterministic permutation of `0..l` shuffled within consecutive
/// `block`-position blocks (splitmix64 Fisher–Yates per block).
fn scrambled(l: usize, seed: u64, block: usize) -> Vec<usize> {
    let mut state = seed ^ 0xD1B54A32D192ED03;
    let mut next = || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut v: Vec<usize> = (0..l).collect();
    for chunk in v.chunks_mut(block) {
        for i in (1..chunk.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            chunk.swap(i, j);
        }
    }
    v
}

fn bench_line_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("line_routing");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for l in [16usize, 64, 256] {
        for (regime, block) in [("random", l), ("block8", 8)] {
            // A batch of lines, as one 3-phase routing pass would see.
            let batch: Vec<Vec<usize>> = (0..l.min(64))
                .map(|s| scrambled(l, s as u64, block))
                .collect();
            group.bench_with_input(
                BenchmarkId::new(format!("{regime}_batch"), l),
                &batch,
                |b, batch| {
                    let mut scratch = LineScratch::new();
                    b.iter(|| {
                        let mut depth = 0usize;
                        for targets in batch {
                            depth += scratch.route_best(black_box(targets)).iter().count();
                        }
                        black_box(depth)
                    })
                },
            );
        }
    }
    group.finish();
}

/// The naive staging: matching `k` of the Hopcroft–Karp peel stages its
/// qubits in row `k`.
fn naive_sigmas(grid: Grid, pi: &qroute_perm::Permutation) -> Vec<Vec<usize>> {
    let mut mg = build_column_multigraph(grid, pi);
    let matchings = decompose_regular(&mut mg).expect("column multigraphs are regular");
    let mut sigmas = vec![vec![0; grid.rows()]; grid.cols()];
    for (k, matching) in matchings.iter().enumerate() {
        for &id in matching {
            let e = mg.edge(id);
            sigmas[e.left][e.src_row] = k;
        }
    }
    sigmas
}

fn bench_three_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("three_phase");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for side in [64usize, 128] {
        let grid = Grid::new(side, side);
        for (class, pi) in [
            ("random", generators::random(grid.len(), 5)),
            ("block4", generators::block_local(grid, 4, 4, 5)),
        ] {
            let sigmas = naive_sigmas(grid, &pi);
            group.bench_with_input(BenchmarkId::new(class, side), &(), |b, ()| {
                b.iter(|| {
                    let pass = grid_route_with_sigmas(grid, &pi, &sigmas, LineStrategy::BestParity);
                    black_box(pass.depth())
                })
            });
        }
    }
    group.finish();
}

fn bench_grid_routers(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_routers");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for side in [8usize, 16, 64, 128] {
        let grid = Grid::new(side, side);
        for (class, pi) in [
            ("random", generators::random(grid.len(), 5)),
            ("block4", generators::block_local(grid, 4, 4, 5)),
        ] {
            for router in [
                RouterKind::locality_aware(),
                RouterKind::naive(),
                RouterKind::hybrid(),
            ] {
                let id = BenchmarkId::new(format!("{}/{class}", router.label()), side);
                group.bench_with_input(id, &(), |b, ()| {
                    b.iter(|| black_box(router.route(grid, black_box(&pi)).depth()))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_line_routing,
    bench_three_phase,
    bench_grid_routers
);
criterion_main!(benches);
