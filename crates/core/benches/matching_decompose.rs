//! Matching microbenchmarks on the column multigraphs the 3-phase routers
//! actually decompose, using alive-set snapshots to rewind edge
//! consumption between iterations instead of cloning the multigraph.
//!
//! `matching_decompose` times the two full decompositions (naive's
//! Hopcroft–Karp peel and the unwired Euler split); `window_sweep` times
//! the locality-aware router's doubling band search on the same graphs
//! and on block-local ones. Both drive the `band_edges` /
//! `extract_perfect_matchings` kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qroute_core::grid_route::build_column_multigraph;
use qroute_core::local_grid::find_local_matchings;
use qroute_core::WindowMode;
use qroute_matching::{decompose_regular, decompose_regular_euler, BipartiteMultigraph};
use qroute_perm::generators;
use qroute_topology::Grid;
use std::hint::black_box;
use std::time::Duration;

const SIDES: [usize; 4] = [16, 32, 64, 128];

/// The column multigraph of a seeded random permutation on a side × side
/// grid.
fn random_multigraph(side: usize) -> (Grid, BipartiteMultigraph) {
    let grid = Grid::new(side, side);
    let pi = generators::random(grid.len(), 5);
    (grid, build_column_multigraph(grid, &pi))
}

/// The column multigraph of a seeded permutation within 4 × 4 blocks,
/// whose matchings the sweep finds in narrow bands.
fn block4_multigraph(side: usize) -> (Grid, BipartiteMultigraph) {
    let grid = Grid::new(side, side);
    let pi = generators::block_local(grid, 4, 4, 5);
    (grid, build_column_multigraph(grid, &pi))
}

fn bench_matching_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching_decompose");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for side in SIDES {
        let (_, mut mg) = random_multigraph(side);
        let full = mg.save_alive();

        group.bench_with_input(
            BenchmarkId::new("hopcroft_karp_peel", side),
            &(),
            |b, ()| {
                b.iter(|| {
                    mg.restore_alive(&full);
                    black_box(decompose_regular(&mut mg).unwrap().len())
                })
            },
        );

        group.bench_with_input(BenchmarkId::new("euler_split", side), &(), |b, ()| {
            b.iter(|| {
                mg.restore_alive(&full);
                black_box(decompose_regular_euler(&mut mg).unwrap().len())
            })
        });
    }
    group.finish();
}

fn bench_window_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_sweep");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for side in SIDES {
        for (class, (grid, mut mg)) in [
            ("random", random_multigraph(side)),
            ("block4", block4_multigraph(side)),
        ] {
            let full = mg.save_alive();
            group.bench_with_input(
                BenchmarkId::new(format!("find_local_matchings_{class}"), side),
                &(),
                |b, ()| {
                    b.iter(|| {
                        mg.restore_alive(&full);
                        black_box(find_local_matchings(grid, &mut mg, WindowMode::Doubling).len())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matching_decompose, bench_window_sweep);
criterion_main!(benches);
