//! Microbenchmarks for the matching substrate: Hopcroft–Karp and the
//! MCBBM bottleneck assignment. Regular multigraph decomposition is timed
//! on the routers' own column multigraphs in
//! `crates/core/benches/matching_decompose.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qroute_matching::{bottleneck_assignment, hopcroft_karp};
use std::hint::black_box;
use std::time::Duration;

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_matching");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));

    for n in [64usize, 256] {
        // d-regular bipartite graph adjacency.
        let d = 4;
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|l| (0..d).map(|k| ((l + k * 17 + k * k) % n) as u32).collect())
            .collect();
        group.bench_with_input(BenchmarkId::new("hopcroft_karp", n), &adj, |b, adj| {
            b.iter(|| black_box(hopcroft_karp(n, n, black_box(adj)).size()))
        });
    }

    for m in [16usize, 64] {
        let weights: Vec<Vec<u64>> = (0..m)
            .map(|i| (0..m).map(|j| ((i * 31 + j * 17) % 97) as u64).collect())
            .collect();
        group.bench_with_input(BenchmarkId::new("mcbbm", m), &weights, |b, w| {
            b.iter(|| black_box(bottleneck_assignment(black_box(w)).bottleneck))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
