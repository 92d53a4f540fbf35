//! The routing service's per-job submit path, stage by stage: parse the
//! JSONL line, pick `auto`'s router, bound the depth, canonicalize, and
//! look the canonical key up in the sharded cache. Every stage runs over
//! a fixed campaign-style pool (small local patterns translated and
//! reflected on sides 8–16, the traffic of a warm-cache campaign; times
//! are per pool) and over one side-128 `auto` line with a random
//! permutation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qroute_perm::{generators, metrics, Permutation};
use qroute_service::{canonicalize_topology, select_router_on, CanonicalKey, RouteJob, ShardedLru};
use qroute_topology::{Grid, GridSymmetry, Topology};
use std::hint::black_box;
use std::time::Duration;

/// An explicit-permutation `auto` job line.
fn perm_line(side: usize, table: &[usize]) -> String {
    let entries: Vec<String> = table.iter().map(usize::to_string).collect();
    format!(
        r#"{{"side":{side},"router":"auto","perm":[{}]}}"#,
        entries.join(",")
    )
}

/// 64 local patterns, each placed four times under a dihedral symmetry at
/// an offset on a side-8–16 grid.
fn campaign_pool() -> Vec<String> {
    let mut lines = Vec::new();
    for base in 0..64usize {
        let boxed = Grid::new(3 + base % 4, 3 + base / 4 % 4);
        let seed = base as u64;
        let pattern = match base % 4 {
            0 => generators::random(boxed.len(), seed),
            1 => generators::block_local(boxed, 2, 2, seed),
            2 => generators::overlapping_blocks(boxed, 3, 3, 2, 2, seed),
            _ => generators::sparse_random(boxed.len(), (boxed.len() / 3).max(2), seed),
        };
        for copy in 0..4 {
            let side = 8 + (3 * base + 5 * copy) % 9;
            let sym = GridSymmetry::all()[(base + copy) % 8];
            let target = sym.target(boxed);
            let at = (
                (base + copy) % (side - target.rows() + 1),
                (2 * base + copy) % (side - target.cols() + 1),
            );
            let grid = Grid::new(side, side);
            let place = |v: usize| {
                let (i, j) = target.coords(sym.apply(boxed, v));
                grid.index(at.0 + i, at.1 + j)
            };
            let mut map: Vec<usize> = (0..grid.len()).collect();
            for v in 0..boxed.len() {
                map[place(v)] = place(pattern.apply(v));
            }
            lines.push(perm_line(side, &map));
        }
    }
    lines
}

fn bench_submit_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("submit_path");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    let side128 = perm_line(128, generators::random(128 * 128, 1).as_slice());
    for (name, lines) in [("pool256", campaign_pool()), ("random128", vec![side128])] {
        let jobs: Vec<RouteJob> = lines
            .iter()
            .map(|l| RouteJob::from_json_line(l).expect("bench lines parse"))
            .collect();
        let instances: Vec<(Topology, Permutation)> = jobs
            .iter()
            .map(|job| job.resolve().expect("bench jobs resolve"))
            .collect();
        let keys: Vec<CanonicalKey> = instances
            .iter()
            .map(|(topology, pi)| {
                let router = select_router_on(topology, pi);
                canonicalize_topology(topology, pi).key(format!("{router:?}"))
            })
            .collect();
        let lru: ShardedLru<()> = ShardedLru::new(1024, 8);
        for key in &keys {
            lru.insert(key.clone(), ());
        }

        group.bench_with_input(BenchmarkId::new("parse", name), &lines, |b, lines| {
            b.iter(|| {
                lines
                    .iter()
                    .map(|l| RouteJob::from_json_line(black_box(l)).is_ok() as usize)
                    .sum::<usize>()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("select_router", name),
            &instances,
            |b, all| {
                b.iter(|| {
                    all.iter()
                        .map(|(topology, pi)| {
                            select_router_on(topology, black_box(pi)).label().len()
                        })
                        .sum::<usize>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lower_bound", name),
            &instances,
            |b, all| {
                b.iter(|| {
                    all.iter()
                        .map(|(topology, pi)| {
                            let grid = topology.as_grid().expect("bench instances are full grids");
                            metrics::depth_lower_bound(grid, black_box(pi))
                        })
                        .sum::<usize>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("canonicalize", name),
            &instances,
            |b, all| {
                b.iter(|| {
                    all.iter()
                        .map(|(topology, pi)| {
                            canonicalize_topology(topology, black_box(pi)).pi.len()
                        })
                        .sum::<usize>()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("cache_get", name), &keys, |b, keys| {
            b.iter(|| {
                keys.iter()
                    .filter(|k| lru.get(black_box(k)).is_some())
                    .count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_submit_path);
criterion_main!(benches);
