//! The four workloads: their serving configuration and their seeded job
//! streams.
//!
//! A stream is cut into *chunks*. A chunk is generated before its timed
//! loop starts and checked after it ends, so neither generation nor
//! checking is ever inside a timed window. Chunk `k` of a workload is a
//! pure function of `(seed, k)`: the same seed gives the same jobs.

use qroute_perm::generators;
use qroute_service::{canonicalize_topology, select_router_on, RouteJob};
use qroute_topology::{Grid, GridSymmetry};
use std::collections::HashSet;
use std::fmt::Write as _;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct grid instances for the paper's three grid routers.
    GridCold,
    /// Distinct instances for the topology-generic routers.
    SwapCold,
    /// A long, repetitive `auto` stream served mostly from the cache.
    CampaignHot,
    /// Two daemon connections with partly shared `auto` streams.
    DaemonMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::GridCold,
        Workload::SwapCold,
        Workload::CampaignHot,
        Workload::DaemonMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid-cold",
            Workload::SwapCold => "swap-cold",
            Workload::CampaignHot => "campaign-hot",
            Workload::DaemonMixed => "daemon-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a workload is served: the engine or daemon configuration and the
/// shape of the closed loop that drives it.
#[derive(Debug, Clone, Copy)]
pub struct Serving {
    /// Routing worker threads.
    pub workers: usize,
    /// Canonical-schedule cache capacity (0 disables the cache).
    pub cache_capacity: usize,
    /// Cache shards.
    pub cache_shards: usize,
    /// Jobs each caller keeps in flight.
    pub window: usize,
    /// Daemon client connections; `0` drives an in-process `Engine`.
    pub connections: usize,
}

/// One generated job line and what the generator knows about it.
#[derive(Debug, Clone)]
pub struct JobLine {
    /// The JSONL job line.
    pub text: String,
    /// Index of the pool instance this line repeats (`None` for a fresh
    /// instance), so checks can reuse work per pool instance.
    pub pool: Option<usize>,
    /// The instance family (a class label, or `pool`/`fresh`).
    pub class: &'static str,
    /// Side of the job's base grid.
    pub side: usize,
}

/// splitmix64 of `a` combined with `b`: the seed-derivation step.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic stream of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = mix(self.0, 1);
        self.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    /// A generator seed for a class instance (kept below 2³² so it
    /// survives any JSON number handling unchanged).
    fn class_seed(&mut self) -> u64 {
        self.next() & 0xFFFF_FFFF
    }
}

/// Which connections draw a pool instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    Shared,
    Private(usize),
}

#[derive(Debug, Clone)]
struct PoolEntry {
    text: String,
    side: usize,
    owner: Owner,
}

/// The seeded job source of one workload.
pub struct Generator {
    workload: Workload,
    seed: u64,
    reduced: bool,
    pool: Vec<PoolEntry>,
    serving: Serving,
}

/// Seed of the hot workloads' instance pools. A pool is the campaign,
/// the same for every run, so its cache keys and their shard placement
/// are fixed; the workload seed draws the traffic over it and the fresh
/// instances.
const POOL_SEED: u64 = 0x5EED;

/// Share of fresh (never repeated) instances in the `campaign-hot` stream.
const CAMPAIGN_FRESH: f64 = 0.06;
/// Share of fresh instances in each `daemon-mixed` stream.
const DAEMON_FRESH: f64 = 0.3;
/// Share of pool draws in `daemon-mixed` that come from the shared pool.
const DAEMON_SHARED: f64 = 0.5;

impl Generator {
    /// Build the workload's generator for `seed` (the hot workloads'
    /// instance pools come from [`POOL_SEED`]). `reduced` shrinks every
    /// instance for quick tests.
    pub fn new(workload: Workload, seed: u64, reduced: bool) -> Generator {
        let mut generator = Generator {
            workload,
            seed,
            reduced,
            pool: Vec::new(),
            serving: Serving {
                workers: 2,
                cache_capacity: 0,
                cache_shards: 8,
                window: 2,
                connections: 0,
            },
        };
        let mut rng = Rng(mix(POOL_SEED, 0x9001));
        match workload {
            Workload::GridCold | Workload::SwapCold => {}
            Workload::CampaignHot => {
                let (bases, max_side) = if reduced { (12, 10) } else { (480, 16) };
                generator.add_pool(&mut rng, bases, 4, 8, max_side, Owner::Shared);
                // The pool's distinct keys fit at half capacity.
                let distinct = generator.pool_distinct_keys();
                generator.serving.cache_capacity = (2 * distinct).div_ceil(8) * 8;
                generator.serving.window = 8;
            }
            Workload::DaemonMixed => {
                let (bases, max_side) = if reduced { (8, 12) } else { (96, 32) };
                generator.add_pool(&mut rng, bases, 3, 8, max_side, Owner::Shared);
                for c in 0..2 {
                    generator.add_pool(&mut rng, bases / 2, 3, 8, max_side, Owner::Private(c));
                }
                generator.serving.cache_capacity = 1024;
                generator.serving.window = 8;
                generator.serving.connections = 2;
            }
        }
        generator
    }

    /// The workload's serving configuration.
    pub fn serving(&self) -> Serving {
        self.serving
    }

    /// Chunk `k` of the stream, one job list per caller (one caller for
    /// the in-process engine, one per daemon connection).
    pub fn chunk(&self, k: usize) -> Vec<Vec<JobLine>> {
        let mut rng = Rng(mix(self.seed, 0x1000 + k as u64));
        match self.workload {
            Workload::GridCold => vec![self.grid_cold(&mut rng)],
            Workload::SwapCold => {
                // Three rounds, so one chunk is about as long as a
                // `grid-cold` round.
                let rounds = if self.reduced { 1 } else { 3 };
                vec![(0..rounds).flat_map(|_| self.swap_cold(&mut rng)).collect()]
            }
            Workload::CampaignHot => {
                let (jobs, max_side) = if self.reduced { (96, 10) } else { (2048, 16) };
                vec![(0..jobs)
                    .map(|_| {
                        if rng.chance(CAMPAIGN_FRESH) {
                            fresh_pattern_line(&mut rng, 8, max_side)
                        } else {
                            self.pool_line(&mut rng, |_| true)
                        }
                    })
                    .collect()]
            }
            Workload::DaemonMixed => {
                let (jobs, max_side) = if self.reduced { (32, 12) } else { (256, 32) };
                (0..2)
                    .map(|c| {
                        let mut rng = Rng(mix(rng.next(), c as u64));
                        (0..jobs)
                            .map(|_| {
                                if rng.chance(DAEMON_FRESH) {
                                    fresh_class_line(&mut rng, 8, max_side)
                                } else if rng.chance(DAEMON_SHARED) {
                                    self.pool_line(&mut rng, |o| o == Owner::Shared)
                                } else {
                                    self.pool_line(&mut rng, |o| o == Owner::Private(c))
                                }
                            })
                            .collect()
                    })
                    .collect()
            }
        }
    }

    /// One round of `grid-cold`: every side × class × router, in that
    /// order, each a fresh class instance.
    fn grid_cold(&self, rng: &mut Rng) -> Vec<JobLine> {
        let sides: &[usize] = if self.reduced {
            &[12, 16]
        } else {
            &[32, 64, 128]
        };
        let mut out = Vec::new();
        for &side in sides {
            for class in ["random", "block4", "overlap8s4"] {
                for router in ["locality-aware", "hybrid", "naive-grid"] {
                    let text = format!(
                        r#"{{"side":{side},"router":"{router}","class":"{class}","seed":{}}}"#,
                        rng.class_seed()
                    );
                    out.push(JobLine { text, pool: None, class, side });
                }
            }
        }
        out
    }

    /// One round of `swap-cold`: the topology-generic routers on grids,
    /// sparse partial permutations, and the non-grid topologies.
    fn swap_cold(&self, rng: &mut Rng) -> Vec<JobLine> {
        // (small, large) grid sides and the non-grid sides.
        let (small, large, hex, torus, brick) = if self.reduced {
            (12, 16, 6, 8, 6)
        } else {
            (32, 64, 16, 24, 16)
        };
        let mut out = Vec::new();
        let mut class_job = |side: usize, router: &str, class: &'static str, topology: &str| {
            let text = format!(
                r#"{{"side":{side},"router":"{router}","class":"{class}","seed":{}{topology}}}"#,
                rng.class_seed()
            );
            out.push(JobLine { text, pool: None, class, side });
        };
        class_job(small, "ats", "random", "");
        class_job(small, "ats", "overlap8s4", "");
        for side in [small, large] {
            class_job(side, "ats", "sparse-pairs", "");
            class_job(side, "pathfinder", "sparse-pairs", "");
        }
        class_job(hex, "ats", "random", r#","topology":{"kind":"heavy-hex"}"#);
        class_job(torus, "ats", "random", r#","topology":{"kind":"torus"}"#);
        class_job(
            brick,
            "pathfinder",
            "random",
            r#","topology":{"kind":"brick"}"#,
        );
        let defects = defect_pattern(rng, small, if self.reduced { 2 } else { 4 });
        let topology = format!(r#","topology":{{"kind":"defect","defects":{defects:?}}}"#);
        let text = format!(
            r#"{{"side":{small},"router":"ats","class":"random","seed":{}{topology}}}"#,
            rng.class_seed()
        );
        out.push(JobLine { text, pool: None, class: "random", side: small });
        // A random partial permutation moving a quarter of the tokens,
        // as an explicit image table.
        let n = small * small;
        let pi = generators::sparse_random(n, n / 4, rng.next());
        out.push(JobLine {
            text: perm_line(small, "pathfinder", pi.as_slice()),
            pool: None,
            class: "partial25",
            side: small,
        });
        out
    }

    /// Add `bases` local patterns to the pool, each placed `copies` times
    /// (translated, reflected, and on grids of different sides).
    fn add_pool(
        &mut self,
        rng: &mut Rng,
        bases: usize,
        copies: usize,
        min_side: usize,
        max_side: usize,
        owner: Owner,
    ) {
        for base in 0..bases {
            // Pattern kinds cycle, so every seed's pool has the same mix.
            let (boxed, table) = local_pattern(rng, 8.min(min_side), base);
            for _ in 0..copies {
                let side = rng.between(min_side, max_side);
                let map = embed(rng, boxed, &table, side);
                self.pool
                    .push(PoolEntry { text: perm_line(side, "auto", &map), side, owner });
            }
        }
    }

    /// A uniformly drawn pool line among the entries `owned` accepts.
    fn pool_line(&self, rng: &mut Rng, owned: impl Fn(Owner) -> bool) -> JobLine {
        let eligible: Vec<usize> = (0..self.pool.len())
            .filter(|&i| owned(self.pool[i].owner))
            .collect();
        let idx = eligible[rng.below(eligible.len())];
        let entry = &self.pool[idx];
        JobLine { text: entry.text.clone(), pool: Some(idx), class: "pool", side: entry.side }
    }

    /// Distinct canonical cache keys among the pool's instances, keyed
    /// exactly as the engine keys them.
    fn pool_distinct_keys(&self) -> usize {
        let mut keys = HashSet::new();
        for entry in &self.pool {
            let job = RouteJob::from_json_line(&entry.text).expect("generated line parses");
            let (topology, pi) = job.resolve().expect("generated line resolves");
            let router = select_router_on(&topology, &pi);
            keys.insert(canonicalize_topology(&topology, &pi).key(format!("{router:?}")));
        }
        keys.len()
    }
}

/// An explicit-permutation job line.
fn perm_line(side: usize, router: &str, table: &[usize]) -> String {
    let mut text = format!(r#"{{"side":{side},"router":"{router}","perm":["#);
    for (i, v) in table.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        write!(text, "{v}").expect("writing to a String cannot fail");
    }
    text.push_str("]}");
    text
}

/// A permutation of a small box from one of five benchmark-class kinds
/// (`kind % 5`): the reusable local pattern of the hot workloads.
fn local_pattern(rng: &mut Rng, max_dim: usize, kind: usize) -> (Grid, Vec<usize>) {
    let boxed = Grid::new(rng.between(3, max_dim), rng.between(3, max_dim));
    let s = rng.next();
    let pi = match kind % 5 {
        0 => generators::random(boxed.len(), s),
        1 => generators::block_local(boxed, 2, 2, s),
        2 => generators::block_local(boxed, 3, 3, s),
        3 => generators::overlapping_blocks(boxed, 3, 3, 2, 2, s),
        _ => generators::sparse_random(boxed.len(), (boxed.len() / 3).max(2), s),
    };
    (boxed, pi.as_slice().to_vec())
}

/// Place a box pattern on a `side × side` grid under a random dihedral
/// symmetry at a random offset; every other token stays home.
fn embed(rng: &mut Rng, boxed: Grid, table: &[usize], side: usize) -> Vec<usize> {
    let sym = GridSymmetry::all()[rng.below(8)];
    let target = sym.target(boxed);
    let mut moved = vec![0usize; target.len()];
    for (v, &img) in table.iter().enumerate() {
        moved[sym.apply(boxed, v)] = sym.apply(boxed, img);
    }
    let r0 = rng.below(side - target.rows() + 1);
    let c0 = rng.below(side - target.cols() + 1);
    let grid = Grid::new(side, side);
    let mut map: Vec<usize> = (0..grid.len()).collect();
    for (v, &img) in moved.iter().enumerate() {
        let (i, j) = target.coords(v);
        let (ii, jj) = target.coords(img);
        map[grid.index(r0 + i, c0 + j)] = grid.index(r0 + ii, c0 + jj);
    }
    map
}

/// A fresh local pattern placed once: a never-repeated `auto` instance.
fn fresh_pattern_line(rng: &mut Rng, min_side: usize, max_side: usize) -> JobLine {
    let kind = rng.below(5);
    let (boxed, table) = local_pattern(rng, 8.min(min_side), kind);
    let side = rng.between(min_side, max_side);
    let map = embed(rng, boxed, &table, side);
    JobLine { text: perm_line(side, "auto", &map), pool: None, class: "fresh", side }
}

/// A fresh class-reference `auto` job.
fn fresh_class_line(rng: &mut Rng, min_side: usize, max_side: usize) -> JobLine {
    let side = rng.between(min_side, max_side);
    let classes: &[&'static str] = if side <= 16 {
        &["block2", "block4", "overlap4s2", "sparse-pairs", "random"]
    } else {
        &["block2", "block4", "overlap4s2", "sparse-pairs"]
    };
    let class = classes[rng.below(classes.len())];
    let text = format!(
        r#"{{"side":{side},"router":"auto","class":"{class}","seed":{}}}"#,
        rng.class_seed()
    );
    JobLine { text, pool: None, class, side }
}

/// `count` dead interior vertices of a `side × side` grid, pairwise at
/// least three rows or columns apart, so no defect pattern can cut the
/// grid.
fn defect_pattern(rng: &mut Rng, side: usize, count: usize) -> Vec<usize> {
    let grid = Grid::new(side, side);
    let mut dead: Vec<usize> = Vec::new();
    while dead.len() < count {
        let (i, j) = (rng.between(1, side - 2), rng.between(1, side - 2));
        let apart = dead.iter().all(|&d| {
            let (di, dj) = grid.coords(d);
            di.abs_diff(i).max(dj.abs_diff(j)) >= 3
        });
        if apart {
            dead.push(grid.index(i, j));
        }
    }
    dead.sort_unstable();
    dead
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_a_function_of_seed_and_index() {
        for workload in Workload::ALL {
            let a = Generator::new(workload, 7, true);
            let b = Generator::new(workload, 7, true);
            let text = |g: &Generator, k| -> Vec<String> {
                g.chunk(k).into_iter().flatten().map(|l| l.text).collect()
            };
            assert_eq!(text(&a, 3), text(&b, 3), "{}", workload.name());
            assert_ne!(text(&a, 3), text(&a, 4), "{}", workload.name());
        }
    }

    #[test]
    fn every_generated_line_resolves() {
        for workload in Workload::ALL {
            let generator = Generator::new(workload, 1, true);
            for line in generator.chunk(0).into_iter().flatten() {
                let job = RouteJob::from_json_line(&line.text).expect("parses");
                job.resolve().expect("resolves");
            }
        }
    }
}
