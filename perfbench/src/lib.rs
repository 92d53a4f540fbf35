//! # perfbench
//!
//! The repository's benchmark: a harness that links the workspace crates
//! and drives seeded job streams through the public `Engine` API (the
//! `repro batch` path) and the public `Daemon`/`Client` API, measures
//! them end to end, checks every output, and — in a separate traced run —
//! breaks the work down layer by layer.
//!
//! A run with tracing off reports the [`END_TO_END`] metrics; a traced
//! run reports the [`PER_LAYER`] metrics. See `perfbench/README.md` for
//! the workloads and what each metric means.

pub mod check;
pub mod drive;
pub mod env;
pub mod layers;
pub mod stats;
pub mod tally;
pub mod workload;

use check::{line_hash, Checker};
use drive::{run_engine_chunk, Stack};
use env::EnvStamp;
use stats::{median, quantile, timed, Mean};
use std::collections::BTreeMap;
use std::sync::Arc;
use tally::{Counts, Tally, ROUTER_LABELS};
use workload::{Generator, Serving, Workload};

/// End-to-end metrics (name, unit), reported with tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("job_ms_p99", "ms"),
    ("depth_ratio_geomean", "ratio"),
    ("swaps_ratio_geomean", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (name, unit), reported by the traced run. A layer a
/// workload never calls reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("job.parse_us", "us"),
    ("job.resolve_us", "us"),
    ("wire.serialize_us", "us"),
    ("dispatch.select_us", "us"),
    ("dispatch.picked.locality-aware", "count"),
    ("dispatch.picked.hybrid", "count"),
    ("dispatch.picked.ats", "count"),
    ("dispatch.picked.pathfinder", "count"),
    ("dispatch.regret_geomean", "ratio"),
    ("perm.lower_bound_us", "us"),
    ("cache.canonicalize_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.replay_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.distinct_keys", "count"),
    ("cache.capacity_miss_frac", "ratio"),
    ("engine.submit_us", "us"),
    ("engine.collect_wait_ms", "ms"),
    ("daemon.server_ms_p50", "ms"),
    ("daemon.server_ms_p99", "ms"),
    ("daemon.client_overhead_ms", "ms"),
    ("daemon.dedup_saved", "count"),
    ("router.route_ms.locality-aware", "ms"),
    ("router.route_ms.hybrid", "ms"),
    ("router.route_ms.naive-grid", "ms"),
    ("router.route_ms.ats", "ms"),
    ("router.route_ms.pathfinder", "ms"),
    ("router.jobs.locality-aware", "count"),
    ("router.jobs.hybrid", "count"),
    ("router.jobs.naive-grid", "count"),
    ("router.jobs.ats", "count"),
    ("router.jobs.pathfinder", "count"),
    ("grid.multigraph_ms", "ms"),
    ("locality.window_search_ms", "ms"),
    ("locality.matchings_ms", "ms"),
    ("locality.line_routing_ms", "ms"),
    ("locality.rebalance_assign_ms", "ms"),
    ("locality.single_pass_ms", "ms"),
    ("locality.breakdown_gap_frac", "ratio"),
    ("matching.mcbbm_ms", "ms"),
    ("matching.hk_decompose_ms", "ms"),
    ("matching.euler_decompose_ms", "ms"),
    ("grid.three_phase_ms", "ms"),
    ("grid.transpose_ms", "ms"),
    ("schedule.compact_ms", "ms"),
    ("paper.depth_vs_ats", "ratio"),
    ("paper.speedup_vs_ats", "ratio"),
    ("ats.route_ms", "ms"),
    ("ats.happy_rounds", "count"),
    ("ats.stuck_rounds", "count"),
    ("ats.fallbacks", "count"),
    ("pathfinder.route_ms", "ms"),
    ("pathfinder.rounds", "count"),
    ("pathfinder.astar_pops", "count"),
    ("pathfinder.ripups", "count"),
    ("pathfinder.fallback_frac", "ratio"),
    ("topology.oracle_build_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Largest tolerated gap between a locality-aware route and the sum of
/// its measured parts before the breakdown counts as incomplete.
const BREAKDOWN_TOLERANCE: f64 = 0.15;

/// Share of `--seconds` the traced run spends on its untraced loop (the
/// traced loop repeats the same chunks, and the layer replay gets the
/// rest as its routing budget).
const TRACED_E2E_SHARE: f64 = 0.3;

/// Builds per set-up sample: a sample is the mean build time of this
/// many consecutive builds (thread start-up times are bimodal, and a
/// mean over a few builds is steadier than one build).
const SETUP_BATCH_BUILDS: usize = 3;

/// Latency percentiles are taken over windows of consecutive chunks
/// holding at least this many jobs, and the median over windows is
/// reported: twenty samples lie beyond a window's 99th percentile, and a
/// brief stall of the machine moves a few windows, not the median.
const LATENCY_WINDOW_JOBS: usize = 2000;

/// Set-up samples taken at most: one before the loop, then one between
/// chunks, so the samples spread over the whole run.
const SETUP_MAX_SAMPLES: usize = 40;

/// Share of `--seconds` the memory pass runs before the timed loop (long
/// enough that the heaviest jobs of a cold workload meet in flight).
const MEMORY_SHARE: f64 = 0.25;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Timed seconds (whole chunks: the last chunk may run past it).
    pub seconds: f64,
    /// Report the traced per-layer breakdown instead of end-to-end metrics.
    pub trace: bool,
    /// Run exactly this many chunks instead of a time budget (tests).
    pub chunks: Option<usize>,
    /// Shrink every instance (tests).
    pub reduced: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (jobs, routes, or runs), when meaningful.
    pub samples: Option<u64>,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Jobs attempted in the measured loop.
    pub attempted: u64,
    /// Jobs with an error outcome or a failed check, plus failed
    /// run-level checks.
    pub failed: u64,
    /// The metrics, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Where it ran.
    pub env: EnvStamp,
    /// The workload's serving configuration.
    pub serving: Serving,
    /// Chunks run in the measured loop.
    pub chunks: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Report {
    /// A metric's value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// The environment stamp line.
    pub fn env_json(&self, cfg: &RunConfig) -> String {
        let e = &self.env;
        let s = &self.serving;
        format!(
            r#"{{"env":{{"nproc":{},"cpu":{},"rustc":{},"profile":"{}","commit":{},"host_probe_ms":[{}],"workload":"{}","seed":{},"seconds":{},"trace":{},"chunks":{},"workers":{},"cache_capacity":{},"cache_shards":{},"window":{},"connections":{}}}}}"#,
            e.nproc,
            json_string(&e.cpu),
            json_string(&e.rustc),
            e.profile,
            json_string(&e.commit),
            e.host_probe_ms
                .iter()
                .map(|&ms| json_number(ms))
                .collect::<Vec<_>>()
                .join(","),
            cfg.workload.name(),
            cfg.seed,
            json_number(cfg.seconds),
            cfg.trace,
            self.chunks,
            s.workers,
            s.cache_capacity,
            s.cache_shards,
            s.window,
            s.connections,
        )
    }
}

/// A JSON number (non-finite values, which JSON cannot carry, become 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// When a measured loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After exactly this many chunks.
    Chunks(usize),
    /// After the first chunk that ends past this many timed seconds.
    Seconds(f64),
}

impl Stop {
    /// A run budget: `seconds` of timed chunks, or the configured number
    /// of chunks.
    fn of(cfg: &RunConfig, seconds: f64) -> Stop {
        match cfg.chunks {
            Some(n) => Stop::Chunks(n),
            None => Stop::Seconds(seconds),
        }
    }

    /// Whether a loop that has run `chunks` chunks in `timed_s` seconds
    /// is done.
    fn reached(self, chunks: usize, timed_s: f64) -> bool {
        match self {
            Stop::Chunks(n) => chunks >= n,
            Stop::Seconds(s) => chunks > 0 && timed_s >= s,
        }
    }
}

/// What one measured loop saw.
struct E2e {
    chunks: usize,
    jobs: u64,
    timed_s: f64,
    /// Jobs per second of each chunk's timed loop.
    chunk_rates: Vec<f64>,
    /// Job latencies of each chunk, in milliseconds.
    latencies_ms: Vec<Vec<f64>>,
    /// Outcome-line fingerprints per caller, in job order.
    hashes: Vec<Vec<u64>>,
    checker: Checker,
    cache: qroute_service::CacheStats,
    server_ms: Option<(f64, f64)>,
    submit_us: Mean,
    collect_wait_ms: Mean,
}

impl E2e {
    /// Throughput: the median over chunks of jobs per second, which a
    /// brief stall of the machine moves less than the overall ratio.
    fn jobs_per_s(&self) -> f64 {
        median(&self.chunk_rates)
    }

    /// The median over latency windows (at least [`LATENCY_WINDOW_JOBS`]
    /// jobs of consecutive chunks; a short run is one window) of the
    /// window's `q`-quantile.
    fn latency_ms(&self, q: f64) -> f64 {
        let mut windows: Vec<Vec<f64>> = vec![Vec::new()];
        for chunk in &self.latencies_ms {
            let last = windows.last_mut().expect("at least one window");
            if last.len() >= LATENCY_WINDOW_JOBS {
                windows.push(chunk.clone());
            } else {
                last.extend_from_slice(chunk);
            }
        }
        // A short tail window joins its predecessor.
        if windows.len() > 1 && windows.last().map_or(0, Vec::len) < LATENCY_WINDOW_JOBS {
            let tail = windows.pop().expect("checked above");
            windows.last_mut().expect("checked above").extend(tail);
        }
        let per_window: Vec<f64> = windows.iter().map(|w| quantile(w, q)).collect();
        median(&per_window)
    }
}

/// Drive `stack` over the workload's chunks until `stop`, checking every
/// output after each chunk when `check` is set.
fn measure(
    mut stack: Stack,
    generator: &Generator,
    serving: &Serving,
    stop: Stop,
    check: bool,
    mut setup: Option<&mut Vec<f64>>,
) -> Result<E2e, String> {
    let callers = serving.connections.max(1);
    let mut e2e = E2e {
        chunks: 0,
        jobs: 0,
        timed_s: 0.0,
        chunk_rates: Vec::new(),
        latencies_ms: Vec::new(),
        hashes: vec![Vec::new(); callers],
        checker: Checker::default(),
        cache: Default::default(),
        server_ms: None,
        submit_us: Mean::default(),
        collect_wait_ms: Mean::default(),
    };
    // Daemon outcomes are checked against one in-process engine per
    // connection, replaying that connection's stream.
    let mut references: Vec<qroute_service::Engine> = if check && serving.connections > 0 {
        (0..serving.connections)
            .map(|_| qroute_service::Engine::new(drive::engine_config(serving)))
            .collect()
    } else {
        Vec::new()
    };
    while !stop.reached(e2e.chunks, e2e.timed_s) {
        let jobs = generator.chunk(e2e.chunks);
        let run = stack
            .run_chunk(&jobs, serving.window, check)
            .map_err(|e| e.to_string())?;
        e2e.chunks += 1;
        e2e.timed_s += run.wall_s;
        let submitted: usize = jobs.iter().map(Vec::len).sum();
        e2e.jobs += submitted as u64;
        e2e.chunk_rates.push(submitted as f64 / run.wall_s);
        if serving.connections == 0 {
            e2e.submit_us
                .push_total(run.submit_s * 1e6, submitted as u64);
            e2e.collect_wait_ms
                .push_total(run.collect_wait_s * 1e3, submitted as u64);
        }
        // The connections' reference engines replay their streams side
        // by side, as the connections ran.
        let replayed: Vec<drive::ChunkRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = references
                .iter_mut()
                .zip(&jobs)
                .map(|(engine, lines)| {
                    scope.spawn(move || run_engine_chunk(engine, lines, 64, true))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference engine thread panicked"))
                .collect()
        });
        let mut latencies = Vec::with_capacity(submitted);
        for (c, outputs) in run.outputs.iter().enumerate() {
            if outputs.len() != jobs[c].len() {
                return Err(format!(
                    "caller {c} got {} outcomes for {} jobs",
                    outputs.len(),
                    jobs[c].len()
                ));
            }
            for (job, out) in jobs[c].iter().zip(outputs) {
                latencies.push(out.latency_ms);
                e2e.hashes[c].push(line_hash(&out.line));
                if !check {
                    continue;
                }
                if serving.connections == 0 {
                    e2e.checker.check_engine(job, out);
                }
            }
            if let Some(reference) = replayed.get(c) {
                for ((job, out), reference) in
                    jobs[c].iter().zip(outputs).zip(&reference.outputs[0])
                {
                    e2e.checker.check_daemon(job, &out.line, reference);
                }
            }
        }
        e2e.latencies_ms.push(latencies);
        if let Some(samples) = setup.as_deref_mut() {
            if samples.len() < SETUP_MAX_SAMPLES {
                samples.push(setup_sample(serving)?);
            }
        }
    }
    e2e.cache = stack.cache_stats();
    if let Some(latency) = stack.server_latency_ms() {
        e2e.server_ms = Some(latency.map_err(|e| e.to_string())?);
    }
    Ok(e2e)
}

/// The memory pass: a fresh stack driven over the stream's first chunks
/// until `stop`, each result dropped as it is collected and nothing
/// checked, so the peak holds the service's memory and only the current
/// chunk's job and outcome lines of the harness. Returns the process's
/// peak resident memory (`VmHWM`) in MiB, read before any checking state
/// or reference engine exists.
fn memory_pass(generator: &Generator, serving: &Serving, stop: Stop) -> Result<f64, String> {
    let mut stack = Stack::build(serving).map_err(|e| e.to_string())?;
    let (mut chunks, mut timed_s) = (0, 0.0);
    while !stop.reached(chunks, timed_s) {
        let run = stack
            .run_chunk(&generator.chunk(chunks), serving.window, false)
            .map_err(|e| e.to_string())?;
        chunks += 1;
        timed_s += run.wall_s;
    }
    drop(stack);
    Ok(env::peak_rss_mib().unwrap_or(0.0))
}

/// One set-up sample: the mean time of [`SETUP_BATCH_BUILDS`] builds of
/// the serving stack, each dropped before the next, in seconds.
fn setup_sample(serving: &Serving) -> Result<f64, String> {
    let mut total = 0.0;
    for _ in 0..SETUP_BATCH_BUILDS {
        let (stack, s) = timed(|| Stack::build(serving));
        drop(stack.map_err(|e| e.to_string())?);
        total += s;
    }
    Ok(total / SETUP_BATCH_BUILDS as f64)
}

/// Run one benchmark invocation.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let env = EnvStamp::probe();
    let generator = Generator::new(cfg.workload, cfg.seed, cfg.reduced);
    let serving = generator.serving();
    let mut report = if cfg.trace {
        traced(cfg, env, &generator, serving)?
    } else {
        untraced(cfg, env, &generator, serving)?
    };
    report.env.host_probe_ms.push(env::host_probe_ms());
    Ok(report)
}

/// The untraced run: the memory pass, then the checked, timed loop.
fn untraced(
    cfg: &RunConfig,
    env: EnvStamp,
    generator: &Generator,
    serving: Serving,
) -> Result<Report, String> {
    let mut setup = vec![setup_sample(&serving)?];
    let memory_stop = Stop::of(cfg, cfg.seconds * MEMORY_SHARE);
    let peak_rss_mib = memory_pass(generator, &serving, memory_stop)?;
    let stack = Stack::build(&serving).map_err(|e| e.to_string())?;
    let stop = Stop::of(cfg, cfg.seconds);
    let e2e = measure(stack, generator, &serving, stop, true, Some(&mut setup))?;
    let jobs = e2e.jobs;
    let lat = |q| e2e.latency_ms(q);
    let checker = &e2e.checker;
    let values = [
        (e2e.jobs_per_s(), e2e.chunk_rates.len() as u64),
        (lat(0.50), jobs),
        (lat(0.90), jobs),
        (lat(0.99), jobs),
        (checker.depth_ratio.value(), checker.depth_ratio.count()),
        (checker.swaps_ratio.value(), checker.swaps_ratio.count()),
        (median(&setup), setup.len() as u64),
        (peak_rss_mib, 1),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            value,
            unit,
            samples: Some(samples),
        })
        .collect();
    Ok(Report {
        correct: checker.failed == 0 && checker.checked == e2e.jobs,
        attempted: e2e.jobs,
        failed: checker.failed,
        metrics,
        env,
        serving,
        chunks: e2e.chunks,
        failures: checker.failures.clone(),
    })
}

/// The traced run: an untraced loop, the same chunks again with a
/// [`Tally`] armed on every thread, then the layer replay.
fn traced(
    cfg: &RunConfig,
    env: EnvStamp,
    generator: &Generator,
    serving: Serving,
) -> Result<Report, String> {
    let stop = Stop::of(cfg, cfg.seconds * TRACED_E2E_SHARE);
    let stack = Stack::build(&serving).map_err(|e| e.to_string())?;
    let mut plain = measure(stack, generator, &serving, stop, true, None)?;

    let tally = Arc::new(Tally::new());
    let previous = qroute_obs::trace::install_global(Some(Arc::clone(&tally) as _));
    let traced_stack = Stack::build(&serving).map_err(|e| e.to_string());
    // The traced loop is not checked: its reference engines and checks
    // would report into the tally as if they were the program's. The
    // invariance check below ties its outputs to the checked loop's.
    let traced_run = traced_stack.and_then(|stack| {
        measure(
            stack,
            generator,
            &serving,
            Stop::Chunks(plain.chunks),
            false,
            None,
        )
    });
    qroute_obs::trace::install_global(previous);
    let traced_run = traced_run?;
    let counts = tally.counts();
    // Tracing invariance: the traced run's outcome bytes are the
    // untraced run's.
    for (c, (a, b)) in plain.hashes.iter().zip(&traced_run.hashes).enumerate() {
        let differing = a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len());
        if differing > 0 {
            plain.checker.fail(format!(
                "caller {c}: {differing} outcome lines differ with tracing armed"
            ));
        }
    }

    let budget = cfg
        .chunks
        .is_none()
        .then_some(cfg.seconds * (1.0 - 2.0 * TRACED_E2E_SHARE));
    let layer = layers::replay(cfg.workload, generator, &serving, plain.chunks, budget);
    for problem in layer.grid.inconsistencies(BREAKDOWN_TOLERANCE) {
        plain.checker.fail(problem);
    }

    let values = layer_values(&plain, &traced_run, &counts, &layer);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = values.get(name).copied().unwrap_or((0.0, None));
            Metric { name, value, unit, samples }
        })
        .collect();
    let checker = &plain.checker;
    Ok(Report {
        correct: checker.failed == 0 && checker.checked == plain.jobs,
        attempted: plain.jobs,
        failed: checker.failed,
        metrics,
        env,
        serving,
        chunks: plain.chunks,
        failures: checker.failures.clone(),
    })
}

/// Every per-layer value with its sample count, by metric name.
fn layer_values(
    plain: &E2e,
    traced: &E2e,
    counts: &Counts,
    layer: &layers::LayerStats,
) -> BTreeMap<&'static str, (f64, Option<u64>)> {
    let mut v: BTreeMap<&'static str, (f64, Option<u64>)> = BTreeMap::new();
    let mut mean = |name: &'static str, m: &Mean| {
        v.insert(name, (m.value(), Some(m.count())));
    };
    mean("job.parse_us", &layer.parse_us);
    mean("job.resolve_us", &layer.resolve_us);
    mean("wire.serialize_us", &layer.serialize_us);
    mean("dispatch.select_us", &layer.select_us);
    mean("perm.lower_bound_us", &layer.lower_bound_us);
    mean("cache.canonicalize_us", &layer.canonicalize_us);
    mean("cache.lookup_us", &layer.lookup_us);
    mean("cache.replay_us", &layer.replay_us);
    mean("engine.submit_us", &plain.submit_us);
    mean("engine.collect_wait_ms", &plain.collect_wait_ms);
    mean("ats.route_ms", &layer.ats_ms);
    mean("pathfinder.route_ms", &layer.pathfinder_ms);
    mean("topology.oracle_build_ms", &layer.oracle_build_ms);
    let g = &layer.grid;
    mean("grid.multigraph_ms", &g.multigraph_ms);
    mean("locality.window_search_ms", &g.window_search_ms);
    mean("locality.matchings_ms", &g.matchings_ms);
    mean("locality.line_routing_ms", &g.line_routing_ms);
    mean("locality.single_pass_ms", &g.single_pass_ms);
    mean("matching.mcbbm_ms", &g.mcbbm_ms);
    mean("matching.hk_decompose_ms", &g.hk_decompose_ms);
    mean("matching.euler_decompose_ms", &g.euler_decompose_ms);
    mean("grid.three_phase_ms", &g.three_phase_ms);
    mean("grid.transpose_ms", &g.transpose_ms);
    mean("schedule.compact_ms", &g.compact_ms);
    let routes = Some(g.route_ms.count());
    v.insert(
        "locality.rebalance_assign_ms",
        (g.rebalance_assign_ms(), routes),
    );
    v.insert(
        "locality.breakdown_gap_frac",
        (g.gap_frac().unwrap_or(0.0), routes),
    );

    for label in ROUTER_LABELS {
        let route = layer.route_ms.get(label).copied().unwrap_or_default();
        let misses = plain.checker.routed_misses.get(label).copied();
        let picked = counts.picked.get(label).copied();
        // `auto` never picks `naive-grid`, so it has no `dispatch.picked`.
        for (prefix, value) in [
            ("router.route_ms", (route.value(), Some(route.count()))),
            ("router.jobs", (misses.unwrap_or(0) as f64, None)),
            ("dispatch.picked", (picked.unwrap_or(0) as f64, None)),
        ] {
            if let Some(name) = labeled_metric(prefix, label) {
                v.insert(name, value);
            }
        }
    }
    v.insert(
        "dispatch.regret_geomean",
        (layer.regret.value(), Some(layer.regret.count())),
    );

    let cache = plain.cache;
    let count = |x: u64| (x as f64, None);
    v.insert("cache.hits", count(cache.hits));
    v.insert("cache.misses", count(cache.misses));
    v.insert("cache.evictions", count(cache.evictions));
    v.insert(
        "cache.hit_rate",
        (cache.hit_rate(), Some(cache.hits + cache.misses)),
    );
    v.insert("cache.distinct_keys", count(layer.distinct_keys));
    let capacity_misses = cache.misses.saturating_sub(layer.distinct_keys);
    let frac = if cache.misses == 0 {
        0.0
    } else {
        capacity_misses as f64 / cache.misses as f64
    };
    v.insert("cache.capacity_miss_frac", (frac, Some(cache.misses)));

    if let Some((p50, p99)) = plain.server_ms {
        let jobs = Some(plain.jobs);
        v.insert("daemon.server_ms_p50", (p50, jobs));
        v.insert("daemon.server_ms_p99", (p99, jobs));
        let client_p50 = plain.latency_ms(0.5);
        v.insert("daemon.client_overhead_ms", (client_p50 - p50, jobs));
        let per_connection: u64 = plain.checker.routed_misses.values().sum();
        v.insert(
            "daemon.dedup_saved",
            count(per_connection.saturating_sub(cache.misses)),
        );
    }

    let per_route = |events: u64, label: &str| {
        let routes = counts.routes.get(label).copied().unwrap_or(0);
        let value = if routes == 0 {
            0.0
        } else {
            events as f64 / routes as f64
        };
        (value, Some(routes))
    };
    let rounds = |kind| counts.ats_rounds.get(kind).copied().unwrap_or(0);
    v.insert("ats.happy_rounds", per_route(rounds("happy"), "ats"));
    v.insert("ats.stuck_rounds", per_route(rounds("stuck"), "ats"));
    v.insert("ats.fallbacks", count(counts.records("ats.fallback")));
    v.insert(
        "pathfinder.rounds",
        per_route(counts.records("pathfinder.round"), "pathfinder"),
    );
    v.insert(
        "pathfinder.astar_pops",
        per_route(counts.astar_pops, "pathfinder"),
    );
    v.insert("pathfinder.ripups", per_route(counts.ripups, "pathfinder"));
    v.insert(
        "pathfinder.fallback_frac",
        per_route(counts.records("pathfinder.fallback"), "pathfinder"),
    );
    v.insert(
        "paper.depth_vs_ats",
        (layer.paper_depth.value(), Some(layer.paper_depth.count())),
    );
    v.insert(
        "paper.speedup_vs_ats",
        (
            layer.paper_speedup.value(),
            Some(layer.paper_speedup.count()),
        ),
    );
    v.insert(
        "trace.overhead_frac",
        (
            1.0 - traced.jobs_per_s() / plain.jobs_per_s(),
            Some(plain.jobs),
        ),
    );
    v
}

/// The [`PER_LAYER`] name `<prefix>.<label>`, if there is one.
fn labeled_metric(prefix: &str, label: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|&(name, _)| name).find(|name| {
        name.strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix('.'))
            == Some(label)
    })
}
