//! The serving stacks under test and the closed loops that drive them.
//!
//! In-process workloads go through the public `Engine` API the way `repro
//! batch` does: parse each line, `submit`, collect in job-id order within
//! a bounded pending window. `daemon-mixed` runs an in-process `Daemon`
//! and one `Client` per connection, each on its own harness thread with a
//! fixed in-flight window. A job's latency runs from taking its line in
//! hand (before parsing, or before `send_line`) to its serialized outcome
//! line in hand.

use crate::workload::{JobLine, Serving};
use qroute_service::{
    CacheStats, Client, Daemon, Engine, EngineConfig, RouteJob, RouteResult, ServiceError,
};
use std::collections::VecDeque;
use std::time::Instant;

/// One job's result as the caller saw it.
pub struct JobOutput {
    /// The outcome line.
    pub line: String,
    /// The engine's result with its replayed schedule (in-process path
    /// only; the daemon wire carries no schedules).
    pub result: Option<RouteResult>,
    /// Latency in milliseconds.
    pub latency_ms: f64,
}

/// One timed chunk.
pub struct ChunkRun {
    /// Outputs per caller, in job order.
    pub outputs: Vec<Vec<JobOutput>>,
    /// Wall time of the chunk's timed loop, in seconds.
    pub wall_s: f64,
    /// Seconds spent inside `Engine::submit` (engine path only).
    pub submit_s: f64,
    /// Seconds spent blocked in `Engine::collect_next` (engine path only).
    pub collect_wait_s: f64,
}

/// The routing service under test.
pub enum Stack {
    /// The in-process engine.
    Engine(Box<Engine>),
    /// A loopback daemon and its client connections.
    Daemon {
        /// Client connections, one per caller (dropped before the daemon).
        clients: Vec<Client>,
        /// The daemon.
        daemon: Daemon,
    },
}

/// The engine configuration of a workload.
pub fn engine_config(serving: &Serving) -> EngineConfig {
    EngineConfig::builder()
        .workers(serving.workers)
        .cache_capacity(serving.cache_capacity)
        .cache_shards(serving.cache_shards)
        .build()
        .expect("benchmark engine configuration is valid")
}

impl Stack {
    /// Build the engine, or bind the daemon and connect its clients.
    pub fn build(serving: &Serving) -> Result<Stack, ServiceError> {
        let config = engine_config(serving);
        if serving.connections == 0 {
            return Ok(Stack::Engine(Box::new(Engine::new(config))));
        }
        let daemon = Daemon::bind("127.0.0.1:0", config)?;
        let addr = daemon.local_addr();
        let clients = (0..serving.connections)
            .map(|_| Client::connect(addr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Stack::Daemon { clients, daemon })
    }

    /// Run one chunk (one job list per caller) as a closed loop with
    /// `window` jobs in flight per caller. Engine results are kept for
    /// the checks when `keep` is set, and dropped as collected otherwise.
    pub fn run_chunk(
        &mut self,
        jobs: &[Vec<JobLine>],
        window: usize,
        keep: bool,
    ) -> Result<ChunkRun, ServiceError> {
        match self {
            Stack::Engine(engine) => Ok(run_engine_chunk(engine, &jobs[0], window, keep)),
            Stack::Daemon { clients, .. } => run_daemon_chunk(clients, jobs, window),
        }
    }

    /// Cache counters of the stack's (shared) cache.
    pub fn cache_stats(&self) -> CacheStats {
        match self {
            Stack::Engine(engine) => engine.cache_stats(),
            Stack::Daemon { daemon, .. } => {
                let stats = daemon.stats();
                CacheStats {
                    hits: stats.cache_hits,
                    misses: stats.cache_misses,
                    evictions: stats.cache_evictions,
                }
            }
        }
    }

    /// Server-side latency median and 99th percentile in milliseconds,
    /// read over the wire with `Client::stats` (daemon only).
    pub fn server_latency_ms(&mut self) -> Option<Result<(f64, f64), ServiceError>> {
        let Stack::Daemon { clients, .. } = self else {
            return None;
        };
        Some(clients[0].stats().and_then(|line| {
            let doc = serde_json::from_str(&line).map_err(|e| ServiceError::Io(e.to_string()))?;
            let field = |name: &str| {
                doc.get("stats")
                    .and_then(|s| s.get(name))
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| ServiceError::Io(format!("stats line lacks {name}: {line}")))
            };
            Ok((field("latency_p50_ms")?, field("latency_p99_ms")?))
        }))
    }
}

/// Drive `engine` over one job list, `repro batch` style, keeping each
/// result (with its replayed schedule) when `keep` is set.
pub fn run_engine_chunk(
    engine: &mut Engine,
    jobs: &[JobLine],
    window: usize,
    keep: bool,
) -> ChunkRun {
    let mut outputs = Vec::with_capacity(jobs.len());
    let mut started: VecDeque<Instant> = VecDeque::with_capacity(window);
    let (mut submit_s, mut collect_wait_s) = (0.0, 0.0);
    let chunk_start = Instant::now();
    let mut next = 0;
    while next < jobs.len() || engine.pending_len() > 0 {
        while next < jobs.len() && engine.pending_len() < window {
            let start = Instant::now();
            let parsed = RouteJob::from_json_line(&jobs[next].text);
            let submit_start = Instant::now();
            match parsed {
                Ok(job) => engine.submit(&job),
                Err(e) => engine.submit_error(e),
            };
            submit_s += submit_start.elapsed().as_secs_f64();
            started.push_back(start);
            next += 1;
        }
        let wait_start = Instant::now();
        let result = engine.collect_next().expect("a submitted job is pending");
        collect_wait_s += wait_start.elapsed().as_secs_f64();
        let line = result.outcome.to_json_line();
        let start = started.pop_front().expect("one start per pending job");
        outputs.push(JobOutput {
            line,
            result: keep.then_some(result),
            latency_ms: start.elapsed().as_secs_f64() * 1e3,
        });
    }
    ChunkRun {
        outputs: vec![outputs],
        wall_s: chunk_start.elapsed().as_secs_f64(),
        submit_s,
        collect_wait_s,
    }
}

/// Drive every client over its own job list concurrently, one harness
/// thread per connection.
fn run_daemon_chunk(
    clients: &mut [Client],
    jobs: &[Vec<JobLine>],
    window: usize,
) -> Result<ChunkRun, ServiceError> {
    let chunk_start = Instant::now();
    let outputs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(jobs)
            .map(|(client, lines)| scope.spawn(move || client_loop(client, lines, window)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(ChunkRun {
        outputs,
        wall_s: chunk_start.elapsed().as_secs_f64(),
        submit_s: 0.0,
        collect_wait_s: 0.0,
    })
}

/// One connection's closed loop: keep `window` lines in flight, read
/// outcomes back in order.
fn client_loop(
    client: &mut Client,
    lines: &[JobLine],
    window: usize,
) -> Result<Vec<JobOutput>, ServiceError> {
    let mut outputs = Vec::with_capacity(lines.len());
    let mut started: VecDeque<Instant> = VecDeque::with_capacity(window);
    for line in lines {
        if started.len() == window {
            receive(client, &mut started, &mut outputs)?;
        }
        started.push_back(Instant::now());
        client.send_line(&line.text)?;
    }
    while !started.is_empty() {
        receive(client, &mut started, &mut outputs)?;
    }
    Ok(outputs)
}

/// Read the oldest in-flight job's outcome line.
fn receive(
    client: &mut Client,
    started: &mut VecDeque<Instant>,
    outputs: &mut Vec<JobOutput>,
) -> Result<(), ServiceError> {
    let line = client
        .recv_line()?
        .ok_or_else(|| ServiceError::Io("daemon closed the connection".to_string()))?;
    let start = started.pop_front().expect("one start per line in flight");
    outputs.push(JobOutput { line, result: None, latency_ms: start.elapsed().as_secs_f64() * 1e3 });
    Ok(())
}
