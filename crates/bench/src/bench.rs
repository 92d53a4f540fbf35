//! Machine-readable benchmark reports with baseline regression gating.
//!
//! The figure sweeps in [`crate::experiments`] produce human-oriented
//! tables; this module produces the *canonical performance record* the
//! project is judged against over time: the schema-versioned `BENCH.json`
//! [`BenchReport`] of build environment metadata, the run configuration,
//! and five cell matrices.
//!
//! Every matrix holds the one cell type, [`BenchCell`]: named [`Field`]s
//! in serialized order. A static [`Matrix`] description per matrix
//! ([`PERMUTATION`], [`CIRCUIT`], [`DEFECT`], [`SERVICE`], [`DAEMON`])
//! gives its JSON array name, field names and [`Kind`]s, how many leading
//! fields form the cell key, how reports name a cell, and which summary
//! metrics are gated with what tolerance. Serializing, parsing, key
//! ordering and the baseline check are written once over those
//! descriptions; only the five `measure_*` functions know what a matrix
//! measures.
//!
//! * [`run_bench`] returns a deterministically ordered report whose JSON
//!   encoding ([`BenchReport::to_json`]) is byte-stable: with timing
//!   capture disabled ([`BenchConfig::timing`] = `false`), two runs with
//!   the same seeds produce *identical* `BENCH.json` bytes;
//!   [`run_router_smoke`] is its permutation matrix over a router list.
//! * [`BenchReport::from_json`] reads a committed baseline back, strictly.
//! * [`check_against_baseline`] diffs a fresh report against a baseline:
//!   a gated mean beyond its tolerance, a missing baseline cell, or a
//!   changed seed count fails. `repro bench --baseline <file> --check`
//!   turns a failure into exit code 1 plus a markdown delta table
//!   ([`delta_table_markdown`]).
//!
//! Depth, size and lower bound are exactly reproducible (seeded
//! workloads, deterministic routers and transpiler), so any delta is a
//! real algorithmic change; the tolerance only leaves headroom for
//! intentional small trade-offs. Wall-clock time is the one
//! machine-dependent metric, which is why it is separately tolerated and
//! optional.
//!
//! Every circuit cell is verified before its numbers are recorded — see
//! [`crate::verify`] for the tiered differential harness (grid
//! feasibility, metric recounts, structural unembedding, and statevector
//! equivalence for logical registers within the simulator cutoff).

use crate::circuits::CircuitClass;
use crate::verify::verify_transpile;
use crate::workloads::WorkloadClass;
use qroute_core::stats::{route_timed, SampleSummary};
use qroute_core::{GridRouter, RouterKind};
use qroute_topology::{Grid, Topology};
use qroute_transpiler::{TranspileOptions, Transpiler};
use rayon::prelude::*;
use serde::Serialize;
use std::cmp::Ordering;
use std::fmt::Write as _;

/// Version of the `BENCH.json` schema. Bump on any breaking change to
/// [`BenchReport`]'s serialized shape; [`BenchReport::from_json`] refuses
/// mismatched versions so a stale baseline fails loudly.
///
/// History: v1 — permutation cells only; v2 — adds the circuit-cell
/// matrix (`circuit_cells`) and the `circuit_sides` / `circuit_seeds`
/// run-configuration fields; v3 — adds the routing-service throughput
/// matrix (`service_cells`: jobs/sec and cache hit rate per side ×
/// worker count) and the `service_sides` / `service_seeds`
/// run-configuration fields; v4 — adds the non-grid topology matrix
/// (`defect_cells`: router × topology kind × side on defective grids and
/// heavy-hex lattices) and the `defect_sides` / `defect_seeds`
/// run-configuration fields; v5 — adds the routing-daemon throughput
/// matrix (`daemon_cells`: jobs and shared-cache counters per
/// concurrent-client count, replaying `examples/jobs.jsonl` through a
/// live TCP daemon) and the `daemon_clients` run-configuration field.
pub const SCHEMA_VERSION: u64 = 5;

/// Relative mean-runtime regression tolerated by the baseline check
/// (`0.25` = 25% slower), applied only when both reports captured timing.
pub const TIME_TOLERANCE: f64 = 0.25;

/// Per-class relative mean-depth regression tolerance.
///
/// Depth is deterministic for a fixed seed set, so these are headroom for
/// intentional trade-offs, not noise margins. The overlap and skinny
/// classes get more room: they are the regimes where router heuristics
/// legitimately trade depth between classes (§V — ATS wins on overlap;
/// skinny cycles are adversarial for the locality-aware router).
pub fn depth_tolerance(class: &str) -> f64 {
    if class.starts_with("overlap")
        || class.starts_with("skinny")
        || class.starts_with("sparse-pairs")
    {
        0.05
    } else {
        0.02
    }
}

/// Router-aware variant of [`depth_tolerance`], applied to permutation
/// cells by the baseline check. The pathfinder router's negotiation loop
/// redistributes depth between contested paths, so every change to its
/// cost schedule legitimately shifts cell depth a little on *all*
/// classes — its cells get the 5% headroom regardless of class.
pub fn cell_depth_tolerance(router: &str, class: &str) -> f64 {
    if router == "pathfinder" {
        0.05
    } else {
        depth_tolerance(class)
    }
}

/// Per-class relative regression tolerance for circuit-cell metrics
/// (mean routing depth added and mean swap count).
///
/// Transpile-loop metrics are deterministic but more sensitive than
/// isolated-permutation depth: a small planner or router change shifts
/// *which* rounds block, and the effect compounds across hundreds of
/// rounds. Structured local workloads (brickwork) get the tight 2%;
/// everything that routes globally gets 5%.
pub fn circuit_tolerance(class: &str) -> f64 {
    if class.starts_with("brickwork") {
        0.02
    } else {
        0.05
    }
}

/// Relative mean-depth regression tolerance for defect cells. The
/// token-swapping heuristics on irregular topologies legitimately trade
/// depth as tie-breaking changes, so they get the looser 5%.
pub const DEFECT_DEPTH_TOLERANCE: f64 = 0.05;

/// The kind of one cell field: how it is written to and read back from
/// JSON. The JSON reader returns every number as `f64`, so the matrix
/// description, not the document, says which numbers are integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A label.
    Str,
    /// A non-negative integer, written without a decimal point.
    Int,
    /// A float, written through `{:?}` (the shortest round-trip form).
    Float,
    /// A boolean.
    Bool,
    /// A [`SampleSummary`] over the cell's seeds.
    Summary,
}

/// The value of one cell field.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// A [`Kind::Str`] value.
    Str(String),
    /// A [`Kind::Int`] value.
    Int(u64),
    /// A [`Kind::Float`] value.
    Float(f64),
    /// A [`Kind::Bool`] value.
    Bool(bool),
    /// A [`Kind::Summary`] value.
    Summary(SampleSummary),
}

impl Field {
    fn kind(&self) -> Kind {
        match self {
            Field::Str(_) => Kind::Str,
            Field::Int(_) => Kind::Int,
            Field::Float(_) => Kind::Float,
            Field::Bool(_) => Kind::Bool,
            Field::Summary(_) => Kind::Summary,
        }
    }

    /// Read a value of `kind`; `None` when `v` has another shape. Integers
    /// are strict: a fractional or negative number is not truncated.
    fn read(kind: Kind, v: &serde_json::Value) -> Option<Field> {
        Some(match kind {
            Kind::Str => Field::Str(v.as_str()?.to_string()),
            Kind::Int => Field::Int(v.as_u64()?),
            Kind::Float => Field::Float(v.as_f64()?),
            Kind::Bool => Field::Bool(v.as_bool()?),
            Kind::Summary => {
                let num = |name| v.get(name)?.as_f64();
                Field::Summary(SampleSummary {
                    n: usize::try_from(v.get("n")?.as_u64()?).ok()?,
                    mean: num("mean")?,
                    min: num("min")?,
                    p50: num("p50")?,
                    p90: num("p90")?,
                    max: num("max")?,
                })
            }
        })
    }
}

impl Serialize for Field {
    fn write_json(&self, out: &mut String) {
        match self {
            Field::Str(s) => s.write_json(out),
            Field::Int(n) => n.write_json(out),
            Field::Float(x) => x.write_json(out),
            Field::Bool(b) => b.write_json(out),
            Field::Summary(s) => s.write_json(out),
        }
    }
}

/// A gated metric's relative tolerance, given the baseline cell.
pub type Tolerance = fn(&BenchCell) -> f64;

/// The static description of one cell matrix.
#[derive(Debug)]
pub struct Matrix {
    /// The report's JSON array holding this matrix's cells.
    pub name: &'static str,
    /// Field names and kinds, in serialized order.
    pub fields: &'static [(&'static str, Kind)],
    /// How many leading fields form the cell key. Cells are sorted by
    /// key, and no two cells of a matrix share one.
    pub key_len: usize,
    /// How reports name a cell: `{i}` stands for key field `i`.
    pub key_format: &'static str,
    /// The gated summary fields and their tolerances, in comparison
    /// order. The first one's sample count is the cell's seed count. The
    /// check skips a matrix that gates nothing (it is informational).
    pub gates: &'static [(&'static str, Tolerance)],
}

/// The permutation matrix: router × workload class × grid side, routing
/// seeded permutations of the square grid.
pub static PERMUTATION: Matrix = Matrix {
    name: "cells",
    fields: &[
        ("router", Kind::Str),
        ("class", Kind::Str),
        ("side", Kind::Int),
        ("qubits", Kind::Int),
        ("depth", Kind::Summary),
        ("size", Kind::Summary),
        // Max-displacement depth lower bound.
        ("lower_bound", Kind::Summary),
        // All-zero with `n = 0` when timing capture is off.
        ("time_ms", Kind::Summary),
    ],
    key_len: 3,
    key_format: "{0}/{1}/{2}x{2}",
    gates: &[
        ("depth", |c| {
            cell_depth_tolerance(c.str("router"), c.str("class"))
        }),
        ("time_ms", |_| TIME_TOLERANCE),
    ],
};

/// The circuit matrix: router × circuit class × grid side, over verified
/// transpiles (see [`crate::verify`]). Both mean routing depth added and
/// mean swap count are gated: inside the transpile loop the two trade off
/// differently than in isolated permutations.
pub static CIRCUIT: Matrix = Matrix {
    name: "circuit_cells",
    fields: &[
        ("router", Kind::Str),
        ("class", Kind::Str),
        ("side", Kind::Int),
        ("qubits", Kind::Int),
        // The logical circuit's shape (seed-independent per class).
        ("logical_qubits", Kind::Int),
        ("logical_gates", Kind::Int),
        ("logical_two_qubit", Kind::Int),
        // Whether the statevector tier ran on every seed.
        ("statevector_checked", Kind::Bool),
        ("swaps", Kind::Summary),
        // Sum of schedule depths across routing rounds.
        ("routing_depth", Kind::Summary),
        ("invocations", Kind::Summary),
        ("output_depth", Kind::Summary),
        ("time_ms", Kind::Summary),
    ],
    key_len: 3,
    key_format: "circuit:{0}/{1}/{2}x{2}",
    gates: &[
        ("routing_depth", |c| circuit_tolerance(c.str("class"))),
        ("swaps", |c| circuit_tolerance(c.str("class"))),
        ("time_ms", |_| TIME_TOLERANCE),
    ],
};

/// The non-grid topology matrix: topology kind × router × base side,
/// routing seeded permutations of the alive vertices through the
/// topology-generic path ([`qroute_core::GridRouter::route_on`]).
pub static DEFECT: Matrix = Matrix {
    name: "defect_cells",
    fields: &[
        ("topology", Kind::Str),
        // As given on the axis: `auto` stays `auto`.
        ("router", Kind::Str),
        ("side", Kind::Int),
        // Every vertex, dead ones included (ids are stable).
        ("qubits", Kind::Int),
        ("depth", Kind::Summary),
        ("size", Kind::Summary),
        // Oracle depth lower bound (max live-graph distance).
        ("lower_bound", Kind::Summary),
        ("time_ms", Kind::Summary),
    ],
    key_len: 3,
    key_format: "defect:{0}/{1}/side{2}",
    gates: &[
        ("depth", |_| DEFECT_DEPTH_TOLERANCE),
        ("time_ms", |_| TIME_TOLERANCE),
    ],
};

/// The routing-service throughput matrix: side × engine worker count.
/// Informational: the hit counts are pinned by the service test suites,
/// and throughput is machine-dependent.
pub static SERVICE: Matrix = Matrix {
    name: "service_cells",
    fields: &[
        ("side", Kind::Int),
        ("workers", Kind::Int),
        ("jobs", Kind::Int),
        ("cache_hits", Kind::Int),
        ("cache_misses", Kind::Int),
        ("cache_evictions", Kind::Int),
        ("hit_rate", Kind::Float),
        // `0.0` when timing capture is off.
        ("jobs_per_sec", Kind::Float),
    ],
    key_len: 2,
    key_format: "service:{0}x{0}/workers{1}",
    gates: &[],
};

/// The routing-daemon throughput matrix: one cell per concurrent-client
/// count. Informational, like [`SERVICE`].
pub static DAEMON: Matrix = Matrix {
    name: "daemon_cells",
    fields: &[
        ("clients", Kind::Int),
        ("jobs", Kind::Int),
        ("cache_hits", Kind::Int),
        // One miss per distinct canonical key, whatever the interleaving.
        ("cache_misses", Kind::Int),
        ("cache_evictions", Kind::Int),
        ("hit_rate", Kind::Float),
        ("jobs_per_sec", Kind::Float),
    ],
    key_len: 1,
    key_format: "daemon:clients{0}",
    gates: &[],
};

/// One measured cell of any matrix: one [`Field`] per field its
/// [`Matrix`] describes, in serialized order.
#[derive(Debug, Clone)]
pub struct BenchCell {
    matrix: &'static Matrix,
    values: Vec<Field>,
}

impl BenchCell {
    /// A cell of `matrix`. Panics unless `values` match its field kinds.
    fn new(matrix: &'static Matrix, values: Vec<Field>) -> BenchCell {
        let kinds = matrix.fields.iter().map(|&(_, kind)| kind);
        assert!(
            kinds.eq(values.iter().map(Field::kind)),
            "not a {} cell",
            matrix.name
        );
        BenchCell { matrix, values }
    }

    /// The cell's identity within its matrix: the first
    /// [`Matrix::key_len`] fields.
    pub fn key(&self) -> &[Field] {
        &self.values[..self.matrix.key_len]
    }

    /// The cell's name in check reports, e.g. `circuit:ats/qft/4x4`.
    pub fn key_string(&self) -> String {
        let mut name = self.matrix.key_format.to_string();
        for (i, field) in self.key().iter().enumerate() {
            let text = match field {
                Field::Str(s) => s.clone(),
                Field::Int(n) => n.to_string(),
                other => unreachable!("key fields are labels or integers, not {other:?}"),
            };
            name = name.replace(&format!("{{{i}}}"), &text);
        }
        name
    }

    fn index(&self, name: &str) -> usize {
        let i = self.matrix.fields.iter().position(|(n, _)| *n == name);
        i.unwrap_or_else(|| panic!("{} have no field {name:?}", self.matrix.name))
    }

    fn field(&self, name: &str) -> &Field {
        &self.values[self.index(name)]
    }

    /// The named label field. Panics when the matrix has no such label.
    pub fn str(&self, name: &str) -> &str {
        match self.field(name) {
            Field::Str(s) => s,
            other => panic!("{name} is {other:?}, not a label"),
        }
    }

    /// The named integer field. Panics when the matrix has no such integer.
    pub fn int(&self, name: &str) -> u64 {
        match self.field(name) {
            Field::Int(n) => *n,
            other => panic!("{name} is {other:?}, not an integer"),
        }
    }

    /// The named float field. Panics when the matrix has no such float.
    pub fn float(&self, name: &str) -> f64 {
        match self.field(name) {
            Field::Float(x) => *x,
            other => panic!("{name} is {other:?}, not a float"),
        }
    }

    /// The named boolean field. Panics when the matrix has no such boolean.
    pub fn flag(&self, name: &str) -> bool {
        match self.field(name) {
            Field::Bool(b) => *b,
            other => panic!("{name} is {other:?}, not a boolean"),
        }
    }

    /// The named summary field. Panics when the matrix has no such summary.
    pub fn summary(&self, name: &str) -> &SampleSummary {
        match self.field(name) {
            Field::Summary(s) => s,
            other => panic!("{name} is {other:?}, not a summary"),
        }
    }

    /// The named summary field, mutably (e.g. to tamper with a baseline
    /// in a test). Panics when the matrix has no such summary.
    pub fn summary_mut(&mut self, name: &str) -> &mut SampleSummary {
        let i = self.index(name);
        match &mut self.values[i] {
            Field::Summary(s) => s,
            other => panic!("{name} is {other:?}, not a summary"),
        }
    }
}

/// Cells sort by key, field by field.
fn key_order(a: &BenchCell, b: &BenchCell) -> Ordering {
    let field_order = |(x, y): (&Field, &Field)| match (x, y) {
        (Field::Str(x), Field::Str(y)) => x.cmp(y),
        (Field::Int(x), Field::Int(y)) => x.cmp(y),
        _ => unreachable!("key fields are labels or integers"),
    };
    a.key()
        .iter()
        .zip(b.key())
        .map(field_order)
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

impl Serialize for BenchCell {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, ((name, _), value)) in self.matrix.fields.iter().zip(&self.values).enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::write_json_string(name, out);
            out.push(':');
            value.write_json(out);
        }
        out.push('}');
    }
}

/// Build/environment metadata recorded in every report.
#[derive(Debug, Clone, Serialize)]
pub struct BenchEnv {
    /// Crate version of the harness that produced the report.
    pub version: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Whether the harness was compiled with debug assertions (a `true`
    /// here means timings are not representative of release builds).
    pub debug_assertions: bool,
}

impl BenchEnv {
    /// Capture the current build environment.
    pub fn capture() -> BenchEnv {
        BenchEnv {
            version: env!("CARGO_PKG_VERSION").to_string(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            debug_assertions: cfg!(debug_assertions),
        }
    }
}

/// Configuration of a benchmark run.
#[derive(Debug, Clone, Serialize)]
pub struct BenchConfig {
    /// Square-grid sides in the permutation matrix.
    pub sides: Vec<usize>,
    /// Seeds per permutation cell (`0..seeds`).
    pub seeds: u64,
    /// Whether wall-clock time was captured. `false` zeroes the
    /// `time_ms` summaries, making the report byte-stable across runs —
    /// timing is the only nondeterministic input to the schema.
    pub timing: bool,
    /// Square-grid sides in the circuit matrix (must all fit the QASM
    /// replay fixture's 10 qubits, i.e. side ≥ 4).
    pub circuit_sides: Vec<usize>,
    /// Seeds per circuit cell (`0..circuit_seeds`).
    pub circuit_seeds: u64,
    /// Square-grid sides in the routing-service throughput matrix.
    pub service_sides: Vec<usize>,
    /// Seeds per workload class in each service batch (`0..service_seeds`).
    pub service_seeds: u64,
    /// Base sides in the non-grid topology matrix (a side-`s` entry means
    /// an `s × s` defective grid and an `s × s` heavy-hex lattice).
    pub defect_sides: Vec<usize>,
    /// Seeds per defect cell (`0..defect_seeds`).
    pub defect_seeds: u64,
    /// Concurrent-client counts in the daemon throughput matrix (each
    /// client replays `examples/jobs.jsonl` over its own connection).
    pub daemon_clients: Vec<usize>,
}

impl BenchConfig {
    /// The canonical full matrix: permutation sides {4, 8, 16, 32} at 5
    /// seeds, circuit sides {4, 8} at 3 seeds, with timing. Side 32
    /// became tractable for every router once the distance-oracle
    /// overhaul removed the per-call `O(n²)` APSP tables; a side-64
    /// permutation matrix works too (`--sides 64 --circuit-sides 8
    /// --seeds 1 --no-time` — `--sides` alone would also point the
    /// *circuit* matrix at side 64, and a full-occupancy 4096-qubit QFT
    /// through the transpile loop is not a bounded-time proposition).
    /// Circuit cells stop at side 8 because a full-occupancy QFT already
    /// drives thousands of routing rounds there.
    pub fn full() -> BenchConfig {
        BenchConfig {
            sides: vec![4, 8, 16, 32],
            seeds: 5,
            timing: true,
            circuit_sides: vec![4, 8],
            circuit_seeds: 3,
            service_sides: vec![8, 16],
            service_seeds: 3,
            defect_sides: vec![8, 16],
            defect_seeds: 3,
            daemon_clients: vec![1, 4, 8],
        }
    }

    /// The CI gate configuration: the same sides, fewer seeds, and no
    /// timing — so the committed baseline compares byte-for-byte across
    /// machines.
    pub fn quick() -> BenchConfig {
        BenchConfig {
            sides: vec![4, 8, 16, 32],
            seeds: 2,
            timing: false,
            circuit_sides: vec![4, 8],
            circuit_seeds: 2,
            service_sides: vec![8, 16],
            service_seeds: 2,
            defect_sides: vec![8, 16],
            defect_seeds: 2,
            daemon_clients: vec![1, 4, 8],
        }
    }
}

/// The topology-kind axis of the defect matrix.
pub const DEFECT_TOPOLOGY_AXIS: [&str; 2] = ["defect", "heavy-hex"];

/// The router axis of the defect matrix: `ats` (the topology-generic
/// router) and `auto` (pinning the dispatch fallback on non-grid
/// topologies).
pub const DEFECT_ROUTER_AXIS: [&str; 2] = ["ats", "auto"];

/// The deterministic defect pattern for a `side × side` grid: interior
/// vertices at `(r, c)` for `r, c ∈ {1, 5, 9, …}`. Scattered isolated
/// holes — the residual grid always stays connected.
pub fn defect_pattern(side: usize) -> Vec<usize> {
    let grid = Grid::new(side, side);
    let mut defects = Vec::new();
    for r in (1..side).step_by(4) {
        for c in (1..side).step_by(4) {
            defects.push(grid.index(r, c));
        }
    }
    defects
}

/// Build the benchmark topology for one kind label and base side.
pub fn defect_topology(kind: &str, side: usize) -> Topology {
    match kind {
        "defect" => Topology::grid_with_defects(Grid::new(side, side), &defect_pattern(side), &[])
            .expect("the scattered interior pattern is always valid"),
        "heavy-hex" => Topology::heavy_hex(side, side),
        other => panic!("unknown defect-matrix topology kind {other:?}"),
    }
}

/// A seeded uniform permutation of the alive vertices of `topology`
/// (fixing the dead ones).
fn alive_random(topology: &Topology, seed: u64) -> qroute_perm::Permutation {
    let alive: Vec<usize> = (0..topology.len())
        .filter(|&v| topology.is_alive(v))
        .collect();
    let shuffled = qroute_perm::generators::random(alive.len(), seed);
    let mut map: Vec<usize> = (0..topology.len()).collect();
    for (k, &v) in alive.iter().enumerate() {
        map[v] = alive[shuffled.apply(k)];
    }
    qroute_perm::Permutation::from_vec(map).expect("permutation of the alive vertices")
}

/// Measure one [`DEFECT`] cell: route `seeds` random alive-vertex
/// permutations of the topology, verify every schedule, and summarize.
pub fn measure_defect_cell(
    side: usize,
    kind: &str,
    router_label: &str,
    seeds: u64,
    timing: bool,
) -> BenchCell {
    let topology = defect_topology(kind, side);
    let graph = topology.graph();
    let mut depths = Vec::with_capacity(seeds as usize);
    let mut sizes = Vec::with_capacity(seeds as usize);
    let mut lbs = Vec::with_capacity(seeds as usize);
    let mut times = Vec::with_capacity(seeds as usize);
    for seed in 0..seeds {
        let pi = alive_random(&topology, seed);
        let router = match router_label {
            "auto" => qroute_service::select_router_on(&topology, &pi),
            label => label.parse::<RouterKind>().expect("valid router label"),
        };
        let t0 = std::time::Instant::now();
        let schedule = router
            .route_on(&topology, &pi)
            .expect("the defect-matrix routers accept any connected topology");
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            schedule.realizes(&pi),
            "{router_label} produced a wrong schedule on {topology}"
        );
        schedule
            .validate_on(&graph)
            .unwrap_or_else(|e| panic!("{router_label} infeasible on {topology}: {e:?}"));
        let oracle = topology.oracle(&graph);
        depths.push(schedule.depth() as f64);
        sizes.push(schedule.size() as f64);
        lbs.push(qroute_perm::metrics::depth_lower_bound_oracle(&oracle, &pi) as f64);
        if timing {
            times.push(elapsed_ms);
        }
    }
    BenchCell::new(
        &DEFECT,
        vec![
            Field::Str(kind.to_string()),
            Field::Str(router_label.to_string()),
            Field::Int(side as u64),
            Field::Int(topology.len() as u64),
            Field::Summary(SampleSummary::from_samples(&depths)),
            Field::Summary(SampleSummary::from_samples(&sizes)),
            Field::Summary(SampleSummary::from_samples(&lbs)),
            Field::Summary(SampleSummary::from_samples(&times)),
        ],
    )
}

/// The worker-count axis of the service throughput matrix. Outcome
/// metrics are worker-count invariant by the engine's determinism
/// guarantee; only `jobs_per_sec` varies.
pub const SERVICE_WORKER_AXIS: [usize; 2] = [1, 4];

/// The standard service batch for one side: two passes over every
/// workload class × seed with `auto` routing — the repetitive shape a
/// transpilation campaign produces, so the second pass is all cache hits.
pub fn service_jobs(side: usize, seeds: u64) -> Vec<qroute_service::RouteJob> {
    let mut jobs = Vec::new();
    for _pass in 0..2 {
        for class in WorkloadClass::all_classes() {
            for seed in 0..seeds {
                jobs.push(
                    qroute_service::RouteJob::from_class(side, "auto", &class.label(), seed)
                        .expect("bench class labels are valid service classes"),
                );
            }
        }
    }
    jobs
}

/// Measure one [`SERVICE`] cell: push the [`service_jobs`] batch through
/// a [`qroute_service::Engine`] with `workers` threads.
///
/// Hit/miss/evict counts are deterministic (the engine makes every cache
/// decision in job order), so they are byte-stable in the committed
/// baseline; `jobs_per_sec` is wall-clock-derived and zeroed when timing
/// capture is off, exactly like the `time_ms` summaries elsewhere.
pub fn measure_service_cell(side: usize, workers: usize, seeds: u64, timing: bool) -> BenchCell {
    let mut engine = qroute_service::Engine::new(
        qroute_service::EngineConfig::builder()
            .workers(workers)
            .build()
            .expect("the service worker axis is valid"),
    );
    let jobs = service_jobs(side, seeds);
    let job_count = jobs.len();
    let t0 = std::time::Instant::now();
    let outcomes = engine.run(jobs);
    let elapsed = t0.elapsed().as_secs_f64();
    assert!(
        outcomes.iter().all(|o| o.error.is_none()),
        "service bench batch must route cleanly"
    );
    let stats = engine.cache_stats();
    BenchCell::new(
        &SERVICE,
        vec![
            Field::Int(side as u64),
            Field::Int(workers as u64),
            Field::Int(job_count as u64),
            Field::Int(stats.hits),
            Field::Int(stats.misses),
            Field::Int(stats.evictions),
            Field::Float(stats.hit_rate()),
            Field::Float(if timing && elapsed > 0.0 {
                job_count as f64 / elapsed
            } else {
                0.0
            }),
        ],
    )
}

/// The JSONL job stream every daemon bench client replays — the
/// committed example batch, so the daemon matrix exercises exactly the
/// wire format the README documents.
pub const DAEMON_BENCH_JOBS: &str = include_str!("../../../examples/jobs.jsonl");

/// Measure one [`DAEMON`] cell: bind an in-process daemon on an
/// ephemeral port, replay [`DAEMON_BENCH_JOBS`] from `clients`
/// concurrent connections, and snapshot the shared-cache counters after
/// every client drained.
///
/// The shared-cache counters are deterministic regardless of client
/// interleaving: the shard-locked get-or-insert admits exactly one miss
/// per distinct canonical key (the capacity far exceeds the distinct
/// keys in the example batch, so nothing evicts), and every other lookup
/// hits. `jobs_per_sec` is zeroed when timing capture is off.
pub fn measure_daemon_cell(clients: usize, timing: bool) -> BenchCell {
    let daemon = qroute_service::Daemon::bind(
        "127.0.0.1:0",
        qroute_service::EngineConfig::builder()
            .build()
            .expect("the default engine config is valid"),
    )
    .expect("bind the bench daemon on an ephemeral port");
    let addr = daemon.local_addr();
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client =
                    qroute_service::Client::connect(addr).expect("connect to the bench daemon");
                let outcomes = client
                    .route_lines(DAEMON_BENCH_JOBS.lines())
                    .expect("replay the example batch");
                assert!(
                    outcomes.iter().all(|l| l.ends_with("\"error\":null}")),
                    "daemon bench batch must route cleanly"
                );
                outcomes.len()
            })
        })
        .collect();
    let jobs: usize = handles
        .into_iter()
        .map(|h| h.join().expect("bench client thread"))
        .sum();
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = daemon.stats();
    daemon.shutdown();
    daemon.join();
    BenchCell::new(
        &DAEMON,
        vec![
            Field::Int(clients as u64),
            Field::Int(jobs as u64),
            Field::Int(stats.cache_hits),
            Field::Int(stats.cache_misses),
            Field::Int(stats.cache_evictions),
            Field::Float(stats.hit_rate),
            Field::Float(if timing && elapsed > 0.0 {
                jobs as f64 / elapsed
            } else {
                0.0
            }),
        ],
    )
}

/// A complete benchmark report — the `BENCH.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Build environment metadata.
    pub env: BenchEnv,
    /// Run configuration.
    pub config: BenchConfig,
    /// The [`PERMUTATION`] matrix, sorted by (router, class, side).
    pub cells: Vec<BenchCell>,
    /// The [`CIRCUIT`] matrix, sorted by (router, class, side).
    pub circuit_cells: Vec<BenchCell>,
    /// The [`DEFECT`] matrix, sorted by (topology, router, side).
    pub defect_cells: Vec<BenchCell>,
    /// The [`SERVICE`] matrix, sorted by (side, workers).
    pub service_cells: Vec<BenchCell>,
    /// The [`DAEMON`] matrix, sorted by client count.
    pub daemon_cells: Vec<BenchCell>,
}

/// The router axis of the permutation benchmark matrix: every
/// [`RouterKind`] in its default configuration.
pub fn bench_routers() -> Vec<RouterKind> {
    RouterKind::all_default()
}

/// The router axis of the circuit benchmark matrix: the routers that
/// matter inside the transpile loop (§V compares exactly these — the
/// paper router, the naive baseline, the hybrid clamp, and ATS). The
/// remaining kinds are permutation-level reference implementations.
pub fn circuit_routers() -> Vec<RouterKind> {
    vec![
        RouterKind::locality_aware(),
        RouterKind::naive(),
        RouterKind::hybrid(),
        RouterKind::Ats,
    ]
}

/// Measure one [`CIRCUIT`] cell: transpile `seeds` seeded instances,
/// verify every transpile through the differential harness (panicking on
/// any verification failure — a benchmark must not record wrong
/// answers), and summarize each metric's per-seed samples.
pub fn measure_circuit_cell(
    side: usize,
    class: CircuitClass,
    router: &RouterKind,
    seeds: u64,
    timing: bool,
) -> BenchCell {
    let grid = Grid::new(side, side);
    let mut swaps = Vec::with_capacity(seeds as usize);
    let mut routing_depth = Vec::with_capacity(seeds as usize);
    let mut invocations = Vec::with_capacity(seeds as usize);
    let mut output_depth = Vec::with_capacity(seeds as usize);
    let mut times = Vec::with_capacity(seeds as usize);
    let mut logical_shape = (0usize, 0usize, 0usize);
    let mut statevector_checked = true;
    for seed in 0..seeds {
        let (logical, layout) = class.generate(grid, seed);
        logical_shape = (
            logical.num_qubits(),
            logical.size(),
            logical.two_qubit_count(),
        );
        let transpiler = Transpiler::new(
            grid,
            TranspileOptions { router: router.clone(), initial_layout: layout },
        );
        let t0 = std::time::Instant::now();
        let res = transpiler.run(&logical);
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let summary = verify_transpile(grid, &logical, &res).unwrap_or_else(|e| {
            panic!(
                "{} failed verification on {}/{side}x{side}/seed {seed}: {e}",
                router.label(),
                class.label()
            )
        });
        statevector_checked &= summary.statevector_checked;
        swaps.push(res.swap_count as f64);
        routing_depth.push(res.routing_depth_added as f64);
        invocations.push(res.routing_invocations as f64);
        output_depth.push(res.physical.depth() as f64);
        if timing {
            times.push(elapsed_ms);
        }
    }
    BenchCell::new(
        &CIRCUIT,
        vec![
            Field::Str(router.label().to_string()),
            Field::Str(class.label()),
            Field::Int(side as u64),
            Field::Int(grid.len() as u64),
            Field::Int(logical_shape.0 as u64),
            Field::Int(logical_shape.1 as u64),
            Field::Int(logical_shape.2 as u64),
            Field::Bool(statevector_checked),
            Field::Summary(SampleSummary::from_samples(&swaps)),
            Field::Summary(SampleSummary::from_samples(&routing_depth)),
            Field::Summary(SampleSummary::from_samples(&invocations)),
            Field::Summary(SampleSummary::from_samples(&output_depth)),
            Field::Summary(SampleSummary::from_samples(&times)),
        ],
    )
}

/// Measure one [`PERMUTATION`] cell: route `seeds` instances, verify
/// every schedule, and summarize each metric's per-seed samples.
pub fn measure_bench_cell(
    side: usize,
    class: WorkloadClass,
    router: &RouterKind,
    seeds: u64,
    timing: bool,
) -> BenchCell {
    let grid = Grid::new(side, side);
    let mut depths = Vec::with_capacity(seeds as usize);
    let mut sizes = Vec::with_capacity(seeds as usize);
    let mut lbs = Vec::with_capacity(seeds as usize);
    let mut times = Vec::with_capacity(seeds as usize);
    for seed in 0..seeds {
        let pi = class.generate(grid, seed);
        let timed = route_timed(grid, &pi, router);
        assert!(
            timed.schedule.realizes(&pi),
            "{} produced a wrong schedule",
            router.label()
        );
        depths.push(timed.stats.depth as f64);
        sizes.push(timed.stats.size as f64);
        lbs.push(timed.stats.lower_bound as f64);
        if timing {
            times.push(timed.route_ms);
        }
    }
    BenchCell::new(
        &PERMUTATION,
        vec![
            Field::Str(router.label().to_string()),
            Field::Str(class.label()),
            Field::Int(side as u64),
            Field::Int(grid.len() as u64),
            Field::Summary(SampleSummary::from_samples(&depths)),
            Field::Summary(SampleSummary::from_samples(&sizes)),
            Field::Summary(SampleSummary::from_samples(&lbs)),
            Field::Summary(SampleSummary::from_samples(&times)),
        ],
    )
}

/// Every `(a, b, c)` job over three axes, `a` outermost.
fn product<A: Copy, B: Copy, C: Clone>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    let mut jobs = Vec::with_capacity(a.len() * b.len() * c.len());
    for &x in a {
        for &y in b {
            for z in c {
                jobs.push((x, y, z.clone()));
            }
        }
    }
    jobs
}

/// Measure every job of one matrix and return the cells in key order.
///
/// Parallel runs measure via rayon, which only untimed runs may use
/// (depth, size and counters do not depend on wall-clock); timed runs
/// measure serially so time samples are not distorted by core contention
/// — the same discipline [`crate::experiments::figure5`] applies.
fn measure_matrix<J: Send>(
    jobs: Vec<J>,
    parallel: bool,
    measure: impl Fn(J) -> BenchCell + Send + Sync,
) -> Vec<BenchCell> {
    let mut cells: Vec<BenchCell> = if parallel {
        jobs.into_par_iter().map(measure).collect()
    } else {
        jobs.into_iter().map(measure).collect()
    };
    cells.sort_by(key_order);
    cells
}

/// Run the full benchmark: the permutation matrix over
/// [`bench_routers`], the circuit matrix ([`circuit_routers`] ×
/// [`CircuitClass::all_classes`] × `config.circuit_sides`), the defect,
/// service and daemon matrices, each in key order.
pub fn run_bench(config: &BenchConfig) -> BenchReport {
    let (timing, parallel) = (config.timing, !config.timing);
    let mut report = run_router_smoke(config, &bench_routers());
    let jobs = product(
        &config.circuit_sides,
        &CircuitClass::all_classes(),
        &circuit_routers(),
    );
    report.circuit_cells = measure_matrix(jobs, parallel, |(side, class, router)| {
        measure_circuit_cell(side, class, &router, config.circuit_seeds, timing)
    });
    let jobs = product(
        &config.defect_sides,
        &DEFECT_TOPOLOGY_AXIS,
        &DEFECT_ROUTER_AXIS,
    );
    report.defect_cells = measure_matrix(jobs, parallel, |(side, kind, router)| {
        measure_defect_cell(side, kind, router, config.defect_seeds, timing)
    });
    // Service and daemon cells always run serially: each cell owns a
    // worker pool (a daemon also its client threads), and timed
    // throughput must not fight rayon for cores.
    let jobs: Vec<(usize, usize)> = config
        .service_sides
        .iter()
        .flat_map(|&side| SERVICE_WORKER_AXIS.map(|workers| (side, workers)))
        .collect();
    report.service_cells = measure_matrix(jobs, false, |(side, workers)| {
        measure_service_cell(side, workers, config.service_seeds, timing)
    });
    report.daemon_cells = measure_matrix(config.daemon_clients.clone(), false, |clients| {
        measure_daemon_cell(clients, timing)
    });
    report
}

/// The permutation matrix alone, restricted to `routers`, for router
/// smoke checks (`repro bench --routers`). Reuses the run configuration
/// (sides, seeds, timing) and the report schema, so the output is a valid
/// `BENCH.json` whose other matrices are empty.
pub fn run_router_smoke(config: &BenchConfig, routers: &[RouterKind]) -> BenchReport {
    let jobs = product(&config.sides, &WorkloadClass::bench_classes(), routers);
    let cells = measure_matrix(jobs, !config.timing, |(side, class, router)| {
        measure_bench_cell(side, class, &router, config.seeds, config.timing)
    });
    BenchReport {
        schema_version: SCHEMA_VERSION,
        env: BenchEnv::capture(),
        config: config.clone(),
        cells,
        circuit_cells: Vec::new(),
        defect_cells: Vec::new(),
        service_cells: Vec::new(),
        daemon_cells: Vec::new(),
    }
}

/// The `name` member of `v` converted by `read`, or an error naming the
/// field when it is absent or `read` rejects it.
fn member<'a, T>(
    v: &'a serde_json::Value,
    name: &str,
    read: impl FnOnce(&'a serde_json::Value) -> Option<T>,
) -> Result<T, String> {
    v.get(name)
        .and_then(read)
        .ok_or_else(|| format!("field {name:?} is missing or malformed"))
}

/// Read one matrix's cells back from a parsed report.
fn read_matrix(doc: &serde_json::Value, matrix: &'static Matrix) -> Result<Vec<BenchCell>, String> {
    let items = member(doc, matrix.name, serde_json::Value::as_array)?;
    let mut cells: Vec<BenchCell> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let values = matrix
            .fields
            .iter()
            .map(|&(name, kind)| member(item, name, |v| Field::read(kind, v)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{}[{i}]: {e}", matrix.name))?;
        let cell = BenchCell::new(matrix, values);
        if cells.iter().any(|c| c.key() == cell.key()) {
            return Err(format!(
                "{}: duplicate cell {}",
                matrix.name,
                cell.key_string()
            ));
        }
        cells.push(cell);
    }
    Ok(cells)
}

impl BenchReport {
    /// The five matrices with their descriptions, in serialized order.
    fn matrices(&self) -> [(&'static Matrix, &[BenchCell]); 5] {
        [
            (&PERMUTATION, &self.cells),
            (&CIRCUIT, &self.circuit_cells),
            (&DEFECT, &self.defect_cells),
            (&SERVICE, &self.service_cells),
            (&DAEMON, &self.daemon_cells),
        ]
    }

    /// Serialize to the canonical `BENCH.json` encoding: pretty-printed
    /// JSON with declaration-ordered keys and a trailing newline. For a
    /// fixed configuration with timing disabled, the output is
    /// byte-identical across runs and machines.
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("serialize bench report");
        json.push('\n');
        json
    }

    /// Parse a report back from its JSON encoding (e.g. a committed
    /// baseline). Rejects a schema version other than [`SCHEMA_VERSION`],
    /// a missing or malformed field (a fractional integer included), and
    /// two cells of one matrix with the same key.
    pub fn from_json(input: &str) -> Result<BenchReport, String> {
        use serde_json::Value;
        let doc = serde_json::from_str(input).map_err(|e| e.to_string())?;
        let schema_version = member(&doc, "schema_version", Value::as_u64)?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {schema_version} != supported {SCHEMA_VERSION}; regenerate the baseline"
            ));
        }
        let env = member(&doc, "env", Some)?;
        let config = member(&doc, "config", Some)?;
        let text = |name| member(env, name, |v| v.as_str().map(String::from));
        let count = |name| member(config, name, Value::as_u64);
        let sizes = |name| {
            member(config, name, |v| {
                v.as_array()?
                    .iter()
                    .map(|x| usize::try_from(x.as_u64()?).ok())
                    .collect()
            })
        };
        Ok(BenchReport {
            schema_version,
            env: BenchEnv {
                version: text("version")?,
                os: text("os")?,
                arch: text("arch")?,
                debug_assertions: member(env, "debug_assertions", Value::as_bool)?,
            },
            config: BenchConfig {
                sides: sizes("sides")?,
                seeds: count("seeds")?,
                timing: member(config, "timing", Value::as_bool)?,
                circuit_sides: sizes("circuit_sides")?,
                circuit_seeds: count("circuit_seeds")?,
                service_sides: sizes("service_sides")?,
                service_seeds: count("service_seeds")?,
                defect_sides: sizes("defect_sides")?,
                defect_seeds: count("defect_seeds")?,
                daemon_clients: sizes("daemon_clients")?,
            },
            cells: read_matrix(&doc, &PERMUTATION)?,
            circuit_cells: read_matrix(&doc, &CIRCUIT)?,
            defect_cells: read_matrix(&doc, &DEFECT)?,
            service_cells: read_matrix(&doc, &SERVICE)?,
            daemon_cells: read_matrix(&doc, &DAEMON)?,
        })
    }
}

/// One gated-metric comparison between a current cell and its baseline
/// cell.
#[derive(Debug, Clone)]
pub struct CellDelta {
    /// The cell's name ([`BenchCell::key_string`]).
    pub cell: String,
    /// The compared summary field, e.g. `"depth"` or `"time_ms"`.
    pub metric: &'static str,
    /// Baseline mean.
    pub baseline_mean: f64,
    /// Current mean.
    pub current_mean: f64,
    /// Relative change (`0.10` = 10% worse than baseline).
    pub delta: f64,
    /// Tolerance the delta was judged against.
    pub tolerance: f64,
    /// `true` when `delta > tolerance`.
    pub regressed: bool,
}

/// Outcome of a baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Every metric comparison made (the gated metrics always; time when
    /// both reports captured timing).
    pub deltas: Vec<CellDelta>,
    /// Baseline cell keys absent from the current report. A non-empty
    /// list fails the check: a gate that silently drops cells is no gate.
    pub missing_in_current: Vec<String>,
    /// Current cell keys absent from the baseline (informational — new
    /// routers/classes/sides are expected to appear before the baseline
    /// is refreshed).
    pub new_in_current: Vec<String>,
    /// Cells whose seed counts differ between the reports. Means over
    /// different sample sets are not comparable (a delta could come
    /// purely from the extra seeds), so these fail the check instead of
    /// being diffed.
    pub seed_mismatches: Vec<String>,
}

impl CheckOutcome {
    /// The comparisons that exceeded tolerance.
    pub fn regressions(&self) -> Vec<&CellDelta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// `true` when no metric regressed, no baseline cell went missing,
    /// and every compared cell used the same seed count.
    pub fn passed(&self) -> bool {
        self.missing_in_current.is_empty()
            && self.seed_mismatches.is_empty()
            && self.regressions().is_empty()
    }
}

/// Compare `current` against `baseline` cell by cell, over every matrix
/// that gates a metric ([`Matrix::gates`]); size, lower bound,
/// invocations, output depth and the informational matrices are recorded
/// but not gated.
pub fn check_against_baseline(current: &BenchReport, baseline: &BenchReport) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    let matrices = baseline.matrices().into_iter().zip(current.matrices());
    for ((matrix, base_cells), (_, cur_cells)) in matrices {
        let Some(&(seed_metric, _)) = matrix.gates.first() else {
            continue;
        };
        for base in base_cells {
            let Some(cur) = cur_cells.iter().find(|c| c.key() == base.key()) else {
                outcome.missing_in_current.push(base.key_string());
                continue;
            };
            let (cur_n, base_n) = (cur.summary(seed_metric).n, base.summary(seed_metric).n);
            if cur_n != base_n {
                outcome.seed_mismatches.push(format!(
                    "{}: {cur_n} seeds vs baseline {base_n}",
                    base.key_string()
                ));
                continue;
            }
            for &(metric, tolerance) in matrix.gates {
                let (cur_s, base_s) = (cur.summary(metric), base.summary(metric));
                // Only timed runs record time samples; an empty summary
                // has no mean to compare.
                if cur_s.n == 0 || base_s.n == 0 {
                    continue;
                }
                let (delta, tolerance) = (cur_s.mean_delta(base_s), tolerance(base));
                outcome.deltas.push(CellDelta {
                    cell: base.key_string(),
                    metric,
                    baseline_mean: base_s.mean,
                    current_mean: cur_s.mean,
                    delta,
                    tolerance,
                    regressed: delta > tolerance,
                });
            }
        }
        outcome.new_in_current.extend(
            cur_cells
                .iter()
                .filter(|c| !base_cells.iter().any(|b| b.key() == c.key()))
                .map(BenchCell::key_string),
        );
    }
    outcome
}

/// Render a markdown delta table for the given comparisons (typically
/// [`CheckOutcome::regressions`]), worst first.
pub fn delta_table_markdown(deltas: &[&CellDelta]) -> String {
    let mut out = String::from(
        "| cell | metric | baseline | current | delta | tolerance |\n\
         |---|---|---|---|---|---|\n",
    );
    let mut sorted = deltas.to_vec();
    sorted.sort_by(|a, b| b.delta.partial_cmp(&a.delta).unwrap_or(Ordering::Equal));
    for d in sorted {
        let _ = writeln!(
            out,
            "| {} | {} | {:.3} | {:.3} | {:+.1}% | {:.1}% |",
            d.cell,
            d.metric,
            d.baseline_mean,
            d.current_mean,
            d.delta * 100.0,
            d.tolerance * 100.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchConfig {
        BenchConfig {
            sides: vec![4],
            seeds: 2,
            timing: false,
            circuit_sides: vec![4],
            circuit_seeds: 1,
            service_sides: vec![4],
            service_seeds: 1,
            defect_sides: vec![5],
            defect_seeds: 1,
            daemon_clients: vec![1, 2],
        }
    }

    #[test]
    fn report_covers_full_matrix() {
        let report = run_bench(&tiny_config());
        let routers = bench_routers().len();
        let classes = WorkloadClass::bench_classes().len();
        assert_eq!(report.cells.len(), routers * classes);
        assert_eq!(
            report.circuit_cells.len(),
            circuit_routers().len() * CircuitClass::all_classes().len()
        );
        assert_eq!(
            report.defect_cells.len(),
            DEFECT_TOPOLOGY_AXIS.len() * DEFECT_ROUTER_AXIS.len()
        );
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        // Canonical order: sorted by (router, class, side), both matrices.
        let keys: Vec<_> = report
            .cells
            .iter()
            .map(|c| {
                (
                    c.str("router").to_string(),
                    c.str("class").to_string(),
                    c.int("side"),
                )
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let ckeys: Vec<_> = report
            .circuit_cells
            .iter()
            .map(|c| {
                (
                    c.str("router").to_string(),
                    c.str("class").to_string(),
                    c.int("side"),
                )
            })
            .collect();
        let mut csorted = ckeys.clone();
        csorted.sort();
        assert_eq!(ckeys, csorted);
    }

    #[test]
    fn circuit_cells_record_verified_metrics() {
        let cell = measure_circuit_cell(
            4,
            CircuitClass::QasmReplay,
            &RouterKind::locality_aware(),
            2,
            false,
        );
        assert_eq!(cell.int("qubits"), 16);
        assert_eq!(cell.int("logical_qubits"), 10);
        assert!(cell.int("logical_two_qubit") > 0);
        // 10 logical qubits is within the simulator cutoff: every seed
        // was statevector-verified against the logical circuit.
        assert!(cell.flag("statevector_checked"));
        assert!(
            cell.summary("swaps").mean > 0.0,
            "scattered replay must route"
        );
        assert_eq!(cell.summary("swaps").n, 2);
        assert_eq!(
            cell.summary("time_ms").n,
            0,
            "untimed cell records no samples"
        );

        // Full-occupancy classes exceed the cutoff but still pass the
        // structural verification tiers.
        let wide = measure_circuit_cell(4, CircuitClass::SparseRandom, &RouterKind::Ats, 1, false);
        assert!(!wide.flag("statevector_checked"));
        assert_eq!(wide.int("logical_qubits"), 16);
    }

    #[test]
    fn service_cells_cover_the_worker_axis_with_invariant_cache_metrics() {
        let report = run_bench(&tiny_config());
        assert_eq!(report.service_cells.len(), SERVICE_WORKER_AXIS.len());
        let keys: Vec<_> = report
            .service_cells
            .iter()
            .map(|c| (c.int("side"), c.int("workers")))
            .collect();
        assert_eq!(keys, vec![(4, 1), (4, 4)]);
        let reference = &report.service_cells[0];
        let jobs = service_jobs(4, 1).len() as u64;
        assert_eq!(reference.int("jobs"), jobs);
        // Two passes over the class pool: at least the entire second pass
        // hits (cross-class canonical collisions can only add more — on a
        // 4x4 grid `random`, `block4` and `overlap8s4` even generate the
        // same instance).
        assert_eq!(
            reference.int("cache_hits") + reference.int("cache_misses"),
            jobs
        );
        assert!(reference.int("cache_hits") >= jobs / 2, "{reference:?}");
        assert!(reference.int("cache_misses") >= 1, "{reference:?}");
        assert!(reference.float("hit_rate") >= 0.5 && reference.float("hit_rate") < 1.0);
        assert_eq!(
            reference.float("jobs_per_sec"),
            0.0,
            "untimed cells record no throughput"
        );
        for cell in &report.service_cells[1..] {
            assert_eq!(cell.int("cache_hits"), reference.int("cache_hits"));
            assert_eq!(cell.int("cache_misses"), reference.int("cache_misses"));
            assert_eq!(
                cell.int("cache_evictions"),
                reference.int("cache_evictions")
            );
        }
        // Timed measurement produces a real throughput number.
        let timed = measure_service_cell(4, 2, 1, true);
        assert!(timed.float("jobs_per_sec") > 0.0);
    }

    #[test]
    fn daemon_cells_cover_the_client_axis_with_deterministic_cache_counters() {
        let report = run_bench(&tiny_config());
        assert_eq!(report.daemon_cells.len(), 2);
        let keys: Vec<_> = report
            .daemon_cells
            .iter()
            .map(|c| c.int("clients"))
            .collect();
        assert_eq!(keys, vec![1, 2]);
        let batch_len = DAEMON_BENCH_JOBS
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count() as u64;
        let single = &report.daemon_cells[0];
        assert_eq!(single.int("jobs"), batch_len);
        assert_eq!(
            single.int("cache_hits") + single.int("cache_misses"),
            batch_len
        );
        assert_eq!(single.int("cache_evictions"), 0, "{single:?}");
        assert_eq!(
            single.float("jobs_per_sec"),
            0.0,
            "untimed cells record no throughput"
        );
        // The distinct-key count is interleaving-independent: N clients
        // replaying the same batch miss exactly once per distinct key.
        let double = &report.daemon_cells[1];
        assert_eq!(double.int("jobs"), 2 * batch_len);
        assert_eq!(double.int("cache_misses"), single.int("cache_misses"));
        assert_eq!(
            double.int("cache_hits"),
            2 * batch_len - single.int("cache_misses")
        );
        // Timed measurement produces a real throughput number.
        let timed = measure_daemon_cell(2, true);
        assert!(timed.float("jobs_per_sec") > 0.0);
    }

    #[test]
    fn untimed_reports_are_byte_identical() {
        let a = run_bench(&tiny_config()).to_json();
        let b = run_bench(&tiny_config()).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn json_round_trips_through_from_json() {
        let report = run_bench(&tiny_config());
        let parsed = BenchReport::from_json(&report.to_json()).expect("parse own output");
        assert_eq!(parsed.to_json(), report.to_json());
    }

    #[test]
    fn committed_reports_round_trip_byte_for_byte() {
        // Every matrix, every field kind, and the committed key order.
        for text in [
            include_str!("../../../benchmarks/BENCH_baseline.json"),
            include_str!("../../../benchmarks/BENCH_grid_large.json"),
        ] {
            let report = BenchReport::from_json(text).expect("parse a committed report");
            assert_eq!(report.to_json(), text);
        }
    }

    #[test]
    fn from_json_rejects_fractional_integer_fields() {
        let report = run_bench(&tiny_config());
        let tampered = report.to_json().replacen("\"side\": 4", "\"side\": 4.5", 1);
        let err = BenchReport::from_json(&tampered).unwrap_err();
        assert!(err.contains("side"), "{err}");
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let report = run_bench(&tiny_config());
        let missing = report.to_json().replacen("\"qubits\": 16,", "", 1);
        let err = BenchReport::from_json(&missing).unwrap_err();
        assert!(err.contains("\"qubits\""), "{err}");
    }

    #[test]
    fn from_json_rejects_duplicate_cell_keys() {
        // A hand-merged baseline holding one cell twice would otherwise
        // pass the check on whichever copy comes first.
        let mut report = run_bench(&tiny_config());
        report.circuit_cells.push(report.circuit_cells[1].clone());
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        let key = report.circuit_cells[1].key_string();
        assert!(err.contains(&key), "{err} should name {key}");
    }

    #[test]
    fn from_json_rejects_wrong_schema_version() {
        let mut report = run_bench(&tiny_config());
        report.schema_version = SCHEMA_VERSION + 1;
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn identical_reports_pass_the_check() {
        let report = run_bench(&tiny_config());
        let outcome = check_against_baseline(&report, &report);
        assert!(outcome.passed());
        assert!(outcome.missing_in_current.is_empty());
        assert!(outcome.new_in_current.is_empty());
        // One depth comparison per permutation cell, two gated metrics
        // per circuit cell, one depth comparison per defect cell; no
        // timing comparisons.
        assert_eq!(
            outcome.deltas.len(),
            report.cells.len() + 2 * report.circuit_cells.len() + report.defect_cells.len()
        );
    }

    #[test]
    fn injected_circuit_regression_fails_the_check() {
        let current = run_bench(&tiny_config());
        let mut baseline = current.clone();
        // Pretend the baseline needed 20% fewer swaps than we do now.
        let cell = baseline
            .circuit_cells
            .iter_mut()
            .find(|c| c.summary("swaps").mean > 1.0)
            .expect("some circuit cell routes");
        cell.summary_mut("swaps").mean /= 1.2;
        let outcome = check_against_baseline(&current, &baseline);
        assert!(!outcome.passed());
        let regs = outcome.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "swaps");
    }

    #[test]
    fn missing_circuit_cell_fails_the_check() {
        let full = run_bench(&tiny_config());
        let mut truncated = full.clone();
        truncated.circuit_cells.pop();
        let outcome = check_against_baseline(&truncated, &full);
        assert!(!outcome.passed());
        assert_eq!(outcome.missing_in_current.len(), 1);
        assert!(outcome.missing_in_current[0].starts_with("circuit:"));
        // The reverse direction: an extra circuit cell passes.
        let outcome = check_against_baseline(&full, &truncated);
        assert!(outcome.passed());
        assert_eq!(outcome.new_in_current.len(), 1);
    }

    #[test]
    fn injected_depth_regression_fails_the_check() {
        let current = run_bench(&tiny_config());
        let mut baseline = current.clone();
        // Pretend the baseline was 20% shallower than what we measure now.
        baseline.cells[0].summary_mut("depth").mean =
            (current.cells[0].summary("depth").mean / 1.2).max(0.1);
        let outcome = check_against_baseline(&current, &baseline);
        assert!(!outcome.passed());
        let regs = outcome.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "depth");
        let table = delta_table_markdown(&regs);
        assert!(table.contains("depth"), "{table}");
        assert!(table.contains('%'), "{table}");
    }

    #[test]
    fn runtime_regression_beyond_25_percent_fails() {
        let mut current = run_bench(&tiny_config());
        let mut baseline = current.clone();
        *baseline.cells[0].summary_mut("time_ms") = SampleSummary::from_samples(&[1.0, 1.0]);
        *current.cells[0].summary_mut("time_ms") = SampleSummary::from_samples(&[1.3, 1.3]);
        let outcome = check_against_baseline(&current, &baseline);
        let regs = outcome.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "time_ms");
        // 20% slower stays within tolerance.
        *current.cells[0].summary_mut("time_ms") = SampleSummary::from_samples(&[1.2, 1.2]);
        assert!(check_against_baseline(&current, &baseline).passed());
    }

    #[test]
    fn missing_baseline_cells_fail_new_cells_do_not() {
        let full = run_bench(&tiny_config());
        let mut truncated = full.clone();
        truncated.cells.pop();
        // Current is missing a baseline cell → fail.
        let outcome = check_against_baseline(&truncated, &full);
        assert!(!outcome.passed());
        assert_eq!(outcome.missing_in_current.len(), 1);
        // Current has an extra cell the baseline lacks → pass.
        let outcome = check_against_baseline(&full, &truncated);
        assert!(outcome.passed());
        assert_eq!(outcome.new_in_current.len(), 1);
    }

    #[test]
    fn differing_seed_counts_fail_instead_of_comparing_means() {
        let current = run_bench(&tiny_config());
        let more_seeds = run_bench(&BenchConfig {
            seeds: 3,
            circuit_seeds: 2,
            defect_seeds: 2,
            ..tiny_config()
        });
        let outcome = check_against_baseline(&more_seeds, &current);
        assert!(!outcome.passed());
        assert_eq!(
            outcome.seed_mismatches.len(),
            current.cells.len() + current.circuit_cells.len() + current.defect_cells.len()
        );
        // No means were diffed for mismatched cells.
        assert!(outcome.deltas.is_empty());
    }

    #[test]
    fn defect_cells_measure_real_routes() {
        for kind in DEFECT_TOPOLOGY_AXIS {
            for router in DEFECT_ROUTER_AXIS {
                let cell = measure_defect_cell(5, kind, router, 2, false);
                assert_eq!(cell.str("topology"), kind);
                assert_eq!(cell.str("router"), router);
                assert_eq!(cell.int("qubits"), defect_topology(kind, 5).len() as u64);
                assert_eq!(cell.summary("depth").n, 2);
                assert!(
                    cell.summary("depth").mean >= cell.summary("lower_bound").mean,
                    "{kind}/{router}: {cell:?}"
                );
                assert!(
                    cell.summary("size").mean > 0.0,
                    "random workloads must move tokens"
                );
                assert_eq!(
                    cell.summary("time_ms").n,
                    0,
                    "untimed cell records no samples"
                );
            }
        }
    }

    #[test]
    fn injected_defect_regression_fails_the_check() {
        let current = run_bench(&tiny_config());
        let mut baseline = current.clone();
        baseline.defect_cells[0].summary_mut("depth").mean /= 1.2;
        let outcome = check_against_baseline(&current, &baseline);
        assert!(!outcome.passed());
        let regs = outcome.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "depth");
        assert_eq!(regs[0].cell, current.defect_cells[0].key_string());
    }

    #[test]
    fn missing_defect_cell_fails_the_check() {
        let full = run_bench(&tiny_config());
        let mut truncated = full.clone();
        truncated.defect_cells.pop();
        let outcome = check_against_baseline(&truncated, &full);
        assert!(!outcome.passed());
        assert!(outcome.missing_in_current[0].starts_with("defect:"));
        let outcome = check_against_baseline(&full, &truncated);
        assert!(outcome.passed());
        assert_eq!(outcome.new_in_current.len(), 1);
    }

    #[test]
    fn defect_patterns_stay_connected_and_interior() {
        for side in [4, 5, 8, 16] {
            let pattern = defect_pattern(side);
            assert!(!pattern.is_empty(), "side {side}");
            let topology = defect_topology("defect", side);
            topology
                .validate_routable()
                .unwrap_or_else(|e| panic!("side {side}: {e}"));
            assert_eq!(topology.dead_vertices(), &pattern[..]);
        }
    }

    #[test]
    fn depth_tolerances_are_class_aware() {
        assert_eq!(depth_tolerance("random"), 0.02);
        assert_eq!(depth_tolerance("block4"), 0.02);
        assert_eq!(depth_tolerance("overlap8s4"), 0.05);
        assert_eq!(depth_tolerance("skinny"), 0.05);
        assert_eq!(depth_tolerance("sparse-pairs"), 0.05);
        assert_eq!(circuit_tolerance("brickwork4"), 0.02);
        assert_eq!(circuit_tolerance("qft"), 0.05);
        assert_eq!(circuit_tolerance("qaoa2"), 0.05);
        assert_eq!(circuit_tolerance("qasm-replay10"), 0.05);
    }

    #[test]
    fn depth_tolerances_are_router_aware() {
        // Pathfinder cells get congestion-schedule headroom on every
        // class; every other router keeps the class-based tolerance.
        assert_eq!(cell_depth_tolerance("pathfinder", "random"), 0.05);
        assert_eq!(cell_depth_tolerance("pathfinder", "sparse-pairs"), 0.05);
        assert_eq!(cell_depth_tolerance("ats", "random"), 0.02);
        assert_eq!(cell_depth_tolerance("ats", "skinny"), 0.05);
        assert_eq!(cell_depth_tolerance("locality-aware", "sparse-pairs"), 0.05);
    }

    #[test]
    fn pathfinder_wins_the_sparse_class_at_side_16() {
        // The acceptance regime for the pathfinder router: on sparse
        // partial permutations at side >= 16 its per-token negotiated
        // search beats the full-grid matching sweeps. The seed count
        // matches `BenchConfig::quick`, so this is exactly the
        // comparison the committed BENCH baseline records.
        let class = WorkloadClass::SparsePairs;
        let seeds = BenchConfig::quick().seeds;
        for side in [16, 32] {
            let pf = measure_bench_cell(side, class, &RouterKind::pathfinder(), seeds, false);
            for rival in [
                RouterKind::locality_aware(),
                RouterKind::naive(),
                RouterKind::hybrid(),
            ] {
                let cell = measure_bench_cell(side, class, &rival, seeds, false);
                assert!(
                    pf.summary("depth").mean < cell.summary("depth").mean,
                    "side {side}: pathfinder mean depth {} vs {} mean depth {}",
                    pf.summary("depth").mean,
                    rival.label(),
                    cell.summary("depth").mean
                );
            }
        }
    }
}
