//! Request/response types of the routing service and their JSONL wire
//! format.
//!
//! One job per line. A job names a square grid side, a router (a
//! [`RouterKind::label`] or `"auto"` for feature-based dispatch), and a
//! permutation — either an explicit image table (`"perm"`) or a seeded
//! workload-class reference (`"class"` + `"seed"`, the same class labels
//! the benchmark matrix uses):
//!
//! ```text
//! {"side": 8, "router": "auto", "class": "block4", "seed": 3}
//! {"side": 4, "router": "ats", "perm": [1, 0, 2, 3, ...]}
//! ```
//!
//! A bare `side` keeps meaning the full `side × side` grid — every
//! pre-existing jobs file stays byte-compatible. An optional
//! `"topology"` object generalizes the architecture (see
//! [`TopologySpec`]):
//!
//! ```text
//! {"side": 8, "router": "ats", "class": "random", "seed": 1,
//!  "topology": {"kind": "defect", "defects": [9, 13], "dead_edges": [[0, 1]]}}
//! {"side": 6, "router": "auto", "class": "random", "seed": 2,
//!  "topology": {"kind": "heavy-hex"}}
//! ```
//!
//! One [`RouteOutcome`] line per job, in job order, with `null` for
//! fields an errored job could not produce. With timing capture disabled
//! (the default), outcome lines are byte-deterministic for fixed inputs
//! regardless of worker count.
//!
//! **Versioning.** Jobs may carry an optional integer `"v"` field naming
//! the wire protocol version; *absent means v1*, so every committed job
//! file stays byte-compatible. A job declaring an unknown version
//! becomes a per-job error outcome with code `version` instead of
//! aborting the stream, and outcomes echo the job's `"v"` when (and only
//! when) the job carried one. Error outcomes carry a stable
//! machine-readable `"code"` field next to the human-readable `"error"`
//! message — see [`crate::ServiceError::code`].

use crate::errors::ServiceError;
use qroute_core::RouterKind;
use qroute_perm::{generators, Permutation};
use qroute_topology::{Grid, Topology};
use serde_json::{Entries, Tape, ValueRef};
use std::borrow::Cow;

/// Largest accepted grid side. Side 1024 means 1024² = 2²⁰ ≈ 1.05
/// million qubits — far beyond any near-term grid. The cap turns absurd
/// `side` values into per-job error outcomes instead of multi-terabyte
/// allocation aborts on the submit thread, and keeps `side * side` far
/// from overflow on every platform.
pub const MAX_SIDE: usize = 1024;

/// The wire protocol version this service speaks. Jobs with no `"v"`
/// field are treated as this version; jobs declaring any other version
/// become per-job error outcomes (code `version`).
pub const WIRE_VERSION: u64 = 1;

/// Router requested by a job.
#[derive(Debug, Clone)]
pub enum RouterSpec {
    /// Pick per job from instance features (see [`crate::dispatch`]).
    Auto,
    /// A fixed router kind in its default configuration.
    Fixed(RouterKind),
}

/// Permutation payload of a job.
#[derive(Debug, Clone)]
pub enum PermSpec {
    /// An explicit image table (`perm[v] = π(v)`), validated at
    /// resolution time.
    Explicit(Vec<usize>),
    /// A seeded workload-class instance (benchmark class labels:
    /// `random`, `block<B>`, `overlap<B>s<S>`, `skinny`, `sparse-pairs`).
    Class {
        /// The class label.
        label: String,
        /// The generator seed.
        seed: u64,
    },
}

/// Architecture requested by a job — the wire form of the `"topology"`
/// object, materialized into a [`Topology`] at resolution time (always
/// against the job's `side × side` base dimensions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// The full square grid (`"kind": "grid"`, or no `"topology"` at
    /// all — the byte-compatible default).
    Grid,
    /// A grid with dead vertices/edges (`"kind": "defect"`).
    Defect {
        /// Dead vertex ids on the `side × side` grid.
        defects: Vec<usize>,
        /// Dead coupling edges as vertex-id pairs.
        dead_edges: Vec<(usize, usize)>,
    },
    /// A heavy-hex lattice with `side × side` data vertices plus bridge
    /// vertices (`"kind": "heavy-hex"`).
    HeavyHex,
    /// A brick-wall lattice on `side × side` vertices
    /// (`"kind": "brick"`).
    Brick,
    /// The torus `C_side □ C_side` (`"kind": "torus"`, `side >= 3`).
    Torus,
}

impl TopologySpec {
    /// Materialize against the job's square base grid, validating defect
    /// patterns (range, duplicates, coupledness, emptied grids).
    fn materialize(&self, side: usize) -> Result<Topology, String> {
        let grid = Grid::new(side, side);
        match self {
            TopologySpec::Grid => Ok(Topology::Grid(grid)),
            TopologySpec::Defect { defects, dead_edges } => {
                Topology::grid_with_defects(grid, defects, dead_edges).map_err(|e| e.to_string())
            }
            TopologySpec::HeavyHex => Ok(Topology::heavy_hex(side, side)),
            TopologySpec::Brick => Ok(Topology::brick_wall(side, side)),
            TopologySpec::Torus => Topology::torus(side, side).map_err(|e| e.to_string()),
        }
    }
}

/// One routing request: an architecture, a router choice, and a
/// permutation.
#[derive(Debug, Clone)]
pub struct RouteJob {
    /// Side of the square base grid (`side × side` qubits for grid-family
    /// topologies; heavy-hex adds bridge vertices on top).
    pub side: usize,
    /// Requested router; `None` defers to the engine's configured
    /// default policy ([`crate::EngineConfig::default_router`]).
    pub router: Option<RouterSpec>,
    /// Requested permutation.
    pub perm: PermSpec,
    /// Requested architecture (defaults to the full square grid).
    pub topology: TopologySpec,
    /// Wire protocol version the job declared (`None` when the line had
    /// no `"v"` field — implicitly [`WIRE_VERSION`]). Echoed into the
    /// outcome so response lines are self-describing exactly when
    /// request lines were.
    pub v: Option<u64>,
    /// Optional per-job deadline in milliseconds, measured from
    /// admission. A job still routing when it expires is cooperatively
    /// cancelled and answered with a `timeout` error outcome; `None`
    /// falls back to the engine's configured default deadline (itself
    /// `None` — no deadline — by default). Append-only wire field: v1
    /// lines without it parse exactly as before.
    pub deadline_ms: Option<u64>,
}

impl RouteJob {
    /// A class-reference job (`router` is a label or `"auto"`).
    pub fn from_class(
        side: usize,
        router: &str,
        class: &str,
        seed: u64,
    ) -> Result<RouteJob, ServiceError> {
        Ok(RouteJob {
            side,
            router: Some(parse_router(router).map_err(ServiceError::Parse)?),
            perm: PermSpec::Class { label: class.to_string(), seed },
            topology: TopologySpec::Grid,
            v: None,
            deadline_ms: None,
        })
    }

    /// An explicit-permutation job.
    pub fn explicit(side: usize, router: RouterSpec, pi: &Permutation) -> RouteJob {
        RouteJob {
            side,
            router: Some(router),
            perm: PermSpec::Explicit(pi.as_slice().to_vec()),
            topology: TopologySpec::Grid,
            v: None,
            deadline_ms: None,
        }
    }

    /// Parse one JSONL line. Strict: unknown fields, missing required
    /// fields, conflicting `perm`/`class`, and malformed values are all
    /// errors (which the engine turns into per-job error outcomes rather
    /// than aborting the batch). A `"v"` field naming a version other
    /// than [`WIRE_VERSION`] is its own error kind
    /// ([`ServiceError::Version`]) so clients can branch on it. A
    /// repeated key keeps its first value, and keys are compared after
    /// unescaping.
    pub fn from_json_line(line: &str) -> Result<RouteJob, ServiceError> {
        RouteJob::from_parsed(&Tape::parse(line))
    }

    /// Read a job from a line already parsed into a tape, or from the
    /// line's parse error. The fields are read straight off the tape,
    /// each object in one pass; no `Value` tree is built. (The daemon
    /// parses each line once and reads both its control check and the
    /// job from the same tape.)
    pub(crate) fn from_parsed(
        parsed: &Result<Tape<'_>, serde_json::Error>,
    ) -> Result<RouteJob, ServiceError> {
        let doc = parsed
            .as_ref()
            .map_err(|e| ServiceError::Parse(e.to_string()))?
            .root();
        let Some(entries) = doc.entries() else {
            return Err(ServiceError::Parse(
                "job line must be a JSON object".to_string(),
            ));
        };
        let (fields, unknown) = read_fields(entries, JOB_FIELDS);
        let v = parse_version(fields[0])?;
        if let Some(field) = unknown {
            return Err(ServiceError::Parse(format!(
                "unknown job field {field:?} (expected v, side, router, perm, class, seed, \
                 topology, deadline_ms)"
            )));
        }
        parse_job_fields(fields, v).map_err(ServiceError::Parse)
    }

    /// Materialize the instance: the topology and a validated
    /// permutation. Every defect-pattern pathology (out-of-range or
    /// duplicate defect ids, dead edges that are not coupling edges,
    /// patterns that empty or disconnect the grid, permutations moving
    /// dead vertices) comes back as an `Err` — a per-job error outcome —
    /// never a panic on the submit thread.
    pub fn resolve(&self) -> Result<(Topology, Permutation), ServiceError> {
        self.resolve_impl().map_err(ServiceError::Invalid)
    }

    fn resolve_impl(&self) -> Result<(Topology, Permutation), String> {
        if self.side == 0 || self.side > MAX_SIDE {
            // An absurd side must become a per-job error outcome, not an
            // allocation abort that takes the whole batch down.
            return Err(format!("side {} out of range (1..={MAX_SIDE})", self.side));
        }
        let topology = self.topology.materialize(self.side)?;
        topology.validate_routable().map_err(|e| e.to_string())?;
        let pi = match &self.perm {
            PermSpec::Explicit(table) => {
                if table.len() != topology.len() {
                    return Err(format!(
                        "\"perm\" has {} entries; {} needs {}",
                        table.len(),
                        topology,
                        topology.len()
                    ));
                }
                topology.permutation_fits(table)?;
                Permutation::from_vec(table.clone()).map_err(|e| e.to_string())?
            }
            PermSpec::Class { label, seed } => generate_class_on(&topology, label, *seed)?,
        };
        Ok((topology, pi))
    }
}

fn parse_router(s: &str) -> Result<RouterSpec, String> {
    if s == "auto" {
        Ok(RouterSpec::Auto)
    } else {
        Ok(RouterSpec::Fixed(s.parse::<RouterKind>()?))
    }
}

/// The job fields, in the order the unknown-field error lists them.
const JOB_FIELDS: [&str; 8] = [
    "v",
    "side",
    "router",
    "perm",
    "class",
    "seed",
    "topology",
    "deadline_ms",
];

/// The `"topology"` fields, in the order the unknown-field error lists
/// them.
const TOPOLOGY_FIELDS: [&str; 3] = ["kind", "defects", "dead_edges"];

/// Read an object's entries once: the first value of each field in
/// `names` (a repeated key keeps its first value) and the first key that
/// is not among them. Keys are compared unescaped.
fn read_fields<'t, const N: usize>(
    entries: Entries<'t>,
    names: [&str; N],
) -> ([Option<ValueRef<'t>>; N], Option<Cow<'t, str>>) {
    let mut fields = [None; N];
    let mut unknown = None;
    for (key, value) in entries {
        match names.iter().position(|name| *name == key) {
            Some(i) => {
                fields[i].get_or_insert(value);
            }
            None => {
                unknown.get_or_insert(key);
            }
        }
    }
    (fields, unknown)
}

/// Check the optional `"v"` field. Absent means [`WIRE_VERSION`]; any
/// other declared version is a [`ServiceError::Version`] so the
/// outcome's `"code"` lets clients tell "wrong protocol" apart from
/// "malformed job".
fn parse_version(v: Option<ValueRef<'_>>) -> Result<Option<u64>, ServiceError> {
    match v {
        None => Ok(None),
        Some(raw) => {
            let v = raw.as_u64().ok_or_else(|| {
                ServiceError::Parse("\"v\" must be a nonnegative integer".to_string())
            })?;
            if v != WIRE_VERSION {
                return Err(ServiceError::Version(v));
            }
            Ok(Some(v))
        }
    }
}

/// The version-agnostic part of job-line parsing: every field but
/// `"v"`, which [`parse_version`] has already validated.
fn parse_job_fields(
    fields: [Option<ValueRef<'_>>; JOB_FIELDS.len()],
    v: Option<u64>,
) -> Result<RouteJob, String> {
    let [_, side, router, perm, class, seed, topology, deadline_ms] = fields;
    let side = side
        .and_then(ValueRef::as_u64)
        .ok_or("job needs an integer \"side\"")? as usize;
    if side == 0 {
        return Err("\"side\" must be at least 1".to_string());
    }
    let router = match router {
        None => None,
        Some(r) => Some(parse_router(
            &r.as_str().ok_or("\"router\" must be a string")?,
        )?),
    };
    let perm = match (perm, class) {
        (Some(_), Some(_)) => {
            return Err("job has both \"perm\" and \"class\"; pick one".to_string())
        }
        (None, None) => return Err("job needs either \"perm\" or \"class\"".to_string()),
        (Some(p), None) => {
            if seed.is_some() {
                return Err("\"seed\" only applies to class jobs".to_string());
            }
            PermSpec::Explicit(integers(p, "\"perm\" must be an array of integers")?)
        }
        (None, Some(c)) => PermSpec::Class {
            label: c.as_str().ok_or("\"class\" must be a string")?.into_owned(),
            seed: seed
                .and_then(ValueRef::as_u64)
                .ok_or("class jobs need an integer \"seed\"")?,
        },
    };
    let topology = match topology {
        None => TopologySpec::Grid,
        Some(t) => parse_topology(t)?,
    };
    let deadline_ms = match deadline_ms {
        None => None,
        Some(d) => {
            let ms = d
                .as_u64()
                .ok_or("\"deadline_ms\" must be a nonnegative integer")?;
            if ms == 0 {
                return Err("\"deadline_ms\" must be at least 1".to_string());
            }
            Some(ms)
        }
    };
    Ok(RouteJob { side, router, perm, topology, v, deadline_ms })
}

/// An array of non-negative integers, read into one exact-sized `Vec`;
/// anything else is `error`.
fn integers(value: ValueRef<'_>, error: &str) -> Result<Vec<usize>, String> {
    let elements = value.elements().ok_or(error)?;
    let mut out = Vec::with_capacity(elements.size_hint().1.unwrap_or(0));
    for x in elements {
        out.push(x.as_u64().ok_or(error)? as usize);
    }
    Ok(out)
}

/// Parse the `"topology"` object. Strict like the job line itself:
/// unknown fields, defect lists on non-defect kinds, and malformed
/// values are all errors.
fn parse_topology(value: ValueRef<'_>) -> Result<TopologySpec, String> {
    let Some(entries) = value.entries() else {
        return Err("\"topology\" must be a JSON object".to_string());
    };
    let ([kind, defects, dead_edges], unknown) = read_fields(entries, TOPOLOGY_FIELDS);
    if let Some(field) = unknown {
        return Err(format!(
            "unknown topology field {field:?} (expected kind, defects, dead_edges)"
        ));
    }
    let kind = kind
        .and_then(ValueRef::as_str)
        .ok_or("\"topology\" needs a string \"kind\"")?;
    if kind != "defect" && (defects.is_some() || dead_edges.is_some()) {
        return Err(format!(
            "\"defects\"/\"dead_edges\" only apply to kind \"defect\", not {kind:?}"
        ));
    }
    match &*kind {
        "grid" => Ok(TopologySpec::Grid),
        "heavy-hex" => Ok(TopologySpec::HeavyHex),
        "brick" => Ok(TopologySpec::Brick),
        "torus" => Ok(TopologySpec::Torus),
        "defect" => {
            let defects = match defects {
                None => Vec::new(),
                Some(d) => integers(d, "\"defects\" must be an array of integers")?,
            };
            let dead_edges = match dead_edges {
                None => Vec::new(),
                Some(e) => {
                    const PAIRS: &str = "\"dead_edges\" must be an array of [u, v] pairs";
                    let pairs = e.elements().ok_or(PAIRS)?;
                    let mut out = Vec::with_capacity(pairs.size_hint().1.unwrap_or(0) / 3);
                    for pair in pairs {
                        // Exactly two elements, each an integer: one that
                        // is not rejects the pair instead of dropping out
                        // of it.
                        let mut xs = pair.elements().ok_or(PAIRS)?.map(ValueRef::as_u64);
                        match (xs.next(), xs.next(), xs.next()) {
                            (Some(Some(u)), Some(Some(v)), None) => {
                                out.push((u as usize, v as usize))
                            }
                            _ => return Err(PAIRS.to_string()),
                        }
                    }
                    out
                }
            };
            Ok(TopologySpec::Defect { defects, dead_edges })
        }
        other => Err(format!(
            "unknown topology kind {other:?}; expected grid, defect, heavy-hex, brick, torus"
        )),
    }
}

/// Generate a benchmark-class instance on a topology. Full grids use the
/// grid generators directly; defective grids generate on the underlying
/// full grid and then fix every permutation cycle that visits a dead
/// vertex (a deterministic projection, so class jobs on defective grids
/// stay byte-reproducible); the remaining topologies have no grid
/// coordinates and support only `random`.
fn generate_class_on(topology: &Topology, label: &str, seed: u64) -> Result<Permutation, String> {
    match topology {
        Topology::Grid(grid) => generate_class(*grid, label, seed),
        Topology::GridWithDefects { grid, .. } => {
            let pi = generate_class(*grid, label, seed)?;
            Ok(project_fixing_dead(topology, &pi))
        }
        _ => {
            if label == "random" {
                Ok(generators::random(topology.len(), seed))
            } else {
                Err(format!(
                    "class {label:?} needs grid coordinates; \"{}\" topologies support only \"random\"",
                    topology.kind()
                ))
            }
        }
    }
}

/// Fix every cycle of `pi` that visits a dead vertex of `topology`,
/// leaving the other cycles untouched.
fn project_fixing_dead(topology: &Topology, pi: &Permutation) -> Permutation {
    let n = pi.len();
    let mut table: Vec<usize> = (0..n).map(|v| pi.apply(v)).collect();
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let mut cycle = Vec::new();
        let mut v = start;
        loop {
            visited[v] = true;
            cycle.push(v);
            v = pi.apply(v);
            if v == start {
                break;
            }
        }
        if cycle.iter().any(|&v| !topology.is_alive(v)) {
            for &v in &cycle {
                table[v] = v;
            }
        }
    }
    Permutation::from_vec_unchecked(table)
}

/// Generate a benchmark-class instance from its label (`random`,
/// `block<B>`, `overlap<B>s<S>`, `skinny`, `sparse-pairs`).
pub(crate) fn generate_class(grid: Grid, label: &str, seed: u64) -> Result<Permutation, String> {
    if label == "random" {
        return Ok(generators::random(grid.len(), seed));
    }
    if label == "skinny" {
        return Ok(generators::skinny_cycles(grid, seed));
    }
    if label == "sparse-pairs" {
        // Same parameterization as the bench matrix's sparse class.
        return Ok(generators::sparse_pairs(
            grid,
            (grid.len() / 16).max(1),
            (grid.rows().max(grid.cols()) / 4).max(2),
            seed,
        ));
    }
    if let Some(b) = label.strip_prefix("block") {
        let b: usize = b
            .parse()
            .map_err(|_| format!("malformed block class {label:?} (want e.g. \"block4\")"))?;
        if b == 0 {
            return Err("block size must be at least 1".to_string());
        }
        return Ok(generators::block_local(grid, b, b, seed));
    }
    if let Some(rest) = label.strip_prefix("overlap") {
        let parts: Vec<&str> = rest.splitn(2, 's').collect();
        let parsed = match parts.as_slice() {
            [b, s] => b.parse::<usize>().ok().zip(s.parse::<usize>().ok()),
            _ => None,
        };
        let Some((b, s)) = parsed else {
            return Err(format!(
                "malformed overlap class {label:?} (want e.g. \"overlap8s4\")"
            ));
        };
        if b == 0 || s == 0 {
            return Err("overlap window and stride must be at least 1".to_string());
        }
        return Ok(generators::overlapping_blocks(grid, b, b, s, s, seed));
    }
    Err(format!(
        "unknown class {label:?}; expected random, block<B>, overlap<B>s<S>, skinny, or sparse-pairs"
    ))
}

/// Whether a routed result was served from the canonical cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// The canonical form was routed for this job.
    Miss,
    /// The canonical form was already cached (or in flight).
    Hit,
}

impl CacheStatus {
    /// Stable wire label.
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheStatus::Miss => "miss",
            CacheStatus::Hit => "hit",
        }
    }
}

/// One result line: metrics for a routed job, or a per-job error.
///
/// Field order is the wire order. `time_ms` is `null` unless the engine
/// captured timing (timing is off by default so output bytes are
/// deterministic); error outcomes carry `null` metrics plus a stable
/// machine-readable `"code"`. The `"v"` field is emitted only when the
/// job declared one, keeping v1 outcome bytes identical to the
/// pre-versioning era.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutcome {
    /// Echo of the job's declared wire version (`None` ⇒ field omitted).
    pub v: Option<u64>,
    /// Job id: the 0-based position of the job in submission order.
    pub id: u64,
    /// Grid side echoed from the job (`None` when the line never parsed).
    pub side: Option<usize>,
    /// Resolved router label (concrete even for `auto` jobs).
    pub router: Option<String>,
    /// Cache status (`"hit"` / `"miss"`).
    pub cache: Option<String>,
    /// Schedule depth (layers).
    pub depth: Option<usize>,
    /// Schedule size (total swaps).
    pub size: Option<usize>,
    /// Depth lower bound of the instance on its own grid.
    pub lower_bound: Option<usize>,
    /// Wall-clock routing time for cache misses (`0.0` for hits) when
    /// timing capture is on; `null` otherwise.
    pub time_ms: Option<f64>,
    /// Machine-readable error discriminator ([`ServiceError::code`]),
    /// `null` on success. Clients branch on this, never on `error` text.
    pub code: Option<&'static str>,
    /// Error message for jobs that failed to parse, resolve, or route.
    pub error: Option<String>,
}

impl RouteOutcome {
    /// The error outcome for job `id`.
    pub fn from_error(
        id: u64,
        side: Option<usize>,
        v: Option<u64>,
        error: &ServiceError,
    ) -> RouteOutcome {
        RouteOutcome {
            v,
            id,
            side,
            router: None,
            cache: None,
            depth: None,
            size: None,
            lower_bound: None,
            time_ms: None,
            code: Some(error.code()),
            error: Some(error.to_string()),
        }
    }

    /// Serialize as one compact JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("serialize outcome")
    }
}

// Hand-written (not derived) so `"v"` can be *omitted* — rather than
// `null` — on v1 jobs, keeping their outcome bytes identical to the
// pre-versioning wire format.
impl serde::Serialize for RouteOutcome {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        if let Some(v) = self.v {
            out.push_str("\"v\":");
            serde::Serialize::write_json(&v, out);
            out.push(',');
        }
        out.push_str("\"id\":");
        serde::Serialize::write_json(&self.id, out);
        out.push_str(",\"side\":");
        serde::Serialize::write_json(&self.side, out);
        out.push_str(",\"router\":");
        serde::Serialize::write_json(&self.router, out);
        out.push_str(",\"cache\":");
        serde::Serialize::write_json(&self.cache, out);
        out.push_str(",\"depth\":");
        serde::Serialize::write_json(&self.depth, out);
        out.push_str(",\"size\":");
        serde::Serialize::write_json(&self.size, out);
        out.push_str(",\"lower_bound\":");
        serde::Serialize::write_json(&self.lower_bound, out);
        out.push_str(",\"time_ms\":");
        serde::Serialize::write_json(&self.time_ms, out);
        out.push_str(",\"code\":");
        serde::Serialize::write_json(&self.code, out);
        out.push_str(",\"error\":");
        serde::Serialize::write_json(&self.error, out);
        out.push('}');
    }
}

#[cfg(test)]
#[path = "job_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_class_and_perm_jobs() {
        let job = RouteJob::from_json_line(
            r#"{"side": 8, "router": "auto", "class": "overlap4s2", "seed": 5}"#,
        )
        .unwrap();
        assert_eq!(job.side, 8);
        assert!(matches!(job.router, Some(RouterSpec::Auto)));
        assert_eq!(job.topology, TopologySpec::Grid);
        assert_eq!(job.v, None);
        let (topology, pi) = job.resolve().unwrap();
        assert_eq!(topology.len(), 64);
        assert_eq!(pi.len(), 64);

        let job = RouteJob::from_json_line(r#"{"side": 2, "router": "ats", "perm": [1, 0, 2, 3]}"#)
            .unwrap();
        let (_, pi) = job.resolve().unwrap();
        assert_eq!(pi.apply(0), 1);

        // The sparse-pairs bench class resolves to a sparse involution.
        let job = RouteJob::from_json_line(
            r#"{"side": 16, "router": "auto", "class": "sparse-pairs", "seed": 0}"#,
        )
        .unwrap();
        let (_, pi) = job.resolve().unwrap();
        assert_eq!(pi.support_size(), 32);
        // An omitted router defers to the engine's configured default.
        let job = RouteJob::from_json_line(r#"{"side": 2, "perm": [0, 1, 2, 3]}"#).unwrap();
        assert!(job.router.is_none());
    }

    #[test]
    fn version_field_round_trips() {
        // "v": 1 is accepted and remembered.
        let job = RouteJob::from_json_line(r#"{"v": 1, "side": 2, "perm": [0, 1, 2, 3]}"#).unwrap();
        assert_eq!(job.v, Some(1));
        // Unknown versions are their own error kind with a stable code.
        let err =
            RouteJob::from_json_line(r#"{"v": 2, "side": 2, "perm": [0, 1, 2, 3]}"#).unwrap_err();
        assert_eq!(err, ServiceError::Version(2));
        assert_eq!(err.code(), "version");
        // Malformed "v" is a parse error, not a version error.
        let err =
            RouteJob::from_json_line(r#"{"v": "x", "side": 2, "perm": [0, 1, 2, 3]}"#).unwrap_err();
        assert_eq!(err.code(), "parse");
    }

    #[test]
    fn deadline_field_parses_and_validates() {
        let job = RouteJob::from_json_line(
            r#"{"side": 4, "class": "random", "seed": 0, "deadline_ms": 250}"#,
        )
        .unwrap();
        assert_eq!(job.deadline_ms, Some(250));
        let job = RouteJob::from_json_line(r#"{"side": 4, "class": "random", "seed": 0}"#).unwrap();
        assert_eq!(job.deadline_ms, None, "absent deadline stays absent");
        for (line, needle) in [
            (
                r#"{"side": 4, "class": "random", "seed": 0, "deadline_ms": "soon"}"#,
                "nonnegative integer",
            ),
            (
                r#"{"side": 4, "class": "random", "seed": 0, "deadline_ms": 0}"#,
                "at least 1",
            ),
        ] {
            let err = RouteJob::from_json_line(line).unwrap_err();
            assert!(err.to_string().contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn every_router_label_parses() {
        for kind in RouterKind::all_default() {
            let line = format!(
                r#"{{"side": 4, "router": "{}", "class": "random", "seed": 0}}"#,
                kind.label()
            );
            let job = RouteJob::from_json_line(&line).unwrap();
            match job.router {
                Some(RouterSpec::Fixed(parsed)) => assert_eq!(parsed.label(), kind.label()),
                other => panic!("{} parsed as {other:?}", kind.label()),
            }
        }
    }

    #[test]
    fn malformed_jobs_error_with_context() {
        for (line, needle) in [
            ("not json", "JSON"),
            ("[1, 2]", "object"),
            (r#"{"router": "ats", "class": "random", "seed": 0}"#, "side"),
            (r#"{"side": 0, "class": "random", "seed": 0}"#, "side"),
            (
                r#"{"side": 4, "router": "warp", "class": "random", "seed": 0}"#,
                "warp",
            ),
            (r#"{"side": 4, "class": "random"}"#, "seed"),
            (r#"{"side": 4, "perm": [0], "seed": 1}"#, "seed"),
            (r#"{"side": 4, "perm": [0], "class": "random"}"#, "pick one"),
            (r#"{"side": 4}"#, "either"),
            (
                r#"{"side": 4, "class": "random", "seed": 0, "bogus": 1}"#,
                "bogus",
            ),
            (r#"{"side": 4, "perm": [0, "x"]}"#, "integers"),
        ] {
            let err = RouteJob::from_json_line(line).unwrap_err();
            assert!(err.to_string().contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn resolve_rejects_malformed_class_labels() {
        for (class, needle) in [
            ("blockx", "block"),
            ("block0", "at least 1"),
            ("overlap4", "overlap"),
            ("overlap0s1", "at least 1"),
            ("mystery", "mystery"),
        ] {
            let line = format!(r#"{{"side": 4, "class": "{class}", "seed": 0}}"#);
            let job = RouteJob::from_json_line(&line).unwrap();
            let err = job.resolve().unwrap_err();
            assert!(err.to_string().contains(needle), "{class}: {err}");
        }
    }

    #[test]
    fn resolve_validates_explicit_permutations() {
        let short = RouteJob::from_json_line(r#"{"side": 2, "perm": [1, 0]}"#).unwrap();
        assert!(short.resolve().unwrap_err().to_string().contains("4"));
        // An absurd side is a per-job error, not an allocation abort.
        let huge =
            RouteJob::from_json_line(r#"{"side": 1000000000, "class": "random", "seed": 0}"#)
                .unwrap();
        let err = huge.resolve().unwrap_err();
        assert!(err.to_string().contains("out of range"));
        assert_eq!(err.code(), "invalid-job");
        let max = RouteJob::from_class(MAX_SIDE, "ats", "skinny", 0).unwrap();
        assert_eq!(max.side, MAX_SIDE);
        let repeat = RouteJob::from_json_line(r#"{"side": 2, "perm": [0, 0, 2, 3]}"#).unwrap();
        assert!(repeat
            .resolve()
            .unwrap_err()
            .to_string()
            .contains("permutation"));
    }

    #[test]
    fn parses_topology_objects() {
        let job = RouteJob::from_json_line(
            r#"{"side": 4, "router": "ats", "class": "random", "seed": 0,
                "topology": {"kind": "defect", "defects": [5], "dead_edges": [[0, 1]]}}"#,
        )
        .unwrap();
        assert_eq!(
            job.topology,
            TopologySpec::Defect { defects: vec![5], dead_edges: vec![(0, 1)] }
        );
        let (topology, pi) = job.resolve().unwrap();
        assert_eq!(topology.kind(), "defect");
        assert_eq!(pi.apply(5), 5, "class instances fix dead vertices");

        for (kind, expect) in [
            ("grid", TopologySpec::Grid),
            ("heavy-hex", TopologySpec::HeavyHex),
            ("brick", TopologySpec::Brick),
            ("torus", TopologySpec::Torus),
        ] {
            let line = format!(
                r#"{{"side": 4, "router": "ats", "class": "random", "seed": 0, "topology": {{"kind": "{kind}"}}}}"#
            );
            let job = RouteJob::from_json_line(&line).unwrap();
            assert_eq!(job.topology, expect, "{kind}");
            let (topology, pi) = job.resolve().unwrap();
            assert_eq!(pi.len(), topology.len(), "{kind}");
        }
    }

    #[test]
    fn malformed_topologies_error_with_context() {
        for (line, needle) in [
            (
                r#"{"side": 4, "class": "random", "seed": 0, "topology": 7}"#,
                "object",
            ),
            (
                r#"{"side": 4, "class": "random", "seed": 0, "topology": {"kind": "moebius"}}"#,
                "moebius",
            ),
            (
                r#"{"side": 4, "class": "random", "seed": 0, "topology": {"defects": [1]}}"#,
                "kind",
            ),
            (
                r#"{"side": 4, "class": "random", "seed": 0, "topology": {"kind": "grid", "defects": [1]}}"#,
                "only apply",
            ),
            (
                r#"{"side": 4, "class": "random", "seed": 0, "topology": {"kind": "defect", "bogus": 1}}"#,
                "bogus",
            ),
            (
                r#"{"side": 4, "class": "random", "seed": 0, "topology": {"kind": "defect", "defects": ["x"]}}"#,
                "integers",
            ),
            (
                r#"{"side": 4, "class": "random", "seed": 0, "topology": {"kind": "defect", "dead_edges": [[0]]}}"#,
                "pairs",
            ),
            (
                r#"{"side": 4, "class": "random", "seed": 0, "topology": {"kind": "defect", "dead_edges": [[0, "x", 1]]}}"#,
                "pairs",
            ),
            (
                r#"{"side": 4, "class": "random", "seed": 0, "topology": {"kind": "defect", "dead_edges": [[0, -1, 1]]}}"#,
                "pairs",
            ),
            (
                r#"{"side": 4, "class": "random", "seed": 0, "topology": {"kind": "defect", "dead_edges": [[0, 1.5, 1]]}}"#,
                "pairs",
            ),
        ] {
            let err = RouteJob::from_json_line(line).unwrap_err();
            assert!(err.to_string().contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn defect_resolution_errors_are_per_job() {
        // Out-of-range, duplicate, emptied, disconnected, moved-dead,
        // non-random class off-grid: all Err, never panic.
        for (line, needle) in [
            (
                r#"{"side": 2, "class": "random", "seed": 0, "topology": {"kind": "defect", "defects": [4]}}"#,
                "out of range",
            ),
            (
                r#"{"side": 2, "class": "random", "seed": 0, "topology": {"kind": "defect", "defects": [1, 1]}}"#,
                "duplicate",
            ),
            (
                r#"{"side": 1, "class": "random", "seed": 0, "topology": {"kind": "defect", "defects": [0]}}"#,
                "no alive vertex",
            ),
            (
                r#"{"side": 3, "class": "random", "seed": 0, "topology": {"kind": "defect", "defects": [1, 3]}}"#,
                "disconnects",
            ),
            (
                r#"{"side": 2, "perm": [1, 0, 2, 3], "topology": {"kind": "defect", "defects": [3], "dead_edges": [[0, 3]]}}"#,
                "not a coupling edge",
            ),
            (
                r#"{"side": 2, "perm": [0, 1, 3, 2], "topology": {"kind": "defect", "defects": [3]}}"#,
                "dead vertex",
            ),
            (
                r#"{"side": 4, "class": "block2", "seed": 0, "topology": {"kind": "heavy-hex"}}"#,
                "only \"random\"",
            ),
            (
                r#"{"side": 2, "class": "random", "seed": 0, "topology": {"kind": "torus"}}"#,
                "at least 3",
            ),
        ] {
            let err = RouteJob::from_json_line(line)
                .unwrap()
                .resolve()
                .unwrap_err();
            assert!(err.to_string().contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn outcome_serializes_stable_jsonl() {
        let ok = RouteOutcome {
            v: None,
            id: 3,
            side: Some(8),
            router: Some("ats".to_string()),
            cache: Some("hit".to_string()),
            depth: Some(12),
            size: Some(40),
            lower_bound: Some(9),
            time_ms: None,
            code: None,
            error: None,
        };
        assert_eq!(
            ok.to_json_line(),
            r#"{"id":3,"side":8,"router":"ats","cache":"hit","depth":12,"size":40,"lower_bound":9,"time_ms":null,"code":null,"error":null}"#
        );
        let err = RouteOutcome::from_error(4, None, None, &ServiceError::Parse("boom".to_string()));
        assert_eq!(
            err.to_json_line(),
            r#"{"id":4,"side":null,"router":null,"cache":null,"depth":null,"size":null,"lower_bound":null,"time_ms":null,"code":"parse","error":"boom"}"#
        );
    }

    #[test]
    fn outcome_emits_v_only_when_the_job_declared_one() {
        let versioned = RouteOutcome {
            v: Some(1),
            id: 0,
            side: Some(2),
            router: Some("ats".to_string()),
            cache: Some("miss".to_string()),
            depth: Some(1),
            size: Some(1),
            lower_bound: Some(1),
            time_ms: None,
            code: None,
            error: None,
        };
        assert!(versioned.to_json_line().starts_with(r#"{"v":1,"id":0,"#));
        let version_err = RouteOutcome::from_error(7, Some(2), None, &ServiceError::Version(9));
        let line = version_err.to_json_line();
        assert!(
            line.contains(r#""code":"version""#) && !line.contains(r#""v":"#),
            "{line}"
        );
    }
}
