//! Output checks, always run outside the timed windows.
//!
//! Every engine schedule must realize its job's permutation and be a
//! valid schedule on the job's topology; the outcome's `depth` and `size`
//! must be the schedule's; the outcome's `lower_bound` must match an
//! independent recomputation. A daemon outcome line must equal, byte for
//! byte, the line an in-process `Engine` produces for the same stream.
//! The checker also accumulates the quality ratios over checked jobs.

use crate::drive::JobOutput;
use crate::stats::GeoMean;
use crate::workload::JobLine;
use qroute_perm::{metrics, Permutation};
use qroute_service::RouteJob;
use qroute_topology::{Graph, Topology};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Messages kept for the report; later failures are only counted.
const KEPT_FAILURES: usize = 5;

/// A job's resolved instance with the reference values its outcome is
/// checked against.
pub struct Instance {
    /// The job's topology.
    pub topology: Topology,
    /// The job's permutation.
    pub pi: Permutation,
    /// The topology's coupling graph.
    pub graph: Graph,
    /// Depth lower bound, recomputed.
    pub lower_bound: usize,
    /// `⌈total distance / 2⌉`: each swap shortens the total distance of
    /// all tokens by at most two, so no schedule has fewer swaps.
    pub half_distance: usize,
}

impl Instance {
    /// Parse and resolve a job line and compute its reference values.
    pub fn resolve(text: &str) -> Result<Instance, String> {
        let job = RouteJob::from_json_line(text).map_err(|e| format!("job line: {e}"))?;
        let (topology, pi) = job.resolve().map_err(|e| format!("job instance: {e}"))?;
        let graph = topology.graph();
        let (lower_bound, total) = match topology.as_grid() {
            Some(grid) => (
                metrics::depth_lower_bound(grid, &pi),
                metrics::total_displacement(grid, &pi),
            ),
            None => {
                let oracle = topology.oracle(&graph);
                (
                    metrics::depth_lower_bound_oracle(&oracle, &pi),
                    metrics::total_distance_oracle(&oracle, &pi),
                )
            }
        };
        Ok(Instance { topology, pi, graph, lower_bound, half_distance: total.div_ceil(2) })
    }
}

/// FNV-1a over an outcome line: the fingerprint the tracing-invariance
/// check compares.
pub fn line_hash(line: &str) -> u64 {
    line.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Checks outputs and accumulates quality ratios.
#[derive(Default)]
pub struct Checker {
    pool: HashMap<usize, Rc<Instance>>,
    /// Geometric mean of `depth / lower_bound` over jobs with a positive
    /// lower bound.
    pub depth_ratio: GeoMean,
    /// Geometric mean of `size / ⌈total distance / 2⌉`.
    pub swaps_ratio: GeoMean,
    /// Jobs checked.
    pub checked: u64,
    /// Jobs with an error outcome or a failed check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Cache-miss outcomes per resolved router label.
    pub routed_misses: BTreeMap<String, u64>,
}

impl Checker {
    /// Check one in-process engine output.
    pub fn check_engine(&mut self, job: &JobLine, out: &JobOutput) {
        let verdict = self.verify(job, out);
        self.record(job, verdict);
    }

    /// Check one daemon outcome line against the reference engine's
    /// output for the same position of the same stream (which is itself
    /// checked like an engine output).
    pub fn check_daemon(&mut self, job: &JobLine, daemon_line: &str, reference: &JobOutput) {
        let verdict = if daemon_line != reference.line {
            Err(format!(
                "daemon outcome {daemon_line} differs from the engine's {}",
                reference.line
            ))
        } else {
            self.verify(job, reference)
        };
        self.record(job, verdict);
    }

    /// Count one failure that belongs to no single job.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    fn record(&mut self, job: &JobLine, verdict: Result<(), String>) {
        self.checked += 1;
        if let Err(message) = verdict {
            self.fail(format!(
                "{}: {message}",
                job.text.chars().take(120).collect::<String>()
            ));
        }
    }

    fn instance(&mut self, job: &JobLine) -> Result<Rc<Instance>, String> {
        let Some(idx) = job.pool else {
            return Instance::resolve(&job.text).map(Rc::new);
        };
        if let Some(instance) = self.pool.get(&idx) {
            return Ok(Rc::clone(instance));
        }
        let instance = Rc::new(Instance::resolve(&job.text)?);
        self.pool.insert(idx, Rc::clone(&instance));
        Ok(instance)
    }

    fn verify(&mut self, job: &JobLine, out: &JobOutput) -> Result<(), String> {
        let result = out.result.as_ref().ok_or("no engine result to check")?;
        let outcome = &result.outcome;
        if let Some(error) = &outcome.error {
            return Err(format!("error outcome: {error}"));
        }
        let schedule = result
            .schedule
            .as_ref()
            .ok_or("routed job without a schedule")?;
        let instance = self.instance(job)?;
        if !schedule.realizes(&instance.pi) {
            return Err("schedule does not realize the permutation".to_string());
        }
        schedule
            .validate_on(&instance.graph)
            .map_err(|e| format!("schedule invalid on {}: {e}", instance.topology))?;
        if outcome.depth != Some(schedule.depth()) || outcome.size != Some(schedule.size()) {
            return Err(format!(
                "outcome depth/size {:?}/{:?} but schedule {}/{}",
                outcome.depth,
                outcome.size,
                schedule.depth(),
                schedule.size()
            ));
        }
        if outcome.lower_bound != Some(instance.lower_bound) {
            return Err(format!(
                "outcome lower_bound {:?} but recomputed {}",
                outcome.lower_bound, instance.lower_bound
            ));
        }
        if instance.lower_bound > 0 {
            self.depth_ratio
                .push(schedule.depth() as f64 / instance.lower_bound as f64);
        }
        if instance.half_distance > 0 {
            self.swaps_ratio
                .push(schedule.size() as f64 / instance.half_distance as f64);
        }
        if outcome.cache.as_deref() == Some("miss") {
            let router = outcome.router.clone().unwrap_or_default();
            *self.routed_misses.entry(router).or_default() += 1;
        }
        Ok(())
    }
}
