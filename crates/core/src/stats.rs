//! Schedule statistics: how well a routing schedule uses the hardware.
//!
//! Depth and size are the headline numbers; these diagnostics explain
//! them — average layer occupancy (parallelism), the busiest qubit, and
//! how close the schedule sits to its volume and distance lower bounds.

use crate::router::GridRouter;
use crate::schedule::RoutingSchedule;
use qroute_perm::{metrics, Permutation};
use qroute_topology::Grid;
use serde::Serialize;
use std::time::Instant;

/// Aggregate statistics of a schedule for a given instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStats {
    /// Number of layers.
    pub depth: usize,
    /// Total swaps.
    pub size: usize,
    /// Mean swaps per layer (0 for empty schedules).
    pub mean_layer_occupancy: f64,
    /// Largest layer.
    pub max_layer_occupancy: usize,
    /// Swaps touching the busiest vertex.
    pub max_vertex_load: usize,
    /// The instance's depth lower bound: the maximum grid distance any
    /// token must travel (`metrics::max_displacement`).
    pub lower_bound: usize,
    /// `depth / max_displacement` (∞-norm stretch; 1.0 is optimal).
    /// `None` when the permutation is the identity.
    pub depth_stretch: Option<f64>,
    /// `2 * size / total_displacement` (volume stretch; ≥ 1.0 since one
    /// swap moves two tokens one step). `None` for the identity.
    pub volume_stretch: Option<f64>,
}

/// Five-number summary of a sample distribution (mean, min, median, p90,
/// max), the aggregate every benchmark cell records per metric.
///
/// Percentiles use the nearest-rank method (`ceil(p/100 * n)`-th smallest
/// sample), so every reported value is an actual observation — summaries
/// over integer-valued metrics such as depth stay exactly reproducible.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SampleSummary {
    /// Number of samples aggregated.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Median (nearest-rank 50th percentile).
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Largest sample.
    pub max: f64,
}

impl SampleSummary {
    /// Summarize `samples`. Empty input yields the all-zero summary.
    pub fn from_samples(samples: &[f64]) -> SampleSummary {
        if samples.is_empty() {
            return SampleSummary { n: 0, mean: 0.0, min: 0.0, p50: 0.0, p90: 0.0, max: 0.0 };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
        let n = sorted.len();
        let rank = |p: f64| -> f64 {
            let k = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
            sorted[k - 1]
        };
        SampleSummary {
            n,
            mean: sorted.iter().sum::<f64>() / n as f64,
            min: sorted[0],
            p50: rank(50.0),
            p90: rank(90.0),
            max: sorted[n - 1],
        }
    }

    /// Relative change of `self.mean` versus `baseline.mean`
    /// (`0.10` = 10% worse). Zero-mean baselines compare as unchanged
    /// unless the current mean is positive, which counts as +∞.
    pub fn mean_delta(&self, baseline: &SampleSummary) -> f64 {
        if baseline.mean == 0.0 {
            if self.mean > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            (self.mean - baseline.mean) / baseline.mean
        }
    }
}

/// A routed instance with its wall-clock routing time: the raw sample a
/// benchmark run aggregates into [`SampleSummary`] cells.
#[derive(Debug, Clone)]
pub struct TimedRoute {
    /// The schedule the router produced.
    pub schedule: RoutingSchedule,
    /// Full schedule statistics for the instance.
    pub stats: ScheduleStats,
    /// Wall-clock time the `route` call took, in milliseconds.
    pub route_ms: f64,
}

/// Route `pi` on `grid` with `router`, capturing wall-clock routing time
/// and the schedule statistics in one call.
pub fn route_timed(grid: Grid, pi: &Permutation, router: &impl GridRouter) -> TimedRoute {
    let t0 = Instant::now();
    let schedule = router.route(grid, pi);
    let route_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = schedule_stats(grid, pi, &schedule);
    TimedRoute { schedule, stats, route_ms }
}

/// Compute [`ScheduleStats`] for a schedule realizing `pi` on `grid`.
pub fn schedule_stats(grid: Grid, pi: &Permutation, schedule: &RoutingSchedule) -> ScheduleStats {
    let depth = schedule.depth();
    let size = schedule.size();
    let mut vertex_load = vec![0usize; grid.len()];
    let mut max_layer = 0usize;
    for layer in schedule.layers() {
        max_layer = max_layer.max(layer.len());
        for &(u, v) in layer {
            vertex_load[u as usize] += 1;
            vertex_load[v as usize] += 1;
        }
    }
    let maxd = metrics::max_displacement(grid, pi);
    let total = metrics::total_displacement(grid, pi);
    ScheduleStats {
        depth,
        size,
        mean_layer_occupancy: if depth == 0 {
            0.0
        } else {
            size as f64 / depth as f64
        },
        max_layer_occupancy: max_layer,
        max_vertex_load: vertex_load.iter().copied().max().unwrap_or(0),
        lower_bound: maxd,
        depth_stretch: (maxd > 0).then(|| depth as f64 / maxd as f64),
        volume_stretch: (total > 0).then(|| 2.0 * size as f64 / total as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{GridRouter, RouterKind};
    use qroute_perm::generators;

    #[test]
    fn sample_summary_nearest_rank() {
        let s = SampleSummary::from_samples(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p90, 5.0);
        assert_eq!(s.max, 5.0);
        let one = SampleSummary::from_samples(&[7.0]);
        assert_eq!((one.min, one.p50, one.p90, one.max), (7.0, 7.0, 7.0, 7.0));
        let empty = SampleSummary::from_samples(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn mean_delta_signs() {
        let base = SampleSummary::from_samples(&[10.0]);
        let worse = SampleSummary::from_samples(&[11.0]);
        let better = SampleSummary::from_samples(&[9.0]);
        assert!((worse.mean_delta(&base) - 0.1).abs() < 1e-12);
        assert!((better.mean_delta(&base) + 0.1).abs() < 1e-12);
        let zero = SampleSummary::from_samples(&[0.0]);
        assert_eq!(worse.mean_delta(&zero), f64::INFINITY);
        assert_eq!(zero.mean_delta(&zero), 0.0);
    }

    #[test]
    fn route_timed_captures_consistent_stats() {
        let grid = Grid::new(5, 5);
        let pi = generators::random(25, 1);
        let t = route_timed(grid, &pi, &RouterKind::locality_aware());
        assert!(t.schedule.realizes(&pi));
        assert_eq!(t.stats.depth, t.schedule.depth());
        assert_eq!(t.stats.size, t.schedule.size());
        assert!(t.route_ms >= 0.0);
    }

    #[test]
    fn identity_stats() {
        let grid = Grid::new(3, 3);
        let pi = Permutation::identity(9);
        let s = RouterKind::locality_aware().route(grid, &pi);
        let st = schedule_stats(grid, &pi, &s);
        assert_eq!(st.depth, 0);
        assert_eq!(st.size, 0);
        assert_eq!(st.depth_stretch, None);
        assert_eq!(st.volume_stretch, None);
        assert_eq!(st.mean_layer_occupancy, 0.0);
    }

    #[test]
    fn stretch_bounds_hold() {
        let grid = Grid::new(6, 6);
        for seed in 0..4 {
            let pi = generators::random(36, seed);
            for router in [RouterKind::locality_aware(), RouterKind::Ats] {
                let s = router.route(grid, &pi);
                let st = schedule_stats(grid, &pi, &s);
                assert!(st.depth_stretch.unwrap() >= 1.0, "{}", router.name());
                assert!(st.volume_stretch.unwrap() >= 1.0, "{}", router.name());
                assert!(st.max_layer_occupancy <= grid.len() / 2);
                assert!(st.max_vertex_load <= st.depth);
                assert!(st.mean_layer_occupancy <= st.max_layer_occupancy as f64);
            }
        }
    }

    #[test]
    fn parallel_router_has_higher_occupancy_than_serial() {
        let grid = Grid::new(8, 8);
        let pi = generators::random(64, 5);
        let par = schedule_stats(grid, &pi, &RouterKind::locality_aware().route(grid, &pi));
        let ser = schedule_stats(grid, &pi, &RouterKind::AtsSerial.route(grid, &pi));
        assert!(
            par.mean_layer_occupancy > ser.mean_layer_occupancy,
            "3-phase ({:.2}) should pack layers better than serialized ATS ({:.2})",
            par.mean_layer_occupancy,
            ser.mean_layer_occupancy
        );
    }
}
