//! Determinism self-check on reduced workloads: two runs with the same
//! seed report identical quality ratios, cache counters, dispatch
//! decisions and event counts; a second seed also runs clean.

use perfbench::workload::Workload;
use perfbench::{run, Report, RunConfig};
use std::sync::Mutex;

/// Traced runs arm a process-global trace subscriber, so runs in one
/// test process must not overlap.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn reduced(workload: Workload, seed: u64, trace: bool) -> Report {
    let _guard = ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cfg = RunConfig { workload, seed, seconds: 1.0, trace, chunks: Some(2), reduced: true };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        report.correct,
        "{} seed {seed} trace {trace}: {:?}",
        workload.name(),
        report.failures
    );
    assert_eq!(report.failed, 0);
    report
}

/// Metrics that depend only on the seed, never on timing.
fn deterministic(name: &str) -> bool {
    name.ends_with("_ratio_geomean")
        || name.starts_with("cache.") && !name.ends_with("_us")
        || name.starts_with("dispatch.picked.")
        || name.starts_with("router.jobs.")
        || name == "dispatch.regret_geomean"
        || name == "daemon.dedup_saved"
        || name == "paper.depth_vs_ats"
        || matches!(
            name,
            "ats.happy_rounds"
                | "ats.stuck_rounds"
                | "ats.fallbacks"
                | "pathfinder.rounds"
                | "pathfinder.astar_pops"
                | "pathfinder.ripups"
                | "pathfinder.fallback_frac"
        )
}

#[test]
fn same_seed_gives_identical_deterministic_metrics() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let a = reduced(workload, 11, trace);
            let b = reduced(workload, 11, trace);
            let mut compared = 0;
            for (x, y) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(x.name, y.name);
                if deterministic(x.name) {
                    assert_eq!(
                        x.value.to_bits(),
                        y.value.to_bits(),
                        "{} trace {trace}: {} differs ({} vs {})",
                        workload.name(),
                        x.name,
                        x.value,
                        y.value
                    );
                    compared += 1;
                }
            }
            assert!(compared >= 2, "{}: nothing compared", workload.name());
        }
    }
}

#[test]
fn a_second_seed_runs_clean() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = reduced(workload, 12, trace);
            assert!(report.attempted > 0);
        }
    }
}

#[test]
fn workloads_exercise_their_dominant_layers() {
    let value = |r: &Report, name: &str| r.value(name).expect(name);
    let grid = reduced(Workload::GridCold, 5, true);
    for name in [
        "grid.multigraph_ms",
        "locality.window_search_ms",
        "matching.mcbbm_ms",
        "matching.euler_decompose_ms",
        "paper.depth_vs_ats",
        "router.route_ms.naive-grid",
    ] {
        assert!(value(&grid, name) > 0.0, "grid-cold {name}");
    }
    let swap = reduced(Workload::SwapCold, 5, true);
    for name in [
        "ats.route_ms",
        "pathfinder.astar_pops",
        "topology.oracle_build_ms",
    ] {
        assert!(value(&swap, name) > 0.0, "swap-cold {name}");
    }
    assert_eq!(value(&swap, "locality.window_search_ms"), 0.0);
    let hot = reduced(Workload::CampaignHot, 5, true);
    assert!(value(&hot, "cache.hits") > 0.0);
    assert!(value(&hot, "dispatch.select_us") > 0.0);
    let daemon = reduced(Workload::DaemonMixed, 5, true);
    assert!(value(&daemon, "daemon.server_ms_p50") > 0.0);
}

#[test]
fn traced_counts_are_the_programs_own() {
    // Every job of the hot workloads is `auto`, and the program decides
    // once per job: no harness routing may reach the trace tally.
    for workload in [Workload::CampaignHot, Workload::DaemonMixed] {
        let report = reduced(workload, 5, true);
        let picked: f64 = report
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("dispatch.picked."))
            .map(|m| m.value)
            .sum();
        assert_eq!(picked, report.attempted as f64, "{}", workload.name());
    }
}
