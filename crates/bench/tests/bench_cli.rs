//! End-to-end tests of the `repro` binary: the `bench` subcommand's
//! determinism and baseline gate, and the strict argument parsing.
//!
//! Each invocation uses `--sides 4 --seeds 1` to keep the matrix tiny —
//! these tests run the debug binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn repro")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qroute_bench_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

const TINY: &[&str] = &["bench", "--sides", "4", "--seeds", "1", "--no-time"];

#[test]
fn bench_runs_are_byte_identical() {
    let dir = tmp_dir("determinism");
    let a = repro(&[TINY, &["--out", "a"]].concat(), &dir);
    let b = repro(&[TINY, &["--out", "b"]].concat(), &dir);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    let ja = std::fs::read(dir.join("a/BENCH.json")).expect("first BENCH.json");
    let jb = std::fs::read(dir.join("b/BENCH.json")).expect("second BENCH.json");
    assert!(!ja.is_empty());
    assert_eq!(
        ja, jb,
        "same --seeds must produce byte-identical BENCH.json"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_check_gates_an_injected_depth_regression() {
    let dir = tmp_dir("gate");
    // Produce a matching baseline, then check against it: exit 0.
    let out = repro(&[TINY, &["--out", "base"]].concat(), &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = dir.join("base/BENCH.json");
    let ok = repro(
        &[
            TINY,
            &["--out", "cur", "--baseline", "base/BENCH.json", "--check"],
        ]
        .concat(),
        &dir,
    );
    assert!(
        ok.status.success(),
        "self-check must pass: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // Inject a depth regression: claim the baseline was 2x shallower on
    // every cell, so the current (unchanged) run regresses past tolerance.
    let report = qroute_bench::bench::BenchReport::from_json(
        &std::fs::read_to_string(&baseline).expect("read baseline"),
    )
    .expect("parse baseline");
    let mut tampered = report.clone();
    for cell in &mut tampered.cells {
        cell.summary_mut("depth").mean /= 2.0;
    }
    std::fs::write(dir.join("tampered.json"), tampered.to_json()).expect("write tampered");
    let fail = repro(
        &[
            TINY,
            &["--out", "cur", "--baseline", "tampered.json", "--check"],
        ]
        .concat(),
        &dir,
    );
    assert_eq!(
        fail.status.code(),
        Some(1),
        "injected regression must exit 1: {}",
        String::from_utf8_lossy(&fail.stderr)
    );
    let stdout = String::from_utf8_lossy(&fail.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(
        stdout.contains("| depth |"),
        "delta table expected:\n{stdout}"
    );

    // Without --check the diff is reported but the exit stays 0.
    let soft = repro(
        &[TINY, &["--out", "cur", "--baseline", "tampered.json"]].concat(),
        &dir,
    );
    assert!(soft.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_check_rejects_missing_and_malformed_baselines() {
    let dir = tmp_dir("badbaseline");
    let missing = repro(
        &[TINY, &["--baseline", "nope.json", "--check"]].concat(),
        &dir,
    );
    assert_eq!(missing.status.code(), Some(2));
    std::fs::write(dir.join("garbage.json"), "{ not json").expect("write garbage");
    let garbage = repro(
        &[TINY, &["--baseline", "garbage.json", "--check"]].concat(),
        &dir,
    );
    assert_eq!(garbage.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn arg_parsing_rejects_misuse_with_exit_2() {
    let dir = tmp_dir("args");
    for bad in [
        vec!["fig4", "fig5"],              // second positional command
        vec!["fig4", "--bogus"],           // unknown flag
        vec!["--check"],                   // --check without --baseline
        vec!["fig4", "--quick"],           // bench-only flag on another command
        vec!["bench", "--seeds"],          // flag missing its value
        vec!["bench", "--out", "--check"], // flag token where a value belongs
        vec!["bench", "--sides", "4,x"],   // malformed side list
        vec!["definitely-not-a-command"],  // unknown command
        // batch-only flags on other commands
        vec!["fig4", "--input", "jobs.jsonl"],
        vec!["bench", "--workers", "2"],
        vec!["bench", "--output", "r.jsonl"],
        vec!["transpile", "--cache-capacity", "8"],
        vec!["fig5", "--time"],
        // bench/sweep flags on batch, and batch misuse
        vec!["batch", "--input", "j.jsonl", "--quick"],
        vec!["batch", "--input", "j.jsonl", "--sides", "4"],
        vec!["batch", "--input", "j.jsonl", "--seeds", "2"],
        vec!["batch", "--input", "j.jsonl", "--out", "results"],
        vec!["batch"], // --input is required
        vec!["batch", "--input", "j.jsonl", "--workers", "0"],
        // zero sweep values, and sweep flags on topo
        vec!["fig4", "--sides", "0"],
        vec!["bench", "--sides", "4", "--seeds", "0", "--no-time"],
        vec!["topo", "--kind", "grid", "--sides", "4"],
    ] {
        let out = repro(&bad, &dir);
        assert_eq!(out.status.code(), Some(2), "{bad:?} should exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("USAGE"),
            "{bad:?} should print usage:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_smoke_rejects_a_repeated_router() {
    let dir = tmp_dir("repeated_router");
    let out = repro(
        &["bench", "--quick", "--sides", "4", "--routers", "ats,ats"],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"ats\" twice"), "{stderr}");
    assert!(!dir.join("results").exists(), "nothing may be measured");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_smoke_runs_no_circuit_cells_so_skips_their_side_check() {
    // Side 2 cannot hold the circuit matrix's 10-qubit replay fixture,
    // but the smoke mode measures permutation cells only.
    let dir = tmp_dir("smoke_side2");
    let out = repro(
        &["bench", "--quick", "--sides", "2", "--routers", "ats"],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = qroute_bench::bench::BenchReport::from_json(
        &std::fs::read_to_string(dir.join("results/BENCH.json")).expect("read report"),
    )
    .expect("parse report");
    assert_eq!(report.cells.len(), 5, "one cell per permutation class");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_exits_zero() {
    let dir = tmp_dir("help");
    let out = repro(&["--help"], &dir);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    let _ = std::fs::remove_dir_all(&dir);
}
