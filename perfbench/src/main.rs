//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <result-a.txt> <result-b.txt>
//! ```
//!
//! A run prints a table of its metrics (name, value, unit, samples), an
//! `{"env": ...}` stamp line, and as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 1 when any
//! output check failed and 2 on a usage error. `--compare` reads two
//! saved outputs and prints each metric's ratio, refusing outputs
//! measured on a different core count or CPU model.

use perfbench::workload::Workload;
use perfbench::{run, RunConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <grid-cold|swap-cold|campaign-hot|daemon-mixed> \
--seed <n> --seconds <s> --trace <0|1>\n       \
perfbench --compare <result-a.txt> <result-b.txt>";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::GridCold,
        seed: 0,
        seconds: 10.0,
        trace: false,
        chunks: None,
        reduced: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload"))?);
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

/// `--compare`: metric ratios `b / a`, refused across environments.
fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<(serde_json::Value, serde_json::Value), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let parse = |line: &str| serde_json::from_str(line).map_err(|e| format!("{path}: {e}"));
        let env = text
            .lines()
            .find(|l| l.starts_with(r#"{"env":"#))
            .ok_or_else(|| format!("{path}: no env line"))?;
        let result = text
            .lines()
            .last()
            .ok_or_else(|| format!("{path}: empty"))?;
        Ok((parse(env)?, parse(result)?))
    };
    let (env_a, res_a) = load(a_path)?;
    let (env_b, res_b) = load(b_path)?;
    for key in ["nproc", "cpu"] {
        let get = |env: &serde_json::Value| {
            env.get("env")
                .and_then(|e| e.get(key))
                .map(|v| format!("{v:?}"))
        };
        if get(&env_a) != get(&env_b) {
            return Err(format!(
                "refusing to compare: {key} differs ({:?} vs {:?})",
                get(&env_a),
                get(&env_b)
            ));
        }
    }
    let serde_json::Value::Object(metrics_a) = res_a
        .get("metrics")
        .cloned()
        .unwrap_or(serde_json::Value::Null)
    else {
        return Err(format!("{a_path}: result line has no metrics"));
    };
    println!("{:<34} {:>14} {:>14} {:>8}", "metric", "a", "b", "b/a");
    for (name, a) in metrics_a {
        let value =
            |v: Option<&serde_json::Value>| v.and_then(|m| m.get("value")).and_then(|x| x.as_f64());
        let (Some(a), Some(b)) = (
            value(Some(&a)),
            value(res_b.get("metrics").and_then(|m| m.get(&name))),
        ) else {
            continue;
        };
        let ratio = if a == 0.0 { f64::NAN } else { b / a };
        println!("{name:<34} {a:>14.6} {b:>14.6} {ratio:>8.4}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, a, b] => match compare(a, b) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "perfbench {} seed={} trace={} chunks={} jobs={}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        report.chunks,
        report.attempted
    );
    println!(
        "{:<34} {:>16} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        let samples = m.samples.map_or(String::new(), |n| n.to_string());
        println!(
            "{:<34} {:>16.6} {:<6} {:>9}",
            m.name, m.value, m.unit, samples
        );
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{:<34} {:>16.6} {:<6} {:>9}",
        "failed_frac", failed_frac, "ratio", report.attempted
    );
    for failure in &report.failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", report.env_json(&cfg));
    println!("{}", report.result_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
