//! The environment stamp printed with every result, and peak memory.

use std::process::{Command, Stdio};
use std::time::Instant;

/// Where a result was measured. Results whose `nproc` or `cpu` differ
/// are not comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvStamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// `git rev-parse HEAD` of the working directory, when it is a
    /// repository.
    pub commit: String,
    /// [`host_probe_ms`] at the start of the run and at its end.
    pub host_probe_ms: Vec<f64>,
}

impl EnvStamp {
    /// Probe the current environment.
    pub fn probe() -> EnvStamp {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        EnvStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["-V"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: command_line("git", &["rev-parse", "HEAD"]),
            host_probe_ms: vec![host_probe_ms()],
        }
    }
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run or fails. Waits for the command to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Milliseconds a fixed single-thread integer loop takes: the host's
/// current speed. A shared machine can slow down for minutes at a time;
/// two results whose probes differ much were measured on a different
/// machine in effect.
pub fn host_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..20_000_000u64 {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
