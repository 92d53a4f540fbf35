//! Regenerate every figure/table of the paper's evaluation, produce the
//! machine-readable benchmark record, and drive the routing service.
//!
//! Markdown tables print to stdout; CSV/JSON/SVG files land in `--out`
//! (default `results/`). The `bench` subcommand writes `BENCH.json` and,
//! with `--baseline <file> --check`, exits 1 when a gated metric
//! regressed past tolerance. The `batch` subcommand routes a JSONL job
//! stream through the `qroute_service` engine with deterministic,
//! input-ordered output — in-process by default, or through a running
//! `repro serve` daemon with `--connect`. The `serve` subcommand runs
//! the long-lived routing daemon; `ctl` queries or drains it. The
//! `topo` subcommand materializes a coupling topology and prints a
//! summary or Graphviz DOT.
//!
//! `repro --help` prints the usage, the `USAGE` text below. The flag
//! table `FLAGS` is the one place that says which command accepts which
//! flag and what value it takes; `check_combinations` holds the few rules
//! that involve more than one flag.

use qroute_bench::bench::{self, BenchConfig, BenchReport};
use qroute_bench::experiments;
use qroute_bench::plot::{cells_to_chart, Scale};
use qroute_bench::report;
use qroute_service::{
    render_stats_table, ChaosConfig, Client, Daemon, Engine, EngineConfig, RetryPolicy,
    RetryingClient, RouteJob,
};
use qroute_topology::{gridlike, Grid, Topology};
use std::collections::BTreeMap;
use std::path::Path;

const USAGE: &str = "\
repro — regenerate the paper's figures and tables, and drive the
routing service

USAGE:
    repro [fig4|fig5|hybrid|skinny|ablations|optgap|transpile|bench|all]
          [--sides 4,8,16,32] [--seeds N] [--out DIR]
          [--quick] [--no-time] [--circuit-sides 4,8]
          [--routers pathfinder,ats]
          [--baseline BENCH.json] [--check]
    repro batch --input jobs.jsonl [--output results.jsonl]
          [--workers N] [--cache-capacity K] [--time]
          [--trace out.jsonl [--trace-format jsonl|chrome]]
    repro batch --input jobs.jsonl --connect HOST:PORT [--output F]
          [--retries N] [--retry-base-ms MS]
    repro serve --addr HOST:PORT [--workers N] [--cache-capacity K]
          [--queue-depth N] [--client-queue N]
          [--default-deadline-ms MS] [--max-worker-restarts N]
          [--chaos-panic-every N] [--chaos-latency-ms MS]
          [--chaos-latency-every N] [--chaos-drop-after-bytes B]
          [--chaos-drop-conns N] [--chaos-torn-writes]
    repro ctl --connect HOST:PORT (--stats [--pretty] | --metrics | --shutdown)
    repro topo --kind <grid|defect|heavy-hex|brick|torus>
          [--rows R] [--cols C] [--defects 6,12] [--dot]

Markdown tables print to stdout; CSV/JSON/SVG files land in --out
(default results/).

bench writes the machine-readable BENCH.json (schema v5: env metadata +
per router×class×side permutation cells with depth/size/lower-bound/time
percentiles over seeds, circuit cells with swap/routing-depth/
invocation/time percentiles over verified transpiles, defect cells
routing non-grid topologies per topology×router×side, service cells
with jobs/sec + cache hit rate per side×workers, and daemon cells
replaying the example batch through a live TCP daemon per
concurrent-client count) to --out.
Bench-only flags:
    --quick           CI gate config: 2 seeds, timing off (deterministic)
    --no-time         skip wall-clock capture (byte-stable output)
    --circuit-sides S circuit-matrix sides (default: same as --sides
                      when given, else the config's {4,8}; every side
                      must fit the 10-qubit QASM replay fixture)
    --routers R,S     smoke mode: run only the permutation matrix,
                      restricted to the named routers (labels as in the
                      support matrix, e.g. pathfinder,ats); skips the
                      circuit/defect/service/daemon matrices and cannot
                      combine with --baseline
    --baseline F      compare against a committed BENCH.json
    --check           with --baseline: exit 1 on regression
                      (per-class depth/swap tolerance; mean time +25%;
                      pathfinder permutation cells always get 5%)

batch routes a JSONL job stream through the multi-worker service engine
(one {\"side\", \"router\", \"perm\"|\"class\"+\"seed\"} object per line;
router is a label or \"auto\") and writes one outcome line per job, in
input order. Output bytes are deterministic for fixed inputs regardless
of --workers unless --time is given. Malformed jobs become per-job error
outcomes and set exit code 1. With --connect, the same job stream is
replayed through a running `repro serve` daemon instead of an in-process
engine; the outcome bytes are identical to the in-process (untimed) run.
Batch flags:
    --input F         JSONL jobs file (required)
    --output F        results file (default: stdout)
    --workers N       engine worker threads (default 4; local mode only)
    --cache-capacity K  canonical-cache entries (default 1024, 0 = off;
                      local mode only)
    --time            record per-job routing time (non-deterministic;
                      local mode only)
    --trace F         write a structured trace of router internals
                      (phase spans, per-round counters, cache and
                      dispatch events) to F; local mode only. Routing
                      output bytes are unchanged by tracing.
    --trace-format X  trace encoding: jsonl (default; one record per
                      line) or chrome (trace_event array for
                      chrome://tracing / Perfetto)
    --connect A       route through the daemon at A (host:port)
    --retries N       with --connect: reconnect and resubmit unanswered
                      jobs up to N times per job on retry-safe errors
                      (backpressure, io, shutdown); default 0 = one
                      connection, fail fast
    --retry-base-ms MS  with --retries: first backoff step (must be
                      >= 1; doubles per attempt, clamped to the policy
                      cap of 1000 ms before jitter; default 10)

serve runs the long-lived routing daemon: a TCP server speaking the
same JSONL wire format, one request line in, one outcome line out, any
number of concurrent client connections. Outcome order and bytes per
connection match an untimed `repro batch` of the same lines. Stops on a
`repro ctl --shutdown` (graceful drain: admitted jobs finish first).
Serve flags:
    --addr A          listen address, e.g. 127.0.0.1:7878 (required;
                      port 0 picks an ephemeral port)
    --workers N       routing worker threads (default 4)
    --cache-capacity K  shared canonical-cache entries (default 1024)
    --queue-depth N   routing work-queue bound (default 32)
    --client-queue N  per-connection in-flight job limit; jobs past it
                      are rejected with a backpressure error outcome
                      (default 256)
    --default-deadline-ms MS  deadline for jobs that carry none; a job
                      past its deadline answers with a timeout outcome
                      (default: unbounded)
    --max-worker-restarts N  supervised respawn budget for crashed
                      routing workers (default 64)
Chaos flags (fault injection for resilience testing; off by default):
    --chaos-panic-every N     panic the worker on every Nth compute
    --chaos-latency-ms MS     injected latency per targeted compute
    --chaos-latency-every N   target every Nth compute with the latency
                              (default 1 when --chaos-latency-ms is set)
    --chaos-drop-after-bytes B  sever each of the first --chaos-drop-conns
                              connections after ~B outcome bytes
    --chaos-drop-conns N      how many connections to sever (default 1
                              when --chaos-drop-after-bytes is set)
    --chaos-torn-writes       tear the final line in half when severing

ctl sends one control request to a running daemon and prints the
response line on stdout.
Ctl flags:
    --connect A       daemon address (required)
    --stats           request the counter snapshot (one JSON line)
    --pretty          with --stats: render the snapshot as an aligned
                      text table instead of raw JSON
    --metrics         request the Prometheus text exposition of the
                      daemon's metrics registry (counters, gauges,
                      latency histogram) and print it verbatim
    --shutdown        request a graceful drain-and-exit

topo materializes one coupling topology and prints a one-line summary
(vertex/edge counts), or its Graphviz DOT with --dot.
Topo-only flags:
    --kind K          grid | defect | heavy-hex | brick | torus (required)
    --rows R          row count (default 4)
    --cols C          column count (default 4)
    --defects LIST    comma-separated dead vertex ids (defect kind only)
    --dot             emit Graphviz DOT on stdout instead of the summary";

type Run = fn(&Args);

fn usage_error(msg: String) -> ! {
    fail(format!("{msg}\n\n{USAGE}"))
}

/// Exit 2 on a runtime error (an unreadable file, an unreachable daemon):
/// the message alone, without the usage text.
fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Every command and what runs it.
const COMMANDS: &[(&str, Run)] = &[
    ("fig4", run_fig4),
    ("fig5", run_fig5),
    ("hybrid", run_hybrid),
    ("skinny", run_skinny),
    ("ablations", run_ablations),
    ("optgap", run_optgap),
    ("transpile", run_transpile),
    ("bench", run_bench_cmd),
    ("batch", run_batch_cmd),
    ("serve", run_serve_cmd),
    ("ctl", run_ctl_cmd),
    ("topo", run_topo_cmd),
    ("all", run_all),
];

/// The commands that sweep grid sides and seeds (`all` passes the sweep
/// flags on to every figure it runs).
const SWEEP: &[&str] = &[
    "fig4",
    "fig5",
    "hybrid",
    "skinny",
    "ablations",
    "optgap",
    "transpile",
    "bench",
    "all",
];
const BENCH: &[&str] = &["bench"];
const BATCH: &[&str] = &["batch"];
const SERVE: &[&str] = &["serve"];
const CTL: &[&str] = &["ctl"];
const TOPO: &[&str] = &["topo"];

/// Upper bounds of the integer types the flag values feed.
const U64: u64 = u64::MAX;
const U32: u64 = u32::MAX as u64;
const USIZE: u64 = usize::MAX as u64;

/// What value a flag takes.
#[derive(Clone, Copy)]
enum Kind {
    /// None: the flag is a switch.
    Switch,
    /// Any string (a path, an address, a label list).
    Text,
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A comma-separated list of integers, each at least the given minimum.
    Ints(u64),
    /// One of the given words.
    OneOf(&'static [&'static str]),
}

/// Every flag: its name, its value, and the commands that accept it,
/// grouped as `USAGE` lists them.
const FLAGS: &[(&str, Kind, &[&str])] = &[
    ("--sides", Kind::Ints(1), SWEEP),
    ("--seeds", Kind::Int(1, U64), SWEEP),
    ("--out", Kind::Text, SWEEP),
    ("--quick", Kind::Switch, BENCH),
    ("--no-time", Kind::Switch, BENCH),
    ("--circuit-sides", Kind::Ints(1), BENCH),
    ("--routers", Kind::Text, BENCH),
    ("--baseline", Kind::Text, BENCH),
    ("--check", Kind::Switch, BENCH),
    ("--input", Kind::Text, BATCH),
    ("--output", Kind::Text, BATCH),
    ("--workers", Kind::Int(1, USIZE), &["batch", "serve"]),
    ("--cache-capacity", Kind::Int(0, USIZE), &["batch", "serve"]),
    ("--time", Kind::Switch, BATCH),
    ("--trace", Kind::Text, BATCH),
    ("--trace-format", Kind::OneOf(&["jsonl", "chrome"]), BATCH),
    ("--connect", Kind::Text, &["batch", "ctl"]),
    ("--retries", Kind::Int(0, U32), BATCH),
    ("--retry-base-ms", Kind::Int(1, U64), BATCH),
    ("--addr", Kind::Text, SERVE),
    ("--queue-depth", Kind::Int(1, USIZE), SERVE),
    ("--client-queue", Kind::Int(1, USIZE), SERVE),
    ("--default-deadline-ms", Kind::Int(1, U64), SERVE),
    ("--max-worker-restarts", Kind::Int(0, U64), SERVE),
    ("--chaos-panic-every", Kind::Int(0, U64), SERVE),
    ("--chaos-latency-ms", Kind::Int(0, U64), SERVE),
    ("--chaos-latency-every", Kind::Int(0, U64), SERVE),
    ("--chaos-drop-after-bytes", Kind::Int(0, U64), SERVE),
    ("--chaos-drop-conns", Kind::Int(0, U32), SERVE),
    ("--chaos-torn-writes", Kind::Switch, SERVE),
    ("--stats", Kind::Switch, CTL),
    ("--metrics", Kind::Switch, CTL),
    ("--pretty", Kind::Switch, CTL),
    ("--shutdown", Kind::Switch, CTL),
    ("--kind", Kind::Text, TOPO),
    ("--rows", Kind::Int(1, USIZE), TOPO),
    ("--cols", Kind::Int(1, USIZE), TOPO),
    ("--defects", Kind::Ints(0), TOPO),
    ("--dot", Kind::Switch, TOPO),
];

impl Kind {
    /// Exit with a usage error unless `raw` is a valid value of `flag`.
    fn check(self, flag: &str, raw: &str) {
        let int = |s: &str, min, max| s.parse().is_ok_and(|n: u64| (min..=max).contains(&n));
        let (bad, wants) = match self {
            Kind::Switch | Kind::Text => (None, String::new()),
            Kind::Int(min, max) => (
                Some(raw).filter(|s| !int(s, min, max)),
                format!("{} integer", if min > 0 { "a positive" } else { "an" }),
            ),
            Kind::Ints(min) => (
                raw.split(',').find(|s| !int(s.trim(), min, USIZE)),
                format!("{}integers", if min > 0 { "positive " } else { "" }),
            ),
            Kind::OneOf(words) => (Some(raw).filter(|s| !words.contains(s)), words.join(" or ")),
        };
        if let Some(bad) = bad {
            usage_error(format!("{flag} wants {wants}, got {bad:?}"));
        }
    }
}

/// The parsed command line: the command, and the checked value of every
/// flag given (the last one wins when a flag repeats; a switch holds "").
struct Args {
    command: &'static str,
    values: BTreeMap<&'static str, String>,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// An integer flag's value, as the type its table bounds fit.
    fn int<T>(&self, flag: &str) -> Option<T>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Debug,
    {
        let parse = |v: &str| v.parse().expect("parse_args checked every integer flag");
        self.text(flag).map(parse)
    }

    fn ints(&self, flag: &str) -> Option<Vec<usize>> {
        let parse = |s: &str| {
            s.trim()
                .parse()
                .expect("parse_args checked every integer list")
        };
        self.text(flag).map(|v| v.split(',').map(parse).collect())
    }

    /// Sweep sides: `--sides` override or the experiment defaults.
    fn sweep_sides(&self) -> Vec<usize> {
        self.ints("--sides")
            .unwrap_or_else(experiments::default_sides)
    }

    /// Seeds per cell: `--seeds` override or 5.
    fn sweep_seeds(&self) -> u64 {
        self.int("--seeds").unwrap_or(5)
    }

    fn out(&self) -> &Path {
        Path::new(self.text("--out").unwrap_or("results"))
    }

    /// The bench-matrix configuration implied by the flags. `--sides`
    /// scopes every grid matrix (so `--sides 4` runs a genuinely tiny
    /// bench) unless `--circuit-sides` picks the circuit sides explicitly;
    /// `--seeds` likewise sets every seed count.
    fn bench_config(&self) -> BenchConfig {
        let mut config = if self.has("--quick") {
            BenchConfig::quick()
        } else {
            BenchConfig::full()
        };
        if let Some(sides) = self.ints("--sides") {
            config.sides = sides.clone();
            config.circuit_sides = sides.clone();
            config.defect_sides = sides;
        }
        if let Some(circuit_sides) = self.ints("--circuit-sides") {
            config.circuit_sides = circuit_sides;
        }
        if let Some(seeds) = self.int("--seeds") {
            config.seeds = seeds;
            config.circuit_seeds = seeds;
            config.defect_seeds = seeds;
        }
        if self.has("--no-time") {
            config.timing = false;
        }
        config
    }
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut command: Option<&str> = None;
    let mut values = BTreeMap::new();
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].as_str();
        i += 1;
        if arg == "--help" || arg == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        if !arg.starts_with('-') {
            if let Some(first) = command {
                usage_error(format!(
                    "unexpected second command {arg:?} (already got {first:?})"
                ));
            }
            command = Some(arg);
            continue;
        }
        let Some(&(name, kind, _)) = FLAGS.iter().find(|(name, ..)| *name == arg) else {
            usage_error(format!("unknown flag {arg}"));
        };
        let raw = if matches!(kind, Kind::Switch) {
            ""
        } else {
            // A following flag token is a missing value, not a value —
            // otherwise `--out --check` silently eats the next flag.
            let value = argv.get(i).filter(|v| !v.starts_with('-'));
            i += 1;
            value.unwrap_or_else(|| usage_error(format!("{arg} requires a value")))
        };
        kind.check(name, raw);
        values.insert(name, raw.to_string());
    }
    let command = command.unwrap_or("all");
    let Some(&(command, _)) = COMMANDS.iter().find(|(name, _)| *name == command) else {
        let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        usage_error(format!(
            "unknown command {command:?}; expected {}",
            names.join("|")
        ));
    };
    for &(flag, _, commands) in FLAGS {
        if values.contains_key(flag) && !commands.contains(&command) {
            usage_error(match commands {
                [only] => format!("{flag} only applies to the {only} command"),
                [a, b] => format!("{flag} only applies to the {a} and {b} commands"),
                _ => format!("{flag} does not apply to the {command} command"),
            });
        }
    }
    let args = Args { command, values };
    check_combinations(&args);
    args
}

/// The rules that involve more than one flag.
fn check_combinations(args: &Args) {
    for (command, flag, value) in [
        ("serve", "--addr", "<host:port>"),
        ("ctl", "--connect", "<host:port>"),
        ("batch", "--input", "<jobs.jsonl>"),
        ("topo", "--kind", "<grid|defect|heavy-hex|brick|torus>"),
    ] {
        if args.command == command && !args.has(flag) {
            usage_error(format!("{command} requires {flag} {value}"));
        }
    }
    let requests = ["--stats", "--metrics", "--shutdown"];
    if args.command == "ctl" && requests.into_iter().filter(|f| args.has(f)).count() != 1 {
        usage_error("ctl requires exactly one of --stats, --metrics, or --shutdown".to_string());
    }
    if args.has("--pretty") && !args.has("--stats") {
        usage_error("--pretty only applies to ctl --stats".to_string());
    }
    if args.has("--routers") && args.has("--baseline") {
        usage_error(
            "--routers runs a partial matrix and cannot be checked against a full --baseline"
                .to_string(),
        );
    }
    if args.command == "batch" {
        let (excluded, why) = if args.has("--connect") {
            (
                ["--workers", "--cache-capacity", "--time", "--trace"].as_slice(),
                "does not apply when batch routes through --connect \
                 (the daemon owns its engine configuration)",
            )
        } else {
            (
                ["--retries", "--retry-base-ms"].as_slice(),
                "only applies when batch routes through --connect \
                 (an in-process engine has no connection to retry)",
            )
        };
        if let Some(flag) = excluded.iter().find(|f| args.has(f)) {
            usage_error(format!("{flag} {why}"));
        }
    }
    for (flag, needs) in [
        ("--retry-base-ms", "--retries"),
        ("--trace-format", "--trace"),
        ("--check", "--baseline"),
    ] {
        if args.has(flag) && !args.has(needs) {
            usage_error(format!("{flag} requires {needs}"));
        }
    }
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write output file");
    eprintln!("wrote {}", path.display());
}

fn run_fig4(args: &Args) {
    eprintln!("== Figure 4: depth of computed swap networks ==");
    let cells = experiments::figure4(&args.sweep_sides(), args.sweep_seeds());
    println!("\n## Figure 4 — depth of computed swap networks\n");
    println!("{}", report::depth_table_markdown(&cells));
    write_file(args.out(), "fig4_depth.csv", &report::cells_to_csv(&cells));
    let chart = cells_to_chart(
        &cells,
        "Figure 4: depth of computed swap networks",
        "mean depth (layers, log scale)",
        Scale::Log,
        |c| c.mean_depth.max(1e-3),
    );
    write_file(args.out(), "fig4_depth.svg", &chart.to_svg());
}

fn run_fig5(args: &Args) {
    eprintln!("== Figure 5: time spent finding swap networks ==");
    let cells = experiments::figure5(&args.sweep_sides(), args.sweep_seeds());
    println!("\n## Figure 5 — time spent on finding swap networks\n");
    println!("{}", report::time_table_markdown(&cells));
    write_file(args.out(), "fig5_time.csv", &report::cells_to_csv(&cells));
    let chart = cells_to_chart(
        &cells,
        "Figure 5: time spent on finding swap networks",
        "mean time (ms, log scale)",
        Scale::Log,
        |c| c.mean_time_ms.max(1e-4),
    );
    write_file(args.out(), "fig5_time.svg", &chart.to_svg());
}

fn run_hybrid(args: &Args) {
    eprintln!("== Hybrid clamp check (§V) ==");
    let rows = experiments::hybrid_check(&args.sweep_sides(), args.sweep_seeds());
    println!("\n## Hybrid clamp (locality-aware ⊓ naive)\n");
    println!("{}", report::hybrid_markdown(&rows));
    let json = serde_json::to_string_pretty(&rows).expect("serialize hybrid rows");
    write_file(args.out(), "hybrid.json", &json);
}

fn run_skinny(args: &Args) {
    eprintln!("== Skinny orthogonal cycles (§V adversarial case) ==");
    let cells = experiments::skinny_sweep(&args.sweep_sides(), args.sweep_seeds());
    println!("\n## Skinny orthogonal cycles — depth\n");
    println!("{}", report::depth_table_markdown(&cells));
    println!("\n## Skinny orthogonal cycles — time\n");
    println!("{}", report::time_table_markdown(&cells));
    write_file(args.out(), "skinny.csv", &report::cells_to_csv(&cells));
}

fn run_ablations(args: &Args) {
    eprintln!("== Ablations of the locality-aware router ==");
    let side = args
        .sweep_sides()
        .iter()
        .copied()
        .max()
        .unwrap_or(16)
        .min(16);
    let rows = experiments::ablations(side, args.sweep_seeds());
    println!("\n## Ablations ({side}×{side})\n");
    println!("{}", report::ablation_markdown(&rows));
    let json = serde_json::to_string_pretty(&rows).expect("serialize ablation rows");
    write_file(args.out(), "ablations.json", &json);
}

fn run_optgap(args: &Args) {
    eprintln!("== Optimality gap vs exact BFS optimum (tiny grids) ==");
    let rows = experiments::optimality_gap(args.sweep_seeds().max(5));
    println!("\n## Optimality gap on tiny grids\n");
    println!("{}", report::optgap_markdown(&rows));
    let json = serde_json::to_string_pretty(&rows).expect("serialize optgap rows");
    write_file(args.out(), "optgap.json", &json);
}

fn run_transpile(args: &Args) {
    eprintln!("== End-to-end transpilation (extension) ==");
    let rows = experiments::transpile_comparison();
    println!("\n## End-to-end transpilation\n");
    println!("{}", report::transpile_markdown(&rows));
    let json = serde_json::to_string_pretty(&rows).expect("serialize transpile rows");
    write_file(args.out(), "transpile.json", &json);
}

/// Resolve the `--routers` labels against the bench router axis, failing
/// fast on an empty list, a label the matrix does not know, or a label
/// named twice (which would measure every cell twice under one key).
fn resolve_router_labels(list: &str) -> Vec<qroute_core::RouterKind> {
    let axis = bench::bench_routers();
    let labels: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if labels.is_empty() {
        usage_error("--routers wants a non-empty router list".to_string());
    }
    let mut routers: Vec<qroute_core::RouterKind> = Vec::new();
    for label in labels {
        let Some(router) = axis.iter().find(|r| r.label() == label) else {
            let known: Vec<&str> = axis.iter().map(|r| r.label()).collect();
            usage_error(format!(
                "--routers got unknown router {label:?} (known: {})",
                known.join(", ")
            ));
        };
        if routers.iter().any(|r| r.label() == label) {
            usage_error(format!("--routers names {label:?} twice"));
        }
        routers.push(router.clone());
    }
    routers
}

fn run_bench_cmd(args: &Args) {
    let config = args.bench_config();
    if let Some(list) = args.text("--routers") {
        let routers = resolve_router_labels(list);
        eprintln!(
            "== Router smoke: {} routers × {} permutation classes × sides {:?}, {} seeds; \
             timing {} ==",
            routers.len(),
            qroute_bench::workloads::WorkloadClass::bench_classes().len(),
            config.sides,
            config.seeds,
            if config.timing { "on" } else { "off" },
        );
        let report = bench::run_router_smoke(&config, &routers);
        write_file(args.out(), "BENCH.json", &report.to_json());
        eprintln!(
            "{} permutation cells measured (schema v{}); every schedule verified",
            report.cells.len(),
            report.schema_version
        );
        return;
    }
    // The replay fixture needs 10 qubits: fail fast on circuit sides < 4
    // instead of panicking mid-measurement.
    if let Some(&side) = config.circuit_sides.iter().find(|&&s| s * s < 10) {
        usage_error(format!(
            "circuit side {side} cannot hold the 10-qubit replay fixture (need side >= 4)"
        ));
    }
    // Load and validate the baseline up front: a typo'd path or stale
    // schema should fail instantly, not after minutes of measurement.
    let baseline_path = args.text("--baseline").map(Path::new);
    let baseline = baseline_path.map(|baseline_path| {
        let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            fail(format!(
                "cannot read baseline {}: {e}",
                baseline_path.display()
            ))
        });
        BenchReport::from_json(&text).unwrap_or_else(|e| {
            fail(format!(
                "malformed baseline {}: {e}",
                baseline_path.display()
            ))
        })
    });
    eprintln!(
        "== Benchmark matrix: {} routers × {} permutation classes × sides {:?}, {} seeds; \
         {} routers × {} circuit classes × sides {:?}, {} seeds; \
         {} topologies × {} routers × sides {:?}, {} seeds; timing {} ==",
        bench::bench_routers().len(),
        qroute_bench::workloads::WorkloadClass::bench_classes().len(),
        config.sides,
        config.seeds,
        bench::circuit_routers().len(),
        qroute_bench::circuits::CircuitClass::all_classes().len(),
        config.circuit_sides,
        config.circuit_seeds,
        bench::DEFECT_TOPOLOGY_AXIS.len(),
        bench::DEFECT_ROUTER_AXIS.len(),
        config.defect_sides,
        config.defect_seeds,
        if config.timing { "on" } else { "off" },
    );
    let current = bench::run_bench(&config);
    write_file(args.out(), "BENCH.json", &current.to_json());
    let statevector_cells = current
        .circuit_cells
        .iter()
        .filter(|c| c.flag("statevector_checked"))
        .count();
    eprintln!(
        "{} permutation cells + {} circuit cells + {} defect cells measured (schema v{}); \
         every transpile verified, {statevector_cells} circuit cells statevector-checked",
        current.cells.len(),
        current.circuit_cells.len(),
        current.defect_cells.len(),
        current.schema_version
    );

    let (Some(baseline), Some(baseline_path)) = (baseline, baseline_path) else {
        return;
    };
    let outcome = bench::check_against_baseline(&current, &baseline);
    let regressions = outcome.regressions();
    eprintln!(
        "baseline {}: {} comparisons, {} regressions, {} baseline cells missing, \
         {} new cells, {} seed mismatches",
        baseline_path.display(),
        outcome.deltas.len(),
        regressions.len(),
        outcome.missing_in_current.len(),
        outcome.new_in_current.len(),
        outcome.seed_mismatches.len(),
    );
    if outcome.passed() {
        println!(
            "\n## Bench check: OK ({} comparisons within tolerance)\n",
            outcome.deltas.len()
        );
        return;
    }
    println!("\n## Bench check: REGRESSED\n");
    if !regressions.is_empty() {
        println!("{}", bench::delta_table_markdown(&regressions));
    }
    for key in &outcome.missing_in_current {
        println!("- baseline cell `{key}` missing from this run");
    }
    for key in &outcome.seed_mismatches {
        println!("- seed-count mismatch `{key}` (rerun with the baseline's --seeds)");
    }
    if args.has("--check") {
        std::process::exit(1);
    }
}

/// Route a JSONL job stream through the service engine: one outcome
/// line per job, in input order. Exit 1 when any job errored (after
/// writing every outcome), 2 on I/O problems. With `--connect`, the
/// stream is replayed through a running daemon instead; the outcome
/// bytes are identical to the in-process (untimed) run.
/// The installed `--trace` subscriber for a local batch run. Installed
/// globally (the engine routes jobs on its own worker threads, which a
/// thread-local subscriber would never arm); [`BatchTracer::finish`]
/// disarms and closes the output.
enum BatchTracer {
    Jsonl(std::sync::Arc<qroute_obs::trace::JsonlSubscriber>),
    Chrome(std::sync::Arc<qroute_obs::trace::ChromeSubscriber>),
}

impl BatchTracer {
    fn install(path: &std::path::Path, format: Option<&str>) -> BatchTracer {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", path.display())));
        let writer: Box<dyn std::io::Write + Send> = Box::new(std::io::BufWriter::new(file));
        let (tracer, sub): (
            BatchTracer,
            std::sync::Arc<dyn qroute_obs::trace::Subscriber>,
        ) = match format {
            Some("chrome") => {
                let sub = std::sync::Arc::new(qroute_obs::trace::ChromeSubscriber::new(writer));
                (BatchTracer::Chrome(std::sync::Arc::clone(&sub)), sub)
            }
            _ => {
                let sub = std::sync::Arc::new(qroute_obs::trace::JsonlSubscriber::new(writer));
                (BatchTracer::Jsonl(std::sync::Arc::clone(&sub)), sub)
            }
        };
        qroute_obs::trace::install_global(Some(sub));
        tracer
    }

    fn finish(self) {
        qroute_obs::trace::install_global(None);
        match self {
            BatchTracer::Jsonl(sub) => sub.finish(),
            BatchTracer::Chrome(sub) => sub.finish(),
        }
    }
}

fn run_batch_cmd(args: &Args) {
    let input_path = Path::new(args.text("--input").expect("parse_args enforced --input"));
    let text = std::fs::read_to_string(input_path)
        .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", input_path.display())));
    let mut sink: Box<dyn std::io::Write> = match args.text("--output") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
            Box::new(std::io::BufWriter::new(file))
        }
        None => Box::new(std::io::stdout().lock()),
    };
    if let Some(connect) = args.text("--connect") {
        run_batch_via_daemon(connect, args, &text, &mut *sink);
        return;
    }
    let tracer = args
        .text("--trace")
        .map(|path| BatchTracer::install(Path::new(path), args.text("--trace-format")));
    let config = EngineConfig::builder()
        .workers(args.int("--workers").unwrap_or(4))
        .cache_capacity(args.int("--cache-capacity").unwrap_or(1024))
        .timing(args.has("--time"))
        .build()
        .unwrap_or_else(|e| fail(e.to_string()));
    let mut engine = Engine::new(config);
    // Interleave submission and (id-ordered) collection so resident
    // results stay bounded by the window, not the stream length.
    const PENDING_WINDOW: usize = 1024;
    let mut errors = 0usize;
    let mut collect_one = |engine: &mut Engine, sink: &mut dyn std::io::Write| {
        if let Some(result) = engine.collect_next() {
            if result.outcome.error.is_some() {
                errors += 1;
            }
            writeln!(sink, "{}", result.outcome.to_json_line()).expect("write outcome line");
        }
    };
    let t0 = std::time::Instant::now();
    let mut submitted = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue; // blank lines separate sections, they are not jobs
        }
        match RouteJob::from_json_line(line) {
            Ok(job) => engine.submit(&job),
            Err(e) => engine.submit_error(e),
        };
        submitted += 1;
        while engine.pending_len() > PENDING_WINDOW {
            collect_one(&mut engine, &mut *sink);
        }
    }
    while engine.pending_len() > 0 {
        collect_one(&mut engine, &mut *sink);
    }
    sink.flush().expect("flush outcomes");
    drop(sink);
    if let Some(tracer) = tracer {
        tracer.finish();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = engine.cache_stats();
    eprintln!(
        "batch summary: jobs={submitted} errors={errors} hits={} misses={} evictions={} \
         hit_rate={:.3} workers={} jobs_per_sec={:.1}",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.hit_rate(),
        engine.config().workers,
        if elapsed > 0.0 {
            submitted as f64 / elapsed
        } else {
            0.0
        },
    );
    if errors > 0 {
        std::process::exit(1);
    }
}

/// Replay a job stream through a running daemon: same per-line
/// protocol, same outcome bytes as the in-process engine. With
/// `--retries`, a [`RetryingClient`] reconnects and resubmits
/// unanswered jobs on retry-safe errors instead of failing fast.
fn run_batch_via_daemon(addr: &str, args: &Args, text: &str, sink: &mut dyn std::io::Write) {
    let (outcomes, resubmissions) = match args.int("--retries") {
        Some(max_retries) if max_retries > 0 => {
            let base_ms = args.int("--retry-base-ms").unwrap_or(10);
            let policy = RetryPolicy {
                max_retries,
                base_ms,
                // A base above the default cap would clamp to the cap on
                // the very first attempt; grow the cap with the base.
                max_ms: base_ms.max(RetryPolicy::default().max_ms),
            };
            let mut client = RetryingClient::new(addr, policy)
                .unwrap_or_else(|e| fail(format!("cannot set up retrying client for {addr}: {e}")));
            let outcomes = client
                .route_lines(text.lines())
                .unwrap_or_else(|e| fail(format!("daemon connection to {addr} failed: {e}")));
            (outcomes, client.retries())
        }
        _ => {
            let mut client = Client::connect(addr)
                .unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")));
            let outcomes = client
                .route_lines(text.lines())
                .unwrap_or_else(|e| fail(format!("daemon connection to {addr} failed: {e}")));
            (outcomes, 0)
        }
    };
    let mut errors = 0usize;
    for line in &outcomes {
        if !line.ends_with("\"error\":null}") {
            errors += 1;
        }
        writeln!(sink, "{line}").expect("write outcome line");
    }
    sink.flush().expect("flush outcomes");
    eprintln!(
        "batch summary: jobs={} errors={errors} daemon={addr} resubmissions={resubmissions}",
        outcomes.len()
    );
    if errors > 0 {
        std::process::exit(1);
    }
}

/// Run the routing daemon until a `repro ctl --shutdown` (or SIGKILL)
/// stops it; print the listen address up front and the drained counter
/// summary on exit, both on stderr.
fn run_serve_cmd(args: &Args) {
    let addr = args.text("--addr").expect("parse_args enforced --addr");
    let mut builder = EngineConfig::builder();
    if let Some(workers) = args.int("--workers") {
        builder = builder.workers(workers);
    }
    if let Some(capacity) = args.int("--cache-capacity") {
        builder = builder.cache_capacity(capacity);
    }
    if let Some(depth) = args.int("--queue-depth") {
        builder = builder.queue_depth(depth);
    }
    if let Some(depth) = args.int("--client-queue") {
        builder = builder.client_queue_depth(depth);
    }
    if let Some(ms) = args.int("--default-deadline-ms") {
        builder = builder.default_deadline_ms(ms);
    }
    if let Some(n) = args.int("--max-worker-restarts") {
        builder = builder.max_worker_restarts(n);
    }
    let chaos = ChaosConfig {
        worker_panic_every: args.int("--chaos-panic-every").unwrap_or(0),
        latency_ms: args.int("--chaos-latency-ms").unwrap_or(0),
        // --chaos-latency-ms alone means "every compute".
        latency_every: (args.int("--chaos-latency-every"))
            .unwrap_or(u64::from(args.has("--chaos-latency-ms"))),
        drop_connection_after_bytes: args.int("--chaos-drop-after-bytes"),
        // --chaos-drop-after-bytes alone means "the first connection".
        drop_connections: (args.int("--chaos-drop-conns"))
            .unwrap_or(u32::from(args.has("--chaos-drop-after-bytes"))),
        torn_writes: args.has("--chaos-torn-writes"),
    };
    if chaos.is_armed() {
        eprintln!("warning: chaos armed — this daemon will inject faults on purpose");
        builder = builder.chaos(chaos);
    }
    let config = builder.build().unwrap_or_else(|e| fail(e.to_string()));
    let daemon =
        Daemon::bind(addr, config).unwrap_or_else(|e| fail(format!("cannot bind {addr}: {e}")));
    eprintln!("listening on {}", daemon.local_addr());
    let stats = daemon.join();
    eprintln!(
        "daemon summary: jobs={} errors={} connections={} hits={} misses={} evictions={} \
         hit_rate={:.3} timeouts={} worker_restarts={} retries_observed={}",
        stats.jobs_routed,
        stats.jobs_errored,
        stats.connections,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.hit_rate,
        stats.timeouts,
        stats.worker_restarts,
        stats.retries_observed,
    );
}

/// Send one control request to a running daemon and print the response
/// line on stdout. Exit 2 when the daemon is unreachable.
fn run_ctl_cmd(args: &Args) {
    let addr = args
        .text("--connect")
        .expect("parse_args enforced --connect");
    let mut client =
        Client::connect(addr).unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")));
    let response = if args.has("--stats") {
        client.stats()
    } else if args.has("--metrics") {
        client.metrics()
    } else {
        assert!(
            args.has("--shutdown"),
            "parse_args enforced exactly one ctl request flag"
        );
        client.shutdown_server()
    };
    let line =
        response.unwrap_or_else(|e| fail(format!("daemon connection to {addr} failed: {e}")));
    if args.has("--metrics") {
        // The wire carries the Prometheus text as one JSON-escaped
        // string ({"metrics": "..."}); unwrap it back to raw exposition.
        let value: serde_json::Value = serde_json::from_str(&line)
            .unwrap_or_else(|e| fail(format!("malformed metrics response {line:?}: {e}")));
        match value.get("metrics").and_then(serde_json::Value::as_str) {
            Some(text) => print!("{text}"),
            None => fail(format!("daemon answered without a metrics payload: {line}")),
        }
    } else if args.has("--pretty") {
        let value: serde_json::Value = serde_json::from_str(&line)
            .unwrap_or_else(|e| fail(format!("malformed stats response {line:?}: {e}")));
        match value.get("stats") {
            Some(stats) => print!("{}", render_stats_table(stats)),
            None => fail(format!("daemon answered without a stats payload: {line}")),
        }
    } else {
        println!("{line}");
    }
}

/// Materialize the topology `--kind` describes and print either its
/// Graphviz DOT (`--dot`) or a one-line summary. Exit 2 on parameters
/// the topology constructors reject (out-of-range defects, too-small
/// torus factors, ...).
fn run_topo_cmd(args: &Args) {
    let kind = args.text("--kind").expect("parse_args enforced --kind");
    let rows = args.int("--rows").unwrap_or(4);
    let cols = args.int("--cols").unwrap_or(4);
    let defects = args.ints("--defects").unwrap_or_default();
    if !defects.is_empty() && kind != "defect" {
        usage_error(format!(
            "--defects only applies to --kind defect, not {kind:?}"
        ));
    }
    let topology = match kind {
        "grid" => Topology::grid(rows, cols),
        "defect" => Topology::grid_with_defects(Grid::new(rows, cols), &defects, &[])
            .unwrap_or_else(|e| usage_error(format!("invalid defect pattern: {e}"))),
        "heavy-hex" => Topology::heavy_hex(rows, cols),
        "brick" => Topology::brick_wall(rows, cols),
        "torus" => Topology::torus(rows, cols)
            .unwrap_or_else(|e| usage_error(format!("invalid torus: {e}"))),
        other => usage_error(format!(
            "unknown topology kind {other:?}; expected grid|defect|heavy-hex|brick|torus"
        )),
    };
    let graph = topology.graph();
    if args.has("--dot") {
        // DOT identifiers cannot contain '-'.
        print!("{}", gridlike::to_dot(&graph, &kind.replace('-', "_")));
    } else {
        let alive = (0..topology.len())
            .filter(|&v| topology.is_alive(v))
            .count();
        println!(
            "{topology}: {} vertices ({alive} alive), {} edges",
            graph.len(),
            graph.num_edges(),
        );
    }
}

fn run_all(args: &Args) {
    run_fig4(args);
    run_fig5(args);
    run_hybrid(args);
    run_skinny(args);
    run_ablations(args);
    run_optgap(args);
    run_transpile(args);
}

fn main() {
    let args = parse_args();
    let (_, run) = COMMANDS
        .iter()
        .find(|(name, _)| *name == args.command)
        .expect("parse_args accepts only listed commands");
    run(&args);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_documents_exactly_the_flags_of_the_table() {
        let mut documented: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with("--"))
            .collect();
        documented.sort_unstable();
        documented.dedup();
        let mut table: Vec<&str> = FLAGS.iter().map(|(name, ..)| *name).collect();
        table.sort_unstable();
        // `--help` is the one flag outside the table: it prints USAGE.
        assert_eq!(documented, table);
        assert_eq!(table.len(), 39);
    }
}
