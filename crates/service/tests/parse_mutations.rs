//! Job-line parser robustness: deterministic single-byte mutations of
//! every committed example line and of campaign-style permutation lines
//! go through `RouteJob::from_json_line`. None may panic, and a line the
//! JSON parser rejects must come back as a `parse` error carrying exactly
//! the JSON parser's message. (The JSON shim's own tests hold the same
//! mutants against its replaced float-only number reader.) Mutants of the
//! example job lines also go through a live daemon connection, which must
//! answer each exactly as the in-process engine does.

use qroute_perm::generators;
use qroute_service::{Daemon, Engine, EngineConfig, RouteJob, ServiceError};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// Deterministic single-byte mutations of `line` at `positions`: delete
/// the byte, replace it with, or insert before it, each byte of
/// `alphabet`. Mutants that are not UTF-8 are skipped.
fn mutations(line: &str, positions: Vec<usize>, alphabet: &[u8]) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for at in positions {
        out.push([&bytes[..at], &bytes[at + 1..]].concat());
        for &b in alphabet {
            out.push([&bytes[..at], &[b], &bytes[at + 1..]].concat());
            out.push([&bytes[..at], &[b], &bytes[at..]].concat());
        }
    }
    out.into_iter()
        .filter_map(|m| String::from_utf8(m).ok())
        .collect()
}

/// Number, sign, exponent, structure, whitespace and string bytes.
const ALPHABET: &[u8] = b"0189-+.eE ,:[]{}\"x";
/// The bytes that most often turn a literal into another literal.
const SHORT_ALPHABET: &[u8] = b"09-.e, ]";

/// The positions a long line is mutated at: its first dozen bytes (every
/// other one), a third and half of the way in, and its last two bytes —
/// those of them inside a line of `n` bytes.
fn sampled_positions(n: usize) -> Vec<usize> {
    let tail = [n / 3, n / 2, n.saturating_sub(2), n.saturating_sub(1)];
    (0..12)
        .step_by(2)
        .chain(tail)
        .filter(|&at| at < n)
        .collect()
}

/// The committed example files (`*.jsonl`), sorted.
fn example_files() -> Vec<PathBuf> {
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut files: Vec<_> = std::fs::read_dir(examples)
        .expect("examples directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    files.sort();
    files
}

fn check(line: &str) {
    let job = RouteJob::from_json_line(line);
    if let Err(json) = serde_json::from_str(line) {
        match job {
            Err(ServiceError::Parse(message)) => assert_eq!(message, json.to_string(), "{line:?}"),
            other => panic!("{line:?}: the JSON parser says {json}, the job parser {other:?}"),
        }
    }
}

#[test]
fn mutated_job_lines_never_panic_and_keep_the_json_error() {
    let mut lines: Vec<(String, bool)> = (3..=6)
        .map(|side| {
            let pi = generators::random(side * side, side as u64);
            let entries: Vec<String> = pi.as_slice().iter().map(usize::to_string).collect();
            (
                format!(
                    r#"{{"side":{side},"router":"auto","perm":[{}]}}"#,
                    entries.join(",")
                ),
                true,
            )
        })
        .collect();
    for path in example_files() {
        let outcomes = path.to_string_lossy().ends_with(".expected.jsonl");
        let text = std::fs::read_to_string(&path).expect("example file");
        lines.extend(
            text.lines()
                .map(|l| (l.to_string(), !outcomes && l.len() <= 200)),
        );
    }
    let mut mutants = 0usize;
    for (line, full) in &lines {
        check(line);
        let n = line.len();
        let (positions, alphabet) = if *full {
            ((0..n).collect(), ALPHABET)
        } else {
            (sampled_positions(n), SHORT_ALPHABET)
        };
        for m in mutations(line, positions, alphabet) {
            check(&m);
            mutants += 1;
        }
    }
    assert!(mutants > 100_000, "only {mutants} mutants");
}

/// Every `STRIDE`-th mutant of the example job lines goes through one
/// live connection, and each must come back as the bytes the in-process
/// engine gives the same lines: the daemon parses a line exactly as
/// sent, so a malformed line with leading or trailing whitespace reports
/// its error at the batch byte. Lines the parser rejects are all kept;
/// parsed jobs only when their side is at most 16 (one inserted digit
/// makes `"side":912`) and they carry no deadline (which would make the
/// bytes depend on timing).
#[test]
fn mutated_job_lines_get_the_batch_bytes_through_a_live_connection() {
    const STRIDE: usize = 5;
    const WINDOW: usize = 32;
    let mut lines = Vec::new();
    for path in example_files() {
        if path.to_string_lossy().ends_with(".expected.jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("example file");
        for line in text.lines() {
            let mutants = mutations(line, sampled_positions(line.len()), SHORT_ALPHABET);
            lines.extend(
                mutants
                    .into_iter()
                    .filter(|m| match RouteJob::from_json_line(m) {
                        Err(_) => true,
                        Ok(job) => job.side <= 16 && job.deadline_ms.is_none(),
                    }),
            );
        }
    }
    let lines: Vec<String> = lines.into_iter().step_by(STRIDE).collect();
    assert!(
        lines.iter().any(|l| l.starts_with(' ') || l.ends_with(' ')),
        "the sample keeps lines with leading or trailing whitespace"
    );

    let mut engine = Engine::new(EngineConfig::builder().build().unwrap());
    for line in &lines {
        match RouteJob::from_json_line(line) {
            Ok(job) => engine.submit(&job),
            Err(e) => engine.submit_error(e),
        };
    }
    let expected: Vec<String> = std::iter::from_fn(|| engine.collect_next())
        .map(|result| result.outcome.to_json_line())
        .collect();

    let daemon = Daemon::bind("127.0.0.1:0", EngineConfig::builder().build().unwrap()).unwrap();
    let mut conn = TcpStream::connect(daemon.local_addr()).expect("connect");
    // A missing outcome fails the read instead of hanging the test.
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("read half"));
    let mut got: Vec<String> = Vec::new();
    let mut recv = |got: &mut Vec<String>| {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("an outcome line in time");
        line.strip_suffix('\n')
            .map(|l| got.push(l.to_string()))
            .is_some()
    };
    for (k, line) in lines.iter().enumerate() {
        writeln!(conn, "{line}").expect("send a line");
        if k >= WINDOW {
            assert!(recv(&mut got), "outcome {} missing", got.len());
        }
    }
    conn.shutdown(Shutdown::Write).expect("half-close");
    while recv(&mut got) {}
    assert_eq!(got.len(), lines.len(), "one outcome per line");
    for ((line, got), expected) in lines.iter().zip(&got).zip(&expected) {
        assert_eq!(got, expected, "line {line:?}");
    }
}
