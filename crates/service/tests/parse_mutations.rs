//! Job-line parser robustness: deterministic single-byte mutations of
//! every committed example line and of campaign-style permutation lines
//! go through `RouteJob::from_json_line`. None may panic, and a line the
//! JSON parser rejects must come back as a `parse` error carrying exactly
//! the JSON parser's message. (The JSON shim's own tests hold the same
//! mutants against its replaced float-only number reader.)

use qroute_perm::generators;
use qroute_service::{RouteJob, ServiceError};

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
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut files: Vec<_> = std::fs::read_dir(examples)
        .expect("examples directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    files.sort();
    for path in files {
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
            let sample = (0..12).step_by(2).chain([n / 3, n / 2, n - 2, n - 1]);
            (sample.collect(), SHORT_ALPHABET)
        };
        for m in mutations(line, positions, alphabet) {
            check(&m);
            mutants += 1;
        }
    }
    assert!(mutants > 100_000, "only {mutants} mutants");
}
