//! The `Value`-tree job reader that the tape reader of
//! [`RouteJob::from_json_line`] replaced, kept verbatim as a differential
//! reference, and the tests that hold the two together.

use super::*;
use qroute_perm::generators;

/// The replaced `RouteJob::from_json_line`: build the whole `Value` tree,
/// then read the fields from it.
fn from_json_line(line: &str) -> Result<RouteJob, ServiceError> {
    let doc = serde_json::from_str(line).map_err(|e| ServiceError::Parse(e.to_string()))?;
    let v = parse_version(&doc)?;
    parse_job_fields(&doc, v).map_err(ServiceError::Parse)
}

/// Extract and check the optional `"v"` field. Absent means
/// [`WIRE_VERSION`]; any other declared version is a
/// [`ServiceError::Version`] so the outcome's `"code"` lets clients
/// tell "wrong protocol" apart from "malformed job".
fn parse_version(doc: &serde_json::Value) -> Result<Option<u64>, ServiceError> {
    match doc.get("v") {
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

/// The version-agnostic part of job-line parsing (everything but `"v"`,
/// which [`parse_version`] has already validated).
fn parse_job_fields(doc: &serde_json::Value, v: Option<u64>) -> Result<RouteJob, String> {
    let serde_json::Value::Object(entries) = doc else {
        return Err("job line must be a JSON object".to_string());
    };
    for (field, _) in entries {
        if !matches!(
            field.as_str(),
            "v" | "side" | "router" | "perm" | "class" | "seed" | "topology" | "deadline_ms"
        ) {
            return Err(format!(
                "unknown job field {field:?} (expected v, side, router, perm, class, seed, \
                 topology, deadline_ms)"
            ));
        }
    }
    let side = doc
        .get("side")
        .and_then(|v| v.as_u64())
        .ok_or("job needs an integer \"side\"")? as usize;
    if side == 0 {
        return Err("\"side\" must be at least 1".to_string());
    }
    let router = match doc.get("router") {
        None => None,
        Some(r) => Some(parse_router(
            r.as_str().ok_or("\"router\" must be a string")?,
        )?),
    };
    let perm = match (doc.get("perm"), doc.get("class")) {
        (Some(_), Some(_)) => {
            return Err("job has both \"perm\" and \"class\"; pick one".to_string())
        }
        (None, None) => return Err("job needs either \"perm\" or \"class\"".to_string()),
        (Some(p), None) => {
            if doc.get("seed").is_some() {
                return Err("\"seed\" only applies to class jobs".to_string());
            }
            let table = p
                .as_array()
                .ok_or("\"perm\" must be an array of integers")?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .map(|v| v as usize)
                        .ok_or_else(|| "\"perm\" must be an array of integers".to_string())
                })
                .collect::<Result<Vec<usize>, String>>()?;
            PermSpec::Explicit(table)
        }
        (None, Some(c)) => PermSpec::Class {
            label: c.as_str().ok_or("\"class\" must be a string")?.to_string(),
            seed: doc
                .get("seed")
                .and_then(|v| v.as_u64())
                .ok_or("class jobs need an integer \"seed\"")?,
        },
    };
    let topology = match doc.get("topology") {
        None => TopologySpec::Grid,
        Some(t) => parse_topology(t)?,
    };
    let deadline_ms = match doc.get("deadline_ms") {
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

/// Parse the `"topology"` object. Strict like the job line itself:
/// unknown fields, defect lists on non-defect kinds, and malformed
/// values are all errors.
fn parse_topology(value: &serde_json::Value) -> Result<TopologySpec, String> {
    let serde_json::Value::Object(entries) = value else {
        return Err("\"topology\" must be a JSON object".to_string());
    };
    for (field, _) in entries {
        if !matches!(field.as_str(), "kind" | "defects" | "dead_edges") {
            return Err(format!(
                "unknown topology field {field:?} (expected kind, defects, dead_edges)"
            ));
        }
    }
    let kind = value
        .get("kind")
        .and_then(|v| v.as_str())
        .ok_or("\"topology\" needs a string \"kind\"")?;
    let has_defect_fields = value.get("defects").is_some() || value.get("dead_edges").is_some();
    if kind != "defect" && has_defect_fields {
        return Err(format!(
            "\"defects\"/\"dead_edges\" only apply to kind \"defect\", not {kind:?}"
        ));
    }
    match kind {
        "grid" => Ok(TopologySpec::Grid),
        "heavy-hex" => Ok(TopologySpec::HeavyHex),
        "brick" => Ok(TopologySpec::Brick),
        "torus" => Ok(TopologySpec::Torus),
        "defect" => {
            let defects = match value.get("defects") {
                None => Vec::new(),
                Some(d) => d
                    .as_array()
                    .ok_or("\"defects\" must be an array of integers")?
                    .iter()
                    .map(|x| {
                        x.as_u64()
                            .map(|v| v as usize)
                            .ok_or_else(|| "\"defects\" must be an array of integers".to_string())
                    })
                    .collect::<Result<Vec<usize>, String>>()?,
            };
            let dead_edges = match value.get("dead_edges") {
                None => Vec::new(),
                Some(e) => e
                    .as_array()
                    .ok_or("\"dead_edges\" must be an array of [u, v] pairs")?
                    .iter()
                    .map(|pair| {
                        // Every element must be an integer: one that is not
                        // rejects the pair instead of dropping out of it.
                        let ints: Option<Vec<usize>> = pair.as_array().and_then(|xs| {
                            xs.iter().map(|x| x.as_u64().map(|v| v as usize)).collect()
                        });
                        match ints.as_deref() {
                            Some([u, v]) => Ok((*u, *v)),
                            _ => Err("\"dead_edges\" must be an array of [u, v] pairs".to_string()),
                        }
                    })
                    .collect::<Result<Vec<(usize, usize)>, String>>()?,
            };
            Ok(TopologySpec::Defect { defects, dead_edges })
        }
        other => Err(format!(
            "unknown topology kind {other:?}; expected grid, defect, heavy-hex, brick, torus"
        )),
    }
}

/// Both readers give a `Debug`-equal job, or the same error variant and
/// message.
fn assert_reads_like_the_reference(line: &str) {
    match (RouteJob::from_json_line(line), from_json_line(line)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{line:?}")
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{line:?}"),
        (got, want) => panic!("{line:?}: {got:?} against the reference's {want:?}"),
    }
}

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

/// Number, sign, exponent, structure, whitespace, string and escape
/// bytes.
const ALPHABET: &[u8] = b"0189-+.eE ,:[]{}\"x\\u";
/// The bytes that most often turn a literal into another literal.
const SHORT_ALPHABET: &[u8] = b"09-.e, ]";

/// Campaign- and daemon-style lines at sides 8–32: a small shuffled box
/// embedded in the identity (explicit `perm`, the `auto` router), and
/// class references.
fn hot_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (k, side) in [8usize, 11, 16, 24, 32].into_iter().enumerate() {
        let seed = k as u64;
        let boxed = generators::random(9, seed);
        let (r0, c0) = (k % (side - 2), (2 * k + 1) % (side - 2));
        let mut table: Vec<usize> = (0..side * side).collect();
        for v in 0..9 {
            let img = boxed.apply(v);
            table[(r0 + v / 3) * side + c0 + v % 3] = (r0 + img / 3) * side + c0 + img % 3;
        }
        let entries: Vec<String> = table.iter().map(usize::to_string).collect();
        lines.push(format!(
            r#"{{"side":{side},"router":"auto","perm":[{}]}}"#,
            entries.join(",")
        ));
        lines.push(format!(
            r#"{{"side":{side},"router":"auto","class":"block2","seed":{seed}}}"#
        ));
    }
    lines
}

#[test]
fn tape_reader_matches_the_reference_reader() {
    // Campaign-style permutation lines short enough for every position.
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
    lines.extend(hot_lines().into_iter().map(|l| {
        let full = l.len() <= 200;
        (l, full)
    }));
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut files: Vec<_> = std::fs::read_dir(examples)
        .expect("examples directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    files.sort();
    assert!(
        files.iter().any(|path| path.ends_with("jobs_edge.jsonl")),
        "{files:?}"
    );
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
        assert_reads_like_the_reference(line);
        let n = line.len();
        let (positions, alphabet) = if *full {
            ((0..n).collect(), ALPHABET)
        } else {
            let sample = (0..12).step_by(2).chain([n / 3, n / 2, n - 2, n - 1]);
            (sample.collect(), SHORT_ALPHABET)
        };
        for m in mutations(line, positions, alphabet) {
            assert_reads_like_the_reference(&m);
            mutants += 1;
        }
    }
    assert!(mutants > 100_000, "only {mutants} mutants");
}

#[test]
fn edge_lines_read_like_the_reference() {
    for line in [
        r#"{"side":3,"side":"x","router":"ats","class":"random","seed":1}"#,
        r#"{"\u0073ide":3,"side":5,"\u0072outer":"\u0061ts","perm":[01,-0,1e0,3]}"#,
        r#"{"v":1,"v":2,"side":2,"perm":[0,1,2,3]}"#,
        r#"{"bogus":1,"v":2,"side":2,"perm":[0,1,2,3]}"#,
        r#"{"side":2,"b\u006fgus":1,"perm":[0,1,2,3]}"#,
        r#"{"side":4,"class":"random","seed":0,"topology":{"kind":"defect","kind":"grid","defects":[5,5],"dead_edges":[[0,1],[1,2,3]]}}"#,
        r#"{"side":4,"class":"random","seed":0,"topology":{"kind":"defect","dead_edges":[[0,1],[1]]}}"#,
        r#"{"side":4,"class":"random","seed":0,"topology":{"k\u0069nd":"torus"}}"#,
        r#"{"side":4,"class":"random","seed":0,"topology":{"kind":"grid","dead_edges":[]}}"#,
        r#"{"side":18446744073709551615,"class":"random","seed":1e19}"#,
        r#"{"side":1e20,"class":"random","seed":0}"#,
        r#"{"side":4,"class":"random","seed":0,"deadline_ms":2.0}"#,
        r#"{"side":2,"perm":{"0":1}}"#,
        r#"{"side":2,"perm":[[0],1,2,3]}"#,
        r#"{"side":2,"router":7,"perm":[0,1,2,3]}"#,
        r#"{"side":2,"class":7,"seed":0}"#,
        r#"{}"#,
        "null",
        "\"side\"",
    ] {
        assert_reads_like_the_reference(line);
    }
    // The same readings spelled out, independent of the JSON reader both
    // sides share: the first key wins, keys and strings are unescaped,
    // and `01`, `-0` and `1e0` are integers.
    let job = RouteJob::from_json_line(
        r#"{"\u0073ide":3,"side":5,"\u0072outer":"\u0061ts","perm":[01,-0,1e0,3]}"#,
    )
    .expect("a valid job line");
    assert_eq!(job.side, 3);
    assert!(
        matches!(&job.router, Some(RouterSpec::Fixed(kind)) if kind.label() == "ats"),
        "{job:?}"
    );
    assert!(
        matches!(&job.perm, PermSpec::Explicit(table) if table == &[1, 0, 1, 3]),
        "{job:?}"
    );
    let job = RouteJob::from_json_line(
        r#"{"side":3,"side":"x","router":"ats","class":"random","seed":1}"#,
    )
    .expect("a valid job line");
    assert_eq!(job.side, 3);
}
