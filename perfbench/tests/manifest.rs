//! `BENCHMARK.json` names exactly the workloads and metrics the harness
//! reports.

use perfbench::workload::Workload;
use perfbench::{END_TO_END, PER_LAYER};

fn manifest() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(|v| v.as_str())
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_matches_the_harness() {
    let doc = manifest();
    assert_eq!(entries(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(entries(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = entries(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
}
