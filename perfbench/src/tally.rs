//! An aggregating trace subscriber.
//!
//! `qroute_obs::trace::MemorySubscriber` renders and keeps every record,
//! which at tens of thousands of jobs per second grows without bound.
//! [`Tally`] keeps only what the per-layer metrics need: record counts by
//! name, summed span durations, and sums of the numeric fields of the
//! existing `ats.*`, `pathfinder.*` and `dispatch.auto` events.

use qroute_obs::trace::{FieldValue, Subscriber, TraceRecord};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Router labels a record can carry (`route` spans, `dispatch.auto`).
pub const ROUTER_LABELS: [&str; 5] = [
    "locality-aware",
    "hybrid",
    "naive-grid",
    "ats",
    "pathfinder",
];

/// Aggregated counts, keyed by static names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Records per name (events and spans alike).
    pub records: BTreeMap<&'static str, u64>,
    /// Summed span durations in microseconds, per span name.
    pub span_us: BTreeMap<&'static str, u64>,
    /// `route` spans per router label.
    pub routes: BTreeMap<&'static str, u64>,
    /// `dispatch.auto` decisions per picked router label.
    pub picked: BTreeMap<&'static str, u64>,
    /// `ats.round` events per kind (`happy` / `stuck`).
    pub ats_rounds: BTreeMap<&'static str, u64>,
    /// Summed A* pops over `pathfinder.round` events.
    pub astar_pops: u64,
    /// Summed rip-ups over `pathfinder.round` events.
    pub ripups: u64,
}

impl Counts {
    /// Records seen with `name`.
    pub fn records(&self, name: &str) -> u64 {
        self.records.get(name).copied().unwrap_or(0)
    }

    /// Total microseconds of spans named `name`.
    pub fn span_us(&self, name: &str) -> u64 {
        self.span_us.get(name).copied().unwrap_or(0)
    }
}

/// A thread-safe [`Subscriber`] that aggregates into [`Counts`].
#[derive(Default)]
pub struct Tally {
    counts: Mutex<Counts>,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Tally {
        Tally::default()
    }

    /// A copy of the counts so far.
    pub fn counts(&self) -> Counts {
        self.counts.lock().expect("tally lock poisoned").clone()
    }
}

/// The static label among `known` equal to a borrowed field value.
fn static_label(value: Option<&FieldValue<'_>>, known: &[&'static str]) -> &'static str {
    match value {
        Some(FieldValue::Str(s)) => known.iter().find(|k| *k == s).copied().unwrap_or("other"),
        _ => "other",
    }
}

fn field<'a>(record: &'a TraceRecord<'_>, key: &str) -> Option<&'a FieldValue<'a>> {
    record
        .fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

fn field_u64(record: &TraceRecord<'_>, key: &str) -> u64 {
    match field(record, key) {
        Some(FieldValue::U64(v)) => *v,
        _ => 0,
    }
}

impl Subscriber for Tally {
    fn on_record(&self, record: &TraceRecord<'_>) {
        let mut counts = self.counts.lock().expect("tally lock poisoned");
        *counts.records.entry(record.name).or_default() += 1;
        if let Some(dur) = record.dur_us {
            *counts.span_us.entry(record.name).or_default() += dur;
        }
        match record.name {
            "route" => {
                let label = static_label(field(record, "router"), &ROUTER_LABELS);
                *counts.routes.entry(label).or_default() += 1;
            }
            "dispatch.auto" => {
                let label = static_label(field(record, "picked"), &ROUTER_LABELS);
                *counts.picked.entry(label).or_default() += 1;
            }
            "ats.round" => {
                let kind = static_label(field(record, "kind"), &["happy", "stuck"]);
                *counts.ats_rounds.entry(kind).or_default() += 1;
            }
            "pathfinder.round" => {
                counts.astar_pops += field_u64(record, "pops");
                counts.ripups += field_u64(record, "ripups");
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qroute_obs::trace;
    use std::sync::Arc;

    #[test]
    fn tallies_spans_events_and_fields() {
        let tally = Arc::new(Tally::new());
        trace::with_subscriber(Arc::clone(&tally) as Arc<dyn Subscriber>, || {
            trace::span_with("route", &[("router", FieldValue::Str("ats"))], || {
                trace::event("ats.round", &[("kind", FieldValue::Str("happy"))]);
                trace::event("pathfinder.round", &[("pops", FieldValue::U64(5))]);
            });
            trace::event("dispatch.auto", &[("picked", FieldValue::Str("hybrid"))]);
        });
        let counts = tally.counts();
        assert_eq!(counts.records("route"), 1);
        assert_eq!(counts.routes.get("ats"), Some(&1));
        assert_eq!(counts.ats_rounds.get("happy"), Some(&1));
        assert_eq!(counts.picked.get("hybrid"), Some(&1));
        assert_eq!(counts.astar_pops, 5);
    }
}
