//! Bench-guard for the zero-overhead-when-disarmed tracing contract: an
//! A/B pair per router proving (A) the instrumentation points are live
//! when a subscriber is armed, and (B) a disarmed route performs zero
//! subscriber calls and produces the identical schedule. Untimed by
//! design — counting dispatches is robust where wall-clock deltas on
//! shared CI hardware are not.

use qroute_core::{GridRouter, RouterKind};
use qroute_obs::trace::{with_subscriber, CountingSubscriber, MemorySubscriber, Subscriber};
use qroute_perm::generators;
use qroute_topology::Topology;
use std::sync::Arc;

#[test]
fn disarmed_route_performs_zero_subscriber_calls() {
    let topology = Topology::grid(6, 6);
    let pi = generators::random(topology.len(), 7);
    for router in [
        RouterKind::locality_aware(),
        RouterKind::Ats,
        RouterKind::pathfinder(),
    ] {
        // A: armed. The route must dispatch records — otherwise the B
        // half would pass vacuously on an uninstrumented router.
        let armed = Arc::new(MemorySubscriber::new());
        let armed_schedule = with_subscriber(Arc::clone(&armed) as Arc<dyn Subscriber>, || {
            router.route_on(&topology, &pi).unwrap()
        });
        let records = armed.lines();
        assert!(
            !records.is_empty(),
            "{} emitted no trace records while armed",
            router.label()
        );
        // The locality-aware router times its staging's stages, its
        // counted line phases and the one pass it lays out.
        if router.label() == "locality-aware" {
            for stage in [
                "locality.window_search",
                "locality.rebalance",
                "locality.assign",
                "locality.line_routing",
                "grid.emit",
            ] {
                let name = format!("{{\"name\":\"{stage}\"");
                assert!(
                    records.iter().any(|record| record.starts_with(&name)),
                    "no {stage} span while armed"
                );
            }
        }

        // B: disarmed. The counter is alive but not installed; had the
        // route consulted any subscriber slot it could only have found
        // none — and the schedule must come out byte-identical.
        let bystander = Arc::new(CountingSubscriber::new());
        assert!(!qroute_obs::trace::armed(), "subscriber leaked out of A");
        let disarmed_schedule = router.route_on(&topology, &pi).unwrap();
        assert_eq!(
            bystander.calls(),
            0,
            "{} dispatched to a subscriber while disarmed",
            router.label()
        );
        assert_eq!(
            armed_schedule,
            disarmed_schedule,
            "{} schedule changed under tracing",
            router.label()
        );
    }
}
