//! The explorer's post-mortem flight tails are read off the causal index
//! (`CausalIndex::tail`) instead of a flight recorder of their own. That
//! is only sound while the index hands back exactly what a recorder
//! attached beside it would have kept: every node of every explorer
//! topology, under every protocol, over seeded random schedules (teardown
//! mode included), at the explorer's capacity and at a small one that
//! wraps constantly.

use scenario::{random_schedule, run_timeline, topologies, Protocol};
use std::sync::{Arc, Mutex};
use telemetry::{lock, CausalIndex, Fanout, FlightRecorder, FLIGHT_RECORDER_CAP};

#[test]
fn the_index_tail_is_the_flight_recorder_dump() {
    for topo in topologies() {
        for protocol in Protocol::ALL {
            for seed in 0..3u64 {
                let schedule = random_schedule(&topo, seed, seed % 3 == 2);
                let recorders = [FLIGHT_RECORDER_CAP, 5]
                    .map(|cap| (cap, Arc::new(Mutex::new(FlightRecorder::new(cap)))));
                let causal = Arc::new(Mutex::new(CausalIndex::new()));
                let mut fan = Fanout::new();
                for (_, rec) in &recorders {
                    fan.push(rec.clone());
                }
                fan.push(causal.clone());
                let net = run_timeline(
                    &topo,
                    protocol,
                    &schedule,
                    seed,
                    1,
                    Some(Arc::new(Mutex::new(fan))),
                );
                let causal = lock(&causal);
                for (cap, rec) in &recorders {
                    let rec = lock(rec);
                    assert!(!rec.nodes().is_empty());
                    for node in 0..net.world.node_count() as u32 {
                        assert_eq!(
                            causal.tail(node, *cap),
                            rec.dump(node),
                            "{} / {} / seed {seed}: node {node}, capacity {cap}",
                            topo.name,
                            protocol.name(),
                        );
                    }
                }
            }
        }
    }
}
