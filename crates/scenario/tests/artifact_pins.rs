//! Violating artifacts, byte for byte. Every corpus pin passes, so none
//! carries a post-mortem; these do. Each explorer topology × protocol
//! runs a member join at t30 and a partition of every link at t1000 that
//! never heals, seed 7: delivery fails, and the artifact carries the
//! implicated router's flight-recorder tail, its state snapshot and the
//! backward causal slice of its last flag transition. The text is pinned
//! in `tests/artifact_pins/<topology>-<protocol>.replay.txt`.

use scenario::{run_case, topologies, Artifact, FaultEvent, FaultSchedule, Protocol};

const SEED: u64 = 7;

fn pin_path(topo: &str, protocol: Protocol) -> String {
    format!(
        "{}/tests/artifact_pins/{topo}-{}.replay.txt",
        env!("CARGO_MANIFEST_DIR"),
        protocol.name()
    )
}

#[test]
fn violating_artifacts_are_pinned_byte_for_byte() {
    let mut flight_lines = 0;
    for topo in topologies() {
        let mut schedule = FaultSchedule::default();
        schedule.push(30, FaultEvent::Join(1));
        schedule.push(
            1000,
            FaultEvent::Partition((0..topo.graph.edge_count()).collect()),
        );
        for protocol in Protocol::ALL {
            let outcome = run_case(&topo, protocol, &schedule, SEED);
            let artifact = Artifact::capture(&topo, protocol, &schedule, SEED, &outcome);
            let path = pin_path(topo.name, protocol);
            let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(artifact.to_text(), pinned, "{path}");
            assert_eq!(artifact.violations.len(), 1, "{path}");
            for d in &artifact.dumps {
                assert!(!d.state.is_empty() && !d.cause.is_empty(), "{path}");
                flight_lines += d.flight.len();
            }
        }
    }
    assert_eq!(flight_lines, 2304, "nine full 256-event tails");
}
