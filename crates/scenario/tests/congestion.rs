//! Congestion-as-a-fault acceptance: capacity-model trace compatibility,
//! graceful degradation under overload, and the starvation repro loop
//! (violation -> shrink -> byte-identical replay artifact).

use scenario::{
    run_case, run_case_coverage, shrink_violation, topology, verify_replay, Artifact, FaultEvent,
    FaultSchedule, Protocol,
};

/// A classic (capacity-free) schedule: joins plus a healed link flap.
fn capacity_free_schedule() -> FaultSchedule {
    let mut s = FaultSchedule::default();
    s.push(30, FaultEvent::Join(1));
    s.push(40, FaultEvent::Join(2));
    s.push(300, FaultEvent::LinkDown(0));
    s.push(700, FaultEvent::LinkUp(0));
    s
}

/// A congesting schedule that still degrades gracefully: the r1-r2 link
/// (diamond link 1) is capped with control priority on, and a member
/// burst overloads it; everything heals before the probe train.
fn congested_schedule() -> FaultSchedule {
    let mut s = FaultSchedule::default();
    s.push(30, FaultEvent::Join(1));
    s.push(40, FaultEvent::Join(2));
    s.push(500, FaultEvent::Bandwidth(1, 2, 48, 1));
    s.push(600, FaultEvent::Burst(1, 24, 2));
    s.push(2950, FaultEvent::Bandwidth(1, 0, 0, 1));
    s
}

/// Like [`congested_schedule`] but with control priority off and a queue
/// smaller than a register packet: every control packet crossing the
/// capped link tail-drops, so the no-starvation oracle must fire.
fn starved_schedule() -> FaultSchedule {
    let mut s = FaultSchedule::default();
    s.push(30, FaultEvent::Join(1));
    s.push(40, FaultEvent::Join(2));
    s.push(500, FaultEvent::Bandwidth(1, 1, 24, 0));
    s.push(600, FaultEvent::Burst(1, 16, 1));
    s.push(2950, FaultEvent::Bandwidth(1, 0, 0, 1));
    s
}

/// Trace compatibility: a world whose schedule never touches capacity
/// runs exactly as before the capacity model existed — no congestion
/// telemetry, no extra randomness, and byte-identical traces at any
/// thread count (the committed corpus pins the pre-capacity fingerprints
/// themselves; this covers the thread axis and the event stream).
#[test]
fn capacity_disabled_is_trace_compatible_across_threads() {
    let topo = topology("diamond").unwrap();
    let schedule = capacity_free_schedule();
    for protocol in Protocol::ALL {
        let (one, _) = run_case_coverage(&topo, protocol, &schedule, 11, 1);
        let (four, _) = run_case_coverage(&topo, protocol, &schedule, 11, 4);
        assert_eq!(
            one.fingerprint,
            four.fingerprint,
            "{}: trace diverged across thread counts",
            protocol.name()
        );
        assert_eq!(
            one.telemetry,
            four.telemetry,
            "{}: telemetry diverged across thread counts",
            protocol.name()
        );
        for kind in ["queue_drop", "ecn_mark", "queue_depth"] {
            assert!(
                !one.telemetry.contains(&format!("\"ev\":\"{kind}\"")),
                "{}: capacity-disabled run emitted a {kind} event",
                protocol.name()
            );
        }
        assert!(
            one.violations.is_empty(),
            "{}: {:?}",
            protocol.name(),
            one.violations
        );
    }
}

/// Graceful degradation: the congested run actually queues (the capacity
/// model bites), yet every oracle stays green — bounded queues hold, the
/// prioritized control plane never starves, and delivery recovers after
/// the heal. And the whole thing is byte-identical at 1 vs 4 threads:
/// queueing delay is pure integer arithmetic, so the parallel-core
/// contract extends over congestion unchanged.
#[test]
fn congestion_degrades_gracefully_and_is_thread_invariant() {
    let topo = topology("diamond").unwrap();
    let schedule = congested_schedule();
    for protocol in Protocol::ALL {
        let (one, _) = run_case_coverage(&topo, protocol, &schedule, 5, 1);
        let (four, _) = run_case_coverage(&topo, protocol, &schedule, 5, 4);
        assert_eq!(
            one.fingerprint,
            four.fingerprint,
            "{}: congested trace diverged across thread counts",
            protocol.name()
        );
        assert_eq!(one.telemetry, four.telemetry, "{}", protocol.name());
        assert!(
            one.telemetry.contains("\"ev\":\"queue_depth\""),
            "{}: the cap never queued anything — workload too weak",
            protocol.name()
        );
        assert!(
            one.violations.is_empty(),
            "{}: congestion broke an oracle: {:?}",
            protocol.name(),
            one.violations
        );
    }
}

/// The no-starvation oracle catches an unprioritized cap: control
/// packets tail-drop behind the burst, the violation shrinks to a
/// smaller schedule still violating the same oracle, and the minimized
/// artifact replays byte-identically.
#[test]
fn starvation_is_caught_shrunk_and_replayable() {
    let topo = topology("diamond").unwrap();
    let schedule = starved_schedule();
    let outcome = run_case(&topo, Protocol::Pim, &schedule, 5);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.oracle == "no-starvation"),
        "expected a no-starvation violation, got {:?}",
        outcome.violations
    );

    let result =
        shrink_violation(&topo, Protocol::Pim, 5, &schedule).expect("schedule violates an oracle");
    assert!(
        result
            .outcome
            .violations
            .iter()
            .any(|v| v.oracle == "no-starvation"),
        "shrinking lost the no-starvation violation: {:?}",
        result.outcome.violations
    );
    assert!(
        result.schedule.events.len() <= schedule.events.len(),
        "shrinking must never grow the schedule"
    );

    let artifact = Artifact::capture(&topo, Protocol::Pim, &result.schedule, 5, &result.outcome);
    let replayed = verify_replay(&artifact).expect("minimized artifact must replay exactly");
    assert_eq!(replayed.fingerprint, result.outcome.fingerprint);

    // The artifact text round-trips exactly, schedule lines included.
    let text = artifact.to_text();
    let back = Artifact::from_text(&text).expect("parse artifact");
    assert_eq!(back, artifact);
}
