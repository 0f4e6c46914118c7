//! Same seed + same fault schedule ⇒ byte-identical packet trace, for
//! every protocol. This is the property the replay-artifact contract
//! stands on; `crates/netsim/tests/determinism.rs` checks the simulator
//! layer, this checks the full scenario stack on top of it.

use scenario::{case_text, random_schedule, run_case, topologies, FaultSchedule, Protocol};

#[test]
fn identical_runs_produce_identical_traces() {
    for (i, topo) in topologies().iter().enumerate() {
        let seed = 11 + i as u64;
        let schedule = random_schedule(topo, seed, false);
        for protocol in Protocol::ALL {
            let a = run_case(topo, protocol, &schedule, seed);
            let b = run_case(topo, protocol, &schedule, seed);
            let (a_text, b_text) = (
                case_text(topo, protocol, &schedule, seed, 1),
                case_text(topo, protocol, &schedule, seed, 1),
            );
            assert_eq!(
                a_text.trace,
                b_text.trace,
                "{} on {}: traces must match line for line",
                protocol.name(),
                topo.name
            );
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(
                a_text.telemetry,
                b_text.telemetry,
                "{} on {}: telemetry JSONL streams must be byte-identical",
                protocol.name(),
                topo.name
            );
            assert_eq!(a.telemetry_fingerprint, b.telemetry_fingerprint);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(
                a.violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>(),
                b.violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn schedule_round_trip_preserves_the_trace() {
    // A schedule that went through its text form drives the same run.
    let topo = &topologies()[0];
    let schedule = random_schedule(topo, 42, false);
    let round_tripped = FaultSchedule::from_text(&schedule.to_text()).unwrap();
    let a = run_case(topo, Protocol::Pim, &schedule, 42);
    let b = run_case(topo, Protocol::Pim, &round_tripped, 42);
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the fingerprint actually discriminates: two
    // different seeds on the same topology produce different schedules or
    // at least different traces.
    let topo = &topologies()[0];
    let s1 = random_schedule(topo, 1, false);
    let s2 = random_schedule(topo, 2, false);
    let a = run_case(topo, Protocol::Pim, &s1, 1);
    let b = run_case(topo, Protocol::Pim, &s2, 2);
    assert_ne!(a.fingerprint, b.fingerprint);
}
