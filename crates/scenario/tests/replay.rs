//! The replay-artifact contract, demonstrated on an intentionally broken
//! fixture: a schedule that crashes the only transit router and never
//! restarts it. Delivery must fail, the violation must be captured into a
//! minimal artifact (now carrying the implicated routers' flight
//! recorders and state snapshots), and re-executing the artifact must
//! reproduce the violating run byte-identically — same trace
//! fingerprint, same telemetry event stream, same violations, same
//! dumps.

use scenario::{
    case_causal, case_text, causal_anchor, replay, run_case, topology, verify_replay, Artifact,
    FaultEvent, FaultSchedule, Protocol,
};

/// line-stub topology: 0-1-2-3-4 with a 2-5 stub. Sender host is behind
/// r4; crashing r2 forever severs every member from the source.
fn broken_schedule() -> FaultSchedule {
    let mut s = FaultSchedule::default();
    s.push(30, FaultEvent::Join(1)); // member behind r0
    s.push(40, FaultEvent::Join(3)); // member behind r3
    s.push(300, FaultEvent::CrashRouter(2)); // no restart: permanent partition
    s
}

#[test]
fn broken_fixture_yields_minimal_replay_artifact() {
    let topo = topology("line-stub").unwrap();
    let schedule = broken_schedule();
    let seed = 7;

    for protocol in Protocol::ALL {
        let outcome = run_case(&topo, protocol, &schedule, seed);
        assert!(
            outcome.violations.iter().any(|v| v.oracle == "delivery"),
            "{}: a permanently partitioned member must trip the delivery \
             oracle, got {:?}",
            protocol.name(),
            outcome.violations
        );
        // The JSONL sink must never have dropped a line: a nonzero error
        // count means the telemetry fingerprint is untrustworthy.
        assert_eq!(
            outcome.sink_errors,
            0,
            "{}: JSONL sink recorded write errors",
            protocol.name()
        );

        // Capture → serialize → parse: exact round-trip. The capture
        // replays the case for its post-mortems.
        let artifact = Artifact::capture(&topo, protocol, &schedule, seed, &outcome);
        let text = artifact.to_text();
        let parsed = Artifact::from_text(&text).expect("artifact parses back");
        assert_eq!(parsed, artifact, "artifact text form must round-trip");

        // The violation implicates at least one router, so the artifact
        // carries its post-mortem: a non-empty flight recorder tail, a
        // state snapshot, and the backward causal slice explaining the
        // router's final entry-flag transition.
        assert!(
            !artifact.dumps.is_empty(),
            "{}: a violating run's artifact must dump the implicated routers",
            protocol.name()
        );
        for d in &artifact.dumps {
            assert!(
                !d.state.is_empty(),
                "{}: r{} state snapshot must not be empty",
                protocol.name(),
                d.node
            );
            assert!(
                !d.cause.is_empty(),
                "{}: r{} backward causal slice must not be empty",
                protocol.name(),
                d.node
            );
            assert!(
                d.cause[0].starts_with("#0 ["),
                "{}: r{} slice must start at its root hop, got {:?}",
                protocol.name(),
                d.node,
                d.cause[0]
            );
        }
        // A dump's slice depth is its backward chain's length (the
        // explorer prints the deepest).
        let case = case_causal(&topo, protocol, &schedule, seed, 1);
        for d in &artifact.dumps {
            let anchor =
                causal_anchor(&case.index, d.node as u32).expect("a dumped router has events");
            assert_eq!(
                d.slice_depth(),
                case.index.backward_chain(anchor).len(),
                "{}: r{} slice depth",
                protocol.name(),
                d.node
            );
        }

        // Replay: byte-identical re-execution, telemetry included.
        let rerun = replay(&parsed).expect("replay resolves topology");
        assert_eq!(
            rerun.fingerprint,
            artifact.fingerprint,
            "{}: replay must reproduce the identical packet trace",
            protocol.name()
        );
        assert_eq!(
            rerun.telemetry_fingerprint,
            artifact.telemetry,
            "{}: replay must reproduce the identical telemetry stream",
            protocol.name()
        );
        assert_eq!(
            rerun
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>(),
            artifact.violations,
            "{}: replay must reproduce the identical violations",
            protocol.name()
        );
        let verified = verify_replay(&parsed);
        assert!(
            verified.is_ok(),
            "{}: replay must reproduce the identical post-mortem dumps: {:?}",
            protocol.name(),
            verified.err()
        );
    }
}

#[test]
fn artifact_parser_rejects_malformed_input() {
    assert!(Artifact::from_text("not an artifact").is_err());
    assert!(Artifact::from_text("scenario-replay-v1\nprotocol pim\n").is_err());
    let head = "scenario-replay-v1\nprotocol pim\ntopology diamond\n\
                seed 1\nfingerprint 00000000000000ff\ntelemetry 00000000000000aa\n";
    let unterminated = format!("{head}schedule\n30 join 1\n");
    assert!(Artifact::from_text(&unterminated).is_err());
    // A dump section must be fully terminated and properly indented.
    let open_dump = format!("{head}schedule\nend\ndump r2\nflight\n");
    assert!(Artifact::from_text(&open_dump).is_err());
    let unindented =
        format!("{head}schedule\nend\ndump r2\nflight\nt5 raw\nend\nstate\nend\nend\n");
    assert!(Artifact::from_text(&unindented).is_err());
}

#[test]
fn replay_rejects_unknown_topology() {
    let artifact = Artifact {
        protocol: Protocol::Pim,
        topology: "no-such-topology".into(),
        seed: 1,
        schedule: broken_schedule(),
        fingerprint: 0,
        telemetry: 0,
        violations: vec![],
        dumps: vec![],
    };
    assert!(replay(&artifact).is_err());
}

/// A schedule exercising every adversarial-channel fault: corruption,
/// duplication, reordering, and an atomic partition — all healed before
/// the probe train so delivery measures recovery.
fn adversarial_schedule() -> FaultSchedule {
    let mut s = FaultSchedule::default();
    s.push(30, FaultEvent::Join(1));
    s.push(60, FaultEvent::Join(2));
    s.push(300, FaultEvent::CorruptLink(0, 300));
    s.push(400, FaultEvent::DuplicateLink(1, 400));
    s.push(500, FaultEvent::ReorderLink(2, 300, 20));
    s.push(800, FaultEvent::Partition(vec![3]));
    s.push(1500, FaultEvent::Heal(vec![3]));
    s.push(1600, FaultEvent::CorruptLink(0, 0));
    s.push(1700, FaultEvent::DuplicateLink(1, 0));
    s.push(1800, FaultEvent::ReorderLink(2, 0, 0));
    s
}

#[test]
fn adversarial_channel_schedule_roundtrips_and_replays_byte_identically() {
    let topo = topology("diamond").unwrap();
    let schedule = adversarial_schedule();
    let seed = 13;

    // DSL round-trip is byte-exact.
    let text = schedule.to_text();
    let parsed = FaultSchedule::from_text(&text).expect("DSL parses back");
    assert_eq!(parsed.to_text(), text, "schedule text must round-trip");

    for protocol in Protocol::ALL {
        let outcome = run_case(&topo, protocol, &parsed, seed);

        // Heal discipline means every oracle — including the hardening
        // oracle — must hold despite the adversarial channel.
        assert!(
            outcome.violations.is_empty(),
            "{}: healed adversarial channel must leave no violations, got {:?}",
            protocol.name(),
            outcome.violations
        );

        // Not vacuous: the channel really impaired traffic, and every
        // corrupted frame shows up in the decode-failure accounting.
        let text = case_text(&topo, protocol, &parsed, seed, 1).telemetry;
        for what in ["corrupt", "duplicate", "reorder"] {
            assert!(
                text.contains(what),
                "{}: no {what} impairment mark in telemetry",
                protocol.name()
            );
        }
        assert!(
            text.contains("decode_failed"),
            "{}: corruption never tripped a decode failure",
            protocol.name()
        );

        // Capture → replay: byte-identical trace and telemetry.
        let artifact = Artifact::capture(&topo, protocol, &parsed, seed, &outcome);
        let rerun = replay(&artifact).expect("replay resolves topology");
        assert_eq!(
            rerun.fingerprint,
            artifact.fingerprint,
            "{}: adversarial replay must reproduce the identical trace",
            protocol.name()
        );
        assert_eq!(
            rerun.telemetry_fingerprint,
            artifact.telemetry,
            "{}: adversarial replay must reproduce the identical telemetry",
            protocol.name()
        );
    }
}
