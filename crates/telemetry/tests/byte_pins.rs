//! Byte pins for everything a telemetry reader can see: one literal per
//! [`Event`] variant for both renderers, the flight recorder's ring
//! order, and a causal index's slice, dump and fingerprint. Replay
//! artifacts, corpus pins and the `--threads` determinism gates all rest
//! on these bytes, so any renderer rewrite must leave this file green
//! without editing it.

use telemetry::{
    flags, CausalIndex, EntryKey, Event, EventId, FlightRecorder, JsonlSink, Provenance, Sink,
};
use wire::{Addr, Group};

fn g() -> Group {
    Group::test(7)
}

fn a(last: u8) -> Addr {
    Addr::new(10, 0, 0, last)
}

/// Every variant once: `(event, to_string(), to_json(3, 42))`.
fn table() -> Vec<(Event, &'static str, &'static str)> {
    vec![
        (
            Event::EntryCreated {
                group: g(),
                key: EntryKey::Star,
                flags: flags::WC | flags::RP,
            },
            "entry-created (*,239.1.0.7) flags=WC|RP",
            r#"{"t":42,"node":3,"ev":"entry_created","group":"239.1.0.7","key":"*","flags":"WC|RP"}"#,
        ),
        (
            Event::EntryModified {
                group: g(),
                key: EntryKey::Source(a(1)),
                from: 0,
                to: flags::SPT | flags::PRUNED | flags::ON_TREE,
            },
            "entry-modified (10.0.0.1,239.1.0.7) -->SPT|PRUNED|ON_TREE",
            r#"{"t":42,"node":3,"ev":"entry_modified","group":"239.1.0.7","key":"10.0.0.1","from":"-","to":"SPT|PRUNED|ON_TREE"}"#,
        ),
        (
            Event::EntryExpired {
                group: g(),
                key: EntryKey::Source(a(2)),
            },
            "entry-expired (10.0.0.2,239.1.0.7)",
            r#"{"t":42,"node":3,"ev":"entry_expired","group":"239.1.0.7","key":"10.0.0.2"}"#,
        ),
        (
            Event::TimerArmed {
                token: 9,
                deadline: u64::MAX,
            },
            "timer-armed token=9 deadline=18446744073709551615",
            r#"{"t":42,"node":3,"ev":"timer_armed","token":9,"deadline":18446744073709551615}"#,
        ),
        (
            Event::TimerFired { token: 0 },
            "timer-fired token=0",
            r#"{"t":42,"node":3,"ev":"timer_fired","token":0}"#,
        ),
        (
            Event::TimerCancelled { token: 77 },
            "timer-cancelled token=77",
            r#"{"t":42,"node":3,"ev":"timer_cancelled","token":77}"#,
        ),
        (
            Event::CtrlSend {
                kind: "pim-join-prune",
                dst: a(3),
            },
            "ctrl-send pim-join-prune dst=10.0.0.3",
            r#"{"t":42,"node":3,"ev":"ctrl_send","kind":"pim-join-prune","dst":"10.0.0.3"}"#,
        ),
        (
            Event::CtrlRecv {
                kind: "dvmrp-graft-ack",
                src: a(4),
            },
            "ctrl-recv dvmrp-graft-ack src=10.0.0.4",
            r#"{"t":42,"node":3,"ev":"ctrl_recv","kind":"dvmrp-graft-ack","src":"10.0.0.4"}"#,
        ),
        (
            Event::DataDelivered {
                group: g(),
                source: a(5),
            },
            "data-delivered group=239.1.0.7 source=10.0.0.5",
            r#"{"t":42,"node":3,"ev":"data_delivered","group":"239.1.0.7","source":"10.0.0.5"}"#,
        ),
        (
            Event::LocalMemberJoined { group: g() },
            "member-joined group=239.1.0.7",
            r#"{"t":42,"node":3,"ev":"member_joined","group":"239.1.0.7"}"#,
        ),
        (
            Event::LocalMemberLeft { group: g() },
            "member-left group=239.1.0.7",
            r#"{"t":42,"node":3,"ev":"member_left","group":"239.1.0.7"}"#,
        ),
        (
            Event::DrChanged {
                iface: 2,
                is_dr: true,
            },
            "dr-changed iface=2 is_dr=true",
            r#"{"t":42,"node":3,"ev":"dr_changed","iface":2,"is_dr":true}"#,
        ),
        (
            Event::QuerierChanged {
                iface: 0,
                is_querier: false,
            },
            "querier-changed iface=0 is_querier=false",
            r#"{"t":42,"node":3,"ev":"querier_changed","iface":0,"is_querier":false}"#,
        ),
        (
            Event::RpFailover {
                group: g(),
                from: a(6),
                to: a(7),
            },
            "rp-failover group=239.1.0.7 from=10.0.0.6 to=10.0.0.7",
            r#"{"t":42,"node":3,"ev":"rp_failover","group":"239.1.0.7","from":"10.0.0.6","to":"10.0.0.7"}"#,
        ),
        (
            Event::SptSwitchStart {
                group: g(),
                source: a(8),
            },
            "spt-switch-start group=239.1.0.7 source=10.0.0.8",
            r#"{"t":42,"node":3,"ev":"spt_switch_start","group":"239.1.0.7","source":"10.0.0.8"}"#,
        ),
        (
            Event::RouteChanged { dst: a(9) },
            "route-changed dst=10.0.0.9",
            r#"{"t":42,"node":3,"ev":"route_changed","dst":"10.0.0.9"}"#,
        ),
        (
            // Every escape class at once: quote, backslash, newline, a
            // control character, and a non-ASCII character passed through.
            Event::Fault {
                desc: "crash \"r2\" \\ a\nb \u{1} é".into(),
            },
            "fault crash \"r2\" \\ a\nb \u{1} é",
            "{\"t\":42,\"node\":3,\"ev\":\"fault\",\"desc\":\"crash \\\"r2\\\" \\\\ a\\nb \\u0001 é\"}",
        ),
        (
            Event::DecodeFailed {
                kind: "checksum",
                iface: 1,
            },
            "decode-failed kind=checksum iface=1",
            r#"{"t":42,"node":3,"ev":"decode_failed","kind":"checksum","iface":1}"#,
        ),
        (
            Event::ChannelImpaired {
                what: "reorder",
                link: 12,
            },
            "channel reorder link=12",
            r#"{"t":42,"node":3,"ev":"channel_impaired","what":"reorder","link":12}"#,
        ),
        (
            Event::QueueDrop {
                what: "ctrl",
                link: 4,
            },
            "queue-drop ctrl link=4",
            r#"{"t":42,"node":3,"ev":"queue_drop","what":"ctrl","link":4}"#,
        ),
        (
            Event::EcnMark { link: 4 },
            "ecn-mark link=4",
            r#"{"t":42,"node":3,"ev":"ecn_mark","link":4}"#,
        ),
        (
            Event::QueueDepth {
                link: 4,
                bytes: 4096,
            },
            "queue-depth link=4 bytes=4096",
            r#"{"t":42,"node":3,"ev":"queue_depth","link":4,"bytes":4096}"#,
        ),
    ]
}

#[test]
fn every_variant_renders_its_pinned_bytes() {
    let table = table();
    let mut kinds: Vec<&str> = table.iter().map(|(ev, _, _)| ev.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 22, "one row per Event variant");

    let mut sink = JsonlSink::new(Vec::new());
    let mut stream = String::new();
    for (ev, text, json) in &table {
        assert_eq!(ev.to_string(), *text, "Display of {}", ev.kind());
        assert_eq!(ev.to_json(3, 42), *json, "to_json of {}", ev.kind());
        sink.event(3, 42, ev);
        stream.push_str(json);
        stream.push('\n');
    }
    // The sink's byte stream is exactly the `to_json` lines, newline
    // terminated.
    assert_eq!(sink.errors, 0);
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), stream);
}

#[test]
fn flight_recorder_keeps_the_newest_cap_lines_oldest_first() {
    let mut rec = FlightRecorder::new(3);
    for (i, (ev, _, _)) in table().iter().enumerate().take(8) {
        let i = i as u64;
        // Interleave a second node: rings are per node.
        rec.event(5, 100 + i, ev);
        rec.event(6, 100 + i, &Event::TimerFired { token: i });
    }
    assert_eq!(
        rec.dump(5),
        vec![
            "t105 timer-cancelled token=77",
            "t106 ctrl-send pim-join-prune dst=10.0.0.3",
            "t107 ctrl-recv dvmrp-graft-ack src=10.0.0.4",
        ]
    );
    assert_eq!(
        rec.dump(6),
        vec![
            "t105 timer-fired token=5",
            "t106 timer-fired token=6",
            "t107 timer-fired token=7",
        ]
    );
    assert_eq!(rec.nodes(), vec![5, 6]);
    assert!(rec.dump(7).is_empty());
    // A `Fault` owns its text: the ring must hand it back intact.
    rec.event(
        5,
        200,
        &Event::Fault {
            desc: "link-down 3".into(),
        },
    );
    assert_eq!(rec.dump(5)[2], "t200 fault link-down 3");
}

fn id(time: u64, epoch: u8, origin: u32, seq: u64) -> EventId {
    EventId {
        time,
        epoch,
        origin,
        seq,
    }
}

#[test]
fn causal_index_slice_dump_and_fingerprint_are_pinned() {
    let root = id(0, 0, 1, 0);
    let hop1 = id(5, 2, 2, 0);
    let hop2 = id(9, 2, 3, 0);
    let fault = id(20, 1, 0, 3);
    let after = id(25, 2, 2, 4);
    let mut ix = CausalIndex::new();
    for (d, cause) in [
        (root, None),
        (hop1, Some(root)),
        (hop2, Some(hop1)),
        (fault, None),
        (after, Some(fault)),
    ] {
        ix.link(d, cause);
    }
    let emit = |ix: &mut CausalIndex, node, at, ev: Event, d, cause| {
        ix.event_caused(node, at, &ev, Provenance { id: d, cause });
    };
    emit(
        &mut ix,
        1,
        5,
        Event::LocalMemberJoined { group: g() },
        hop1,
        Some(root),
    );
    emit(
        &mut ix,
        1,
        5,
        Event::EntryCreated {
            group: g(),
            key: EntryKey::Star,
            flags: flags::WC | flags::RP,
        },
        hop1,
        Some(root),
    );
    emit(
        &mut ix,
        1,
        9,
        Event::DataDelivered {
            group: g(),
            source: a(1),
        },
        hop2,
        Some(hop1),
    );
    emit(
        &mut ix,
        0,
        20,
        Event::Fault {
            desc: "crash r2".into(),
        },
        fault,
        None,
    );

    assert_eq!(
        ix.backward_slice(hop2),
        vec![
            "#0 [t0/e0/o1#0] n0 on-start",
            "    (silent)",
            "#1 [t5/e2/o2#0] n1",
            "    t5 r1 member-joined group=239.1.0.7",
            "    t5 r1 entry-created (*,239.1.0.7) flags=WC|RP",
            "#2 [t9/e2/o3#0] n2",
            "    t9 r1 data-delivered group=239.1.0.7 source=10.0.0.1",
        ]
    );
    assert_eq!(
        ix.backward_slice(after),
        vec![
            "#0 [t20/e1/o0#3] script step 3",
            "    t20 r0 fault crash r2",
            "#1 [t25/e2/o2#4] n1",
            "    (silent)",
        ]
    );
    assert_eq!(
        ix.dump(),
        vec![
            "t0/e0/o1#0 cause=- records=0",
            "t5/e2/o2#0 cause=t0/e0/o1#0 records=2",
            "t9/e2/o3#0 cause=t5/e2/o2#0 records=1",
            "t20/e1/o0#3 cause=- records=1",
            "t25/e2/o2#4 cause=t20/e1/o0#3 records=0",
        ]
    );
    assert_eq!(ix.fingerprint(), 0xfdb8_a56b_1466_2231);
    assert_eq!(ix.forward_slice(root), vec![root, hop1, hop2]);
    assert_eq!(ix.fault_roots(), vec![fault]);
    assert_eq!(ix.last_flag_transition(None), Some(hop1));
    assert_eq!(ix.last_event_on(1), Some(hop2));
    assert_eq!(ix.last_event_on(2), None);
    assert_eq!(
        ix.critical_path(g().addr().0, 1),
        vec![
            "join at t5, first delivery at t9 (latency 4)",
            "#0 [t0/e0/o1#0] n0 on-start (+0)",
            "    (silent)",
            "#1 [t5/e2/o2#0] n1 (+5)  <- dominant",
            "    t5 r1 member-joined group=239.1.0.7",
            "    t5 r1 entry-created (*,239.1.0.7) flags=WC|RP",
            "#2 [t9/e2/o3#0] n2 (+4)",
            "    t9 r1 data-delivered group=239.1.0.7 source=10.0.0.1",
        ]
    );
}
