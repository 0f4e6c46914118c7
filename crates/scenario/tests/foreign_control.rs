//! Every engine ignores the control messages its dispatch does not name:
//! another protocol's messages, and the IGMP and unicast messages the
//! node never hands an engine. On a warmed router of each protocol, each
//! such message of `scenario::corpus()` must come back with no action, no
//! telemetry event, and the entry count and state dump unchanged.

use netsim::{IfaceId, NodeIdx, SimTime};
use scenario::{corpus, topologies, FaultEvent, FaultSchedule, NetSpec, Protocol};
use unicast::OracleRib;
use wire::{Addr, Group, Message};

/// When the engines are probed: members joined, data flowing.
const PROBE_AT: u64 = 300;

/// Does `protocol`'s `on_control` dispatch name `msg`'s variant?
fn named(protocol: Protocol, msg: &Message) -> bool {
    match protocol {
        Protocol::Pim => matches!(
            msg,
            Message::PimQuery(_)
                | Message::PimJoinPrune(_)
                | Message::PimRpReachability(_)
                | Message::PimRegister(_)
        ),
        Protocol::Cbt => matches!(
            msg,
            Message::CbtJoinRequest(_)
                | Message::CbtJoinAck(_)
                | Message::CbtEcho(_)
                | Message::CbtEchoReply(_)
                | Message::CbtQuit(_)
                | Message::CbtFlushTree(_)
                | Message::PimRegister(_)
        ),
        Protocol::Dvmrp => matches!(
            msg,
            Message::DvmrpProbe(_)
                | Message::DvmrpPrune(_)
                | Message::DvmrpGraft(_)
                | Message::DvmrpGraftAck(_)
        ),
    }
}

#[test]
fn foreign_control_messages_leave_a_warmed_engine_alone() {
    let topo = &topologies()[0];
    let mut schedule = FaultSchedule::default();
    schedule.push(30, FaultEvent::Join(1));
    schedule.push(60, FaultEvent::Join(2));
    for protocol in Protocol::ALL {
        let mut net = NetSpec {
            protocol,
            groups: &[(Group::test(1), vec![topo.rendezvous])],
            host_routers: &topo.host_routers,
            seed: 7,
            ..NetSpec::default()
        }
        .build(&topo.graph);
        net.install(&schedule);
        net.send_at(0, 100, 10, 40);
        net.world.run_until(SimTime(PROBE_AT));
        let foreign: Vec<Message> = corpus()
            .into_iter()
            .filter(|m| !named(protocol, m))
            .collect();
        assert!(!foreign.is_empty(), "{}", protocol.name());
        let now = SimTime(PROBE_AT);
        let mut warmed = 0;
        for n in 0..net.router_count {
            let router = protocol.router_mut(&mut net.world, NodeIdx(n));
            let dump = router.state_dump(now);
            let entries = router.engine().entry_count();
            warmed += entries;
            let engine = router.engine_mut();
            let me = engine.addr();
            let rib = OracleRib::empty(me);
            engine.telem().set_enabled(true);
            engine.telem().drain();
            let src = Addr::new(10, 0, 200, 1);
            for msg in &foreign {
                for dst in [me, Addr::ALL_PIM_ROUTERS] {
                    let acts = engine.on_control(now, IfaceId(0), src, dst, msg, &rib);
                    assert!(
                        acts.is_empty(),
                        "{} router {n} answered {msg:?} to {dst} with {acts:?}",
                        protocol.name()
                    );
                }
            }
            assert_eq!(
                engine.telem().drain().count(),
                0,
                "{} router {n} emitted",
                protocol.name()
            );
            assert_eq!(
                router.engine().entry_count(),
                entries,
                "{}",
                protocol.name()
            );
            assert_eq!(
                router.state_dump(now),
                dump,
                "{} router {n}",
                protocol.name()
            );
        }
        assert!(warmed > 0, "{}: no router holds state", protocol.name());
    }
}
