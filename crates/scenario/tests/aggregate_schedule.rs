//! Fault schedules drive aggregate host slots: `join`, `burst` and
//! `leave` aimed at a [`HostNode`] of many members install, run, move the
//! slot's whole population, deliver member-weighted, and stay
//! byte-identical across thread counts.

use igmp::HostNode;
use netsim::SimTime;
use scenario::{topology, FaultEvent, FaultSchedule, NetSpec, Protocol};
use std::collections::BTreeSet;

const POPULATION: u64 = 50;

/// Run the scenario; returns the rendered capture trace.
fn run(protocol: Protocol, threads: usize) -> Vec<String> {
    let topo = topology("diamond").expect("diamond topology");
    let mut net = NetSpec {
        protocol,
        groups: &[(wire::Group::test(1), vec![topo.rendezvous])],
        host_routers: &topo.host_routers,
        populations: &[1, POPULATION, 1],
        seed: 17,
        ..NetSpec::default()
    }
    .build(&topo.graph);
    let mut schedule = FaultSchedule::default();
    schedule.push(30, FaultEvent::Join(1));
    schedule.push(40, FaultEvent::Join(2));
    schedule.push(600, FaultEvent::Burst(1, 8, 5));
    schedule.push(1000, FaultEvent::Leave(1));
    net.install(&schedule);
    net.send_at(0, 100, 10, 40); // while the population is joined
    net.send_at(0, 1600, 5, 40); // long after it left (IGMP timeout 280)
    net.world.enable_capture(100_000);
    net.parallelize(threads, None);
    net.world.run_until(SimTime(2400));

    let (source, aggregate) = (net.hosts[0].1, net.hosts[1]);
    let name = protocol.name();
    // Joined as a whole: the first train arrives, the second does not.
    let got: BTreeSet<u64> = net.seqs(1, source).into_iter().collect();
    assert_eq!(got, (0..10).collect(), "{name}: aggregate slot reception");
    // Every reception counted once per member.
    let population: &HostNode = net.world.node(aggregate.0);
    assert_eq!(
        population.member_receptions(),
        POPULATION * population.received.len() as u64,
        "{name}: receptions are member-weighted"
    );
    assert_eq!(population.members(net.group), 0, "{name}: everyone left");
    // The burst left the aggregate slot and reached the explicit member.
    let burst: BTreeSet<u64> = net.seqs(2, aggregate.1).into_iter().collect();
    assert_eq!(burst, (0..8).collect(), "{name}: burst from the slot");

    scenario::explore::trace_lines(&net.world)
}

#[test]
fn schedules_drive_population_slots_thread_invariantly() {
    for protocol in Protocol::ALL {
        let one = run(protocol, 1);
        assert!(!one.is_empty());
        assert_eq!(
            one,
            run(protocol, 4),
            "{}: trace diverged across thread counts",
            protocol.name()
        );
    }
}
