//! Quiescence regression: the event loop must do work proportional to
//! *state churn*, not to simulated wall-clock (the paper's §4 scaling
//! argument). The seed simulator polled every node every 2 ticks, so an
//! idle network of N nodes burned N·T/2 timer events over T ticks; with
//! deadline-driven wakeups an idle converged network only wakes for its
//! periodic soft-state refreshes (PIM queries every 30, join/prune and
//! RP-reachability refreshes every 60, IGMP queries every 125 ticks).

use graph::gen::{random_connected, RandomGraphParams};
use graph::NodeId;
use igmp::HostNode;
use netsim::{host_addr, Duration, SimTime, World};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenario::NetSpec;
use wire::Group;

/// An idle, converged PIM internet (routers + queriers + member-less
/// hosts) must dispatch far fewer timer events than the seed's fixed
/// 2-tick heartbeat — and its event total must be dominated by the known
/// periodic refreshes, not by per-node polling.
#[test]
fn idle_converged_network_is_quiescent() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = random_connected(
        &RandomGraphParams {
            nodes: 16,
            avg_degree: 3.0,
            delay_range: (1, 4),
        },
        &mut rng,
    );
    let host_routers = [NodeId(2), NodeId(5), NodeId(11), NodeId(14)];
    let mut net = NetSpec {
        groups: &[(Group::test(1), vec![NodeId(0)])],
        host_routers: &host_routers,
        seed: 9,
        ..NetSpec::default()
    }
    .build(&g);
    // No joins, no senders: after neighbor discovery settles this network
    // carries only periodic soft-state refreshes.
    net.world.run_until(SimTime(400));
    let timers0 = net.world.counters().timers_fired();
    let events0 = net.world.counters().events_dispatched();

    const WINDOW: u64 = 2_000;
    net.world.run_until(SimTime(400 + WINDOW));
    let timers = net.world.counters().timers_fired() - timers0;
    let events = net.world.counters().events_dispatched() - events0;

    // 16 routers + 4 hosts under the seed's 2-tick poll.
    let nodes = 16 + host_routers.len() as u64;
    let heartbeat_timers = nodes * WINDOW / 2;
    println!(
        "idle window of {WINDOW} ticks: {timers} timer wakeups, {events} events \
         (2-tick heartbeat would be {heartbeat_timers} wakeups)"
    );
    assert!(
        timers * 5 < heartbeat_timers,
        "idle network fired {timers} timers over {WINDOW} ticks; \
         the 2-tick heartbeat would fire {heartbeat_timers} — wakeups must \
         be deadline-driven, not polled"
    );

    // The wakeups that do happen are the known refresh clocks: per router
    // one wakeup per due deadline — queries every 30, refresh/RP clocks
    // every 60, IGMP queries every 125 on the 4 host LANs. Allow 2× slack
    // for deadline coalescing and neighbor-expiry checks.
    let refreshes = 16 * (WINDOW / 30 + 2 * (WINDOW / 60)) + 4 * (WINDOW / 125);
    assert!(
        timers <= 2 * refreshes,
        "idle timer count {timers} exceeds O(state refreshes) bound {refreshes}×2"
    );
    // Dispatched events = timer wakeups + the control packets those
    // refreshes put on the wire; they must scale together.
    assert!(
        events < 20 * timers,
        "events {events} should be a small multiple of wakeups {timers}"
    );
}

/// Hosts with no group membership have no soft state to refresh at all:
/// a world of lone hosts must dispatch *zero* events after start.
#[test]
fn member_less_hosts_schedule_nothing() {
    let mut world = World::new(7);
    let a = world.add_node(Box::new(HostNode::new(host_addr(NodeId(0), 0))));
    let b = world.add_node(Box::new(HostNode::new(host_addr(NodeId(1), 0))));
    world.add_lan(&[a, b], Duration(1));
    world.run_until(SimTime(10_000));
    assert_eq!(
        world.counters().events_dispatched(),
        0,
        "idle hosts must not poll"
    );
}

/// Once members exist, events grow with the membership's refresh state —
/// but an idle member still costs only its periodic refreshes, far below
/// the heartbeat. (Guards against quiescence being achieved by simply
/// never scheduling protocol work.)
#[test]
fn joined_member_still_refreshes() {
    let g = integration_tests::diamond();
    let mut net = NetSpec {
        groups: &[(Group::test(1), vec![NodeId(2)])],
        host_routers: &[NodeId(0)],
        seed: 5,
        ..NetSpec::default()
    }
    .build(&g);
    net.join_at(0, 100);
    net.world.run_until(SimTime(600));
    let timers0 = net.world.counters().timers_fired();
    net.world.run_until(SimTime(2600));
    let timers = net.world.counters().timers_fired() - timers0;
    // The joined branch keeps refreshing join/prune state upstream: the
    // window must contain refresh wakeups (2000/60 ≈ 33 per router on the
    // tree) — quiescence must not mean "nothing ever fires".
    assert!(
        timers > 2_000 / 60,
        "a joined member must keep refreshing soft state (saw {timers} wakeups)"
    );
    let heartbeat = 5 * 2_000 / 2;
    assert!(
        (timers as u64) * 5 < heartbeat,
        "even with a member, wakeups ({timers}) stay far below the heartbeat ({heartbeat})"
    );
}

/// A 1 KiB stream through a three-router chain (sender — r0 — r1 = RP —
/// r2 — member) arms exactly the wakeups it armed when every packet
/// rescanned every timer (the literals were read off that commit): a
/// forwarded data packet moves no timer, so reading `next_deadline` off
/// the engines' deadline index may arm, fire or cancel nothing that the
/// full walk did not.
#[test]
fn a_1k_stream_down_a_chain_arms_the_wakeups_it_always_did() {
    let mut g = graph::Graph::with_nodes(3);
    let r = [NodeId(0), NodeId(1), NodeId(2)];
    g.add_edge(r[0], r[1], 2);
    g.add_edge(r[1], r[2], 3);
    let group = Group::test(1);
    let mut net = NetSpec {
        groups: &[(group, vec![r[1]])],
        host_routers: &[r[0], r[2]],
        seed: 14,
        ..NetSpec::default()
    }
    .build(&g);
    net.join_at(1, 100);
    let (sender, sender_addr) = net.hosts[0];
    let header = wire::ip::Header {
        proto: wire::ip::Protocol::Data,
        ttl: 32,
        src: sender_addr,
        dst: group.addr(),
    };
    for seq in 0..400u64 {
        net.world.at(SimTime(300 + 2 * seq), move |w| {
            let mut payload = vec![0xA5; 1024];
            payload[..8].copy_from_slice(&seq.to_be_bytes());
            w.call_node(sender, |_, ctx| {
                ctx.send(netsim::IfaceId(0), header.encap(&payload))
            });
        });
    }
    net.world.run_until(SimTime(1500));

    assert_eq!(net.seqs(1, sender_addr), (0..400).collect::<Vec<_>>());
    let c = net.world.counters();
    let timers = (
        c.timers_fired(),
        c.timers_skipped_stale(),
        c.events_dispatched(),
    );
    assert_eq!(timers, (184, 0, 2596));
    assert_eq!((c.rx_data_pkts(), c.rx_control_pkts()), (1598, 413));
}
