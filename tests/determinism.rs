//! Bit-for-bit reproducibility of a complete protocol run, observed
//! through the packet-capture trace (`netsim::trace`).
//!
//! The deadline-driven timer refactor made scheduling order load-bearing:
//! same-deadline events must pop in FIFO insertion order (the world's
//! heap orders by `(time, seq)`), and cancelled/rescheduled timers must
//! be skipped identically on every run. Two runs of the same seeded
//! scenario must therefore render byte-identical traces — any divergence
//! means hidden nondeterminism (hash-map iteration, RNG misuse, or a
//! broken tie-break).

use cbt::{CbtConfig, CbtEngine, CbtRouter};
use graph::{Graph, NodeId};
use igmp::HostNode;
use integration_tests::diamond;
use netsim::{host_addr, router_addr, Duration, LinkId, NodeIdx, SimTime, World};
use pim::{Engine, PimConfig, PimRouter};
use scenario::{NetSpec, Substrate};
use std::sync::{Arc, Mutex};
use telemetry::FlightRecorder;
use unicast::OracleRib;
use wire::Group;

/// Every captured transmission, one line each.
fn render_capture(world: &World) -> String {
    world
        .captured()
        .iter()
        .map(|rec| {
            format!(
                "{} link={} from={} {}\n",
                rec.at.ticks(),
                rec.link.0,
                rec.from.0,
                rec.summary()
            )
        })
        .collect()
}

/// Render the full capture of one diamond run (joins, data, SPT switch,
/// live unicast routing) as one string.
fn run_trace(substrate: Substrate, seed: u64) -> String {
    let g = diamond();
    let group = Group::test(1);
    let mut net = NetSpec {
        substrate,
        groups: &[(group, vec![NodeId(2)])],
        host_routers: &[NodeId(0), NodeId(3)],
        seed,
        ..NetSpec::default()
    }
    .build(&g);
    net.world.enable_capture(100_000);
    net.join_at(0, 400);
    net.send_at(1, 800, 12, 30);
    net.world.run_until(SimTime(2200));

    let out = render_capture(&net.world);
    // The trace must actually contain the protocol exchange, otherwise
    // "identical" is vacuous.
    assert!(out.contains("PIM Join/Prune"), "trace captured no joins");
    assert!(out.contains("DATA"), "trace captured no data");
    out
}

#[test]
fn same_seed_runs_produce_byte_identical_traces() {
    for sub in [
        Substrate::Oracle,
        Substrate::DistanceVector,
        Substrate::LinkState,
    ] {
        let a = run_trace(sub, 42);
        let b = run_trace(sub, 42);
        assert_eq!(a, b, "{sub:?}: same seed must reproduce the exact trace");
    }
}

#[test]
fn different_seeds_may_differ_but_stay_deterministic() {
    // Different seeds shuffle IGMP report jitter; each must still be
    // self-reproducible.
    let a1 = run_trace(Substrate::DistanceVector, 7);
    let a2 = run_trace(Substrate::DistanceVector, 7);
    assert_eq!(a1, a2);
}

/// One router (its own RP) with five host LANs, a member on each, the
/// first host also a sender. No builder attaches more than one host LAN
/// per router, so this is the only world where the order a router walks
/// its per-LAN IGMP queriers in reaches the wire: every wakeup sends one
/// query per LAN from a single dispatch. Returns the capture and every
/// host's reception log.
fn run_many_host_lans(seed: u64) -> (String, Vec<Vec<igmp::Received>>) {
    let group = Group::test(1);
    let me = router_addr(NodeId(0));
    let mut world = World::new(seed);
    let mut router = PimRouter::new(
        Engine::new(me, 0, PimConfig::default()),
        Box::new(OracleRib::empty(me)),
    );
    router.engine_mut().set_rp_mapping(group, vec![me]);
    let r = world.add_node(Box::new(router));
    let hosts: Vec<NodeIdx> = (0..5)
        .map(|i| {
            let addr = host_addr(NodeId(0), i);
            let h = world.add_node(Box::new(HostNode::new(addr)));
            let (_lan, ifs) = world.add_lan(&[r, h], Duration(1));
            world
                .node_mut::<PimRouter>(r)
                .attach_host_lan(ifs[0], &[addr]);
            h
        })
        .collect();
    world.enable_capture(100_000);
    for &h in &hosts {
        world.at(SimTime(10), move |w| {
            w.call_node(h, |n, ctx| {
                let host = n.as_any_mut().downcast_mut::<HostNode>().expect("a host");
                host.join(ctx, group);
            });
        });
    }
    for k in 0..20 {
        let sender = hosts[0];
        world.at(SimTime(50 + 25 * k), move |w| {
            w.call_node(sender, |n, ctx| {
                let host = n.as_any_mut().downcast_mut::<HostNode>().expect("a host");
                host.send_data(ctx, group);
            });
        });
    }
    world.run_until(SimTime(600));
    let capture = render_capture(&world);
    let received = hosts
        .iter()
        .map(|&h| world.node_mut::<HostNode>(h).take_received())
        .collect();
    (capture, received)
}

#[test]
fn a_router_with_several_host_lans_queries_them_in_interface_order() {
    let (capture, received) = run_many_host_lans(11);
    // Not vacuous: the router queried every LAN more than once, and the
    // other four members heard the sender.
    let queries = capture.matches("IGMP Query").count();
    assert!(queries >= 10, "only {queries} queries captured:\n{capture}");
    assert!(received[1..].iter().all(|log| log.len() >= 20));
    // Same seed, same process, a second world: with a hash-ordered
    // querier table (fresh `RandomState` keys per map) the two runs'
    // query bursts came out in different interface orders.
    assert_eq!((capture, received), run_many_host_lans(11));
}

// ---------------------------------------------------------------------
// Hash order must not reach the wire
// ---------------------------------------------------------------------
//
// Three worlds, each the smallest one in which a map that used to be
// hashed is iterated with more than one element and the iteration order
// leaves the node: no committed scenario has more than one group, or more
// than one member LAN per router, so none of these orders was pinned by a
// fingerprint. Each world is run twice in this process; hashed maps get
// fresh `RandomState` keys per instance, so the two runs disagreed.

/// A chain of `n` routers, one link between neighbours.
fn chain(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for k in 1..n {
        g.add_edge(NodeId(k as u32 - 1), NodeId(k as u32), 1);
    }
    g
}

/// One host in eight groups behind r0, the RP one hop away. The host
/// joins them all, leaves them all before the first query it would
/// answer (so the eight memberships lapse in a single querier tick and
/// r0 sends eight prunes from one dispatch), then rejoins and answers a
/// query (one random delay drawn per group, eight reports).
fn run_eight_group_host_lan(seed: u64) -> String {
    let groups: Vec<(Group, Vec<NodeId>)> =
        (1..=8).map(|k| (Group::test(k), vec![NodeId(1)])).collect();
    let mut net = NetSpec {
        groups: &groups,
        host_routers: &[NodeId(0)],
        seed,
        ..NetSpec::default()
    }
    .build(&chain(2));
    net.world.enable_capture(100_000);
    let host = net.hosts[0].0;
    for &(group, _) in &groups {
        net.join_group_at(0, group, 10);
        net.world.at(SimTime(12), move |w| {
            igmp::with_host(w, host, |h, _| h.leave(group));
        });
        net.join_group_at(0, group, 400);
    }
    net.world.run_until(SimTime(700));
    let out = render_capture(&net.world);
    let lapsed: Vec<&str> = out.lines().filter(|l| l.contains("prune={*,")).collect();
    let at = lapsed.first().and_then(|l| l.split(' ').next());
    assert!(
        lapsed.len() == 8 && lapsed.iter().all(|l| l.split(' ').next() == at),
        "eight prunes from one expiry tick:\n{out}"
    );
    let answers = out
        .lines()
        .filter(|l| l.contains("IGMP Report"))
        .filter(|l| l.split(' ').next().and_then(|t| t.parse().ok()) > Some(400u64))
        .count();
    assert!(answers >= 8, "only {answers} query answers:\n{out}");
    out
}

/// A CBT router, core of its group, with six member LANs and a sender
/// LAN: every data packet fans out to the six from one dispatch, in
/// `TreeState::forward_set` order.
fn run_cbt_member_lans(seed: u64) -> String {
    let group = Group::test(1);
    let me = router_addr(NodeId(0));
    let mut world = World::new(seed);
    let mut engine = CbtEngine::new(me, CbtConfig::default());
    engine.set_core(group, me);
    let r = world.add_node(Box::new(CbtRouter::new(
        engine,
        Box::new(OracleRib::empty(me)),
    )));
    let hosts: Vec<NodeIdx> = (0..7)
        .map(|i| {
            let addr = host_addr(NodeId(0), i);
            let h = world.add_node(Box::new(HostNode::new(addr)));
            let (_lan, ifs) = world.add_lan(&[r, h], Duration(1));
            world
                .node_mut::<CbtRouter>(r)
                .attach_host_lan(ifs[0], &[addr]);
            h
        })
        .collect();
    world.enable_capture(100_000);
    for &h in &hosts[1..] {
        world.at(SimTime(10), move |w| {
            igmp::with_host(w, h, |host, ctx| host.join(ctx, group));
        });
    }
    let sender = hosts[0];
    for k in 0..4 {
        world.at(SimTime(50 + 10 * k), move |w| {
            igmp::with_host(w, sender, |host, ctx| host.send_data(ctx, group));
        });
    }
    world.run_until(SimTime(120));
    let out = render_capture(&world);
    let copies = out
        .lines()
        .filter(|l| l.contains("from=0 ") && l.contains("DATA"))
        .count();
    assert_eq!(copies, 4 * 6, "four packets to six member LANs:\n{out}");
    out
}

/// Four routers in a chain over distance-vector routing; the r0–r1 link
/// fails, and every route r0 learned over it — three routers — times
/// out in the same DV tick. The `RouteChanged` notifications (telemetry,
/// and PIM's §3.8 repair) left in table order. Returns r0's flight
/// recorder.
fn run_dv_link_failure(seed: u64) -> String {
    let group = Group::test(1);
    let mut net = NetSpec {
        substrate: Substrate::DistanceVector,
        groups: &[(group, vec![NodeId(3)])],
        host_routers: &[NodeId(0)],
        seed,
        ..NetSpec::default()
    }
    .build(&chain(4));
    let rec = Arc::new(Mutex::new(FlightRecorder::new(1 << 16)));
    net.attach_telemetry(rec.clone());
    net.join_at(0, 200);
    net.world
        .at(SimTime(400), |w| w.set_link_up(LinkId(0), false));
    net.world.run_until(SimTime(800));
    let dump = rec.lock().expect("recorder").dump(0);
    let lost: Vec<&String> = dump
        .iter()
        .filter(|l| l.contains("route-changed"))
        .filter(|l| l[1..].split(' ').next().and_then(|t| t.parse().ok()) > Some(400u64))
        .collect();
    assert!(
        lost.len() >= 3,
        "routes lost at r0: {lost:?}\n{}",
        dump.join("\n")
    );
    let at = lost[0].split(' ').next();
    assert!(
        lost.iter().all(|l| l.split(' ').next() == at),
        "one tick loses them all: {lost:?}"
    );
    dump.join("\n")
}

#[test]
fn hash_order_does_not_reach_the_wire() {
    assert_eq!(run_eight_group_host_lan(5), run_eight_group_host_lan(5));
    assert_eq!(run_cbt_member_lans(5), run_cbt_member_lans(5));
    assert_eq!(run_dv_link_failure(5), run_dv_link_failure(5));
}
