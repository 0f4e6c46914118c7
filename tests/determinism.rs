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

use graph::NodeId;
use igmp::HostNode;
use integration_tests::diamond;
use netsim::{host_addr, router_addr, Duration, NodeIdx, SimTime, World};
use pim::{Engine, PimConfig, PimRouter};
use scenario::{NetSpec, Substrate};
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
                rec.summary
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
