//! **Multi-access LAN workgroup** (§3.7): two routers share a transit LAN
//! with distinct receivers behind each. The example shows:
//!
//! * DR election via PIM Query (highest address wins, so only one router
//!   serves the member LAN);
//! * join suppression — both downstream routers want the same (\*,G) from
//!   the same upstream over the LAN, but only one periodic join flows;
//! * prune override — when one downstream router's members leave and it
//!   prunes, the other router immediately overrides with a join and
//!   delivery continues unbroken.
//!
//! Run: `cargo run -p examples --example lan_workgroup`

use graph::NodeId;
use igmp::HostNode;
use netsim::IfaceId;
use netsim::{host_addr, router_addr, Duration, SimTime, World};
use pim::{Engine, PimConfig, PimRouter};
use unicast::{OracleRib, RouteEntry};
use wire::{Addr, Group};

fn main() {
    // Hand-built world (the LAN needs multi-access semantics):
    //
    //   sender -- [r_src] --p2p-- [r_up] ==LAN== [r_a], [r_b]
    //                                             |       |
    //                                          hostA    hostB
    //
    // r_up is also the RP. r_b has the higher address.
    let group = Group::test(1);
    let a_src = router_addr(NodeId(0));
    let a_up = router_addr(NodeId(1));
    let a_a = router_addr(NodeId(2));
    let a_b = router_addr(NodeId(3));
    let h_src = host_addr(NodeId(0), 0);
    let h_a = host_addr(NodeId(2), 0);
    let h_b = host_addr(NodeId(3), 0);

    let mut world = World::new(11);

    // Build oracle ribs by hand. Interface plan per router:
    //   r_src: if0 = p2p to r_up, if1 = host LAN           (added later)
    //   r_up:  if0 = p2p to r_src, if1 = transit LAN
    //   r_a:   if0 = transit LAN, if1 = member LAN (later)
    //   r_b:   if0 = transit LAN, if1 = member LAN (later)
    let rib = |me: Addr, routes: &[(Addr, u32, Addr)]| {
        let mut r = OracleRib::empty(me);
        for &(dst, iface, nh) in routes {
            r.insert(
                dst,
                RouteEntry {
                    iface: IfaceId(iface),
                    next_hop: nh,
                    metric: 1,
                },
            );
        }
        r
    };
    let rib_src = rib(
        a_src,
        &[
            (a_up, 0, a_up),
            (a_a, 0, a_up),
            (a_b, 0, a_up),
            (h_a, 0, a_up),
            (h_b, 0, a_up),
        ],
    );
    let rib_up = rib(
        a_up,
        &[
            (a_src, 0, a_src),
            (h_src, 0, a_src),
            (a_a, 1, a_a),
            (a_b, 1, a_b),
            (h_a, 1, a_a),
            (h_b, 1, a_b),
        ],
    );
    let rib_a = rib(
        a_a,
        &[
            (a_up, 0, a_up),
            (a_src, 0, a_up),
            (h_src, 0, a_up),
            (a_b, 0, a_b),
            (h_b, 0, a_b),
        ],
    );
    let rib_b = rib(
        a_b,
        &[
            (a_up, 0, a_up),
            (a_src, 0, a_up),
            (h_src, 0, a_up),
            (a_a, 0, a_a),
            (h_a, 0, a_a),
        ],
    );

    let mk = |addr: Addr, ifaces: usize, r: OracleRib| {
        let mut router =
            PimRouter::new(Engine::new(addr, ifaces, PimConfig::default()), Box::new(r));
        router.engine_mut().set_rp_mapping(group, vec![a_up]);
        router
    };
    let r_src = world.add_node(Box::new(mk(a_src, 1, rib_src)));
    let r_up = world.add_node(Box::new(mk(a_up, 2, rib_up)));
    let r_a = world.add_node(Box::new(mk(a_a, 1, rib_a)));
    let r_b = world.add_node(Box::new(mk(a_b, 1, rib_b)));

    world.add_p2p(r_src, r_up, Duration(1));
    // The multi-access transit LAN.
    let (_lan, lan_ifs) = world.add_lan(&[r_up, r_a, r_b], Duration(1));
    // Mark LAN semantics on every attached router (prune override etc.).
    world
        .node_mut::<PimRouter>(r_up)
        .engine_mut()
        .set_lan(lan_ifs[0]);
    world
        .node_mut::<PimRouter>(r_a)
        .engine_mut()
        .set_lan(lan_ifs[1]);
    world
        .node_mut::<PimRouter>(r_b)
        .engine_mut()
        .set_lan(lan_ifs[2]);

    // Host LANs.
    let sender = world.add_node(Box::new(HostNode::new(h_src)));
    let (_l, ifs) = world.add_lan(&[r_src, sender], Duration(1));
    world
        .node_mut::<PimRouter>(r_src)
        .attach_host_lan(ifs[0], &[h_src]);
    let host_a = world.add_node(Box::new(HostNode::new(h_a)));
    let (_l, ifs) = world.add_lan(&[r_a, host_a], Duration(1));
    world
        .node_mut::<PimRouter>(r_a)
        .attach_host_lan(ifs[0], &[h_a]);
    let host_b = world.add_node(Box::new(HostNode::new(h_b)));
    let (_l, ifs) = world.add_lan(&[r_b, host_b], Duration(1));
    world
        .node_mut::<PimRouter>(r_b)
        .attach_host_lan(ifs[0], &[h_b]);

    println!("== Multi-access LAN behaviors (paper §3.7) ==");
    println!("sender-[r_src]-[r_up=RP]==LAN==[r_a(hostA), r_b(hostB)]");
    println!();

    // Both hosts join; sender streams throughout.
    for (h, t) in [(host_a, 10u64), (host_b, 14)] {
        world.at(SimTime(t), move |w| {
            igmp::with_host(w, h, |h, ctx| h.join(ctx, group));
        });
    }
    for k in 0..80u64 {
        world.at(SimTime(100 + k * 25), move |w| {
            igmp::with_host(w, sender, |h, ctx| h.send_data(ctx, group));
        });
    }

    world.run_until(SimTime(600));
    {
        let up: &PimRouter = world.node(r_up);
        let star = up
            .engine()
            .group_state(group)
            .and_then(|g| g.star.as_ref())
            .expect("(*,G) at the upstream");
        println!(
            "t=600   r_up's (*,G) oifs: {:?} — ONE oif covers the whole LAN, however",
            star.oifs().keys().collect::<Vec<_>>()
        );
        println!("        many routers joined through it.");
        let ra: &PimRouter = world.node(r_a);
        let rb: &PimRouter = world.node(r_b);
        println!("        DR election on the transit LAN: r_a is DR? {}  r_b is DR? {} (higher addr wins)",
            ra.engine().is_dr(IfaceId(0)), rb.engine().is_dr(IfaceId(0)));
    }

    // Host A leaves at t=700 (silently; its membership expires ~t=1000),
    // causing r_a to prune (*,G) on the LAN. r_b must override.
    world.at(SimTime(700), move |w| {
        w.node_mut::<igmp::HostNode>(host_a).leave(group);
    });
    println!();
    println!("t=700   hostA leaves (IGMPv1: silently). r_a's membership timer will lapse,");
    println!("        r_a will prune (*,G) onto the LAN — and r_b must override the prune.");

    world.run_until(SimTime(2100));
    let hb = world.node::<igmp::HostNode>(host_b);
    let seqs = hb.seqs_from(h_src, group);
    println!();
    println!(
        "t=2100  hostB received {}/80 packets — no gap despite r_a's prune:",
        seqs.len()
    );
    let contiguous = seqs.windows(2).all(|w| w[1] == w[0] + 1);
    println!("        contiguous: {contiguous} (the §3.7 join-override protected the flow).");
    assert!(
        seqs.len() >= 79,
        "hostB must not lose packets to r_a's prune"
    );
    let ha = world.node::<igmp::HostNode>(host_a);
    let a_count = ha.seqs_from(h_src, group).len();
    println!("        hostA stopped receiving after its leave (got {a_count}/80).");
    assert!(a_count < 80, "hostA left mid-stream");
}
