//! **RP failover** (§3.9) + unicast adaptation (§3.8): multiple
//! rendezvous points, one is partitioned away; the live distance-vector
//! unicast routing reconverges, receivers notice the lapsed
//! RP-reachability timer and re-join toward the alternate RP — while
//! senders "do not need to take special action" because they register to
//! *all* RPs.
//!
//! Run: `cargo run -p examples --example rp_failover`

use graph::{Graph, NodeId};
use netsim::{router_addr, NodeIdx, SimTime};
use pim::PimRouter;
use scenario::{NetSpec, Substrate};
use wire::Group;

fn main() {
    // r0(receiver) - r1 - r2(RP#1)
    //                 \-- r3(RP#2)
    //                      \- r4(sender)
    let mut g = Graph::with_nodes(5);
    g.add_edge(NodeId(0), NodeId(1), 1);
    g.add_edge(NodeId(1), NodeId(2), 1);
    g.add_edge(NodeId(1), NodeId(3), 1);
    g.add_edge(NodeId(3), NodeId(4), 1);
    g.add_edge(NodeId(2), NodeId(4), 1);

    let group = Group::test(1);
    // Live distance-vector routing, so the network adapts to link
    // failures (unicast reconvergence drives PIM's §3.8 repair).
    let mut net = NetSpec {
        substrate: Substrate::DistanceVector,
        groups: &[(group, vec![NodeId(2), NodeId(3)])], // two RPs, preference order
        host_routers: &[NodeId(0), NodeId(4)],          // receiver, sender
        seed: 3,
        ..NetSpec::default()
    }
    .build(&g);
    let (_, sender_addr) = net.hosts[1];

    println!("== RP failover (paper §3.9) over live distance-vector unicast routing ==");
    println!("Two RPs advertised for {group}: r2 (primary) and r3 (alternate).");
    println!();

    // Let the routing protocol converge, then join and start a steady
    // stream: 70 packets, one every 40 ticks, from t=500 to t=3260.
    net.join_at(0, 400);
    net.send_at(1, 500, 70, 40);
    net.world.run_until(SimTime(650));

    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let gs = r0.engine().group_state(group).expect("state at DR");
    println!(
        "t=650   receiver's DR joined RP#1: (*,G) key={} (r2), RP-timer armed.",
        gs.star.as_ref().expect("star").key
    );
    assert_eq!(gs.star.as_ref().expect("star").key, router_addr(NodeId(2)));

    // Partition RP#1 at t=700: both its links go down.
    net.world.at(SimTime(700), |w| {
        w.set_link_up(netsim::LinkId(1), false); // r1-r2
        w.set_link_up(netsim::LinkId(4), false); // r2-r4
    });
    println!("t=700   RP#1 (r2) partitioned — both its links cut. DV routes to r2 will");
    println!("        time out; PIM's RP-timer will lapse; §3.8 + §3.9 take over.");

    net.world.run_until(SimTime(3600));
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let gs = r0.engine().group_state(group).expect("state at DR");
    let new_rp = gs.star.as_ref().expect("star").key;
    println!("t=3600  the DR re-joined toward the alternate: (*,G) key={new_rp} (r3).");
    assert_eq!(new_rp, router_addr(NodeId(3)), "must fail over to RP#2");

    // Delivery resumed without sender intervention.
    let late: Vec<u64> = net
        .host(0)
        .received
        .iter()
        .filter(|r| r.source == sender_addr && r.at > SimTime(2500))
        .map(|r| r.seq)
        .collect();
    println!();
    println!(
        "        packets received after t=2500 (post-failover): {} (e.g. seqs {:?})",
        late.len(),
        &late[..late.len().min(5)]
    );
    assert!(
        late.len() >= 10,
        "delivery must resume through the alternate RP: {late:?}"
    );
    let all = net.seqs(0, sender_addr);
    println!(
        "        total received {}/70 — the outage spans detection (DV timeout + RP-timer)",
        all.len()
    );
    println!("        and re-join only; no sender action was needed (§3.9).");
}
