//! **Quickstart**: the paper's Figure 3 sequence on a five-router
//! internet — receiver joins via IGMP, the shared tree grows to the RP,
//! a sender registers, and data flows; then the receiver's DR switches to
//! the shortest-path tree and latency drops.
//!
//! Run: `cargo run -p examples --example quickstart`

use examples::describe_reception;
use graph::{Graph, NodeId};
use netsim::{NodeIdx, SimTime};
use pim::PimRouter;
use scenario::NetSpec;
use wire::Group;

fn main() {
    // Topology: receiver -- r0 --1-- r1 --1-- r2(RP) --1-- r3 -- sender,
    // with a direct r0--r4--r3 shortcut (total delay 2 < 3 via the RP).
    let mut g = Graph::with_nodes(5);
    g.add_edge(NodeId(0), NodeId(1), 1);
    g.add_edge(NodeId(1), NodeId(2), 1);
    g.add_edge(NodeId(2), NodeId(3), 1);
    g.add_edge(NodeId(0), NodeId(4), 1);
    g.add_edge(NodeId(4), NodeId(3), 1);

    let group = Group::test(1);
    let mut net = NetSpec {
        groups: &[(group, vec![NodeId(2)])],
        host_routers: &[NodeId(0), NodeId(3)], // receiver, sender
        seed: 7,
        ..NetSpec::default()
    }
    .build(&g);
    let (_, sender_addr) = net.hosts[1];

    println!("== PIM quickstart: the paper's Figure 3 sequence ==");
    println!("Topology: receiver-[r0]-[r1]-[r2=RP]-[r3]-sender, shortcut r0-r4-r3.");
    println!();

    // 1. The receiver joins; IGMP tells its DR; the DR joins toward the RP.
    net.world.enable_capture(400);
    net.join_at(0, 10);
    net.world.run_until(SimTime(100));
    println!("packet capture of the join sequence (tcpdump-style):");
    for (at, line) in net
        .world
        .captured()
        .iter()
        .map(|r| (r.at, r.summary()))
        .filter(|(_, s)| s.contains("Report") || s.contains("Join/Prune"))
        .take(5)
    {
        println!("  {:<5} {}", at.to_string(), line);
    }
    println!();
    {
        let r0: &PimRouter = net.world.node(NodeIdx(0));
        let star = r0
            .engine()
            .group_state(group)
            .and_then(|gs| gs.star.as_ref())
            .expect("the DR must hold (*,G) state");
        println!("t=100  receiver joined {group}. Its DR r0 created the (*,G) entry:");
        println!(
            "       iif={:?} (toward the RP), upstream={:?}, WC+RP bits set.",
            star.iif, star.upstream
        );
        let rp: &PimRouter = net.world.node(NodeIdx(2));
        assert!(rp
            .engine()
            .group_state(group)
            .and_then(|gs| gs.star.as_ref())
            .is_some());
        println!("       The join propagated hop-by-hop: r1 and the RP now hold (*,G) too.");
        println!();
    }

    // 2. The sender transmits 20 packets, 25 ticks apart.
    net.send_at(1, 200, 20, 25);
    net.world.run_until(SimTime(1000));

    // 3. Inspect the outcome.
    println!("t=1000 sender transmitted 20 packets starting at t=200.");
    println!(
        "       receiver got: {}",
        describe_reception(&net, 0, sender_addr)
    );
    let r3: &PimRouter = net.world.node(NodeIdx(3));
    println!(
        "       sender's DR sent {} PIM Register(s) before the RP's (S,G) join arrived,",
        r3.engine().registers_sent
    );
    println!("       then switched to native forwarding.");
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let gs = r0.engine().group_state(group).expect("state");
    let sg = gs
        .sources
        .get(&sender_addr)
        .expect("(S,G) at the receiver DR");
    println!(
        "       receiver's DR switched to the SPT: (S,G) SPT-bit={} via iif={:?} (the r0-r4 shortcut),",
        sg.spt_bit, sg.iif
    );
    println!(
        "       and pruned the source off the shared tree (pruned_from_shared={}).",
        sg.pruned_from_shared
    );

    let received = net.host(0).received();
    let first = received.iter().find(|r| r.seq == 0).expect("seq 0");
    let last = received.iter().find(|r| r.seq == 19).expect("seq 19");
    println!();
    println!(
        "       latency: first packet {}t (via RP tree), last packet {}t (via SPT).",
        first.at.ticks() - 200,
        last.at.ticks() - (200 + 19 * 25),
    );
    println!("Done — §3.1, §3.2, §3 register path, and §3.3 switchover, end to end.");
}
