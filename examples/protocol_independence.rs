//! **Protocol independence** (§2): the same PIM scenario over three
//! different unicast routing substrates — distance-vector, link-state,
//! and the precomputed oracle — producing the same distribution tree.
//!
//! "The protocol should rely on existing unicast routing functionality
//! ... but at the same time be independent of the particular protocol
//! employed."
//!
//! Run: `cargo run -p examples --example protocol_independence`

use graph::NodeId;
use netsim::{host_addr, IfaceId, NodeIdx, SimTime};
use pim::PimRouter;
use scenario::{topology, NetSpec, Substrate};
use wire::Group;

/// Run the quickstart diamond over the given unicast substrate; return
/// (packets delivered, (*,G) iif at the receiver DR, (S,G) iif at the
/// receiver DR).
fn run(sub: Substrate) -> (usize, Option<IfaceId>, Option<IfaceId>) {
    // 0 -1- 1 -1- 2(RP) -1- 3 plus a 0 -2- 3 shortcut.
    let g = topology("diamond").expect("diamond").graph;
    let group = Group::test(1);
    let s_addr = host_addr(NodeId(3), 0);
    let mut net = NetSpec {
        substrate: sub,
        groups: &[(group, vec![NodeId(2)])],
        host_routers: &[NodeId(0), NodeId(3)], // receiver, sender
        seed: 5,
        ..NetSpec::default()
    }
    .build(&g);
    // Real routing protocols need convergence time before the join.
    net.join_at(0, 400);
    net.send_at(1, 800, 20, 25);
    net.world.run_until(SimTime(2200));

    let got = net.seqs(0, s_addr).len();
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let gs = r0.engine().group_state(group).expect("state at DR");
    (
        got,
        gs.star.as_ref().and_then(|s| s.iif),
        gs.sources.get(&s_addr).and_then(|e| e.iif),
    )
}

fn main() {
    println!("== Protocol independence (paper §2) ==");
    println!("The identical PIM scenario over three unicast routing substrates:");
    println!();
    let mut results = Vec::new();
    for sub in [
        Substrate::Oracle,
        Substrate::DistanceVector,
        Substrate::LinkState,
    ] {
        let (got, star_iif, spt_iif) = run(sub);
        println!(
            "  {:<16} delivered {:>2}/20   (*,G) iif = {:?}   (S,G) iif = {:?}",
            format!("{sub:?}:"),
            got,
            star_iif,
            spt_iif
        );
        results.push((got, star_iif, spt_iif));
    }
    println!();
    assert!(
        results.iter().all(|&(got, _, _)| got == 20),
        "all substrates must deliver all packets"
    );
    assert!(
        results
            .windows(2)
            .all(|w| w[0].1 == w[1].1 && w[0].2 == w[1].2),
        "identical trees regardless of unicast protocol"
    );
    println!("Identical trees, identical delivery. PIM consumed the routing table through");
    println!("the Rib trait alone — \"independent of how those tables are computed\" (§2).");
}
