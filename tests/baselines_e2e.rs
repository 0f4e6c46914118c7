//! End-to-end scenarios for the two baseline protocols over the
//! simulator, plus head-to-head behavior contrasts with PIM (the paper's
//! §1 comparisons, as executable assertions).

use cbt::CbtRouter;
use graph::{Graph, NodeId};
use netsim::{LinkId, NodeIdx, SimTime};
use scenario::{build_net, topology, Protocol, ScenarioNet, Substrate};
use wire::Group;

fn group() -> Group {
    Group::test(1)
}

/// The explorer's 6-node line with a stub branch:
/// `0 - 1 - 2 - 3 - 4` and `2 - 5` (5 is a leaf with no members).
fn line_with_stub() -> Graph {
    topology("line-stub").expect("line-stub").graph
}

/// `protocol` routers over `g` with oracle routing, the core (unused by
/// DVMRP) at `core`, and one host behind each of `host_routers`.
fn build(
    protocol: Protocol,
    g: &Graph,
    core: NodeId,
    host_routers: &[NodeId],
    seed: u64,
) -> ScenarioNet {
    build_net(
        g,
        protocol,
        Substrate::Oracle,
        group(),
        core,
        host_routers,
        seed,
    )
}

// ---------------------------------------------------------------------
// DVMRP end-to-end
// ---------------------------------------------------------------------

#[test]
fn dvmrp_floods_prunes_and_grafts() {
    let g = line_with_stub();
    let mut net = build(
        Protocol::Dvmrp,
        &g,
        NodeId(0),
        &[NodeId(0), NodeId(4), NodeId(5)],
        8,
    );
    // Slot 0 (behind node 0) is the member, slot 1 (node 4) the sender,
    // slot 2 (node 5) joins later.
    let (_, s_addr) = net.hosts[1];

    // Member joins; sender streams 50 packets.
    net.join_at(0, 20);
    net.send_at(1, 100, 50, 30);
    // The stub member joins mid-stream: its branch was pruned; the graft
    // must restore delivery without waiting for the prune to time out.
    net.join_at(2, 800);
    net.world.run_until(SimTime(2200));

    assert_eq!(
        net.seqs(0, s_addr),
        (0..50).collect::<Vec<u64>>(),
        "the dense-mode member must receive everything"
    );
    let got5 = net.seqs(2, s_addr);
    assert!(!got5.is_empty(), "the grafted member must receive");
    // Graft latency: the first packet after joining at 800 is seq ~24
    // (sent at 820); allow the graft round-trip.
    let first = got5[0];
    assert!(
        (23..=27).contains(&first),
        "graft must restore delivery promptly, first seq was {first}"
    );
    assert_eq!(
        *got5.last().expect("nonempty"),
        49,
        "delivery continues after the graft"
    );
    // The stub branch carried data only after the graft (plus initial
    // flood + grow-backs): the flood epoch behavior.
    let c = net.world.counters();
    let stub = c.link(LinkId(4)); // edge 2-5
    assert!(stub.data_pkts > 0);
}

#[test]
fn dvmrp_truncated_broadcast_prunes_back() {
    // No members at all: the first packets flood, prunes converge, and
    // data stops flowing network-wide until the prune lifetime lapses.
    let g = line_with_stub();
    let mut net = build(Protocol::Dvmrp, &g, NodeId(0), &[NodeId(4)], 9);
    net.send_at(0, 100, 40, 10);
    // Snapshot after the first flood epoch, then across the prune window
    // and the grow-back.
    net.world.run_until(SimTime(300));
    let mid = net.world.counters().total_data_pkts();
    assert!(mid > 0, "initial truncated broadcast must have flooded");
    net.world.run_until(SimTime(500));
    let late = net.world.counters().total_data_pkts();
    let increment = late - mid;
    // 20 packets are sent in [300,500). Unpruned they would flood every
    // link (5 transits each = 100). Pruning must suppress most of that —
    // but NOT all of it: the prune lifetime (200t) lapses mid-window and
    // the branches "grow back" for one more flood epoch before being
    // pruned again (§1.1: "pruned branches will grow back after a
    // time-out period ... will again be pruned"). This periodic
    // re-broadcast is exactly the overhead the paper criticizes.
    assert!(
        increment < 60,
        "pruning must suppress most flooding (saw {increment} of ~100 unpruned transits)"
    );
    assert!(
        increment > 0,
        "the prune-timeout grow-back must re-flood at least once"
    );
}

// ---------------------------------------------------------------------
// CBT end-to-end
// ---------------------------------------------------------------------

#[test]
fn cbt_bidirectional_tree_delivers_member_to_member() {
    let g = line_with_stub();
    // Core at node 2 (the junction); members behind 0, 4, 5.
    let mut net = build(
        Protocol::Cbt,
        &g,
        NodeId(2),
        &[NodeId(0), NodeId(4), NodeId(5)],
        4,
    );
    for slot in 0..3 {
        net.join_at(slot, 20 + slot as u64 * 5);
    }
    // Member behind node 4 sends: the packet travels UP toward the core
    // and down every other branch (bidirectional forwarding, no RP
    // detour for on-tree senders).
    let (_, s_addr) = net.hosts[1];
    net.send_at(1, 200, 30, 25);
    net.world.run_until(SimTime(1600));
    for i in [0, 2] {
        assert_eq!(
            net.seqs(i, s_addr),
            (0..30).collect::<Vec<u64>>(),
            "member {i} must receive the full stream"
        );
    }
}

#[test]
fn cbt_off_tree_sender_encapsulates_via_core() {
    let g = line_with_stub();
    let mut net = build(Protocol::Cbt, &g, NodeId(2), &[NodeId(0), NodeId(4)], 4);
    let (_, s_addr) = net.hosts[1];
    // Only node 0's host joins; node 4's host is a non-member sender.
    net.join_at(0, 20);
    net.send_at(1, 200, 20, 25);
    net.world.run_until(SimTime(1200));
    assert_eq!(
        net.seqs(0, s_addr),
        (0..20).collect::<Vec<u64>>(),
        "non-member sender's packets must arrive via core encapsulation"
    );
}

#[test]
fn cbt_subtree_recovers_after_parent_failure() {
    // 0 - 1 - 2(core), backup 0 - 3 - 2. Member behind 0; kill link 0-1.
    let mut g = Graph::with_nodes(4);
    g.add_edge(NodeId(0), NodeId(1), 1); // e0 primary
    g.add_edge(NodeId(1), NodeId(2), 1); // e1
    g.add_edge(NodeId(0), NodeId(3), 2); // e2 backup
    g.add_edge(NodeId(3), NodeId(2), 2); // e3
    let mut net = build(Protocol::Cbt, &g, NodeId(2), &[NodeId(0), NodeId(2)], 6);
    let (_, s_addr) = net.hosts[1];
    net.join_at(0, 20);
    net.send_at(1, 100, 60, 30);
    net.world
        .at(SimTime(600), |w| w.set_link_up(LinkId(0), false));
    net.world.run_until(SimTime(3000));
    let got = net.seqs(0, s_addr);
    // Note: with the static oracle rib, CBT's rejoin keeps using the dead
    // next hop until the echo timeout fires; the oracle still routes via
    // the dead link, so recovery requires the join retransmission to pick
    // the (unchanged) route... this test pins the *detection* behavior:
    // echo timeout tears the tree down and the child retries joins.
    // Delivery through the backup path requires adaptive unicast routing,
    // which the oracle cannot provide — so we only assert pre-failure
    // delivery and teardown here.
    let early: Vec<u64> = got.iter().copied().filter(|&s| s < 15).collect();
    assert_eq!(early, (0..15).collect::<Vec<u64>>(), "pre-failure stream");
    let r0: &CbtRouter = net.world.node(NodeIdx(0));
    let on_tree = r0.engine().tree(group()).is_some_and(|t| t.on_tree());
    assert!(
        !on_tree,
        "after losing its parent, the child must have detected the failure"
    );
}
