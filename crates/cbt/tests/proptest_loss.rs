//! CBT's reliability story, property-tested: joins are hop-by-hop
//! Join-Request / Join-Ack exchanges with explicit retransmission, so
//! tree construction must converge under arbitrary per-link loss up to
//! 50% — once the loss clears, every router on the path is on-tree with
//! the correct parent and no join left pending.
//!
//! (This is the ack-based half of the paper's §3.4 footnote-4 contrast:
//! PIM recovers loss by periodic refresh, CBT by explicit ack + retry.
//! Both must survive a lossy control plane; `tests/robustness.rs` covers
//! the PIM half.)

use cbt::{CbtConfig, CbtEngine, CbtRouter};
use graph::{Graph, NodeId};
use igmp::HostNode;
use netsim::{host_addr, router_addr, Duration, LinkId, Node, NodeIdx, SimTime, Topology, World};
use proptest::prelude::*;
use unicast::OracleRib;
use wire::Group;

/// Routers in the line; the core sits at node 0, the member host behind
/// the far end. Every join must cross every lossy link.
const ROUTERS: usize = 4;

/// Build a line of CBT routers over oracle unicast, with a member host
/// behind the last router.
fn build_line(seed: u64) -> (World, NodeIdx) {
    let group = Group::test(1);
    let mut g = Graph::with_nodes(ROUTERS);
    for k in 0..ROUTERS - 1 {
        g.add_edge(NodeId(k as u32), NodeId(k as u32 + 1), 1);
    }
    let topo = Topology::from_graph(&g);
    let core = router_addr(NodeId(0));

    let member_router = NodeId(ROUTERS as u32 - 1);
    let ha = host_addr(member_router, 0);
    let oracle = OracleRib::for_all_with_hosts(&g, &topo, &[member_router]);
    let routers = topo.plans().iter().zip(oracle).map(|(plan, rib)| {
        let mut e = CbtEngine::new(plan.addr, CbtConfig::default());
        e.set_core(group, core);
        Box::new(CbtRouter::new(e, Box::new(rib))) as Box<dyn Node>
    });
    let (mut world, _links) = topo.build_world_from(&g, seed, routers);

    let host = world.add_node(Box::new(HostNode::new(ha)));
    let r_last = NodeIdx(member_router.index());
    let (_l, ifs) = world.add_lan(&[r_last, host], Duration(1));
    world
        .node_mut::<CbtRouter>(r_last)
        .attach_host_lan(ifs[0], &[ha]);
    (world, host)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_converges_under_per_link_loss(
        // Independent loss per backbone link, up to 50% (per-mille).
        loss_pm in prop::collection::vec(0u32..=500, ROUTERS - 1),
        seed in 0u64..10_000,
    ) {
        let group = Group::test(1);
        let (mut world, host) = build_line(seed);
        for (k, &pm) in loss_pm.iter().enumerate() {
            world.set_link_loss(LinkId(k), f64::from(pm) / 1000.0);
        }
        world.at(SimTime(10), move |w| {
            igmp::with_host(w, host, |h, ctx| h.join(ctx, group));
        });
        // Loss persists through the whole join phase — every hop-by-hop
        // Join-Request/Join-Ack exchange must win by retransmission. Then
        // the links heal and the tree must settle.
        world.at(SimTime(800), move |w| {
            for k in 0..ROUTERS - 1 {
                w.set_link_loss(LinkId(k), 0.0);
            }
        });
        world.run_until(SimTime(1500));

        for k in 0..ROUTERS {
            let r: &CbtRouter = world.node(NodeIdx(k));
            let tree = r
                .engine()
                .tree(group)
                .unwrap_or_else(|| panic!("r{k} must hold tree state"));
            prop_assert!(tree.on_tree(), "r{k} must be on the tree");
            prop_assert!(
                !r.engine().join_pending(group),
                "r{k} must have no join outstanding after convergence"
            );
            if k == 0 {
                prop_assert!(tree.parent().is_none(), "the core has no parent");
            } else {
                let want = router_addr(NodeId(k as u32 - 1));
                prop_assert_eq!(
                    tree.parent().map(|(_, a)| a),
                    Some(want),
                    "r{}'s parent must be the next hop toward the core",
                    k
                );
            }
            if k < ROUTERS - 1 {
                let child = router_addr(NodeId(k as u32 + 1));
                prop_assert!(
                    tree.children().keys().any(|&(_, a)| a == child),
                    "r{}'s ack ledger must carry its downstream child",
                    k
                );
            } else {
                prop_assert!(
                    !tree.member_ifaces.is_empty(),
                    "the member's router must track the host interface"
                );
            }
        }
    }
}
