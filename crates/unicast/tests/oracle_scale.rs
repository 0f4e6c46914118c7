//! The oracle RIB at the scale that matters: `hier_ctrl`'s 2 000-router
//! shape (a 200-router Waxman backbone, 200 stub domains of 9), two
//! seeds, every table against the streamed build it replaced — one
//! `SpKernel::run` per router, its settle order folded into that
//! router's slots — kept here verbatim as the reference.
//!
//! Slow in the debug profile; `scripts/check.sh` also runs it in release.

use graph::algo::SpKernel;
use graph::gen::{hierarchical, HierParams, WaxmanParams};
use graph::{Graph, NodeId};
use netsim::{host_addr, router_addr, IfaceId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use unicast::{Engine, OracleRib, Rib, RouteEntry};

type Slot = (u32, u32);

const NO_IFACE: u32 = u32::MAX;

/// The streamed build's loop, verbatim: one kernel run per router in node
/// order, one pass over its settle order.
fn reference_slots(g: &Graph, topo: &Topology) -> Vec<Vec<Slot>> {
    let mut kernel = SpKernel::new(g);
    // Edge → this router's interface on it. Only this router's own
    // edges are read, and its plan has just rewritten exactly those.
    let mut iface_on = vec![NO_IFACE; g.edge_count()];
    topo.plans()
        .iter()
        .map(|plan| {
            for p in &plan.ifaces {
                iface_on[p.edge.index()] = p.iface.0;
            }
            kernel.run(plan.node);
            let mut slots: Vec<Slot> = vec![(NO_IFACE, 0); g.node_count()];
            // A node leaves by its parent's interface, or by the
            // parent edge itself right below the root; parents settle
            // first, so one pass in settle order fills every slot.
            for s in kernel.settled() {
                let iface = if s.parent == plan.node {
                    iface_on[s.edge.index()]
                } else {
                    slots[s.parent.index()].0
                };
                slots[s.node.index()] = (iface, s.dist);
            }
            slots
        })
        .collect()
}

/// `hier_ctrl`'s internet shape at `seed`.
fn internet(seed: u64) -> (Graph, Vec<NodeId>) {
    let params = HierParams {
        backbone: WaxmanParams {
            nodes: 200,
            ..WaxmanParams::default()
        },
        domains: 200,
        domain_size: 9,
        ..HierParams::default()
    };
    let h = hierarchical(&params, &mut StdRng::seed_from_u64(seed));
    let leaves = (0..h.domains).map(|d| h.leaf(d)).collect();
    (h.graph, leaves)
}

#[test]
fn every_table_of_a_2000_router_internet_equals_the_streamed_build() {
    for seed in [1994, 4242] {
        let (g, leaves) = internet(seed);
        assert_eq!(g.node_count(), 2000);
        let topo = Topology::from_graph(&g);
        let want = reference_slots(&g, &topo);
        let ribs = OracleRib::for_all_with_hosts(&g, &topo, &leaves);
        assert_eq!(ribs.len(), want.len());
        for (v, (rib, slots)) in ribs.iter().zip(&want).enumerate() {
            let plan = topo.plan(NodeId(v as u32));
            let entry = |&(iface, metric): &Slot| {
                (iface != NO_IFACE).then(|| RouteEntry {
                    iface: IfaceId(iface),
                    next_hop: plan.ifaces[iface as usize].neighbor_addr,
                    metric,
                })
            };
            for (d, slot) in slots.iter().enumerate() {
                let dst = router_addr(NodeId(d as u32));
                assert_eq!(rib.route(dst), entry(slot), "seed {seed}: n{v} → n{d}");
            }
            for &leaf in &leaves {
                let want = entry(&slots[leaf.index()]);
                assert_eq!(
                    rib.route(host_addr(leaf, 0)),
                    want,
                    "seed {seed}: n{v} → host of {leaf}"
                );
            }
            let routes = slots.iter().filter(|s| s.0 != NO_IFACE).count();
            let hosts = leaves
                .iter()
                .filter(|l| slots[l.index()].0 != NO_IFACE)
                .count();
            assert_eq!(rib.table_size(), routes + hosts, "seed {seed}: n{v}");
        }
    }
}
