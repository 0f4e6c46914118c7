//! Per-link traffic-flow counting — Figure 2(b)'s metric.
//!
//! "In each network, there were 300 active groups all having 40 members,
//! of which 32 members were also senders. We measured the number of
//! traffic flows on each link of the network, then recorded the maximum
//! number within the network."
//!
//! A *flow* is one (group, sender) pair. A link carries the flow if the
//! sender's packets traverse it:
//!
//! * **SPT**: the flow covers the sender's shortest-path tree pruned to
//!   the group's members;
//! * **CBT**: packets propagate over the whole bidirectional shared tree
//!   (every tree leaf is a member by construction, so no branch is
//!   spared) — every link of the group's tree carries every sender's
//!   flow. This is the traffic-concentration effect of Figure 1(c).

use crate::walk::{Walk, NOT_CONNECTED, NOT_REACHED_FROM_CORE};
use crate::GroupSpec;
use graph::algo::AllPairs;
use graph::{Graph, NodeId, Weight};

/// Per-link flow counts when every sender uses its own SPT.
/// `result[e]` = number of (group, sender) flows crossing edge `e`.
///
/// # Panics
/// Panics with `members must be connected` if a group has a sender and a
/// member with no path between them.
pub fn spt_link_flows(g: &Graph, ap: &AllPairs, groups: &[GroupSpec]) -> Vec<u32> {
    let mut flows = vec![0u32; g.edge_count()];
    let mut walk = Walk::new(g.node_count());
    for spec in groups {
        for &s in &spec.senders {
            walk.tree(ap, s, &spec.members, NOT_CONNECTED, |_, e| {
                flows[e.index()] += 1;
            });
        }
    }
    flows
}

/// Per-link flow counts when each group uses one shared core-based tree.
/// `core_of` selects the core for each group (e.g. the optimal placement).
///
/// # Panics
/// Panics with `member must be reachable from core` if no path leads
/// from a group's core to one of its members.
pub fn cbt_link_flows(
    g: &Graph,
    ap: &AllPairs,
    groups: &[GroupSpec],
    mut core_of: impl FnMut(&GroupSpec) -> NodeId,
) -> Vec<u32> {
    let mut flows = vec![0u32; g.edge_count()];
    let mut walk = Walk::new(g.node_count());
    for spec in groups {
        let senders = spec.senders.len() as u32;
        let core = core_of(spec);
        walk.tree(ap, core, &spec.members, NOT_REACHED_FROM_CORE, |_, e| {
            flows[e.index()] += senders;
        });
    }
    flows
}

/// The core placement used for the Figure 2(b) experiment: the member-set
/// 1-center — the node minimizing the maximum shortest-path distance to
/// any member (cheap, and near-optimal for delay; smallest id on a tie).
///
/// # Panics
/// Panics with `graph must be nonempty and connected` if no node reaches
/// every member: on an empty graph, or with members in two components.
pub fn one_center(g: &Graph, ap: &AllPairs, members: &[NodeId]) -> NodeId {
    // Distances are symmetric: a member's row is every candidate's
    // distance to it, and the rows fold into one row of eccentricities.
    let mut ecc: Vec<Weight> = vec![0; g.node_count()];
    for &m in members {
        for (e, &d) in ecc.iter_mut().zip(ap.dist_row(m)) {
            *e = (*e).max(d);
        }
    }
    (0u32..)
        .zip(ecc)
        .filter(|&(_, e)| e != Weight::MAX)
        .min_by_key(|&(c, e)| (e, c))
        .map(|(c, _)| NodeId(c))
        .expect("graph must be nonempty and connected")
}

/// The maximum flow count over all links (the quantity Figure 2(b)
/// plots).
pub fn max_flows(flows: &[u32]) -> u32 {
    flows.iter().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::EdgeId;

    /// 0-1-2 path plus 3 hanging off 1.
    fn tee() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1); // e0
        g.add_edge(NodeId(1), NodeId(2), 1); // e1
        g.add_edge(NodeId(1), NodeId(3), 1); // e2
        g
    }

    #[test]
    fn spt_flows_count_per_sender() {
        let g = tee();
        let ap = AllPairs::new(&g);
        let spec = GroupSpec::all_send(vec![NodeId(0), NodeId(2)]);
        let flows = spt_link_flows(&g, &ap, &[spec]);
        // Sender 0's tree uses e0,e1; sender 2's tree uses e1,e0. Edge e2
        // leads to no member.
        assert_eq!(flows, vec![2, 2, 0]);
    }

    #[test]
    fn cbt_flows_concentrate_on_tree() {
        let g = tee();
        let ap = AllPairs::new(&g);
        let spec = GroupSpec {
            members: vec![NodeId(0), NodeId(2), NodeId(3)],
            senders: vec![NodeId(0), NodeId(2)],
        };
        let flows = cbt_link_flows(&g, &ap, &[spec], |_| NodeId(1));
        // Every tree link carries both senders' flows.
        assert_eq!(flows, vec![2, 2, 2]);
    }

    #[test]
    fn one_center_picks_topological_middle() {
        let g = tee();
        let ap = AllPairs::new(&g);
        assert_eq!(
            one_center(&g, &ap, &[NodeId(0), NodeId(2), NodeId(3)]),
            NodeId(1)
        );
        // Ties break toward the smaller node id.
        assert_eq!(one_center(&g, &ap, &[NodeId(0), NodeId(1)]), NodeId(0));
    }

    #[test]
    fn multiple_groups_accumulate() {
        let g = tee();
        let ap = AllPairs::new(&g);
        let a = GroupSpec::all_send(vec![NodeId(0), NodeId(2)]);
        let b = GroupSpec::all_send(vec![NodeId(0), NodeId(3)]);
        let flows = spt_link_flows(&g, &ap, &[a, b]);
        assert_eq!(flows[EdgeId(0).index()], 4); // both groups cross e0
        assert_eq!(max_flows(&flows), 4);
    }

    #[test]
    fn max_flows_empty() {
        assert_eq!(max_flows(&[]), 0);
    }
}
