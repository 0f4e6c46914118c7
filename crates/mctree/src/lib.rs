//! Multicast tree construction algorithms and quality metrics — the
//! machinery behind the paper's Figure 2 study.
//!
//! The paper compares the two tree types PIM can build:
//!
//! * **shortest-path trees (SPTs)** — one tree per source, delivering along
//!   unicast-shortest paths (what PIM builds after the §3.3 switchover);
//! * **center-based (core-based) trees** — one shared tree per group,
//!   rooted at a core, as in CBT and in PIM's shared-tree-only mode.
//!
//! Two experiments quantify the trade-off:
//!
//! * **Figure 2(a)** — "we simulated an optimal core-based tree algorithm
//!   over large number of different random graphs. We measured the maximum
//!   delay within each group ... the maximum delays of core-based trees
//!   with optimal core placement are up to 1.4 times of the shortest-path
//!   trees". Here: [`optimal_center_tree`] (exhaustive core search,
//!   maximum member-pair delay *through the tree*) vs [`spt_max_delay`].
//!   David Wall proved the optimal center tree is within 2× of
//!   shortest-path delay; the property tests pin that bound.
//! * **Figure 2(b)** — traffic concentration: "we measured the number of
//!   traffic flows on each link of the network, then recorded the maximum
//!   number within the network" for 300 × 40-member groups with 32 senders
//!   each. Here: [`flows::spt_link_flows`] vs [`flows::cbt_link_flows`].

#![warn(missing_docs)]

pub mod center;
pub mod flows;
pub mod spt;
mod walk;

pub use center::{
    center_tree, optimal_center_delay, optimal_center_tree, optimal_center_tree_exhaustive,
    CenterTree,
};
pub use flows::{cbt_link_flows, spt_link_flows};
pub use spt::{spt_max_delay, spt_tree_edges};

use graph::NodeId;

/// A multicast group for the Monte-Carlo experiments: the member set and
/// the subset of members that transmit.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    /// Receivers (in the Figure 2 experiments, senders are members too).
    pub members: Vec<NodeId>,
    /// Transmitting members.
    pub senders: Vec<NodeId>,
}

impl GroupSpec {
    /// A group in which every member also sends (Figure 2(a)'s setup).
    pub fn all_send(members: Vec<NodeId>) -> GroupSpec {
        GroupSpec {
            senders: members.clone(),
            members,
        }
    }

    /// Choose a random group: `members` distinct random nodes, of which
    /// the first `senders` also send (Figure 2(b): 40 members, 32
    /// senders).
    pub fn random(
        node_count: usize,
        members: usize,
        senders: usize,
        rng: &mut impl rand::Rng,
    ) -> GroupSpec {
        assert!(members <= node_count, "more members than nodes");
        assert!(senders <= members, "senders must be members");
        let mut pool: Vec<NodeId> = (0..node_count as u32).map(NodeId).collect();
        // Partial Fisher-Yates: shuffle the first `members` positions.
        for i in 0..members {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let members_vec: Vec<NodeId> = pool[..members].to_vec();
        GroupSpec {
            senders: members_vec[..senders].to_vec(),
            members: members_vec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_group_is_distinct_and_nested() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let gs = GroupSpec::random(50, 40, 32, &mut rng);
            assert_eq!(gs.members.len(), 40);
            assert_eq!(gs.senders.len(), 32);
            let set: std::collections::HashSet<_> = gs.members.iter().collect();
            assert_eq!(set.len(), 40, "members must be distinct");
            assert!(gs.senders.iter().all(|s| set.contains(s)));
        }
    }

    #[test]
    fn all_send_mirrors_members() {
        let gs = GroupSpec::all_send(vec![NodeId(1), NodeId(2)]);
        assert_eq!(gs.members, gs.senders);
    }
}
