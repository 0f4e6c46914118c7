//! Shortest-path-tree construction and metrics.

use crate::walk::{Walk, NOT_CONNECTED};
use graph::algo::AllPairs;
use graph::{EdgeId, Graph, NodeId, Weight};
use std::collections::BTreeSet;

/// The maximum delay within a group when shortest-path trees are used:
/// every sender reaches every receiver along a unicast-shortest path, so
/// the group's worst delay is the largest pairwise shortest-path distance
/// among members.
///
/// # Panics
/// Panics if any member pair is disconnected (the generators guarantee
/// connectivity) or if fewer than two members are given.
pub fn spt_max_delay(ap: &AllPairs, members: &[NodeId]) -> Weight {
    assert!(members.len() >= 2, "need at least two members");
    // Half-triangle over the flat distance rows: one row fetch per
    // source, one array read per pair — this runs inside the Figure-2
    // Monte-Carlo loop, millions of pairs per sweep.
    let mut max = 0;
    for (i, &s) in members.iter().enumerate() {
        let row = ap.dist_row(s);
        for &r in &members[i + 1..] {
            let d = row[r.index()];
            assert!(d != Weight::MAX, "members must be connected");
            max = max.max(d);
        }
    }
    max
}

/// The edges of the shortest-path tree rooted at `source`, pruned to the
/// paths that reach `members` — i.e. the links that carry `source`'s data
/// once PIM's prunes have stabilized (or DVMRP's, post-prune).
///
/// # Panics
/// Panics with `members must be connected` if no path leads from
/// `source` to some member.
pub fn spt_tree_edges(
    g: &Graph,
    ap: &AllPairs,
    source: NodeId,
    members: &[NodeId],
) -> BTreeSet<EdgeId> {
    let mut edges = BTreeSet::new();
    Walk::new(g.node_count()).tree(ap, source, members, NOT_CONNECTED, |_, e| {
        edges.insert(e);
    });
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path graph 0-1-2-3 with unit weights plus a heavy shortcut 0-3.
    fn line_with_shortcut() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        g.add_edge(NodeId(0), NodeId(3), 10);
        g
    }

    #[test]
    fn max_delay_is_largest_pairwise_distance() {
        let g = line_with_shortcut();
        let ap = AllPairs::new(&g);
        assert_eq!(spt_max_delay(&ap, &[NodeId(0), NodeId(3)]), 3);
        assert_eq!(spt_max_delay(&ap, &[NodeId(0), NodeId(1), NodeId(2)]), 2);
    }

    #[test]
    fn tree_edges_follow_shortest_paths_only() {
        let g = line_with_shortcut();
        let ap = AllPairs::new(&g);
        let edges = spt_tree_edges(&g, &ap, NodeId(0), &[NodeId(3)]);
        // Via 0-1-2-3, never the weight-10 shortcut (edge 3).
        assert_eq!(
            edges.iter().copied().collect::<Vec<_>>(),
            vec![EdgeId(0), EdgeId(1), EdgeId(2)]
        );
    }

    #[test]
    fn tree_edges_shared_prefix_counted_once() {
        let g = line_with_shortcut();
        let ap = AllPairs::new(&g);
        let edges = spt_tree_edges(&g, &ap, NodeId(0), &[NodeId(2), NodeId(3)]);
        assert_eq!(edges.len(), 3, "paths to 2 and 3 share edges 0,1");
    }

    #[test]
    fn source_in_members_is_skipped() {
        let g = line_with_shortcut();
        let ap = AllPairs::new(&g);
        let edges = spt_tree_edges(&g, &ap, NodeId(0), &[NodeId(0), NodeId(1)]);
        assert_eq!(edges.len(), 1);
    }
}
