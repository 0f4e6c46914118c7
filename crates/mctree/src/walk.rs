//! The one tree walk: "the tree a root's shortest paths induce on a
//! member set", visited node by node with nothing built along the way.

use graph::algo::AllPairs;
use graph::{EdgeId, NodeId};

/// What the source trees say of a member no path reaches.
pub(crate) const NOT_CONNECTED: &str = "members must be connected";
/// What the core trees say of one.
pub(crate) const NOT_REACHED_FROM_CORE: &str = "member must be reachable from core";

/// Scratch for [`Walk::tree`]: a node is on the current tree iff its
/// stamp is the current epoch (a `u64`: it outlives any number of trees).
pub(crate) struct Walk {
    stamp: Vec<u64>,
    epoch: u64,
}

impl Walk {
    /// Scratch for graphs of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Walk {
        let stamp = vec![0; nodes];
        Walk { stamp, epoch: 0 }
    }

    /// Visit, as `(node, edge to its parent)`, every node but `root`
    /// of the tree that `root`'s parent pointers induce on `members` —
    /// each exactly once, whatever the members share: every member is
    /// walked up only as far as the first node some earlier walk stamped.
    /// Panics with `unreached` when a member cannot be reached from
    /// `root`, as that member's walk starts.
    pub(crate) fn tree(
        &mut self,
        ap: &AllPairs,
        root: NodeId,
        members: &[NodeId],
        unreached: &str,
        mut visit: impl FnMut(NodeId, EdgeId),
    ) {
        let tree = ap.from(root);
        self.epoch += 1;
        self.stamp[root.index()] = self.epoch;
        for &m in members {
            let mut cur = m;
            while self.stamp[cur.index()] != self.epoch {
                self.stamp[cur.index()] = self.epoch;
                // The root is stamped and a reached node's ancestors are
                // all reached: only `m` itself can be without a parent.
                let (parent, edge) = tree.parent_of(cur).unwrap_or_else(|| panic!("{unreached}"));
                visit(cur, edge);
                cur = parent;
            }
        }
    }
}
