//! Center-based (core-based) shared trees, with exhaustive optimal-core
//! search — the "optimal core-based tree algorithm" the paper simulated
//! for Figure 2(a).

use crate::walk::{Walk, NOT_REACHED_FROM_CORE};
use graph::algo::AllPairs;
use graph::{EdgeId, Graph, NodeId, Weight};
use std::collections::BTreeSet;

/// A core-rooted shared tree: the union of shortest paths from the core to
/// every member (which is how CBT joins, traveling hop-by-hop along
/// unicast-shortest routes, materialize).
#[derive(Clone, Debug)]
pub struct CenterTree {
    /// The core (center) node.
    pub core: NodeId,
    /// The tree's links.
    pub edges: BTreeSet<EdgeId>,
    /// Distance from the core to each node on some member path (indexed by
    /// node id; `u64::MAX` for off-tree nodes).
    dist_from_core: Vec<Weight>,
    max_pair_delay: Weight,
}

impl CenterTree {
    /// Delay from the core to `n` along the tree (`None` if off-tree).
    pub fn dist_from_core(&self, n: NodeId) -> Option<Weight> {
        let d = self.dist_from_core[n.index()];
        (d != Weight::MAX).then_some(d)
    }

    /// The maximum delay between any two members through the tree — the
    /// quantity Figure 2(a) reports for core-based trees.
    pub fn max_pair_delay(&self) -> Weight {
        self.max_pair_delay
    }
}

/// Build the shared tree for `members` rooted at `core`.
///
/// # Panics
/// Panics with `member must be reachable from core` if no path leads
/// from `core` to some member.
pub fn center_tree(g: &Graph, ap: &AllPairs, core: NodeId, members: &[NodeId]) -> CenterTree {
    let row = ap.dist_row(core);
    let mut edges = BTreeSet::new();
    let mut dist_from_core = vec![Weight::MAX; g.node_count()];
    dist_from_core[core.index()] = 0;
    Walk::new(g.node_count()).tree(ap, core, members, NOT_REACHED_FROM_CORE, |v, e| {
        edges.insert(e);
        dist_from_core[v.index()] = row[v.index()];
    });
    CenterTree {
        core,
        edges,
        dist_from_core,
        max_pair_delay: member_diameter(ap, core, members, &mut vec![0; g.node_count()]),
    }
}

/// Optimal-core search: the core minimizing the maximum member-pair
/// delay, with ties broken toward the smaller node id. Returns the tree
/// and its max delay. This is the strongest possible core placement —
/// the paper's point is that *even this* loses to SPTs on delay.
///
/// Equivalent to [`optimal_center_tree_exhaustive`] (the property tests
/// pin the equivalence) but only the *winning* tree is materialized:
/// candidate cores are scored by [`optimal_center_delay`], which works
/// from the all-pairs parent arrays and distance rows alone.
pub fn optimal_center_tree(g: &Graph, ap: &AllPairs, members: &[NodeId]) -> (CenterTree, Weight) {
    let (core, d) = optimal_center_delay(g, ap, members);
    (center_tree(g, ap, core, members), d)
}

/// Reference implementation of the optimal-core search: build the full
/// [`CenterTree`] for every candidate core and keep the best. Kept as
/// the ground truth the `prune_equivalence` property tests hold
/// [`optimal_center_delay`]'s pruned search to.
pub fn optimal_center_tree_exhaustive(
    g: &Graph,
    ap: &AllPairs,
    members: &[NodeId],
) -> (CenterTree, Weight) {
    assert!(members.len() >= 2, "need at least two members");
    let mut best: Option<(CenterTree, Weight)> = None;
    for core in g.nodes() {
        // Skip cores that can't reach everyone (disconnected graphs).
        if members.iter().any(|&m| ap.dist(core, m).is_none()) {
            continue;
        }
        let tree = center_tree(g, ap, core, members);
        let d = tree.max_pair_delay();
        if best.as_ref().is_none_or(|(_, bd)| d < *bd) {
            best = Some((tree, d));
        }
    }
    best.expect("at least one core can reach all members")
}

/// Tree-free optimal-core search: score every candidate core straight
/// from the all-pairs data and return `(core, max_pair_delay)` without
/// materializing any [`CenterTree`]. Exactly matches
/// [`optimal_center_tree_exhaustive`], including tie-breaks (smallest
/// node id among cores achieving the minimum).
///
/// Why this is the hot-path form: the Figure-2(a) study evaluates all 50
/// candidate cores of every one of 3 000 topologies, and the exhaustive
/// search pays for an edge set and a distance array per *candidate* just
/// to read one scalar. Here each candidate is scored by
/// `member_diameter` alone over one reused scratch row, and two sound
/// prunes cut work further:
///
/// * **spread prune** — any member pair's tree delay is at least
///   `|d(core,i) − d(core,j)|` (the LCA is no nearer the core than the
///   closer member), so `max_i d(core,mᵢ) − min_i d(core,mᵢ)` lower-bounds
///   the score and candidates whose spread already exceeds the best are
///   skipped without scoring. (The tempting stronger bound
///   `max_i d(core,mᵢ)` is *not* sound: put two members at the far end
///   of a line and the core at the near end — their pair delay is tiny
///   while `max_i` is the whole line.)
/// * **diameter early-exit** — a tree path can never beat the
///   shortest path, so no core scores below the members' pairwise
///   shortest-path diameter; once a candidate achieves exactly that,
///   later candidates can at best tie and the scan stops.
///
/// # Panics
/// Panics with `need at least two members` for a smaller group, and with
/// `at least one core can reach all members` if no node does.
pub fn optimal_center_delay(g: &Graph, ap: &AllPairs, members: &[NodeId]) -> (NodeId, Weight) {
    assert!(members.len() >= 2, "need at least two members");

    // Members' pairwise shortest-path diameter: the global lower bound.
    let mut diameter = 0;
    for (i, &a) in members.iter().enumerate() {
        let row = ap.dist_row(a);
        for &b in &members[i + 1..] {
            let d = row[b.index()];
            if d != Weight::MAX {
                diameter = diameter.max(d);
            }
        }
    }

    let mut deep = vec![0; g.node_count()];

    let mut best: Option<(Weight, NodeId)> = None;
    for core in g.nodes() {
        let row = ap.dist_row(core);
        let mut dmax = 0;
        let mut dmin = Weight::MAX;
        let mut reachable = true;
        for &m in members {
            let d = row[m.index()];
            if d == Weight::MAX {
                reachable = false;
                break;
            }
            dmax = dmax.max(d);
            dmin = dmin.min(d);
        }
        if !reachable {
            continue;
        }
        if let Some((bd, _)) = best {
            // Sound skip: score(core) >= dmax - dmin, so a spread already
            // at/above the incumbent can never *strictly* beat it (and
            // ties never replace, matching the exhaustive iteration).
            if dmax - dmin >= bd {
                continue;
            }
        }
        let d = member_diameter(ap, core, members, &mut deep);
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, core));
            if d == diameter {
                // No core can score below the member diameter, and later
                // (larger-id) candidates can only tie: the scan is done.
                break;
            }
        }
    }
    let (d, core) = best.expect("at least one core can reach all members");
    (core, d)
}

/// The maximum member-pair delay through `core`'s tree — the tree's
/// member-diameter — in one bottom-up pass: each on-tree node hands its
/// deepest member to its parent, and where two branches (or a branch and
/// a member sitting at the parent itself) meet at `p`, the pair delay is
/// `deep[p] + deep[child] − 2·d(core, p)`. Children must be folded before
/// their parents: the reverse of the kernel's settle order guarantees it,
/// also across zero-weight edges, where distance order would not.
/// `deep` is scratch, one slot per node; every member must be reachable.
fn member_diameter(ap: &AllPairs, core: NodeId, members: &[NodeId], deep: &mut [Weight]) -> Weight {
    /// `deep` of a node with no member at or below it: not on the tree.
    const OFF_TREE: Weight = Weight::MAX;
    let tree = ap.from(core);
    let row = ap.dist_row(core);
    deep.fill(OFF_TREE);
    for &m in members {
        deep[m.index()] = row[m.index()];
    }
    let mut best = 0;
    for child in ap.settled(core).rev() {
        let below = deep[child.index()];
        if below == OFF_TREE {
            continue;
        }
        // Settled first, so folded last: only the core has no parent.
        let Some((p, _)) = tree.parent_of(child) else {
            break;
        };
        let at = &mut deep[p.index()];
        if *at == OFF_TREE {
            *at = below;
        } else {
            best = best.max(*at + below - 2 * row[p.index()]);
            *at = (*at).max(below);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A star: center 0, leaves 1..=4, each edge weight 2.
    fn star() -> Graph {
        let mut g = Graph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(NodeId(0), NodeId(i), 2);
        }
        g
    }

    #[test]
    fn star_center_is_optimal() {
        let g = star();
        let ap = AllPairs::new(&g);
        let members = [NodeId(1), NodeId(2), NodeId(3)];
        let (tree, d) = optimal_center_tree(&g, &ap, &members);
        assert_eq!(tree.core, NodeId(0));
        assert_eq!(d, 4, "leaf→center→leaf");
        assert_eq!(tree.edges.len(), 3);
    }

    #[test]
    fn pair_delay_through_lca() {
        // Path 0-1-2-3; members 0 and 3, core 1.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 3);
        g.add_edge(NodeId(2), NodeId(3), 5);
        let ap = AllPairs::new(&g);
        let tree = center_tree(&g, &ap, NodeId(1), &[NodeId(0), NodeId(3)]);
        assert_eq!(tree.max_pair_delay(), 9, "0→1→2→3");
        assert_eq!(tree.dist_from_core(NodeId(3)), Some(8));
        assert_eq!(tree.dist_from_core(NodeId(0)), Some(1));
    }

    #[test]
    fn shared_segments_not_double_counted() {
        // Y shape: core 0 - 1, then 1 - 2 and 1 - 3. Members 2,3.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 10);
        g.add_edge(NodeId(1), NodeId(2), 1);
        g.add_edge(NodeId(1), NodeId(3), 1);
        let ap = AllPairs::new(&g);
        let tree = center_tree(&g, &ap, NodeId(0), &[NodeId(2), NodeId(3)]);
        // 2 and 3 meet at node 1, not at the core: delay 2, not 22.
        assert_eq!(tree.max_pair_delay(), 2);
        assert_eq!(tree.edges.len(), 3);
    }

    #[test]
    fn member_at_core_has_zero_distance() {
        let g = star();
        let ap = AllPairs::new(&g);
        let tree = center_tree(&g, &ap, NodeId(0), &[NodeId(0), NodeId(1)]);
        assert_eq!(tree.max_pair_delay(), 2);
    }

    #[test]
    fn optimal_beats_or_equals_arbitrary_core() {
        let g = star();
        let ap = AllPairs::new(&g);
        let members = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let (_, opt) = optimal_center_tree(&g, &ap, &members);
        for core in g.nodes() {
            let tree = center_tree(&g, &ap, core, &members);
            assert!(tree.max_pair_delay() >= opt);
        }
    }
}
