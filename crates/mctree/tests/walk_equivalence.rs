//! The Fig. 2 kernel against the code it replaced. `spt_tree_edges`,
//! `center_tree` and the pairwise-LCA delay arithmetic as they were when
//! every member's path was materialized and united through a `BTreeSet`
//! live on here, verbatim, as the references: edge sets, per-edge flow
//! counts, `dist_from_core`, the 1-center and the maximum member-pair
//! delay must be *equal* on the Figure 2 graphs and on the shapes that
//! stress a tree walk — ties everywhere, free edges, repeated members,
//! the root among the members, a two-node graph.

use graph::algo::AllPairs;
use graph::gen::{random_connected, RandomGraphParams};
use graph::{EdgeId, Graph, NodeId, Weight};
use mctree::flows::one_center;
use mctree::{
    cbt_link_flows, center_tree, optimal_center_delay, spt_link_flows, spt_tree_edges, GroupSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// `mctree::spt_tree_edges` before the walk.
fn reference_spt_tree_edges(ap: &AllPairs, source: NodeId, members: &[NodeId]) -> BTreeSet<EdgeId> {
    let sp = ap.from(source);
    let mut edges = BTreeSet::new();
    for &m in members {
        if m == source {
            continue;
        }
        for e in sp.path_edges_to(m).expect("members must be connected") {
            edges.insert(e);
        }
    }
    edges
}

/// `mctree::CenterTree` before the walk.
struct ReferenceCenterTree {
    edges: BTreeSet<EdgeId>,
    member_paths: Vec<Vec<NodeId>>,
    dist_from_core: Vec<Weight>,
}

impl ReferenceCenterTree {
    fn member_pair_delay(&self, i: usize, j: usize) -> Weight {
        let pi = &self.member_paths[i];
        let pj = &self.member_paths[j];
        // Find the last common node of the two core-rooted paths.
        let mut lca = pi[0];
        for (a, b) in pi.iter().zip(pj.iter()) {
            if a == b {
                lca = *a;
            } else {
                break;
            }
        }
        let di = self.dist_from_core[pi.last().expect("nonempty path").index()];
        let dj = self.dist_from_core[pj.last().expect("nonempty path").index()];
        let dl = self.dist_from_core[lca.index()];
        di + dj - 2 * dl
    }

    fn max_pair_delay(&self, members_len: usize) -> Weight {
        let mut max = 0;
        for i in 0..members_len {
            for j in (i + 1)..members_len {
                max = max.max(self.member_pair_delay(i, j));
            }
        }
        max
    }
}

/// `mctree::center_tree` before the walk.
fn reference_center_tree(
    g: &Graph,
    ap: &AllPairs,
    core: NodeId,
    members: &[NodeId],
) -> ReferenceCenterTree {
    let sp = ap.from(core);
    let mut edges = BTreeSet::new();
    let mut dist_from_core = vec![Weight::MAX; g.node_count()];
    dist_from_core[core.index()] = 0;
    let mut member_paths = Vec::with_capacity(members.len());
    for &m in members {
        let path = sp.path_to(m).expect("member must be reachable from core");
        for &n in &path {
            dist_from_core[n.index()] = sp.dist_to(n).expect("node on path");
        }
        for e in sp.path_edges_to(m).expect("member reachable") {
            edges.insert(e);
        }
        member_paths.push(path);
    }
    ReferenceCenterTree {
        edges,
        member_paths,
        dist_from_core,
    }
}

/// `mctree::flows::one_center` before the eccentricity row.
fn reference_one_center(g: &Graph, ap: &AllPairs, members: &[NodeId]) -> NodeId {
    g.nodes()
        .filter_map(|c| {
            let ecc: Option<Weight> = members
                .iter()
                .map(|&m| ap.dist(c, m))
                .try_fold(0, |acc, d| d.map(|d| std::cmp::max(acc, d)));
            ecc.map(|e| (e, c))
        })
        .min_by_key(|&(e, c)| (e, c.0))
        .map(|(_, c)| c)
        .expect("graph must be nonempty and connected")
}

/// The flow loops of `mctree::flows` over the reference trees.
fn reference_flows(g: &Graph, ap: &AllPairs, groups: &[GroupSpec]) -> (Vec<u32>, Vec<u32>) {
    let mut spt = vec![0u32; g.edge_count()];
    let mut cbt = vec![0u32; g.edge_count()];
    for spec in groups {
        for &s in &spec.senders {
            for e in reference_spt_tree_edges(ap, s, &spec.members) {
                spt[e.index()] += 1;
            }
        }
        let core = reference_one_center(g, ap, &spec.members);
        for e in &reference_center_tree(g, ap, core, &spec.members).edges {
            cbt[e.index()] += spec.senders.len() as u32;
        }
    }
    (spt, cbt)
}

/// How a generated graph's delays are drawn.
#[derive(Clone, Copy, Debug)]
enum Delays {
    /// 1..=10, the Figure 2 setting.
    Figure2,
    /// All 1: nearly every node has several tight predecessors.
    Unit,
    /// 0..=2: free edges, over which a parent and its child are at the
    /// same distance from the root.
    Free,
}

fn arb_delays() -> impl Strategy<Value = Delays> {
    prop_oneof![
        Just(Delays::Figure2),
        Just(Delays::Unit),
        Just(Delays::Free)
    ]
}

fn graph(nodes: usize, degree: u32, delays: Delays, rng: &mut StdRng) -> Graph {
    let drawn = random_connected(
        &RandomGraphParams {
            nodes,
            avg_degree: f64::from(degree).min(nodes as f64 - 1.0),
            delay_range: match delays {
                Delays::Figure2 => (1, 10),
                Delays::Unit => (1, 1),
                Delays::Free => (1, 3),
            },
        },
        rng,
    );
    let Delays::Free = delays else { return drawn };
    let mut free = Graph::with_nodes(nodes);
    for (_, e) in drawn.edges() {
        free.add_edge(e.a, e.b, e.weight - 1);
    }
    free
}

/// Every tree-shaped answer for one `(root, members)` against its
/// reference: the source tree's edges, the core tree's edges and
/// distances, and the maximum member-pair delay through the core tree.
fn assert_trees_match(g: &Graph, ap: &AllPairs, root: NodeId, members: &[NodeId]) {
    prop_assert_eq!(
        spt_tree_edges(g, ap, root, members),
        reference_spt_tree_edges(ap, root, members),
        "source tree of {:?} over {:?}",
        root,
        members
    );
    let want = reference_center_tree(g, ap, root, members);
    let got = center_tree(g, ap, root, members);
    prop_assert_eq!(got.core, root);
    prop_assert_eq!(&got.edges, &want.edges, "core tree of {:?}", root);
    for v in g.nodes() {
        let d = want.dist_from_core[v.index()];
        prop_assert_eq!(
            got.dist_from_core(v),
            (d != Weight::MAX).then_some(d),
            "dist_from_core({:?}) under core {:?}",
            v,
            root
        );
    }
    prop_assert_eq!(
        got.max_pair_delay(),
        want.max_pair_delay(members.len()),
        "max pair delay through core {:?} over {:?}",
        root,
        members
    );
}

/// The pruned core search against an exhaustive loop over the reference
/// trees (smallest id among the cores achieving the minimum).
fn assert_optimum_matches(g: &Graph, ap: &AllPairs, members: &[NodeId]) {
    let want = g
        .nodes()
        .map(|c| {
            let d = reference_center_tree(g, ap, c, members).max_pair_delay(members.len());
            (d, c)
        })
        .min_by_key(|&(d, c)| (d, c.0))
        .expect("nonempty graph");
    let (core, d) = optimal_center_delay(g, ap, members);
    prop_assert_eq!((d, core), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Figure 2(b)'s own shape — 50 nodes, 40 members, 32 senders,
    /// several groups so that counts accumulate — at every degree of the
    /// sweep and under every delay rule.
    #[test]
    fn flow_counts_equal_the_path_union(
        seed in any::<u64>(),
        degree in 3u32..=8,
        delays in arb_delays(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = graph(50, degree, delays, &mut rng);
        let ap = AllPairs::new(&g);
        let groups: Vec<GroupSpec> = (0..4)
            .map(|_| GroupSpec::random(50, 40, 32, &mut rng))
            .collect();
        let (spt, cbt) = reference_flows(&g, &ap, &groups);
        prop_assert_eq!(spt_link_flows(&g, &ap, &groups), spt);
        prop_assert_eq!(
            cbt_link_flows(&g, &ap, &groups, |spec| one_center(&g, &ap, &spec.members)),
            cbt
        );
        for spec in &groups {
            prop_assert_eq!(
                one_center(&g, &ap, &spec.members),
                reference_one_center(&g, &ap, &spec.members)
            );
        }
        // A source inside the group (as every Figure 2 sender is) and a
        // root outside it.
        let spec = &groups[0];
        assert_trees_match(&g, &ap, spec.senders[0], &spec.members);
        let outsider = g.nodes().find(|v| !spec.members.contains(v)).expect("40 of 50");
        assert_trees_match(&g, &ap, outsider, &spec.members);
    }

    /// Figure 2(a)'s shape, and smaller: members drawn *with* repetition,
    /// so a group may name a node twice, consist of one node only, or
    /// contain the root; every node takes its turn as root.
    #[test]
    fn trees_and_delays_equal_the_pairwise_lca(
        seed in any::<u64>(),
        nodes in 2usize..=24,
        degree in 2u32..=6,
        members in 2usize..=10,
        delays in arb_delays(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = graph(nodes, degree, delays, &mut rng);
        let ap = AllPairs::new(&g);
        let members: Vec<NodeId> = (0..members)
            .map(|_| NodeId(rng.gen_range(0..nodes as u32)))
            .collect();
        for root in g.nodes() {
            assert_trees_match(&g, &ap, root, &members);
        }
        prop_assert_eq!(
            one_center(&g, &ap, &members),
            reference_one_center(&g, &ap, &members)
        );
        assert_optimum_matches(&g, &ap, &members);
    }
}

#[test]
fn a_two_node_graph_has_one_tree() {
    let mut g = Graph::with_nodes(2);
    let e = g.add_edge(NodeId(0), NodeId(1), 7);
    let ap = AllPairs::new(&g);
    let both = [NodeId(0), NodeId(1)];
    for root in both {
        assert_eq!(spt_tree_edges(&g, &ap, root, &both), BTreeSet::from([e]));
        let tree = center_tree(&g, &ap, root, &both);
        assert_eq!(tree.edges, BTreeSet::from([e]));
        assert_eq!(tree.max_pair_delay(), 7);
        // The root alone, once or twice over, needs no link at all.
        assert!(spt_tree_edges(&g, &ap, root, &[root, root]).is_empty());
        assert_eq!(
            center_tree(&g, &ap, root, &[root, root]).max_pair_delay(),
            0
        );
    }
    let group = [GroupSpec::all_send(both.to_vec())];
    assert_eq!(spt_link_flows(&g, &ap, &group), [2]);
    assert_eq!(cbt_link_flows(&g, &ap, &group, |_| NodeId(1)), [2]);
    assert_eq!(one_center(&g, &ap, &both), NodeId(0));
    assert_eq!(optimal_center_delay(&g, &ap, &both), (NodeId(0), 7));
}

/// Nodes 0-1 joined, node 2 on its own, and a group that spans both.
fn split_group() -> (Graph, GroupSpec) {
    let mut g = Graph::with_nodes(3);
    g.add_edge(NodeId(0), NodeId(1), 1);
    let spec = GroupSpec {
        members: vec![NodeId(1), NodeId(0), NodeId(2)],
        senders: vec![NodeId(0)],
    };
    (g, spec)
}

#[test]
#[should_panic(expected = "members must be connected")]
fn a_member_in_another_component_is_refused_by_the_source_trees() {
    let (g, spec) = split_group();
    spt_link_flows(&g, &AllPairs::new(&g), &[spec]);
}

/// A fixed core, so that it is the core tree that refuses and not
/// `one_center` finding no candidate.
#[test]
#[should_panic(expected = "member must be reachable from core")]
fn a_member_in_another_component_is_refused_by_the_core_tree() {
    let (g, spec) = split_group();
    cbt_link_flows(&g, &AllPairs::new(&g), &[spec], |_| NodeId(0));
}
