//! The pruned, tree-free optimal-core search must be *exactly* the
//! exhaustive search: same winning core, same max pair delay, on any
//! graph — the prunes are lower-bound sound and the tie-break (smallest
//! node id among minimal cores) is preserved. This is the contract the
//! Figure-2(a) bench relies on after switching its hot loop from
//! `optimal_center_tree_exhaustive` to `optimal_center_delay`.

use graph::algo::AllPairs;
use graph::gen::{random_connected, RandomGraphParams};
use graph::NodeId;
use mctree::{center_tree, optimal_center_delay, optimal_center_tree_exhaustive, GroupSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pruned == exhaustive on random connected graphs across the degree
    /// range of the Figure-2 sweep.
    #[test]
    fn pruned_search_matches_exhaustive(
        seed in 0u64..100_000,
        nodes in 6usize..=30,
        degree in 3u32..=6,
        members in 2usize..=10,
    ) {
        let members = members.min(nodes);
        let degree = (degree as f64).min((nodes - 1) as f64);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_connected(
            &RandomGraphParams {
                nodes,
                avg_degree: degree,
                delay_range: (1, 10),
            },
            &mut rng,
        );
        let ap = AllPairs::new(&g);
        let spec = GroupSpec::random(nodes, members, members, &mut rng);

        let (ref_tree, ref_delay) = optimal_center_tree_exhaustive(&g, &ap, &spec.members);
        let (core, delay) = optimal_center_delay(&g, &ap, &spec.members);
        prop_assert_eq!(delay, ref_delay, "pruned delay diverged");
        prop_assert_eq!(core, ref_tree.core, "pruned winner diverged");
        // And the tree the public API materializes for that winner scores
        // what the search claimed.
        let tree = center_tree(&g, &ap, core, &spec.members);
        prop_assert_eq!(tree.max_pair_delay(), delay);
    }
}

/// The documented counterexample to the unsound `max_i d(core, mᵢ)`
/// "lower bound": on a line with both members at the far end, the pair
/// delay through the tree is far below the core's eccentricity — only
/// the spread `max_i − min_i` is a sound per-core bound.
#[test]
fn max_dist_is_not_a_lower_bound_on_tree_delay() {
    let mut g = graph::Graph::with_nodes(7);
    for i in 0..6u32 {
        g.add_edge(NodeId(i), NodeId(i + 1), 1);
    }
    let ap = AllPairs::new(&g);
    let members = [NodeId(5), NodeId(6)];
    let tree = center_tree(&g, &ap, NodeId(0), &members);
    let delay = tree.max_pair_delay();
    assert_eq!(delay, 1, "members meet at their own LCA, not the core");
    let dmax = members
        .iter()
        .map(|&m| ap.dist(NodeId(0), m).unwrap())
        .max()
        .unwrap();
    assert_eq!(dmax, 6);
    assert!(
        delay < dmax,
        "eccentricity must not be used to prune: it exceeds the true score"
    );
    // The pruned search still gets the right answer on this topology.
    let (_, best) = optimal_center_delay(&g, &ap, &members);
    let (_, best_ref) = optimal_center_tree_exhaustive(&g, &ap, &members);
    assert_eq!(best, best_ref);
}
