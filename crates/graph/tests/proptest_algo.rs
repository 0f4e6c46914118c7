//! Property tests for the graph algorithms: Dijkstra is validated against
//! an independent Bellman-Ford implementation, the shortest-path kernel
//! against the heap-of-tuples Dijkstra it replaced (kept here verbatim as
//! the reference: equal distances *and* equal parent edges), and the
//! generators' contracts are pinned.

use graph::algo::{bfs_hops, dijkstra, is_connected, AllPairs, SpKernel, SpTree};
use graph::gen::{
    hierarchical, random_connected, waxman, HierParams, RandomGraphParams, WaxmanParams,
};
use graph::{EdgeId, Graph, NodeId, Weight};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What `dijkstra` returned before the kernel: an `Option` per node.
struct Reference {
    dist: Vec<Option<Weight>>,
    parent: Vec<Option<EdgeId>>,
}

impl Reference {
    fn parent_of(&self, g: &Graph, v: NodeId) -> Option<(NodeId, EdgeId)> {
        let e = self.parent[v.index()]?;
        Some((g.edge(e).other(v), e))
    }

    /// `(nodes, edges)` of the path to `v`, the source first.
    fn path_to(&self, g: &Graph, v: NodeId) -> Option<(Vec<NodeId>, Vec<EdgeId>)> {
        self.dist[v.index()]?;
        let (mut nodes, mut edges) = (vec![v], Vec::new());
        while let Some((p, e)) = self.parent_of(g, *nodes.last().expect("starts at v")) {
            nodes.push(p);
            edges.push(e);
        }
        nodes.reverse();
        edges.reverse();
        Some((nodes, edges))
    }
}

/// One tree through `SpTree`'s whole accessor set against the reference.
fn assert_tree_matches(g: &Graph, tree: SpTree<'_>, src: NodeId, want: &Reference) {
    for v in g.nodes() {
        prop_assert_eq!(tree.dist_to(v), want.dist[v.index()], "{:?}→{:?}", src, v);
        prop_assert_eq!(tree.parent_of(v), want.parent_of(g, v), "{:?}→{:?}", src, v);
        let path = want.path_to(g, v);
        prop_assert_eq!(
            tree.path_to(v),
            path.clone().map(|p| p.0),
            "{:?}→{:?}",
            src,
            v
        );
        prop_assert_eq!(
            tree.path_edges_to(v),
            path.map(|p| p.1),
            "{:?}→{:?}",
            src,
            v
        );
    }
}

/// `graph::algo::dijkstra` as it was before the kernel, verbatim: the
/// reference for the tie-break (smaller parent node id, then smaller edge
/// id) that every fingerprint in the workspace depends on.
fn reference_dijkstra(g: &Graph, source: NodeId) -> Reference {
    let n = g.node_count();
    let mut dist: Vec<Option<Weight>> = vec![None; n];
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    // Heap entries: Reverse((dist, parent_node, edge, node)) so that pops are
    // ordered by distance, then by the deterministic tie-break key.
    let mut heap: BinaryHeap<Reverse<(Weight, u32, u32, NodeId)>> = BinaryHeap::new();
    dist[source.index()] = Some(0);
    heap.push(Reverse((0, u32::MAX, u32::MAX, source)));

    while let Some(Reverse((d, _pn, pe, v))) = heap.pop() {
        match dist[v.index()] {
            Some(best) if d > best => continue, // stale entry
            Some(best)
                if d == best
                // First settlement of v decides the parent; later equal
                // entries are duplicates of the winning tie-break only if the
                // recorded parent matches.
                && parent[v.index()].map(|e| e.0) != (pe != u32::MAX).then_some(pe) =>
            {
                continue;
            }
            _ => {}
        }
        for &eid in g.incident(v) {
            let edge = g.edge(eid);
            let u = edge.other(v);
            let nd = d + edge.weight;
            let better = match dist[u.index()] {
                None => true,
                Some(old) if nd < old => true,
                Some(old) if nd == old => {
                    // Equal-cost tie-break: smaller parent node id, then
                    // smaller edge id.
                    match parent[u.index()] {
                        Some(old_e) => {
                            let old_parent = g.edge(old_e).other(u);
                            (v.0, eid.0) < (old_parent.0, old_e.0)
                        }
                        None => false,
                    }
                }
                _ => false,
            };
            if better {
                dist[u.index()] = Some(nd);
                parent[u.index()] = Some(eid);
                heap.push(Reverse((nd, v.0, eid.0, u)));
            }
        }
    }

    Reference { dist, parent }
}

/// One kernel, reused across every source of `g` (a stale workspace would
/// show as a mismatch on the second source), against the reference and
/// against the public entry points built on it.
fn assert_kernel_matches_reference(g: &Graph) {
    let mut kernel = SpKernel::new(g);
    let ap = AllPairs::new(g);
    for src in g.nodes() {
        let want = reference_dijkstra(g, src);
        kernel.run(src);
        for v in g.nodes() {
            let d = want.dist[v.index()].unwrap_or(Weight::MAX);
            prop_assert_eq!(kernel.dist()[v.index()], d);
            prop_assert_eq!(ap.dist_row(src)[v.index()], d);
        }
        // Settle order: every reached node but the source exactly once,
        // never before its parent.
        let mut seen = vec![false; g.node_count()];
        seen[src.index()] = true;
        for s in kernel.settled() {
            prop_assert!(
                seen[s.parent.index()],
                "{:?} settled before its parent",
                s.node
            );
            prop_assert!(!seen[s.node.index()], "{:?} settled twice", s.node);
            seen[s.node.index()] = true;
            prop_assert_eq!(Some(Weight::from(s.dist)), want.dist[s.node.index()]);
            prop_assert_eq!(Some((s.parent, s.edge)), want.parent_of(g, s.node));
        }
        for v in g.nodes() {
            prop_assert_eq!(seen[v.index()], want.dist[v.index()].is_some());
        }
        // The same tree from each of its homes, and the order a
        // bottom-up fold relies on.
        assert_tree_matches(g, dijkstra(g, src).tree(), src, &want);
        assert_tree_matches(g, ap.from(src), src, &want);
        let order = std::iter::once(src).chain(kernel.settled().map(|s| s.node));
        prop_assert!(ap.settled(src).eq(order));
    }
}

/// Tie-heavy multigraphs: delays in 1..=2, average degree up to 6,
/// `parallel` duplicated edges (half of them at the same weight), and a
/// second component of `island` nodes unreachable from the first.
fn arb_tie_graph() -> impl Strategy<Value = Graph> {
    (2usize..24, 2u32..=6, 0usize..6, 0usize..5, any::<u64>()).prop_map(
        |(n, deg, parallel, island, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = random_connected(
                &RandomGraphParams {
                    nodes: n,
                    avg_degree: f64::from(deg).min(n as f64 - 1.0),
                    delay_range: (1, 2),
                },
                &mut rng,
            );
            for k in 0..parallel {
                let e = *g.edge(EdgeId(rng.gen_range(0..g.edge_count() as u32)));
                g.add_edge(e.a, e.b, if k % 2 == 0 { e.weight } else { 3 - e.weight });
            }
            let first = g.node_count() as u32;
            for k in 0..island as u32 {
                g.add_node();
                if k > 0 {
                    g.add_edge(NodeId(first + k), NodeId(first + rng.gen_range(0..k)), 1);
                }
            }
            g
        },
    )
}

/// Reference shortest-path: Bellman-Ford (edge-list relaxations).
fn bellman_ford(g: &Graph, src: NodeId) -> Vec<Option<Weight>> {
    let n = g.node_count();
    let mut dist: Vec<Option<Weight>> = vec![None; n];
    dist[src.index()] = Some(0);
    for _ in 0..n {
        let mut changed = false;
        for (_, e) in g.edges() {
            for (a, b) in [(e.a, e.b), (e.b, e.a)] {
                if let Some(da) = dist[a.index()] {
                    let cand = da + e.weight;
                    if dist[b.index()].is_none_or(|db| cand < db) {
                        dist[b.index()] = Some(cand);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..20, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        // Densest feasible degree up to 3 (a 2-node simple graph tops out
        // at average degree 1).
        let avg_degree = (n as f64 - 1.0).min(3.0);
        random_connected(
            &RandomGraphParams {
                nodes: n,
                avg_degree,
                delay_range: (1, 9),
            },
            &mut rng,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_matches_reference_dijkstra_on_tie_heavy_graphs(g in arb_tie_graph()) {
        assert_kernel_matches_reference(&g);
    }

    #[test]
    fn kernel_matches_reference_dijkstra_on_generated_internets(
        nodes in 2usize..30,
        domains in 0usize..5,
        domain_size in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // A small delay scale makes Waxman's rounded distances collide.
        let backbone = WaxmanParams { nodes, delay_scale: 4.0, ..WaxmanParams::default() };
        assert_kernel_matches_reference(&waxman(&backbone, &mut rng));
        let hier = HierParams {
            backbone,
            domains,
            domain_size,
            domain_extra_edges: 2,
            gateway_delay: (1, 3),
        };
        assert_kernel_matches_reference(&hierarchical(&hier, &mut rng).graph);
    }

    /// Weights ≥ 1 are the contract of the tie-break, not of correctness:
    /// with free edges (the tie-heavy graphs, every delay one lower) the
    /// distances are still Bellman-Ford's and the parents still a tree.
    #[test]
    fn free_edges_still_give_a_shortest_path_tree(g in arb_tie_graph()) {
        let mut free = Graph::with_nodes(g.node_count());
        for (_, e) in g.edges() {
            free.add_edge(e.a, e.b, e.weight - 1);
        }
        let mut kernel = SpKernel::new(&free);
        let ap = AllPairs::new(&free);
        for src in free.nodes() {
            kernel.run(src);
            let want = bellman_ford(&free, src);
            let mut dist = vec![None; free.node_count()];
            dist[src.index()] = Some(0);
            // The forest hands out this very order: what is shown of it
            // below is what a bottom-up fold over `AllPairs::settled` gets.
            prop_assert!(ap.settled(src).eq(
                std::iter::once(src).chain(kernel.settled().map(|s| s.node))
            ));
            for s in kernel.settled() {
                let via = dist[s.parent.index()].expect("parent settled before its child");
                prop_assert!(free.edge(s.edge).touches(s.parent) && free.edge(s.edge).touches(s.node));
                prop_assert_eq!(via + free.edge(s.edge).weight, Weight::from(s.dist));
                prop_assert!(dist[s.node.index()].is_none(), "{:?} settled twice", s.node);
                dist[s.node.index()] = Some(Weight::from(s.dist));
            }
            prop_assert_eq!(dist, want, "from {:?}", src);
        }
    }

    #[test]
    fn dijkstra_matches_bellman_ford(g in arb_graph(), src_pick in any::<prop::sample::Index>()) {
        let src = NodeId(src_pick.index(g.node_count()) as u32);
        let sp = dijkstra(&g, src);
        let reference = bellman_ford(&g, src);
        for v in g.nodes() {
            prop_assert_eq!(sp.tree().dist_to(v), reference[v.index()], "{:?}→{:?}", src, v);
        }
    }

    #[test]
    fn dijkstra_paths_are_consistent(g in arb_graph(), src_pick in any::<prop::sample::Index>()) {
        let src = NodeId(src_pick.index(g.node_count()) as u32);
        let sp = dijkstra(&g, src);
        let sp = sp.tree();
        for v in g.nodes() {
            let Some(d) = sp.dist_to(v) else { continue };
            // The reported path's edge weights must sum to the distance.
            let edges = sp.path_edges_to(v).expect("reachable");
            let total: Weight = edges.iter().map(|&e| g.edge(e).weight).sum();
            prop_assert_eq!(total, d);
            // And the node path must be edge-connected.
            let path = sp.path_to(v).expect("reachable");
            prop_assert_eq!(path[0], src);
            prop_assert_eq!(*path.last().expect("nonempty"), v);
            for w in path.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn all_pairs_is_symmetric_and_triangle_bounded(g in arb_graph()) {
        let ap = AllPairs::new(&g);
        for a in g.nodes() {
            prop_assert_eq!(ap.dist(a, a), Some(0));
            for b in g.nodes() {
                prop_assert_eq!(ap.dist(a, b), ap.dist(b, a));
                for c in g.nodes() {
                    if let (Some(ab), Some(bc), Some(ac)) =
                        (ap.dist(a, b), ap.dist(b, c), ap.dist(a, c))
                    {
                        prop_assert!(ac <= ab + bc, "triangle inequality");
                    }
                }
            }
        }
    }

    #[test]
    fn generator_contract(n in 4usize..40, deg in 3u32..6, seed in any::<u64>()) {
        let deg = (deg as f64).min(n as f64 - 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_connected(
            &RandomGraphParams { nodes: n, avg_degree: deg, delay_range: (1, 10) },
            &mut rng,
        );
        prop_assert!(is_connected(&g));
        prop_assert_eq!(g.node_count(), n);
        let target = ((deg * n as f64) / 2.0).round() as usize;
        prop_assert_eq!(g.edge_count(), target.max(n - 1));
        // Simple graph: no duplicate edges.
        let mut seen = std::collections::HashSet::new();
        for (_, e) in g.edges() {
            prop_assert!(seen.insert((e.a.min(e.b), e.a.max(e.b))));
        }
    }

    #[test]
    fn bfs_hops_lower_bounds_weighted_distance(g in arb_graph(), src_pick in any::<prop::sample::Index>()) {
        let src = NodeId(src_pick.index(g.node_count()) as u32);
        let hops = bfs_hops(&g, src);
        let sp = dijkstra(&g, src);
        for v in g.nodes() {
            match (hops[v.index()], sp.tree().dist_to(v)) {
                (Some(h), Some(d)) => prop_assert!(u64::from(h) <= d, "min weight is 1"),
                (None, None) => {}
                other => prop_assert!(false, "reachability mismatch {other:?}"),
            }
        }
    }
}
