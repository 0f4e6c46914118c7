//! Property tests for the graph algorithms: Dijkstra is validated against
//! an independent Bellman-Ford implementation, the shortest-path kernel
//! against the heap-of-tuples Dijkstra it replaced (kept here verbatim as
//! the reference: equal distances *and* equal parent edges), also when a
//! run is confined to one side of a cut vertex, the cut-vertex sides
//! against brute-force searches of `G − e`, and the generators' contracts
//! are pinned.

use graph::algo::{bfs_hops, dijkstra, is_connected, AllPairs, Separators, SpKernel, SpTree};
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

/// Forests and trees with pendants: several random trees (delays 1–2),
/// each node hung on a random earlier node of its tree, and a second
/// family of stars that makes one vertex cut many sides at once.
fn arb_forest() -> impl Strategy<Value = Graph> {
    (1usize..5, 1usize..12, 0usize..8, any::<u64>()).prop_map(|(trees, size, star, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::with_nodes(0);
        for _ in 0..trees {
            let first = g.add_node().0;
            for k in 1..rng.gen_range(1..=size) as u32 {
                let v = g.add_node();
                g.add_edge(v, NodeId(first + rng.gen_range(0..k)), rng.gen_range(1..=2));
            }
        }
        let hub = NodeId(rng.gen_range(0..g.node_count() as u32));
        for _ in 0..star {
            let v = g.add_node();
            g.add_edge(hub, v, rng.gen_range(1..=2));
        }
        g
    })
}

/// Multigraphs (parallel edges, disconnected) and forests.
fn arb_cut_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![arb_tie_graph(), arb_forest()]
}

/// The nodes `x` reaches in `G − cut`, by breadth-first search.
fn component_without(g: &Graph, cut: NodeId, x: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.node_count()];
    seen[cut.index()] = true;
    seen[x.index()] = true;
    let mut queue = std::collections::VecDeque::from([x]);
    let mut out = Vec::new();
    while let Some(v) = queue.pop_front() {
        out.push(v);
        for u in g.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                queue.push_back(u);
            }
        }
    }
    out.sort();
    out
}

/// The subgraph induced by `keep`: node `i` is `keep[i]`, and each kept
/// edge's id in `g`, by its new id. With `keep` sorted, both renumberings
/// keep the order the `(parent node, edge)` tie-break reads.
fn induced(g: &Graph, keep: &[NodeId]) -> (Graph, Vec<EdgeId>) {
    let mut at = vec![u32::MAX; g.node_count()];
    for (i, v) in keep.iter().enumerate() {
        at[v.index()] = i as u32;
    }
    let mut sub = Graph::with_nodes(keep.len());
    let mut edges = Vec::new();
    for (id, e) in g.edges() {
        let (a, b) = (at[e.a.index()], at[e.b.index()]);
        if a != u32::MAX && b != u32::MAX {
            sub.add_edge(NodeId(a), NodeId(b), e.weight);
            edges.push(id);
        }
    }
    (sub, edges)
}

/// Every side against `G − e` searched by brute force, its cut vertex
/// before it in the order, and a kernel run confined to the side and its
/// cut vertex against the reference Dijkstra over that induced subgraph.
fn assert_sides_are_components(g: &Graph) {
    let seps = Separators::new(g);
    let n = g.node_count();
    let mut order: Vec<NodeId> = seps.order().to_vec();
    let pos: Vec<usize> = {
        let mut pos = vec![usize::MAX; n];
        for (i, v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        pos
    };
    order.sort();
    prop_assert!(
        order.into_iter().eq(g.nodes()),
        "the order is a permutation"
    );
    let mut kernel = SpKernel::new(g);
    for x in g.nodes() {
        let Some(side) = seps.side(x) else {
            // A root: the lowest id of its component.
            let lowest = bfs_hops(g, x).iter().position(Option::is_some);
            prop_assert_eq!(lowest, Some(x.index()), "{:?} is a root", x);
            continue;
        };
        let e = side.cut;
        prop_assert!(pos[e.index()] < pos[x.index()], "{:?} before {:?}", e, x);
        prop_assert!(seps.holds(side, x));
        prop_assert!(!seps.holds(side, e));
        let mut nodes = seps.nodes(side).to_vec();
        prop_assert_eq!(nodes.len(), side.len());
        nodes.sort();
        prop_assert_eq!(
            &nodes,
            &component_without(g, e, x),
            "side of {:?} at {:?}",
            x,
            e
        );
        for v in g.nodes() {
            prop_assert_eq!(seps.holds(side, v), nodes.binary_search(&v).is_ok());
        }

        // Confined to S ∪ {e}: the tree over it is the induced subgraph's.
        let mut keep = vec![e];
        keep.extend(seps.nodes(side));
        keep.sort();
        let (sub, edge_of) = induced(g, &keep);
        let x_in_sub = NodeId(keep.iter().position(|&v| v == x).expect("kept") as u32);
        let want = reference_dijkstra(&sub, x_in_sub);
        prop_assert!(kernel
            .run_within(x, |v| v == e || seps.holds(side, v))
            .is_ok());
        let mut parent = vec![None; n];
        for s in kernel.settled() {
            parent[s.node.index()] = Some((s.parent, s.edge));
        }
        for (i, &v) in keep.iter().enumerate() {
            let d = want.dist[i].unwrap_or(Weight::MAX);
            prop_assert_eq!(kernel.dist()[v.index()], d, "{:?}→{:?}", x, v);
            let p = want.parent_of(&sub, NodeId(i as u32));
            let p = p.map(|(p, pe)| (keep[p.index()], edge_of[pe.index()]));
            prop_assert_eq!(parent[v.index()], p, "{:?}→{:?}", x, v);
        }
        // Beyond the cut vertex only its own neighbours are reached.
        for v in g.nodes() {
            if v != e && !seps.holds(side, v) && kernel.dist()[v.index()] != Weight::MAX {
                prop_assert!(g.has_edge(e, v), "{:?} reached past {:?}", v, e);
            }
        }
    }
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

    #[test]
    fn sides_are_the_components_of_g_minus_their_cut_vertex(g in arb_cut_graph()) {
        assert_sides_are_components(&g);
    }

    #[test]
    fn sides_of_generated_internets(
        backbone in 2usize..12,
        domains in 0usize..6,
        domain_size in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hier = HierParams {
            backbone: WaxmanParams { nodes: backbone, delay_scale: 4.0, ..WaxmanParams::default() },
            domains,
            domain_size,
            domain_extra_edges: 1,
            gateway_delay: (1, 3),
        };
        assert_sides_are_components(&hierarchical(&hier, &mut rng).graph);
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
