//! Shared scaffolding for the cross-crate integration tests. Networks
//! come from [`scenario::NetSpec`], the one builder every harness uses.

/// The explorer's four-node diamond, used by several tests:
/// `0 -1- 1 -1- 2 -1- 3` plus a `0 -2- 3` shortcut; RP at node 2.
pub fn diamond() -> graph::Graph {
    scenario::topology("diamond").expect("diamond").graph
}

/// A sparse random topology: average degree 3, delays 1..=6.
pub fn random_graph(seed: u64, nodes: usize) -> graph::Graph {
    use graph::gen::{random_connected, RandomGraphParams};
    use rand::SeedableRng;
    random_connected(
        &RandomGraphParams {
            nodes,
            avg_degree: 3.0,
            delay_range: (1, 6),
        },
        &mut rand::rngs::StdRng::seed_from_u64(seed),
    )
}

/// [`random_graph`]'s topology with every delay replaced by a distinct
/// prime, then checked to be tie-free: from every source, every other
/// node has exactly one neighbour on a shortest path to it. With nothing
/// for a tie-break to decide, every correct computation of a route or a
/// tree — oracle, distance vector, link state, `mctree` — must give the
/// same one.
pub fn tie_free_graph(seed: u64, nodes: usize) -> graph::Graph {
    const PRIMES: [u64; 24] = [
        5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
        101,
    ];
    let shape = random_graph(seed, nodes);
    let mut g = graph::Graph::with_nodes(nodes);
    for (eid, e) in shape.edges() {
        // A stride coprime to the table length visits each prime once.
        g.add_edge(
            e.a,
            e.b,
            PRIMES[(seed as usize + 7 * eid.index()) % PRIMES.len()],
        );
    }
    assert!(g.edge_count() <= PRIMES.len(), "weights must stay distinct");
    let ap = graph::algo::AllPairs::new(&g);
    for src in g.nodes() {
        for dst in g.nodes().filter(|&d| d != src) {
            let tight = g.incident(dst).iter().filter(|&&e| {
                let via = ap.dist(src, g.edge(e).other(dst)).expect("connected");
                Some(via + g.edge(e).weight) == ap.dist(src, dst)
            });
            assert_eq!(tight.count(), 1, "seed {seed}: {src:?}→{dst:?} is tied");
        }
    }
    g
}
