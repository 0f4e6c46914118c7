//! The oracle RIB against a reference built the slow, obvious way — one
//! `HashMap<Addr, RouteEntry>` per router, first hops read off
//! `SpTree::path_to` — for every class of address a lookup can
//! carry, and through the by-hand API (`empty`/`insert`/`alias_host`) the
//! engine unit tests of `core`, `cbt` and `dvmrp` build their tables with.

use graph::algo::AllPairs;
use graph::gen::{hierarchical, random_connected, HierParams, RandomGraphParams, WaxmanParams};
use graph::{Graph, NodeId};
use netsim::{host_addr, router_addr, IfaceId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use unicast::{Engine, OracleRib, Rib, RouteEntry};
use wire::Addr;

type Table = HashMap<Addr, RouteEntry>;

fn reference_tables(g: &Graph, topo: &Topology, host_routers: &[NodeId]) -> Vec<Table> {
    let ap = AllPairs::new(g);
    let mut tables: Vec<Table> = g
        .nodes()
        .map(|me| {
            let sp = ap.from(me);
            g.nodes()
                .filter(|&dst| dst != me)
                .filter_map(|dst| {
                    let path = sp.path_to(dst)?;
                    let first_edge = sp.path_edges_to(dst)?[0];
                    let iface = topo
                        .plan(me)
                        .ifaces
                        .iter()
                        .find(|p| p.edge == first_edge)
                        .expect("the first edge is incident to its source");
                    let entry = RouteEntry {
                        iface: iface.iface,
                        next_hop: router_addr(path[1]),
                        metric: u32::try_from(sp.dist_to(dst)?).expect("small weights"),
                    };
                    Some((router_addr(dst), entry))
                })
                .collect()
        })
        .collect();
    for &n in host_routers {
        for table in &mut tables {
            if let Some(&e) = table.get(&router_addr(n)) {
                table.insert(host_addr(n, 0), e);
            }
        }
    }
    tables
}

/// Every address class: each router, each router's host 0 (aliased or
/// not) and host 1 (never aliased), router-shaped addresses whose node id
/// is `n` and beyond, and addresses outside the `10.x.y.z` plan.
fn probes(n: usize) -> Vec<Addr> {
    let mut out = Vec::new();
    for v in (0..n as u32).map(NodeId) {
        out.extend([router_addr(v), host_addr(v, 0), host_addr(v, 1)]);
    }
    out.extend([
        router_addr(NodeId(n as u32)),
        router_addr(NodeId(0xFFFF)),
        host_addr(NodeId(n as u32), 0),
        Addr::new(11, 0, 0, 1),
        Addr::new(192, 168, 0, 1),
        Addr::new(10, 0, 0, 0),
        Addr(0),
        Addr(u32::MAX),
    ]);
    out
}

fn assert_same(rib: &OracleRib, want: &Table, probes: &[Addr]) {
    for &dst in probes.iter().chain(want.keys()) {
        prop_assert_eq!(rib.route(dst), want.get(&dst).copied(), "route({})", dst);
        prop_assert_eq!(rib.rpf_iface(dst), want.get(&dst).map(|e| e.iface));
    }
    prop_assert_eq!(rib.table_size(), want.len());
}

/// `g` with every delay folded into 1–2, so that ties are common.
fn tie_copy(g: &Graph) -> Graph {
    let mut out = Graph::with_nodes(g.node_count());
    for (_, e) in g.edges() {
        out.add_edge(e.a, e.b, 1 + e.weight % 2);
    }
    out
}

/// A random tree of `size` new nodes hung off `at`, delays 1–2: each
/// node's parent is `at` or an earlier node of the tree, so `at` often
/// gets several sides of its own.
fn hang_tree(g: &mut Graph, at: NodeId, size: usize, rng: &mut StdRng) {
    let first = g.node_count() as u32;
    for k in 0..size as u32 {
        let v = g.add_node();
        let parent = if k == 0 || rng.gen_bool(0.3) {
            at
        } else {
            NodeId(first + rng.gen_range(0..k))
        };
        g.add_edge(v, parent, rng.gen_range(1..=2));
    }
}

/// A random connected block of `size` nodes (average degree up to 3,
/// delays 1–2), new but for its node 0, which is `at` if given; returns
/// that node 0.
fn add_block(g: &mut Graph, size: usize, at: Option<NodeId>, rng: &mut StdRng) -> NodeId {
    let block = match size {
        1 => Graph::with_nodes(1),
        _ => random_connected(
            &RandomGraphParams {
                nodes: size,
                avg_degree: (size as f64 - 1.0).min(3.0),
                delay_range: (1, 2),
            },
            rng,
        ),
    };
    let first = g.node_count() as u32;
    let zero = at.unwrap_or(NodeId(first));
    let new = size - usize::from(at.is_some());
    for _ in 0..new {
        g.add_node();
    }
    let place = |v: NodeId| match (v.0, at) {
        (0, _) => zero,
        (k, Some(_)) => NodeId(first + k - 1),
        (k, None) => NodeId(first + k),
    };
    for (_, e) in block.edges() {
        g.add_edge(place(e.a), place(e.b), e.weight);
    }
    zero
}

/// A second component: a short chain with pendants, unreachable from the
/// first (`size` 0 adds nothing).
fn add_island(g: &mut Graph, size: usize, rng: &mut StdRng) {
    let first = g.node_count() as u32;
    for k in 0..size as u32 {
        let v = g.add_node();
        if k > 0 {
            g.add_edge(v, NodeId(first + rng.gen_range(0..k)), 1);
        }
    }
    if size > 0 {
        let at = NodeId(first + rng.gen_range(0..size as u32));
        hang_tree(g, at, rng.gen_range(0..3), rng);
    }
}

/// A tie-heavy connected graph plus `island` nodes in a second component.
fn arb_random() -> impl Strategy<Value = Graph> {
    (2usize..16, 2u32..=5, 0usize..4, any::<u64>()).prop_map(|(n, deg, island, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = random_connected(
            &RandomGraphParams {
                nodes: n,
                avg_degree: f64::from(deg).min(n as f64 - 1.0),
                delay_range: (1, 2),
            },
            &mut rng,
        );
        for k in 0..island as u32 {
            let v = g.add_node();
            if k > 0 {
                g.add_edge(v, NodeId(v.0 - 1), 1);
            }
        }
        g
    })
}

/// A random core with pendant trees: several hung on one vertex, others
/// spread over the core and over each other.
fn arb_pendants() -> impl Strategy<Value = Graph> {
    (1usize..8, 1usize..6, 0usize..4, any::<u64>()).prop_map(|(core, trees, island, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::with_nodes(0);
        add_block(&mut g, core, None, &mut rng);
        let hub = NodeId(rng.gen_range(0..core as u32));
        for t in 0..trees {
            let at = if t % 2 == 0 {
                hub
            } else {
                NodeId(rng.gen_range(0..g.node_count() as u32))
            };
            hang_tree(&mut g, at, rng.gen_range(1..4), &mut rng);
        }
        add_island(&mut g, island, &mut rng);
        g
    })
}

/// Barbells: a chain of blocks, each joined to the last at a shared cut
/// vertex or by a bridge, with parallel edges into the cut vertices.
fn arb_barbell() -> impl Strategy<Value = Graph> {
    (1usize..5, 0usize..4, 0usize..3, any::<u64>()).prop_map(|(blocks, parallel, island, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::with_nodes(0);
        let mut cut = add_block(&mut g, rng.gen_range(1..6), None, &mut rng);
        let mut cuts = vec![cut];
        for _ in 1..blocks {
            let size = rng.gen_range(1..6);
            if rng.gen_bool(0.5) {
                // The next block shares the cut vertex.
                add_block(&mut g, size + 1, Some(cut), &mut rng);
            } else {
                let first = add_block(&mut g, size, None, &mut rng);
                g.add_edge(cut, first, rng.gen_range(1..=2));
            }
            let start = g.node_count() as u32 - size as u32;
            cut = NodeId(rng.gen_range(start..g.node_count() as u32));
            cuts.push(cut);
        }
        for _ in 0..parallel {
            let at = cuts[rng.gen_range(0..cuts.len())];
            if let Some(&e) = g.incident(at).first() {
                let e = *g.edge(e);
                g.add_edge(e.a, e.b, rng.gen_range(1..=2));
            }
        }
        add_island(&mut g, island, &mut rng);
        g
    })
}

/// Small `hierarchical` internets with random parameters, delays folded
/// into 1–2, plus an island with pendants.
fn arb_internet() -> impl Strategy<Value = Graph> {
    (
        2usize..8,
        0usize..6,
        1usize..5,
        0usize..3,
        0usize..4,
        any::<u64>(),
    )
        .prop_map(|(backbone, domains, domain_size, extra, island, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = HierParams {
                backbone: WaxmanParams {
                    nodes: backbone,
                    delay_scale: 4.0,
                    ..WaxmanParams::default()
                },
                domains,
                domain_size,
                domain_extra_edges: extra,
                gateway_delay: (1, 2),
            };
            let mut g = tie_copy(&hierarchical(&params, &mut rng).graph);
            add_island(&mut g, island, &mut rng);
            g
        })
}

/// Node 0 a pendant leaf at the end of a chain hung on a random block,
/// so that the separator search's root sits in a stub; trees hang on the
/// block as well.
fn arb_leaf_root() -> impl Strategy<Value = Graph> {
    (1usize..8, 0usize..4, 0usize..4, any::<u64>()).prop_map(|(core, depth, trees, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::with_nodes(1);
        add_block(&mut g, core, None, &mut rng);
        let mut at = NodeId(rng.gen_range(1..=core as u32));
        for _ in 0..depth {
            let v = g.add_node();
            g.add_edge(v, at, rng.gen_range(1..=2));
            at = v;
        }
        g.add_edge(NodeId(0), at, rng.gen_range(1..=2));
        for _ in 0..trees {
            let at = NodeId(rng.gen_range(1..=core as u32));
            hang_tree(&mut g, at, rng.gen_range(1..4), &mut rng);
        }
        g
    })
}

/// Several sides on one vertex of a block: blocks sharing it and trees
/// hung on it, so that routes run from one side through it into another.
fn arb_one_anchor() -> impl Strategy<Value = Graph> {
    (2usize..8, 2usize..6, any::<u64>()).prop_map(|(core, sides, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::with_nodes(0);
        add_block(&mut g, core, None, &mut rng);
        let anchor = NodeId(rng.gen_range(0..core as u32));
        for _ in 0..sides {
            if rng.gen_bool(0.5) {
                add_block(&mut g, rng.gen_range(2..5), Some(anchor), &mut rng);
            } else {
                hang_tree(&mut g, anchor, rng.gen_range(1..4), &mut rng);
            }
        }
        g
    })
}

/// A block of `core` routers and one side hung on one of them holding
/// exactly half the graph, or one router under half: a block with a
/// pendant tree of its own.
fn arb_half() -> impl Strategy<Value = Graph> {
    (2usize..8, any::<bool>(), 0usize..3, any::<u64>()).prop_map(|(core, exact, tree, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::with_nodes(0);
        add_block(&mut g, core, None, &mut rng);
        // n = core + side: 2 · side = n exactly, or n − 1.
        let side = if exact { core } else { core - 1 };
        let tree = tree.min(side - 1);
        let cut = NodeId(rng.gen_range(0..core as u32));
        add_block(&mut g, side - tree + 1, Some(cut), &mut rng);
        let at = NodeId(rng.gen_range(core as u32..g.node_count() as u32));
        hang_tree(&mut g, at, tree, &mut rng);
        assert_eq!(g.node_count(), core + side);
        g
    })
}

/// A main block with pendants and up to three islands beside it, each a
/// block of 1–3 routers with up to one pendant: every island under half
/// the graph.
fn arb_islands() -> impl Strategy<Value = Graph> {
    (5usize..10, 1usize..4, any::<u64>()).prop_map(|(main, islands, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::with_nodes(0);
        add_block(&mut g, main, None, &mut rng);
        let at = NodeId(rng.gen_range(0..main as u32));
        hang_tree(&mut g, at, rng.gen_range(1..3), &mut rng);
        for _ in 0..islands {
            let zero = add_block(&mut g, rng.gen_range(1..4), None, &mut rng);
            hang_tree(&mut g, zero, rng.gen_range(0..2), &mut rng);
        }
        g
    })
}

/// Graphs where cut vertices are the common case — pendant trees,
/// barbells, small internets, a stub at the search's root, many sides on
/// one vertex, a side of half the graph, islands — beside tie-heavy
/// random ones.
fn arb_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        arb_random(),
        arb_pendants(),
        arb_barbell(),
        arb_internet(),
        arb_leaf_root(),
        arb_one_anchor(),
        arb_half(),
        arb_islands(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tables_answer_like_the_reference_for_every_address_class(
        g in arb_graph(),
        host_picks in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let n = g.node_count();
        // Repeats allowed: two host slots behind one router share its
        // host-0 address.
        let host_routers: Vec<NodeId> =
            host_picks.iter().map(|p| NodeId(p.index(n) as u32)).collect();
        let topo = Topology::from_graph(&g);
        let want = reference_tables(&g, &topo, &host_routers);
        let ribs = OracleRib::for_all_with_hosts(&g, &topo, &host_routers);
        let bare = OracleRib::for_all(&g, &topo);
        let want_bare = reference_tables(&g, &topo, &[]);
        prop_assert_eq!(ribs.len(), n);
        prop_assert_eq!(bare.len(), n);
        let probes = probes(n);
        for v in g.nodes() {
            prop_assert_eq!(ribs[v.index()].local_addr(), router_addr(v));
            assert_same(&ribs[v.index()], &want[v.index()], &probes);
            assert_same(&bare[v.index()], &want_bare[v.index()], &probes);
        }
    }

    /// `insert` and `alias_host` on a built table and on an `empty` one
    /// behave like the same operations on the reference map: an insert
    /// shadows whatever the table held, an alias copies the router's
    /// route as it is at that moment and is a no-op without one.
    #[test]
    fn hand_edits_behave_like_a_map(
        g in arb_graph(),
        edits in prop::collection::vec(
            (any::<bool>(), any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0u32..4),
            1..12,
        ),
    ) {
        let n = g.node_count();
        let topo = Topology::from_graph(&g);
        let probes = probes(n);
        let built = OracleRib::for_all_with_hosts(&g, &topo, &[NodeId(0)]).swap_remove(n - 1);
        let want_built = reference_tables(&g, &topo, &[NodeId(0)]).swap_remove(n - 1);
        let empty = OracleRib::empty(router_addr(NodeId(0)));
        prop_assert_eq!(empty.local_addr(), router_addr(NodeId(0)));
        for (mut rib, mut want) in [(built, want_built), (empty, Table::new())] {
            assert_same(&rib, &want, &probes);
            for &(is_insert, a, b, k) in &edits {
                let (a, b) = (probes[a.index(probes.len())], probes[b.index(probes.len())]);
                if is_insert {
                    let entry = RouteEntry { iface: IfaceId(k), next_hop: b, metric: k + 7 };
                    rib.insert(a, entry);
                    want.insert(a, entry);
                } else {
                    rib.alias_host(a, b);
                    if let Some(&e) = want.get(&b) {
                        want.insert(a, e);
                    }
                }
                assert_same(&rib, &want, &probes);
            }
        }
    }
}
