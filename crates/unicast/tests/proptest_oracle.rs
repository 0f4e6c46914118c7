//! The oracle RIB against a reference built the slow, obvious way — one
//! `HashMap<Addr, RouteEntry>` per router, first hops read off
//! `SpTree::path_to` — for every class of address a lookup can
//! carry, and through the by-hand API (`empty`/`insert`/`alias_host`) the
//! engine unit tests of `core`, `cbt` and `dvmrp` build their tables with.

use graph::algo::AllPairs;
use graph::gen::{random_connected, RandomGraphParams};
use graph::{Graph, NodeId};
use netsim::{host_addr, router_addr, IfaceId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// A tie-heavy connected graph plus `island` nodes in a second component.
fn arb_graph() -> impl Strategy<Value = Graph> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
