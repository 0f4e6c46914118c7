//! The live unicast routing engines must converge to the same routes the
//! oracle computes from global knowledge — on random topologies, and
//! again after link failures. This is what makes the protocol-independence
//! tests meaningful: all three substrates present the same [`unicast::Rib`]
//! view once converged.

use graph::algo::AllPairs;
use graph::{Graph, NodeId};
use integration_tests::{random_graph, tie_free_graph};
use netsim::{router_addr, NodeIdx, SimTime, Topology};
use pim::PimRouter;
use scenario::{NetSpec, Substrate};
use unicast::{OracleRib, Rib};
use wire::Group;

/// Compare every router's converged table against the oracle: same
/// reachability and same path *metric* (interfaces may differ where
/// equal-cost ties exist, but costs may not).
fn assert_converged_to_oracle(g: &Graph, world: &netsim::World) {
    let topo = Topology::from_graph(g);
    let oracles = OracleRib::for_all(g, &topo);
    for (i, oracle) in oracles.iter().enumerate() {
        let r: &PimRouter = world.node(NodeIdx(i));
        for dst in g.nodes() {
            if dst.index() == i {
                continue;
            }
            let live = r.rib().route(router_addr(dst));
            let want = oracle.route(router_addr(dst));
            match (live, want) {
                (Some(l), Some(w)) => assert_eq!(
                    l.metric, w.metric,
                    "router {i} → {dst:?}: live metric {} ≠ oracle {}",
                    l.metric, w.metric
                ),
                (l, w) => panic!("router {i} → {dst:?}: reachability mismatch {l:?} vs {w:?}"),
            }
        }
    }
}

#[test]
fn distance_vector_converges_to_shortest_paths() {
    for seed in [1u64, 7, 23] {
        let g = random_graph(seed, 14);
        let mut net = NetSpec {
            substrate: Substrate::DistanceVector,
            groups: &[(Group::test(1), vec![NodeId(0)])],
            seed,
            ..NetSpec::default()
        }
        .build(&g);
        net.world.run_until(SimTime(1000));
        assert_converged_to_oracle(&g, &net.world);
    }
}

#[test]
fn link_state_converges_to_shortest_paths() {
    for seed in [1u64, 7, 23] {
        let g = random_graph(seed, 14);
        let mut net = NetSpec {
            substrate: Substrate::LinkState,
            groups: &[(Group::test(1), vec![NodeId(0)])],
            seed,
            ..NetSpec::default()
        }
        .build(&g);
        net.world.run_until(SimTime(1000));
        assert_converged_to_oracle(&g, &net.world);
    }
}

#[test]
fn distance_vector_reconverges_after_failure() {
    // A ring: 0-1-2-3-4-0; cut 0-1 and routes must flip to the long way.
    let mut g = Graph::with_nodes(5);
    for i in 0..5u32 {
        g.add_edge(NodeId(i), NodeId((i + 1) % 5), 1);
    }
    let mut net = NetSpec {
        substrate: Substrate::DistanceVector,
        groups: &[(Group::test(1), vec![NodeId(0)])],
        seed: 2,
        ..NetSpec::default()
    }
    .build(&g);
    net.world.run_until(SimTime(800));
    {
        let r0: &PimRouter = net.world.node(NodeIdx(0));
        assert_eq!(
            r0.rib()
                .route(router_addr(NodeId(1)))
                .expect("route")
                .metric,
            1
        );
    }
    net.world
        .at(SimTime(800), |w| w.set_link_up(netsim::LinkId(0), false));
    // DV detection needs route_timeout (180) + propagation + update cycles.
    net.world.run_until(SimTime(2200));
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let r = r0
        .rib()
        .route(router_addr(NodeId(1)))
        .expect("must reroute the long way");
    assert_eq!(r.metric, 4, "0→4→3→2→1");
    // And the reverse direction too.
    let r1: &PimRouter = net.world.node(NodeIdx(1));
    assert_eq!(
        r1.rib()
            .route(router_addr(NodeId(0)))
            .expect("route")
            .metric,
        4
    );
}

#[test]
fn link_state_reconverges_after_failure() {
    let mut g = Graph::with_nodes(5);
    for i in 0..5u32 {
        g.add_edge(NodeId(i), NodeId((i + 1) % 5), 1);
    }
    let mut net = NetSpec {
        substrate: Substrate::LinkState,
        groups: &[(Group::test(1), vec![NodeId(0)])],
        seed: 2,
        ..NetSpec::default()
    }
    .build(&g);
    net.world.run_until(SimTime(500));
    net.world
        .at(SimTime(500), |w| w.set_link_up(netsim::LinkId(0), false));
    // LS detection: neighbor holdtime (35) + LSA flood + Dijkstra.
    net.world.run_until(SimTime(1200));
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    assert_eq!(
        r0.rib()
            .route(router_addr(NodeId(1)))
            .expect("rerouted")
            .metric,
        4
    );
}

/// "Protocol independent" checked on the route itself: where every
/// shortest path is unique there is no tie for the substrates to break
/// differently, so distance vector, link state and the oracle must hand
/// PIM the same interface, the same next hop and the same metric for
/// every pair of routers.
#[test]
fn tie_free_routes_are_identical_across_substrates() {
    for seed in [2u64, 13] {
        let g = tie_free_graph(seed, 12);
        let oracles = OracleRib::for_all(&g, &Topology::from_graph(&g));
        for substrate in [Substrate::DistanceVector, Substrate::LinkState] {
            let mut net = NetSpec {
                substrate,
                groups: &[(Group::test(1), vec![NodeId(0)])],
                seed,
                ..NetSpec::default()
            }
            .build(&g);
            net.world.run_until(SimTime(6000));
            for (i, oracle) in oracles.iter().enumerate() {
                let live: &PimRouter = net.world.node(NodeIdx(i));
                for dst in g.nodes().filter(|d| d.index() != i) {
                    assert_eq!(
                        live.rib().route(router_addr(dst)),
                        oracle.route(router_addr(dst)),
                        "seed {seed}, {substrate:?}: router {i} → {dst:?}"
                    );
                }
            }
        }
    }
}

/// Cross-validate the oracle itself: its metrics equal all-pairs
/// shortest-path distances on random graphs.
#[test]
fn oracle_metrics_match_all_pairs() {
    for seed in [5u64, 9] {
        let g = random_graph(seed, 20);
        let topo = Topology::from_graph(&g);
        let ap = AllPairs::new(&g);
        let oracles = OracleRib::for_all(&g, &topo);
        for a in g.nodes() {
            for b in g.nodes() {
                if a == b {
                    continue;
                }
                assert_eq!(
                    oracles[a.index()]
                        .route(router_addr(b))
                        .expect("connected")
                        .metric as u64,
                    ap.dist(a, b).expect("connected"),
                    "{a:?}→{b:?}"
                );
            }
        }
    }
}
