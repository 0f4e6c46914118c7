//! §2 "Routing Protocol Independent": the identical PIM scenario over
//! oracle, distance-vector, and link-state unicast substrates must build
//! the same trees and deliver the same packets — on hand-built and on
//! random topologies.

use graph::gen::{random_connected, RandomGraphParams};
use graph::NodeId;
use integration_tests::diamond;
use netsim::{IfaceId, NodeIdx, SimTime};
use pim::PimRouter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenario::{NetSpec, Substrate};
use wire::Group;

fn group() -> Group {
    Group::test(1)
}

/// Run the diamond scenario; return (delivered seqs, (*,G) iif at DR,
/// (S,G) iif at DR).
fn run_diamond(sub: Substrate) -> (Vec<u64>, Option<IfaceId>, Option<IfaceId>) {
    let g = diamond();
    let mut net = NetSpec {
        substrate: sub,
        groups: &[(group(), vec![NodeId(2)])],
        host_routers: &[NodeId(0), NodeId(3)],
        seed: 9,
        ..NetSpec::default()
    }
    .build(&g);
    let (_, s_addr) = net.hosts[1];
    net.join_at(0, 400);
    net.send_at(1, 800, 15, 30);
    net.world.run_until(SimTime(2200));

    let got = net.seqs(0, s_addr);
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let gs = r0.engine().group_state(group()).expect("state at DR");
    (
        got,
        gs.star.as_ref().and_then(|s| s.iif),
        gs.sources.get(&s_addr).and_then(|e| e.iif),
    )
}

#[test]
fn identical_trees_across_substrates() {
    let oracle = run_diamond(Substrate::Oracle);
    let dv = run_diamond(Substrate::DistanceVector);
    let ls = run_diamond(Substrate::LinkState);
    assert_eq!(oracle.0, (0..15).collect::<Vec<u64>>(), "oracle delivery");
    assert_eq!(dv.0, oracle.0, "distance-vector delivery differs");
    assert_eq!(ls.0, oracle.0, "link-state delivery differs");
    assert_eq!(dv.1, oracle.1, "(*,G) iif differs under DV");
    assert_eq!(ls.1, oracle.1, "(*,G) iif differs under LS");
    assert_eq!(dv.2, oracle.2, "(S,G) iif differs under DV");
    assert_eq!(ls.2, oracle.2, "(S,G) iif differs under LS");
}

/// On random topologies, all three substrates must deliver everything
/// once converged (tree shapes may differ where equal-cost paths exist —
/// tie-breaks are engine-specific — but correctness may not).
#[test]
fn random_topologies_deliver_under_all_substrates() {
    for seed in [3u64, 11, 29] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_connected(
            &RandomGraphParams {
                nodes: 16,
                avg_degree: 3.0,
                delay_range: (1, 4),
            },
            &mut rng,
        );
        let members = [NodeId(1), NodeId(7), NodeId(13)];
        let sender_node = NodeId(4);
        let mut host_routers = members.to_vec();
        host_routers.push(sender_node);

        for sub in [
            Substrate::Oracle,
            Substrate::DistanceVector,
            Substrate::LinkState,
        ] {
            let mut net = NetSpec {
                substrate: sub,
                groups: &[(group(), vec![NodeId(0)])],
                host_routers: &host_routers,
                seed,
                ..NetSpec::default()
            }
            .build(&g);
            let (_, s_addr) = net.hosts[3];
            for slot in 0..3 {
                net.join_at(slot, 400 + slot as u64 * 7);
            }
            net.send_at(3, 900, 10, 40);
            net.world.run_until(SimTime(2600));
            for slot in 0..3 {
                let got = net.seqs(slot, s_addr);
                assert_eq!(
                    got,
                    (0..10).collect::<Vec<u64>>(),
                    "seed {seed} {sub:?}: a member missed packets"
                );
            }
        }
    }
}

/// The paper's protocol-independence is a *trait* boundary: swapping the
/// substrate must not change multicast state invariants. Verify the RPF
/// coherence invariant — every router's (*,G) iif equals its unicast RPF
/// interface toward the RP — under both live protocols.
#[test]
fn star_iif_matches_rpf_under_live_routing() {
    for sub in [Substrate::DistanceVector, Substrate::LinkState] {
        let g = diamond();
        let mut net = NetSpec {
            substrate: sub,
            groups: &[(group(), vec![NodeId(2)])],
            host_routers: &[NodeId(0)],
            seed: 5,
            ..NetSpec::default()
        }
        .build(&g);
        net.join_at(0, 400);
        net.world.run_until(SimTime(1200));
        for i in 0..4usize {
            let r: &PimRouter = net.world.node(NodeIdx(i));
            let Some(gs) = r.engine().group_state(group()) else {
                continue;
            };
            let Some(star) = gs.star.as_ref() else {
                continue;
            };
            if star.iif.is_none() {
                continue; // the RP
            }
            assert_eq!(
                star.iif,
                r.rib().rpf_iface(star.key),
                "{sub:?}: router {i}'s (*,G) iif must be its RPF toward the RP"
            );
        }
    }
}
