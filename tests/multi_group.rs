//! Multi-group scenarios: independent groups with distinct RPs and tree
//! types coexisting on one internet (the paper's "configuration decision
//! within a multicast protocol", §1.3), plus scale/invariant checks over
//! random topologies.

use graph::gen::{random_connected, RandomGraphParams};
use graph::NodeId;
use netsim::{NodeIdx, SimTime};
use pim::{OifKind, PimRouter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenario::{NetSpec, ScenarioNet};
use wire::Group;

/// A PIM net over `g` with the given group → RP-list map and one host
/// behind each router in `host_routers`.
fn build_multi(
    g: &graph::Graph,
    groups: &[(Group, Vec<NodeId>)],
    host_routers: &[NodeId],
    seed: u64,
) -> ScenarioNet {
    NetSpec {
        groups,
        host_routers,
        seed,
        ..NetSpec::default()
    }
    .build(g)
}

#[test]
fn independent_groups_do_not_interfere() {
    let mut rng = StdRng::seed_from_u64(21);
    let g = random_connected(
        &RandomGraphParams {
            nodes: 20,
            avg_degree: 3.5,
            delay_range: (1, 5),
        },
        &mut rng,
    );
    let ga = Group::test(10);
    let gb = Group::test(11);
    let host_routers = [NodeId(2), NodeId(5), NodeId(11), NodeId(17)];
    let groups = [(ga, vec![NodeId(0)]), (gb, vec![NodeId(19)])];
    let mut net = build_multi(&g, &groups, &host_routers, 13);
    // Slots 0, 1 are group A members; slots 2, 3 group B.
    net.join_group_at(0, ga, 10);
    net.join_group_at(1, ga, 15);
    net.join_group_at(2, gb, 12);
    net.join_group_at(3, gb, 18);
    // Slot 1 sends to A; slot 3 sends to B, overlapping in time.
    net.send_group_at(1, ga, 300, 25, 20);
    net.send_group_at(3, gb, 305, 25, 20);
    net.world.run_until(SimTime(1600));

    let (a_src, b_src) = (net.hosts[1].1, net.hosts[3].1);
    let h0 = net.host(0);
    assert_eq!(h0.seqs_from(a_src, ga), (0..25).collect::<Vec<u64>>());
    assert!(h0.seqs_from(b_src, gb).is_empty(), "no cross-group leak");
    let h2 = net.host(2);
    assert_eq!(h2.seqs_from(b_src, gb), (0..25).collect::<Vec<u64>>());
    assert!(h2.seqs_from(a_src, ga).is_empty(), "no cross-group leak");
}

#[test]
fn one_host_in_many_groups() {
    let mut rng = StdRng::seed_from_u64(33);
    let g = random_connected(
        &RandomGraphParams {
            nodes: 15,
            avg_degree: 3.0,
            delay_range: (1, 4),
        },
        &mut rng,
    );
    let groups: Vec<Group> = (20..26).map(Group::test).collect();
    let mappings: Vec<(Group, Vec<NodeId>)> =
        groups.iter().map(|&g| (g, vec![NodeId(7)])).collect();
    let host_routers = [NodeId(1), NodeId(13)];
    let mut net = build_multi(&g, &mappings, &host_routers, 14);
    // Host 0 joins all six groups; host 1 sends one packet train to each.
    for (i, &grp) in groups.iter().enumerate() {
        net.join_group_at(0, grp, 10 + i as u64 * 3);
        net.send_group_at(1, grp, 300 + i as u64 * 11, 8, 30);
    }
    net.world.run_until(SimTime(1800));
    let h = net.host(0);
    for &grp in &groups {
        // Host sequence numbers are global per sender (interleaved across
        // its groups), so assert count and monotonicity, not exact values.
        // A packet may arrive twice when the SPT switchover window (§2.8:
        // data flows down both the shared tree and the new SPT until the
        // RPT prune lands) overlaps the train, so count distinct seqs and
        // allow adjacent duplicates.
        let got = h.seqs_from(net.hosts[1].1, grp);
        assert!(
            got.windows(2).all(|w| w[1] >= w[0]),
            "out of order: {got:?}"
        );
        let mut distinct = got.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), 8, "group {grp} incomplete: {got:?}");
    }
    // The DR holds one (*,G) per group (plus per-source SPT state).
    let dr: &PimRouter = net.world.node(NodeIdx(1));
    let stars = groups
        .iter()
        .filter(|&&grp| {
            dr.engine()
                .group_state(grp)
                .and_then(|gs| gs.star.as_ref())
                .is_some()
        })
        .count();
    assert_eq!(stars, 6);
}

/// Engine-level invariants hold across a messy random scenario:
/// * no entry has its iif in its oif list (forwarding-loop guard);
/// * (S,G) negative caches exist only alongside a (*,G);
/// * every oif of every entry is a real interface.
#[test]
fn state_invariants_after_random_scenario() {
    for seed in [2u64, 15, 44] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_connected(
            &RandomGraphParams {
                nodes: 25,
                avg_degree: 4.0,
                delay_range: (1, 6),
            },
            &mut rng,
        );
        let grp = Group::test(1);
        let host_routers: Vec<NodeId> =
            vec![NodeId(5), NodeId(9), NodeId(14), NodeId(20), NodeId(24)];
        let mut net = build_multi(&g, &[(grp, vec![NodeId(3)])], &host_routers, seed);
        for slot in 0..host_routers.len() {
            net.join_at(slot, 10 + slot as u64 * 9);
        }
        // Everyone sends; members churn.
        for slot in 0..host_routers.len() {
            net.send_at(slot, 400, 15, 35);
        }
        let leaver = net.hosts[2].0;
        net.world.at(SimTime(700), move |w| {
            w.node_mut::<igmp::HostNode>(leaver).leave(grp);
        });
        net.world.run_until(SimTime(2500));

        for i in 0..g.node_count() {
            let r: &PimRouter = net.world.node(NodeIdx(i));
            let Some(gs) = r.engine().group_state(grp) else {
                continue;
            };
            if let Some(star) = &gs.star {
                if let Some(iif) = star.iif {
                    assert!(
                        !star.oifs().contains_key(&iif),
                        "router {i}: (*,G) iif in oifs"
                    );
                }
            }
            for (s, e) in &gs.sources {
                if let Some(iif) = e.iif {
                    // LocalMembers oifs may legitimately coincide with a
                    // host-side iif only for local sources.
                    if !e.local_source {
                        assert!(
                            !e.oifs().contains_key(&iif),
                            "router {i}: ({s},G) iif {iif:?} in oifs {:?}",
                            e.oifs()
                        );
                    }
                }
                if e.is_negative() {
                    assert!(
                        gs.star.is_some(),
                        "router {i}: negative cache without (*,G) (footnote 13)"
                    );
                }
                for (&oif, o) in e.oifs() {
                    assert!(
                        (oif.index()) < r.engine().iface_count(),
                        "router {i}: oif {oif:?} out of range"
                    );
                    let _ = o;
                }
            }
        }
        // Sanity: members that stayed got full streams from all senders.
        for i in (0..host_routers.len()).filter(|&i| i != 2) {
            for (j, &(_, s_addr)) in net.hosts.iter().enumerate() {
                if i == j {
                    continue;
                }
                let got = net.seqs(i, s_addr);
                assert!(
                    got.len() >= 14,
                    "seed {seed}: member {i} got only {} of 15 from sender {j}",
                    got.len()
                );
            }
        }
    }
}

/// The OifKind bookkeeping: local-member oifs never expire via PIM timers
/// while the member stays, and joined oifs persist only under refresh.
#[test]
fn oif_kinds_behave() {
    let mut rng = StdRng::seed_from_u64(88);
    let g = random_connected(
        &RandomGraphParams {
            nodes: 10,
            avg_degree: 3.0,
            delay_range: (1, 3),
        },
        &mut rng,
    );
    let grp = Group::test(1);
    let mut net = build_multi(&g, &[(grp, vec![NodeId(0)])], &[NodeId(4)], 7);
    net.join_at(0, 10);
    net.world.run_until(SimTime(2000));
    let dr: &PimRouter = net.world.node(NodeIdx(4));
    let star = dr
        .engine()
        .group_state(grp)
        .and_then(|gs| gs.star.as_ref())
        .expect("star survives under IGMP refresh");
    let kinds: Vec<OifKind> = star.oifs().values().map(|o| o.kind).collect();
    assert!(
        kinds.contains(&OifKind::LocalMembers),
        "the member subnetwork must be a LocalMembers oif"
    );
}
