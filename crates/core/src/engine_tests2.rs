//! Second batch of sans-IO engine tests: multi-RP behavior, entry
//! lifecycle corner cases, pending-prune mechanics, and register-path
//! details not covered by the first batch.

use crate::config::PimConfig;
use crate::engine::Engine;
use crate::entry::OifKind;
use netsim::{Duration, IfaceId, SimTime};
use node::Action;
use unicast::{OracleRib, RouteEntry};
use wire::pim::{GroupEntry, JoinPrune, Query, Register, RpReachability, SourceEntry};
use wire::{Addr, Group, Message};

fn g() -> Group {
    Group::test(1)
}
fn t(x: u64) -> SimTime {
    SimTime(x)
}
fn rp1() -> Addr {
    Addr::new(10, 0, 3, 1)
}
fn rp2() -> Addr {
    Addr::new(10, 0, 8, 1)
}
fn me() -> Addr {
    Addr::new(10, 0, 4, 1)
}
fn src_host() -> Addr {
    Addr::new(10, 0, 4, 10)
}

fn sent_registers(out: &[Action]) -> Vec<(IfaceId, Addr)> {
    out.iter()
        .filter_map(|o| match o {
            Action::Control {
                ifaces,
                dst,
                msg: Message::PimRegister(_),
                ..
            } => Some((
                ifaces.iter().next().expect("a Register goes somewhere"),
                *dst,
            )),
            _ => None,
        })
        .collect()
}

/// A sender-side DR with two RPs reachable over different interfaces.
fn sender_dr() -> (Engine, OracleRib) {
    let mut rib = OracleRib::empty(me());
    rib.insert(
        rp1(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp1(),
            metric: 1,
        },
    );
    rib.insert(
        rp2(),
        RouteEntry {
            iface: IfaceId(2),
            next_hop: rp2(),
            metric: 2,
        },
    );
    let mut e = Engine::new(me(), 3, PimConfig::default());
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp1(), rp2()]);
    e.register_local_host(src_host(), IfaceId(0));
    (e, rib)
}

// ---------------------------------------------------------------------
// §3.9 multi-RP sender behavior
// ---------------------------------------------------------------------

#[test]
fn sender_registers_to_every_rp() {
    let (mut e, rib) = sender_dr();
    let out = e.on_local_data(t(5), IfaceId(0), src_host(), g(), b"p", &rib);
    let regs = sent_registers(&out);
    assert_eq!(
        regs,
        vec![(IfaceId(1), rp1()), (IfaceId(2), rp2())],
        "§3.9: each source registers toward each of the RPs"
    );
    assert_eq!(e.registers_sent, 2);
}

#[test]
fn register_to_self_when_dr_is_an_rp() {
    // The DR is itself RP#2: the local copy is processed in place, only
    // RP#1 gets a wire register.
    let mut rib = OracleRib::empty(me());
    rib.insert(
        rp1(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp1(),
            metric: 1,
        },
    );
    let mut e = Engine::new(me(), 3, PimConfig::default());
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp1(), me()]);
    e.register_local_host(src_host(), IfaceId(0));
    let out = e.on_local_data(t(5), IfaceId(0), src_host(), g(), b"p", &rib);
    assert_eq!(sent_registers(&out), vec![(IfaceId(1), rp1())]);
}

#[test]
fn unreachable_rp_is_skipped_gracefully() {
    let mut rib = OracleRib::empty(me());
    rib.insert(
        rp2(),
        RouteEntry {
            iface: IfaceId(2),
            next_hop: rp2(),
            metric: 2,
        },
    );
    // rp1 has no route at all.
    let mut e = Engine::new(me(), 3, PimConfig::default());
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp1(), rp2()]);
    e.register_local_host(src_host(), IfaceId(0));
    let out = e.on_local_data(t(5), IfaceId(0), src_host(), g(), b"p", &rib);
    assert_eq!(sent_registers(&out), vec![(IfaceId(2), rp2())]);
}

// ---------------------------------------------------------------------
// Entry lifecycle corners
// ---------------------------------------------------------------------

#[test]
fn spt_entry_deleted_after_linger_when_downstream_leaves() {
    // An intermediate router on an SPT: one downstream join, then silence.
    let mut rib = OracleRib::empty(me());
    rib.insert(
        src_host(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: Addr::new(10, 0, 9, 1),
            metric: 1,
        },
    );
    let mut e = Engine::new(me(), 3, PimConfig::default());
    let join = JoinPrune {
        upstream_neighbor: me(),
        holdtime: 100,
        groups: vec![GroupEntry::join(g(), SourceEntry::source(src_host()))],
    };
    e.on_join_prune(t(0), IfaceId(2), Addr::new(10, 0, 5, 1), &join, &rib);
    assert!(e
        .group_state(g())
        .unwrap()
        .sources
        .contains_key(&src_host()));
    // oif lapses at t=100; upstream prune is sent; entry lingers 3×refresh
    // (180) and is deleted.
    let out = e.tick(t(101), &rib);
    assert!(out.iter().any(|o| matches!(
        o,
        Action::Control { msg: Message::PimJoinPrune(jp), .. }
            if jp.groups.iter().any(|ge| ge.prunes.contains(&SourceEntry::source(src_host())))
    )));
    e.tick(t(282), &rib);
    assert!(
        e.group_state(g()).is_none_or(|gs| gs.sources.is_empty()),
        "entry must be deleted 3 refresh periods after its oifs emptied"
    );
}

#[test]
fn rejoin_during_linger_cancels_deletion() {
    let mut rib = OracleRib::empty(me());
    rib.insert(
        src_host(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: Addr::new(10, 0, 9, 1),
            metric: 1,
        },
    );
    let mut e = Engine::new(me(), 3, PimConfig::default());
    let join = JoinPrune {
        upstream_neighbor: me(),
        holdtime: 100,
        groups: vec![GroupEntry::join(g(), SourceEntry::source(src_host()))],
    };
    e.on_join_prune(t(0), IfaceId(2), Addr::new(10, 0, 5, 1), &join, &rib);
    e.tick(t(101), &rib); // oifs empty, delete_at armed
                          // A fresh join arrives during the linger window (its oif holds until
                          // t=250).
    e.on_join_prune(t(150), IfaceId(2), Addr::new(10, 0, 5, 1), &join, &rib);
    e.tick(t(240), &rib);
    let entry = &e.group_state(g()).unwrap().sources[&src_host()];
    assert!(
        entry.oifs().contains_key(&IfaceId(2)),
        "rejoin must revive the entry"
    );
    assert_eq!(entry.delete_at(), None);
}

#[test]
fn local_member_left_removes_oifs_everywhere() {
    let mut rib = OracleRib::empty(me());
    rib.insert(
        rp1(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp1(),
            metric: 1,
        },
    );
    rib.insert(
        src_host(),
        RouteEntry {
            iface: IfaceId(2),
            next_hop: Addr::new(10, 0, 9, 1),
            metric: 1,
        },
    );
    let mut e = Engine::new(me(), 3, PimConfig::default());
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp1()]);
    e.local_member_joined(t(0), g(), IfaceId(0), &rib);
    // SPT switch for a remote source mirrors the member oif into (S,G).
    let remote_src = Addr::new(10, 0, 9, 10);
    rib.insert(
        remote_src,
        RouteEntry {
            iface: IfaceId(2),
            next_hop: Addr::new(10, 0, 9, 1),
            metric: 2,
        },
    );
    e.on_data(t(10), IfaceId(1), remote_src, g(), b"d", &rib);
    assert!(e.group_state(g()).unwrap().sources[&remote_src]
        .oifs()
        .contains_key(&IfaceId(0)));

    let out = e.local_member_left(t(50), g(), IfaceId(0));
    let gs = e.group_state(g()).unwrap();
    assert!(!gs.star.as_ref().unwrap().oifs().contains_key(&IfaceId(0)));
    assert!(!gs.sources[&remote_src].oifs().contains_key(&IfaceId(0)));
    assert!(
        gs.star.as_ref().unwrap().rp_timer().is_none(),
        "no members → no RP-timer"
    );
    // With everything empty, prunes go upstream.
    assert!(out.iter().any(|o| matches!(
        o,
        Action::Control {
            msg: Message::PimJoinPrune(_),
            ..
        }
    )));
}

#[test]
fn star_oif_expiry_cascades_to_copied_spt_oifs() {
    // An intermediate router with (*,G) oif from a downstream join, plus an
    // (S,G) entry that copied that oif.
    let mut rib = OracleRib::empty(me());
    rib.insert(
        rp1(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp1(),
            metric: 1,
        },
    );
    rib.insert(
        src_host(),
        RouteEntry {
            iface: IfaceId(2),
            next_hop: Addr::new(10, 0, 9, 1),
            metric: 1,
        },
    );
    let mut e = Engine::new(me(), 3, PimConfig::default());
    let down = Addr::new(10, 0, 5, 1);
    let star_join = JoinPrune {
        upstream_neighbor: me(),
        holdtime: 100,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp1()))],
    };
    e.on_join_prune(t(0), IfaceId(0), down, &star_join, &rib);
    let src_join = JoinPrune {
        upstream_neighbor: me(),
        holdtime: 400,
        groups: vec![GroupEntry::join(g(), SourceEntry::source(src_host()))],
    };
    // The (S,G) join arrives on a *different* iface; the (*,G) oif is
    // copied into the entry as CopiedFromStar.
    e.on_join_prune(t(1), IfaceId(1), Addr::new(10, 0, 6, 1), &src_join, &rib);
    {
        let sg = &e.group_state(g()).unwrap().sources[&src_host()];
        assert_eq!(sg.oifs()[&IfaceId(0)].kind, OifKind::CopiedFromStar);
    }
    // The (*,G) oif lapses (no refresh): the copied oif must go with it.
    e.tick(t(150), &rib);
    let gs = e.group_state(g()).unwrap();
    assert!(gs
        .star
        .as_ref()
        .is_none_or(|s| !s.oifs().contains_key(&IfaceId(0))));
    assert!(
        !gs.sources[&src_host()].oifs().contains_key(&IfaceId(0)),
        "copied oifs follow the shared tree's lapses"
    );
    // The explicitly-joined oif survives.
    assert!(gs.sources[&src_host()].oifs().contains_key(&IfaceId(1)));
}

// ---------------------------------------------------------------------
// Register payload integrity and state at the RP
// ---------------------------------------------------------------------

#[test]
fn register_payload_is_forwarded_verbatim() {
    let mut rib = OracleRib::empty(rp1());
    rib.insert(
        src_host(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: me(),
            metric: 2,
        },
    );
    let mut e = Engine::new(rp1(), 2, PimConfig::default());
    e.set_rp_mapping(g(), vec![rp1()]);
    let join = JoinPrune {
        upstream_neighbor: rp1(),
        holdtime: 300,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp1()))],
    };
    e.on_join_prune(t(0), IfaceId(0), Addr::new(10, 0, 2, 1), &join, &rib);
    let payload = vec![0xAB; 100];
    let out = e.on_register(
        t(5),
        &Register {
            group: g(),
            source: src_host(),
            payload: payload.clone(),
        },
        &rib,
    );
    assert!(out.iter().any(|o| matches!(
        o,
        Action::ForwardDecapsulated { payload: p, source, .. } if *p == payload && *source == src_host()
    )));
}

#[test]
fn second_register_does_not_rejoin() {
    let mut rib = OracleRib::empty(rp1());
    rib.insert(
        src_host(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: me(),
            metric: 2,
        },
    );
    let mut e = Engine::new(rp1(), 2, PimConfig::default());
    e.set_rp_mapping(g(), vec![rp1()]);
    let join = JoinPrune {
        upstream_neighbor: rp1(),
        holdtime: 300,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp1()))],
    };
    e.on_join_prune(t(0), IfaceId(0), Addr::new(10, 0, 2, 1), &join, &rib);
    let reg = Register {
        group: g(),
        source: src_host(),
        payload: b"x".to_vec(),
    };
    let out1 = e.on_register(t(5), &reg, &rib);
    let joins1 = out1
        .iter()
        .filter(|o| {
            matches!(
                o,
                Action::Control {
                    msg: Message::PimJoinPrune(_),
                    ..
                }
            )
        })
        .count();
    assert_eq!(joins1, 1, "first register triggers the (S,G) join");
    let out2 = e.on_register(t(6), &reg, &rib);
    let joins2 = out2
        .iter()
        .filter(|o| {
            matches!(
                o,
                Action::Control {
                    msg: Message::PimJoinPrune(_),
                    ..
                }
            )
        })
        .count();
    assert_eq!(joins2, 0, "further registers must not re-trigger the join");
}

// ---------------------------------------------------------------------
// LAN pending-prune mechanics
// ---------------------------------------------------------------------

#[test]
fn pending_prune_executes_via_tick_not_immediately() {
    let mut rib = OracleRib::empty(me());
    rib.insert(
        rp1(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp1(),
            metric: 1,
        },
    );
    let mut e = Engine::new(me(), 2, PimConfig::default());
    e.set_lan(IfaceId(0));
    let down = Addr::new(10, 0, 5, 1);
    let join = JoinPrune {
        upstream_neighbor: me(),
        holdtime: 300,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp1()))],
    };
    e.on_join_prune(t(0), IfaceId(0), down, &join, &rib);
    let prune = JoinPrune {
        upstream_neighbor: me(),
        holdtime: 300,
        groups: vec![GroupEntry::prune(g(), SourceEntry::shared_tree(rp1()))],
    };
    e.on_join_prune(t(10), IfaceId(0), down, &prune, &rib);
    // Before the override window closes, ticks do nothing.
    e.tick(t(12), &rib);
    assert!(e
        .group_state(g())
        .unwrap()
        .star
        .as_ref()
        .unwrap()
        .oifs()
        .contains_key(&IfaceId(0)));
    // After it closes, the prune lands.
    e.tick(t(15), &rib);
    assert!(!e
        .group_state(g())
        .unwrap()
        .star
        .as_ref()
        .unwrap()
        .oifs()
        .contains_key(&IfaceId(0)));
}

#[test]
fn p2p_prune_is_immediate() {
    let mut rib = OracleRib::empty(me());
    rib.insert(
        rp1(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp1(),
            metric: 1,
        },
    );
    let mut e = Engine::new(me(), 2, PimConfig::default());
    // iface 0 NOT marked as LAN.
    let down = Addr::new(10, 0, 5, 1);
    let join = JoinPrune {
        upstream_neighbor: me(),
        holdtime: 300,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp1()))],
    };
    e.on_join_prune(t(0), IfaceId(0), down, &join, &rib);
    let prune = JoinPrune {
        upstream_neighbor: me(),
        holdtime: 300,
        groups: vec![GroupEntry::prune(g(), SourceEntry::shared_tree(rp1()))],
    };
    e.on_join_prune(t(10), IfaceId(0), down, &prune, &rib);
    assert!(
        !e.group_state(g())
            .unwrap()
            .star
            .as_ref()
            .unwrap()
            .oifs()
            .contains_key(&IfaceId(0)),
        "point-to-point prunes take effect immediately (no override possible)"
    );
}

// ---------------------------------------------------------------------
// DR election timing
// ---------------------------------------------------------------------

#[test]
fn dr_role_returns_when_higher_neighbor_expires() {
    let mut e = Engine::new(me(), 2, PimConfig::default());
    let rib = OracleRib::empty(me());
    e.on_query(
        t(0),
        IfaceId(0),
        Addr::new(10, 0, 200, 1),
        &Query { holdtime: 50 },
    );
    assert!(!e.is_dr(IfaceId(0)));
    // Refreshes keep the neighbor alive.
    e.on_query(
        t(40),
        IfaceId(0),
        Addr::new(10, 0, 200, 1),
        &Query { holdtime: 50 },
    );
    e.tick(t(60), &rib);
    assert!(!e.is_dr(IfaceId(0)));
    // Silence past the holdtime: DR again.
    e.tick(t(95), &rib);
    assert!(e.is_dr(IfaceId(0)));
}

#[test]
fn wildcard_join_reroots_shared_tree_toward_new_rp() {
    // §3.9 propagation: an upstream router whose (*,G) names the dead RP
    // re-roots when a downstream join names the alternate.
    let mut rib = OracleRib::empty(me());
    rib.insert(
        rp1(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp1(),
            metric: 1,
        },
    );
    rib.insert(
        rp2(),
        RouteEntry {
            iface: IfaceId(2),
            next_hop: rp2(),
            metric: 2,
        },
    );
    let mut e = Engine::new(me(), 3, PimConfig::default());
    let down = Addr::new(10, 0, 5, 1);
    let join1 = JoinPrune {
        upstream_neighbor: me(),
        holdtime: 300,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp1()))],
    };
    e.on_join_prune(t(0), IfaceId(0), down, &join1, &rib);
    assert_eq!(
        e.group_state(g()).unwrap().star.as_ref().unwrap().key,
        rp1()
    );
    // The downstream failed over; its refresh now names rp2.
    let join2 = JoinPrune {
        upstream_neighbor: me(),
        holdtime: 300,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp2()))],
    };
    let out = e.on_join_prune(t(50), IfaceId(0), down, &join2, &rib);
    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert_eq!(star.key, rp2());
    assert_eq!(star.iif, Some(IfaceId(2)));
    assert_eq!(star.upstream, Some(rp2()));
    // And a triggered join flows toward the new RP.
    assert!(out.iter().any(|o| matches!(
        o,
        Action::Control { ifaces, msg: Message::PimJoinPrune(jp), .. }
            if *ifaces == IfaceId(2).into()
                && jp.groups[0].joins == vec![SourceEntry::shared_tree(rp2())]
    )));
}

// ---------------------------------------------------------------------
// The indexed wakeup deadline
// ---------------------------------------------------------------------

/// One random call into the engine's public `&mut` surface. `a` and `b`
/// pick among a few interfaces, groups, sources and neighbours so calls
/// collide on the same state; the rib can be flipped between two routes
/// to the remote source so `on_route_change` has something to repair.
fn engine_step(e: &mut Engine, rib: &mut OracleRib, now: SimTime, op: u8, a: u8, b: u8) {
    let groups = [g(), Group::test(2)];
    let group = groups[(a % 2) as usize];
    // Group 1 is rooted at a remote RP, group 2 at this router.
    let rp = if group == g() { rp1() } else { me() };
    let remote_src = Addr::new(10, 0, 9, 10);
    let neighbours = [rp1(), rp2(), Addr::new(10, 0, 7, 1)];
    let nbr = neighbours[(b % 3) as usize];
    let iface = IfaceId(1 + (b % 3) as u32);
    let entries = [
        SourceEntry::shared_tree(rp),
        SourceEntry::source(remote_src),
        SourceEntry::source_on_rp_tree(remote_src),
        SourceEntry::source(src_host()),
        SourceEntry::source_on_rp_tree(src_host()),
    ];
    let entry = entries[(a / 2 % 5) as usize];
    let jp = |upstream, ge| JoinPrune {
        upstream_neighbor: upstream,
        holdtime: [3, 40, 180][(a % 3) as usize],
        groups: vec![ge],
    };
    match op {
        0 => drop(e.local_member_joined(now, group, IfaceId(0), rib)),
        1 => drop(e.local_member_left(now, group, IfaceId(0))),
        2 => drop(e.on_join_prune(
            now,
            iface,
            nbr,
            &jp(me(), GroupEntry::join(group, entry)),
            rib,
        )),
        3 => drop(e.on_join_prune(
            now,
            iface,
            nbr,
            &jp(me(), GroupEntry::prune(group, entry)),
            rib,
        )),
        4 => drop(e.on_join_prune(
            now,
            iface,
            nbr,
            &jp(rp2(), GroupEntry::join(group, entry)),
            rib,
        )),
        5 => drop(e.on_join_prune(
            now,
            iface,
            nbr,
            &jp(rp2(), GroupEntry::prune(group, entry)),
            rib,
        )),
        6 => drop(e.on_query(
            now,
            iface,
            nbr,
            &Query {
                holdtime: 7 + 20 * a as u16,
            },
        )),
        7 => {
            let reg = Register {
                group,
                source: remote_src,
                payload: vec![a, b],
            };
            drop(e.on_register(now, &reg, rib));
        }
        // Data on and off the incoming interface, known and unknown sources.
        8 | 9 => drop(e.on_data(
            now,
            iface,
            [remote_src, src_host()][(a / 2 % 2) as usize],
            group,
            b"d",
            rib,
        )),
        10 => drop(e.on_local_data(now, IfaceId(0), src_host(), group, b"d", rib)),
        11 => {
            let via = [IfaceId(2), IfaceId(1)][(b % 2) as usize];
            rib.insert(
                remote_src,
                RouteEntry {
                    iface: via,
                    next_hop: neighbours[via.index() - 1],
                    metric: 2,
                },
            );
            drop(e.on_route_change(now, remote_src, rib));
        }
        12 | 15 => drop(e.tick(now, rib)),
        13 if a == 0 => e.reset(),
        13 if a == 1 => drop(e.add_iface()),
        13 => {
            let reach = RpReachability {
                group,
                rp,
                holdtime: 40,
            };
            drop(e.on_rp_reachability(now, iface, &reach));
        }
        14 => e.set_rp_mapping(
            group,
            [vec![rp], vec![rp, rp2()], vec![rp2()]][(b % 3) as usize].clone(),
        ),
        _ => unreachable!("op is drawn from 0..16"),
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

    /// Whatever is called, in whatever order, the deadline read off the
    /// index is the one a walk of all state finds — and each index holds
    /// exactly its class's deadlines, so nothing a deleted entry, an
    /// expired neighbour, a cancelled prune or a reset owned is left
    /// behind to wake the router for nothing. Spelled out here because
    /// `next_deadline`'s own `debug_assert` is compiled out of
    /// release-profile test runs.
    #[test]
    fn indexed_deadline_is_the_scanned_deadline(
        steps in proptest::prop::collection::vec((0u8..16, 0u8..20, 0u8..6, 0usize..6), 1..120),
    ) {
        // The periodic schedule is pushed far out and the per-entry
        // timers pulled in, so the earliest deadline is usually one a
        // join, prune, hello or packet just moved, not the next query.
        let cfg = PimConfig {
            query_interval: Duration(5000),
            refresh_period: Duration(5000),
            rp_reach_period: Duration(5000),
            rp_timeout: Duration(40),
            entry_linger: Duration(25),
            ..PimConfig::default()
        };
        let (_, mut rib) = sender_dr();
        let mut e = Engine::new(me(), 4, cfg);
        e.set_host_lan(IfaceId(0));
        e.set_lan(IfaceId(3));
        e.register_local_host(src_host(), IfaceId(0));
        e.set_rp_mapping(g(), vec![rp1(), rp2()]);
        e.set_rp_mapping(Group::test(2), vec![me()]);
        let mut now = 0;
        for (op, a, b, dt) in steps {
            now += [0, 1, 4, 30, 100, 400][dt];
            engine_step(&mut e, &mut rib, t(now), op, a, b);
            e.assert_deadlines_indexed();
        }
    }
}
