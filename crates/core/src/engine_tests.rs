//! Sans-IO unit tests for the PIM engine, exercising each paper behavior
//! directly (no simulator involved).
//!
//! The fixture topology, in routes only:
//!
//! ```text
//!   host R ── [A] ──if1── [B] ──if1── [C=RP] ──if1── [D] ──if1── host S
//!  (iface 0)                                                (iface 0... )
//! ```
//!
//! plus a "side" path giving A a direct shortest path to S that bypasses
//! the RP (A iface 2), so the SPT divergence logic is exercised.

use crate::config::{PimConfig, SptPolicy};
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

fn a() -> Addr {
    Addr::new(10, 0, 1, 1)
}
fn b() -> Addr {
    Addr::new(10, 0, 2, 1)
}
fn rp() -> Addr {
    Addr::new(10, 0, 3, 1)
}
fn rp2() -> Addr {
    Addr::new(10, 0, 8, 1)
}
fn d() -> Addr {
    Addr::new(10, 0, 4, 1)
}
fn src() -> Addr {
    Addr::new(10, 0, 4, 10) // host S behind D
}

fn t(ticks: u64) -> SimTime {
    SimTime(ticks)
}

/// Routes for router A: RP via iface 1 (next hop b), source via iface 2
/// (a shortcut that diverges from the RP path).
fn rib_a() -> OracleRib {
    let mut r = OracleRib::empty(a());
    r.insert(
        rp(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: b(),
            metric: 2,
        },
    );
    r.insert(
        rp2(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: b(),
            metric: 4,
        },
    );
    r.insert(
        b(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: b(),
            metric: 1,
        },
    );
    r.insert(
        d(),
        RouteEntry {
            iface: IfaceId(2),
            next_hop: d(),
            metric: 1,
        },
    );
    r.insert(
        src(),
        RouteEntry {
            iface: IfaceId(2),
            next_hop: d(),
            metric: 2,
        },
    );
    r
}

/// Routes for router B (between A and the RP): RP via iface 1, A via 0.
fn rib_b() -> OracleRib {
    let mut r = OracleRib::empty(b());
    r.insert(
        rp(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp(),
            metric: 1,
        },
    );
    r.insert(
        a(),
        RouteEntry {
            iface: IfaceId(0),
            next_hop: a(),
            metric: 1,
        },
    );
    r.insert(
        src(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp(),
            metric: 3,
        },
    );
    r
}

/// Routes for the RP (C): source via iface 1 (through D).
fn rib_rp() -> OracleRib {
    let mut r = OracleRib::empty(rp());
    r.insert(
        src(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: d(),
            metric: 2,
        },
    );
    r.insert(
        d(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: d(),
            metric: 1,
        },
    );
    r.insert(
        a(),
        RouteEntry {
            iface: IfaceId(0),
            next_hop: b(),
            metric: 2,
        },
    );
    r
}

/// Routes for D (the source's DR): RP via iface 1. Host S is local on 0.
fn rib_d() -> OracleRib {
    let mut r = OracleRib::empty(d());
    r.insert(
        rp(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp(),
            metric: 1,
        },
    );
    r.insert(
        rp2(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp(),
            metric: 3,
        },
    );
    r
}

/// Receiver-side DR with a local member already joined.
fn dr_with_member() -> (Engine, OracleRib) {
    let rib = rib_a();
    let mut e = Engine::new(a(), 3, PimConfig::default());
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp()]);
    e.local_member_joined(t(0), g(), IfaceId(0), &rib);
    (e, rib)
}

fn sent_join_prunes(out: &[Action]) -> Vec<&JoinPrune> {
    out.iter()
        .filter_map(|o| match o {
            Action::Control {
                msg: Message::PimJoinPrune(jp),
                ..
            } => Some(jp),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------
// §3.1/§3.2 — joining the shared tree
// ---------------------------------------------------------------------

#[test]
fn member_join_creates_star_and_sends_shared_tree_join() {
    let rib = rib_a();
    let mut e = Engine::new(a(), 3, PimConfig::default());
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp()]);
    let out = e.local_member_joined(t(0), g(), IfaceId(0), &rib);

    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert!(star.wildcard && star.rp_bit);
    assert_eq!(star.key, rp());
    assert_eq!(star.iif, Some(IfaceId(1)));
    assert_eq!(star.upstream, Some(b()));
    assert!(star.rp_timer().is_some(), "§3.1: DR sets an RP-timer");
    assert_eq!(star.oifs()[&IfaceId(0)].kind, OifKind::LocalMembers);

    // The triggered §3.2 join payload: join={RP, RPbit, WCbit}, prune=NULL.
    let jps = sent_join_prunes(&out);
    assert_eq!(jps.len(), 1);
    assert_eq!(jps[0].upstream_neighbor, b());
    let ge = &jps[0].groups[0];
    assert_eq!(ge.group, g());
    assert_eq!(ge.joins, vec![SourceEntry::shared_tree(rp())]);
    assert!(ge.prunes.is_empty());
    match &out[0] {
        Action::Control {
            ifaces, dst, ttl, ..
        } => {
            assert_eq!(*ifaces, IfaceId(1).into());
            assert_eq!(*dst, Addr::ALL_PIM_ROUTERS);
            assert_eq!(*ttl, 1);
        }
        other => panic!("expected Send, got {other:?}"),
    }
}

#[test]
fn no_rp_mapping_means_not_sparse_mode() {
    let rib = rib_a();
    let mut e = Engine::new(a(), 3, PimConfig::default());
    let out = e.local_member_joined(t(0), g(), IfaceId(0), &rib);
    assert!(out.is_empty());
    assert!(e.group_state(g()).is_none());
}

#[test]
fn intermediate_router_propagates_join_upstream() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    // A's join arrives on iface 0, addressed to us.
    let jp = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    let out = e.on_join_prune(t(1), IfaceId(0), a(), &jp, &rib);

    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert_eq!(star.iif, Some(IfaceId(1)));
    assert_eq!(star.upstream, Some(rp()));
    assert_eq!(star.oifs()[&IfaceId(0)].kind, OifKind::Joined);

    // "Each upstream router between the receiver and the RP sends a PIM
    // join message in which the join list includes the RP" (§3.2).
    let jps = sent_join_prunes(&out);
    assert_eq!(jps.len(), 1);
    assert_eq!(jps[0].upstream_neighbor, rp());
    assert_eq!(jps[0].groups[0].joins, vec![SourceEntry::shared_tree(rp())]);
}

#[test]
fn rp_recognizes_itself_and_stops_propagation() {
    let rib = rib_rp();
    let mut e = Engine::new(rp(), 2, PimConfig::default());
    e.set_rp_mapping(g(), vec![rp()]);
    let jp = JoinPrune {
        upstream_neighbor: rp(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    let out = e.on_join_prune(t(1), IfaceId(0), b(), &jp, &rib);
    assert!(
        sent_join_prunes(&out).is_empty(),
        "RP must not join upstream"
    );
    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert_eq!(star.iif, None, "§3.2: RP's (*,G) iif is null");
}

#[test]
fn join_arriving_on_iif_is_ignored() {
    let (mut e, rib) = dr_with_member();
    let jp = JoinPrune {
        upstream_neighbor: a(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(1), IfaceId(1), b(), &jp, &rib); // iface 1 is the iif
    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert!(
        !star.oifs().contains_key(&IfaceId(1)),
        "oif on iif would loop"
    );
}

#[test]
fn duplicate_join_refreshes_not_duplicates() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    let jp = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    let o1 = e.on_join_prune(t(1), IfaceId(0), a(), &jp, &rib);
    assert!(!sent_join_prunes(&o1).is_empty());
    let o2 = e.on_join_prune(t(50), IfaceId(0), a(), &jp, &rib);
    assert!(
        sent_join_prunes(&o2).is_empty(),
        "refresh is not re-triggered"
    );
    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert_eq!(star.oifs()[&IfaceId(0)].expires_at, t(50 + 180));
}

// ---------------------------------------------------------------------
// §3 — register path
// ---------------------------------------------------------------------

#[test]
fn source_dr_registers_to_rp() {
    let rib = rib_d();
    let mut e = Engine::new(d(), 2, PimConfig::default());
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp()]);
    e.register_local_host(src(), IfaceId(0));
    let out = e.on_local_data(t(5), IfaceId(0), src(), g(), b"pkt0", &rib);
    assert_eq!(out.len(), 1);
    match &out[0] {
        Action::Control {
            ifaces,
            dst,
            msg: Message::PimRegister(r),
            ..
        } => {
            assert_eq!(*ifaces, IfaceId(1).into());
            assert_eq!(*dst, rp());
            assert_eq!(r.group, g());
            assert_eq!(r.source, src());
            assert_eq!(r.payload, b"pkt0");
        }
        other => panic!("expected Register, got {other:?}"),
    }
    assert_eq!(e.registers_sent, 1);
}

#[test]
fn rp_with_receivers_decapsulates_and_joins_source() {
    let rib = rib_rp();
    let mut e = Engine::new(rp(), 2, PimConfig::default());
    e.set_rp_mapping(g(), vec![rp()]);
    // A receiver join first (down iface 0).
    let jp = JoinPrune {
        upstream_neighbor: rp(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(1), IfaceId(0), b(), &jp, &rib);
    // Register arrives.
    let out = e.on_register(
        t(5),
        &Register {
            group: g(),
            source: src(),
            payload: b"pkt0".to_vec(),
        },
        &rib,
    );
    // Decapsulated data goes down the shared tree...
    assert!(out.iter().any(|o| matches!(
        o,
        Action::ForwardDecapsulated { ifaces, source, group, payload }
            if ifaces == &vec![IfaceId(0)] && *source == src() && *group == g() && payload == b"pkt0"
    )));
    // ...and the RP joins toward the source (fig 3 step 3).
    let jps = sent_join_prunes(&out);
    assert_eq!(jps.len(), 1);
    assert_eq!(jps[0].upstream_neighbor, d());
    assert_eq!(jps[0].groups[0].joins, vec![SourceEntry::source(src())]);
    // (S,G) at the RP: iif toward the source, oifs copied from (*,G).
    let e_sg = &e.group_state(g()).unwrap().sources[&src()];
    assert_eq!(e_sg.iif, Some(IfaceId(1)));
    assert!(e_sg.oifs().contains_key(&IfaceId(0)));
    assert_eq!(e.registers_received, 1);
}

#[test]
fn rp_without_receivers_drops_register() {
    let rib = rib_rp();
    let mut e = Engine::new(rp(), 2, PimConfig::default());
    e.set_rp_mapping(g(), vec![rp()]);
    let out = e.on_register(
        t(5),
        &Register {
            group: g(),
            source: src(),
            payload: b"pkt0".to_vec(),
        },
        &rib,
    );
    assert!(out.is_empty());
    // No (S,G) state created either.
    assert!(e.group_state(g()).is_none_or(|gs| gs.sources.is_empty()));
}

#[test]
fn non_rp_ignores_register() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    let out = e.on_register(
        t(5),
        &Register {
            group: g(),
            source: src(),
            payload: b"x".to_vec(),
        },
        &rib,
    );
    assert!(out.is_empty());
}

#[test]
fn source_dr_suppresses_registers_between_probes() {
    let rib = rib_d();
    let mut e = Engine::new(d(), 2, PimConfig::default());
    let probe_gap = e.config().register_probe_interval.ticks();
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp()]);
    e.register_local_host(src(), IfaceId(0));
    // The RP's join for (S,G) arrives on iface 1.
    let jp = JoinPrune {
        upstream_neighbor: d(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::source(src()))],
    };
    e.on_join_prune(t(3), IfaceId(1), rp(), &jp, &rib);
    let sg = &e.group_state(g()).unwrap().sources[&src()];
    assert!(sg.local_source);
    assert_eq!(sg.iif, Some(IfaceId(0)), "iif is the host subnetwork");

    let is_register = |o: &Action| {
        matches!(
            o,
            Action::Control {
                msg: Message::PimRegister(_),
                ..
            }
        )
    };
    // First native packet still registers once: native oifs only prove a
    // receiver's SPT join reached us, not that the RP holds the source,
    // so the DR probes on a slow clock (register_probe_interval).
    let out = e.on_local_data(t(5), IfaceId(0), src(), g(), b"pkt1", &rib);
    assert!(out.iter().any(is_register), "probe register");
    assert!(out.iter().any(|o| matches!(
        o,
        Action::Forward { ifaces, .. } if ifaces == &vec![IfaceId(1)]
    )));
    assert_eq!(e.registers_sent, 1);

    // Until the next probe is due, native forwarding suppresses registers
    // entirely — the steady-state claim of §3.
    for dt in [1, 2, probe_gap - 10] {
        let out = e.on_local_data(t(5 + dt), IfaceId(0), src(), g(), b"pkt", &rib);
        assert!(
            !out.iter().any(is_register),
            "native path exists: no registers between probes"
        );
        assert!(out.iter().any(|o| matches!(o, Action::Forward { .. })));
    }
    assert_eq!(e.registers_sent, 1);

    // Once the interval lapses, the next data packet re-registers.
    let out = e.on_local_data(t(5 + probe_gap), IfaceId(0), src(), g(), b"pkt", &rib);
    assert!(out.iter().any(is_register), "periodic probe register");
    assert_eq!(e.registers_sent, 2);
}

#[test]
fn non_dr_does_not_register() {
    let rib = rib_d();
    let mut e = Engine::new(d(), 2, PimConfig::default());
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp()]);
    e.register_local_host(src(), IfaceId(0));
    // A higher-addressed neighbor on iface 0 wins the DR election.
    e.on_query(
        t(0),
        IfaceId(0),
        Addr::new(10, 0, 200, 1),
        &Query { holdtime: 1000 },
    );
    assert!(!e.is_dr(IfaceId(0)));
    let out = e.on_local_data(t(5), IfaceId(0), src(), g(), b"pkt0", &rib);
    assert!(out.is_empty());
}

// ---------------------------------------------------------------------
// §3.3/§3.5 — SPT switchover and data forwarding
// ---------------------------------------------------------------------

/// Drive the receiver DR through: shared-tree data → (S,G) creation →
/// SPT data arrival → SPT bit set + prune toward RP.
#[test]
fn spt_switchover_full_sequence() {
    let (mut e, rib) = dr_with_member();

    // Data from S arrives via the shared tree (iface 1 = star iif).
    let out = e.on_data(t(10), IfaceId(1), src(), g(), b"d0", &rib);
    // Forwarded to the member subnetwork.
    assert!(out.iter().any(|o| matches!(
        o,
        Action::Forward { ifaces, .. } if ifaces == &vec![IfaceId(0)]
    )));
    // (Sn,G) created with SPT bit cleared and a join sent toward Sn (§3.3).
    let sg = &e.group_state(g()).unwrap().sources[&src()];
    assert!(!sg.spt_bit);
    assert_eq!(
        sg.iif,
        Some(IfaceId(2)),
        "iif toward the source, not the RP"
    );
    assert!(
        sg.oifs().contains_key(&IfaceId(0)),
        "oifs copied from (*,G)"
    );
    let jps = sent_join_prunes(&out);
    assert_eq!(jps.len(), 1);
    assert_eq!(jps[0].upstream_neighbor, d());
    assert_eq!(jps[0].groups[0].joins, vec![SourceEntry::source(src())]);

    // More data still arriving via the shared tree: §3.5 exception 1 —
    // forwarded according to (*,G).
    let out = e.on_data(t(12), IfaceId(1), src(), g(), b"d1", &rib);
    assert!(out
        .iter()
        .any(|o| matches!(o, Action::Forward { ifaces, .. } if ifaces == &vec![IfaceId(0)])));
    assert!(!e.group_state(g()).unwrap().sources[&src()].spt_bit);

    // First packet over the SPT interface: SPT bit set, prune {S,RPbit}
    // toward the RP (divergent interfaces).
    let out = e.on_data(t(14), IfaceId(2), src(), g(), b"d2", &rib);
    assert!(e.group_state(g()).unwrap().sources[&src()].spt_bit);
    assert!(out
        .iter()
        .any(|o| matches!(o, Action::Forward { ifaces, .. } if ifaces == &vec![IfaceId(0)])));
    let jps = sent_join_prunes(&out);
    assert_eq!(jps.len(), 1);
    assert_eq!(jps[0].upstream_neighbor, b(), "prune goes toward the RP");
    assert_eq!(
        jps[0].groups[0].prunes,
        vec![SourceEntry::source_on_rp_tree(src())]
    );

    // Once on the SPT, shared-tree arrivals of S fail the iif check.
    let out = e.on_data(t(16), IfaceId(1), src(), g(), b"d3", &rib);
    assert!(out.is_empty(), "iif check must drop shared-tree duplicates");
}

#[test]
fn spt_policy_never_stays_on_shared_tree() {
    let rib = rib_a();
    let mut e = Engine::new(a(), 3, PimConfig::shared_tree_only());
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp()]);
    e.local_member_joined(t(0), g(), IfaceId(0), &rib);
    for i in 0..20 {
        e.on_data(t(10 + i), IfaceId(1), src(), g(), b"d", &rib);
    }
    assert!(
        e.group_state(g()).unwrap().sources.is_empty(),
        "policy Never must not create (S,G)"
    );
}

#[test]
fn spt_policy_after_packets_counts_within_window() {
    let rib = rib_a();
    let mut e = Engine::new(
        a(),
        3,
        PimConfig {
            spt_policy: SptPolicy::AfterPackets {
                packets: 3,
                within: Duration(100),
            },
            ..PimConfig::default()
        },
    );
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp()]);
    e.local_member_joined(t(0), g(), IfaceId(0), &rib);
    e.on_data(t(10), IfaceId(1), src(), g(), b"d", &rib);
    e.on_data(t(20), IfaceId(1), src(), g(), b"d", &rib);
    assert!(e.group_state(g()).unwrap().sources.is_empty());
    e.on_data(t(30), IfaceId(1), src(), g(), b"d", &rib);
    assert!(e.group_state(g()).unwrap().sources.contains_key(&src()));
}

#[test]
fn spt_policy_after_packets_window_resets() {
    let rib = rib_a();
    let mut e = Engine::new(
        a(),
        3,
        PimConfig {
            spt_policy: SptPolicy::AfterPackets {
                packets: 3,
                within: Duration(100),
            },
            ..PimConfig::default()
        },
    );
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp()]);
    e.local_member_joined(t(0), g(), IfaceId(0), &rib);
    e.on_data(t(10), IfaceId(1), src(), g(), b"d", &rib);
    e.on_data(t(20), IfaceId(1), src(), g(), b"d", &rib);
    // Window lapses; the count restarts.
    e.on_data(t(200), IfaceId(1), src(), g(), b"d", &rib);
    e.on_data(t(210), IfaceId(1), src(), g(), b"d", &rib);
    assert!(e.group_state(g()).unwrap().sources.is_empty());
    e.on_data(t(220), IfaceId(1), src(), g(), b"d", &rib);
    assert!(e.group_state(g()).unwrap().sources.contains_key(&src()));
}

#[test]
fn data_without_state_is_dropped() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    let out = e.on_data(t(1), IfaceId(0), src(), g(), b"d", &rib);
    assert!(out.is_empty(), "sparse mode: no state, no forwarding");
}

#[test]
fn star_iif_check_drops_wrong_interface() {
    let (mut e, rib) = dr_with_member();
    let out = e.on_data(t(1), IfaceId(2), src(), g(), b"d", &rib);
    // iface 2 is not the (*,G) iif (iface 1) and there is no (S,G) yet.
    assert!(out.is_empty());
}

// ---------------------------------------------------------------------
// §3.3 footnote 11 / §3.4 — negative caches on the RP tree
// ---------------------------------------------------------------------

/// Router B (on the shared tree between A and the RP) receives A's prune
/// {S, RPbit}: it builds a negative cache and, since A was its only
/// downstream, propagates the prune toward the RP.
#[test]
fn negative_cache_created_and_propagated() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    // Shared tree: A joined through us.
    let join = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(1), IfaceId(0), a(), &join, &rib);
    // A pruned S off the shared tree.
    let prune = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::prune(
            g(),
            SourceEntry::source_on_rp_tree(src()),
        )],
    };
    let out = e.on_join_prune(t(2), IfaceId(0), a(), &prune, &rib);

    let neg = &e.group_state(g()).unwrap().sources[&src()];
    assert!(neg.is_negative());
    assert_eq!(
        neg.iif,
        Some(IfaceId(1)),
        "negative cache shares the RP-tree iif"
    );
    assert!(!neg.oifs().contains_key(&IfaceId(0)), "pruned oif removed");
    assert!(neg.pruned_oifs().contains_key(&IfaceId(0)));

    // All downstream branches pruned → propagate toward the RP.
    let jps = sent_join_prunes(&out);
    assert_eq!(jps.len(), 1);
    assert_eq!(jps[0].upstream_neighbor, rp());
    assert_eq!(
        jps[0].groups[0].prunes,
        vec![SourceEntry::source_on_rp_tree(src())]
    );
}

#[test]
fn negative_cache_drops_matching_data_to_pruned_oifs_only() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 3, PimConfig::default());
    // Two downstream branches.
    let join = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(1), IfaceId(0), a(), &join, &rib);
    e.on_join_prune(t(1), IfaceId(2), Addr::new(10, 0, 9, 1), &join, &rib);
    // Branch on iface 0 prunes S.
    let prune = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::prune(
            g(),
            SourceEntry::source_on_rp_tree(src()),
        )],
    };
    let out = e.on_join_prune(t(2), IfaceId(0), a(), &prune, &rib);
    assert!(
        sent_join_prunes(&out).is_empty(),
        "iface 2 still wants S via the shared tree: no upstream prune"
    );

    // S's data from the RP tree goes only to iface 2 now.
    let out = e.on_data(t(3), IfaceId(1), src(), g(), b"d", &rib);
    assert!(out.iter().any(|o| matches!(
        o,
        Action::Forward { ifaces, .. } if ifaces == &vec![IfaceId(2)]
    )));
    // Another source's data still reaches both branches via (*,G).
    let other_src = Addr::new(10, 0, 5, 10);
    let out = e.on_data(t(4), IfaceId(1), other_src, g(), b"d", &rib);
    assert!(out.iter().any(|o| matches!(
        o,
        Action::Forward { ifaces, .. } if ifaces == &vec![IfaceId(0), IfaceId(2)]
    )));
}

#[test]
fn rejoin_cancels_negative_cache() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    let join = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(1), IfaceId(0), a(), &join, &rib);
    let prune = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::prune(
            g(),
            SourceEntry::source_on_rp_tree(src()),
        )],
    };
    e.on_join_prune(t(2), IfaceId(0), a(), &prune, &rib);
    assert!(e.group_state(g()).unwrap().sources[&src()].is_negative());
    // A rejoins S on the shared tree (join with RP bit).
    let rejoin = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::source_on_rp_tree(src()))],
    };
    e.on_join_prune(t(3), IfaceId(0), a(), &rejoin, &rib);
    assert!(
        !e.group_state(g()).unwrap().sources.contains_key(&src()),
        "negative cache with nothing pruned is dropped"
    );
}

#[test]
fn negative_cache_expires_without_prune_refresh() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    let join = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(1), IfaceId(0), a(), &join, &rib);
    let prune = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 60,
        groups: vec![GroupEntry::prune(
            g(),
            SourceEntry::source_on_rp_tree(src()),
        )],
    };
    e.on_join_prune(t(2), IfaceId(0), a(), &prune, &rib);
    assert!(e.group_state(g()).unwrap().sources.contains_key(&src()));
    // Footnote 13: kept alive by receipt of prunes — none arrive.
    e.tick(t(100), &rib);
    assert!(
        !e.group_state(g()).unwrap().sources.contains_key(&src()),
        "unrefreshed negative cache must lapse"
    );
    // The (*,G) survives.
    assert!(e.group_state(g()).unwrap().star.is_some());
}

// ---------------------------------------------------------------------
// §3.6 — timers
// ---------------------------------------------------------------------

#[test]
fn oif_expiry_prunes_upstream_and_deletes_entry() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    let join = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 100,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(0), IfaceId(0), a(), &join, &rib);
    // No refresh: oif lapses at t=100.
    let out = e.tick(t(101), &rib);
    let jps = sent_join_prunes(&out);
    assert!(
        jps.iter().any(|jp| jp.upstream_neighbor == rp()
            && jp
                .groups
                .iter()
                .any(|ge| ge.prunes.contains(&SourceEntry::shared_tree(rp())))),
        "null oif list triggers an upstream prune (§3.6): {out:?}"
    );
    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert!(star.oifs_empty());
    assert!(star.delete_at().is_some());
    // "The entry is deleted after 3 times the refresh period."
    e.tick(t(101 + 181), &rib);
    assert!(e.group_state(g()).is_none_or(|gs| gs.star.is_none()));
}

#[test]
fn periodic_refresh_sends_joins() {
    let (mut e, rib) = dr_with_member();
    // First tick at the refresh period boundary.
    let out = e.tick(t(60), &rib);
    let jps = sent_join_prunes(&out);
    assert!(jps.iter().any(|jp| jp.upstream_neighbor == b()
        && jp.groups[0].joins == vec![SourceEntry::shared_tree(rp())]));
}

#[test]
fn periodic_refresh_aggregates_per_upstream() {
    let (mut e, rib) = dr_with_member();
    // Add an SPT entry toward d() via the §3.3 switch.
    e.on_data(t(10), IfaceId(1), src(), g(), b"d", &rib);
    e.on_data(t(11), IfaceId(2), src(), g(), b"d", &rib); // sets SPT bit, prunes shared
    let out = e.tick(t(70), &rib);
    let jps = sent_join_prunes(&out);
    // Two upstream neighbors: b() (shared join + S prune) and d() (S join).
    let to_b: Vec<_> = jps
        .iter()
        .filter(|jp| jp.upstream_neighbor == b())
        .collect();
    let to_d: Vec<_> = jps
        .iter()
        .filter(|jp| jp.upstream_neighbor == d())
        .collect();
    assert_eq!(
        to_b.len(),
        1,
        "one aggregated message per upstream: {jps:?}"
    );
    assert_eq!(to_d.len(), 1);
    let ge_b = &to_b[0].groups[0];
    assert!(ge_b.joins.contains(&SourceEntry::shared_tree(rp())));
    assert!(ge_b.prunes.contains(&SourceEntry::source_on_rp_tree(src())));
    assert_eq!(to_d[0].groups[0].joins, vec![SourceEntry::source(src())]);
}

#[test]
fn refresh_keeps_oifs_alive() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    let join = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 100,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    for tt in [0u64, 80, 160, 240] {
        e.on_join_prune(t(tt), IfaceId(0), a(), &join, &rib);
        e.tick(t(tt + 40), &rib);
    }
    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert!(star.oifs().contains_key(&IfaceId(0)));
}

// ---------------------------------------------------------------------
// §3.7 — multi-access subnetworks
// ---------------------------------------------------------------------

#[test]
fn dr_election_highest_address_wins() {
    let mut e = Engine::new(b(), 2, PimConfig::default());
    assert!(e.is_dr(IfaceId(0)), "no neighbors: trivially DR");
    e.on_query(
        t(0),
        IfaceId(0),
        Addr::new(10, 0, 99, 1),
        &Query { holdtime: 50 },
    );
    assert!(!e.is_dr(IfaceId(0)));
    e.on_query(
        t(0),
        IfaceId(0),
        Addr::new(10, 0, 1, 1),
        &Query { holdtime: 50 },
    );
    assert!(!e.is_dr(IfaceId(0)), "highest neighbor still wins");
    assert_eq!(e.neighbors_on(IfaceId(0)).len(), 2);
    // Neighbor holdtime lapses: we become DR again.
    e.tick(t(100), &rib_b());
    assert!(e.is_dr(IfaceId(0)));
    assert!(e.neighbors_on(IfaceId(0)).is_empty());
}

#[test]
fn lan_prune_held_for_override_window() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    e.set_lan(IfaceId(0));
    let join = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(0), IfaceId(0), a(), &join, &rib);
    let prune = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::prune(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(10), IfaceId(0), a(), &prune, &rib);
    // Within the override window the oif survives.
    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert!(star.oifs().contains_key(&IfaceId(0)));
    // After the window (default 4 ticks) it goes.
    e.tick(t(15), &rib);
    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert!(!star.oifs().contains_key(&IfaceId(0)));
}

#[test]
fn join_within_window_cancels_lan_prune() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    e.set_lan(IfaceId(0));
    let join = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(0), IfaceId(0), a(), &join, &rib);
    let prune = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 180,
        groups: vec![GroupEntry::prune(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(10), IfaceId(0), a(), &prune, &rib);
    // Another router overrides with a join before the window closes.
    e.on_join_prune(t(12), IfaceId(0), Addr::new(10, 0, 9, 1), &join, &rib);
    e.tick(t(20), &rib);
    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert!(
        star.oifs().contains_key(&IfaceId(0)),
        "overriding join must cancel the pending prune"
    );
}

#[test]
fn overheard_prune_triggers_override_join() {
    // Router X on a LAN: its (*,G) iif is the LAN; it overhears another
    // router's prune addressed to the shared upstream and must object.
    let mut rib = OracleRib::empty(b());
    rib.insert(
        rp(),
        RouteEntry {
            iface: IfaceId(0),
            next_hop: rp(),
            metric: 1,
        },
    );
    let mut e = Engine::new(b(), 2, PimConfig::default());
    e.set_lan(IfaceId(0));
    e.set_host_lan(IfaceId(1));
    e.set_rp_mapping(g(), vec![rp()]);
    e.local_member_joined(t(0), g(), IfaceId(1), &rib);
    // Overheard: peer router prunes (*,G) from the shared upstream rp().
    let prune = JoinPrune {
        upstream_neighbor: rp(),
        holdtime: 180,
        groups: vec![GroupEntry::prune(g(), SourceEntry::shared_tree(rp()))],
    };
    let out = e.on_join_prune(t(5), IfaceId(0), Addr::new(10, 0, 9, 1), &prune, &rib);
    let jps = sent_join_prunes(&out);
    assert_eq!(jps.len(), 1, "must send an overriding join: {out:?}");
    assert_eq!(jps[0].upstream_neighbor, rp());
    assert_eq!(jps[0].groups[0].joins, vec![SourceEntry::shared_tree(rp())]);
}

#[test]
fn overheard_join_suppresses_periodic() {
    let mut rib = OracleRib::empty(b());
    rib.insert(
        rp(),
        RouteEntry {
            iface: IfaceId(0),
            next_hop: rp(),
            metric: 1,
        },
    );
    let mut e = Engine::new(b(), 2, PimConfig::default());
    e.set_lan(IfaceId(0));
    e.set_host_lan(IfaceId(1));
    e.set_rp_mapping(g(), vec![rp()]);
    e.local_member_joined(t(0), g(), IfaceId(1), &rib);
    // A peer's identical join to the same upstream, overheard at t=55.
    let join = JoinPrune {
        upstream_neighbor: rp(),
        holdtime: 180,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(55), IfaceId(0), Addr::new(10, 0, 9, 1), &join, &rib);
    // Our refresh at t=60 is suppressed.
    let out = e.tick(t(60), &rib);
    assert!(
        sent_join_prunes(&out)
            .iter()
            .all(|jp| jp.groups.iter().all(|ge| ge.joins.is_empty())),
        "suppressed join must not be sent: {out:?}"
    );
    // But a later refresh (suppression lapsed) resumes.
    let out = e.tick(t(130), &rib);
    assert!(!sent_join_prunes(&out).is_empty());
}

// ---------------------------------------------------------------------
// §3.2/§3.9 — RP reachability and failover
// ---------------------------------------------------------------------

#[test]
fn rp_generates_reachability_messages() {
    let rib = rib_rp();
    let mut e = Engine::new(rp(), 2, PimConfig::default());
    e.set_rp_mapping(g(), vec![rp()]);
    let join = JoinPrune {
        upstream_neighbor: rp(),
        holdtime: 500,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(1), IfaceId(0), b(), &join, &rib);
    let out = e.tick(t(60), &rib);
    assert!(
        out.iter().any(|o| matches!(
            o,
            Action::Control { ifaces, msg: Message::PimRpReachability(r), .. }
                if *ifaces == IfaceId(0).into() && r.rp == rp() && r.group == g()
        )),
        "{out:?}"
    );
}

#[test]
fn reachability_resets_timer_and_propagates_down_tree() {
    let (mut e, _rib) = dr_with_member();
    let before = e
        .group_state(g())
        .unwrap()
        .star
        .as_ref()
        .unwrap()
        .rp_timer();
    let msg = RpReachability {
        group: g(),
        rp: rp(),
        holdtime: 180,
    };
    let out = e.on_rp_reachability(t(50), IfaceId(1), &msg);
    let after = e
        .group_state(g())
        .unwrap()
        .star
        .as_ref()
        .unwrap()
        .rp_timer();
    assert!(after > before, "RP-timer must be pushed out");
    // Host-facing oif (iface 0) is skipped, so nothing to propagate here.
    assert!(out.is_empty());
}

#[test]
fn reachability_on_wrong_iface_ignored() {
    let (mut e, rib) = dr_with_member();
    let _ = rib;
    let before = e
        .group_state(g())
        .unwrap()
        .star
        .as_ref()
        .unwrap()
        .rp_timer();
    let msg = RpReachability {
        group: g(),
        rp: rp(),
        holdtime: 180,
    };
    e.on_rp_reachability(t(50), IfaceId(2), &msg);
    let after = e
        .group_state(g())
        .unwrap()
        .star
        .as_ref()
        .unwrap()
        .rp_timer();
    assert_eq!(before, after);
}

#[test]
fn rp_failover_joins_alternate() {
    let rib = rib_a();
    let mut e = Engine::new(a(), 3, PimConfig::default());
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(g(), vec![rp(), rp2()]);
    e.local_member_joined(t(0), g(), IfaceId(0), &rib);
    // No reachability messages arrive; the RP-timer (180) lapses.
    let out = e.tick(t(181), &rib);
    let gs = e.group_state(g()).unwrap();
    assert_eq!(gs.rp(), Some(rp2()), "failover to the alternate RP");
    let star = gs.star.as_ref().unwrap();
    assert_eq!(star.key, rp2());
    assert_eq!(
        star.oifs().keys().copied().collect::<Vec<_>>(),
        vec![IfaceId(0)],
        "§3.9: only IGMP-report interfaces survive failover"
    );
    let jps = sent_join_prunes(&out);
    assert!(jps
        .iter()
        .any(|jp| jp.groups[0].joins == vec![SourceEntry::shared_tree(rp2())]));
}

#[test]
fn single_rp_failover_retries_join() {
    let (mut e, rib) = dr_with_member();
    let out = e.tick(t(181), &rib);
    let gs = e.group_state(g()).unwrap();
    assert_eq!(gs.rp(), Some(rp()), "nowhere to fail over to");
    assert!(!sent_join_prunes(&out).is_empty(), "must retry the join");
}

// ---------------------------------------------------------------------
// §3.8 — unicast routing changes
// ---------------------------------------------------------------------

#[test]
fn route_change_moves_star_iif_and_sends_join_prune() {
    let (mut e, _) = dr_with_member();
    // New routing: the RP is now reachable via iface 2 through d().
    let mut rib2 = OracleRib::empty(a());
    rib2.insert(
        rp(),
        RouteEntry {
            iface: IfaceId(2),
            next_hop: d(),
            metric: 9,
        },
    );
    let out = e.on_route_change(t(30), rp(), &rib2);

    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert_eq!(star.iif, Some(IfaceId(2)));
    assert_eq!(star.upstream, Some(d()));

    let jps = sent_join_prunes(&out);
    // Prune out the old interface, join out the new one (§3.8).
    assert!(jps.iter().any(|jp| jp.upstream_neighbor == b()
        && jp.groups[0].prunes == vec![SourceEntry::shared_tree(rp())]));
    assert!(jps.iter().any(|jp| jp.upstream_neighbor == d()
        && jp.groups[0].joins == vec![SourceEntry::shared_tree(rp())]));
}

#[test]
fn route_change_removes_new_iif_from_oifs() {
    let rib = rib_b();
    let mut e = Engine::new(b(), 2, PimConfig::default());
    let join = JoinPrune {
        upstream_neighbor: b(),
        holdtime: 500,
        groups: vec![GroupEntry::join(g(), SourceEntry::shared_tree(rp()))],
    };
    e.on_join_prune(t(0), IfaceId(0), a(), &join, &rib);
    // Routing flips: the RP is now reached through iface 0 — which is in
    // the oif list.
    let mut rib2 = OracleRib::empty(b());
    rib2.insert(
        rp(),
        RouteEntry {
            iface: IfaceId(0),
            next_hop: a(),
            metric: 9,
        },
    );
    e.on_route_change(t(30), rp(), &rib2);
    let star = e.group_state(g()).unwrap().star.as_ref().unwrap();
    assert_eq!(star.iif, Some(IfaceId(0)));
    assert!(
        !star.oifs().contains_key(&IfaceId(0)),
        "§3.8: new iif must be deleted from the oif list"
    );
}

#[test]
fn route_change_for_source_clears_spt_bit() {
    let (mut e, rib) = dr_with_member();
    e.on_data(t(10), IfaceId(1), src(), g(), b"d", &rib);
    e.on_data(t(11), IfaceId(2), src(), g(), b"d", &rib);
    assert!(e.group_state(g()).unwrap().sources[&src()].spt_bit);
    // The source moves behind b().
    let mut rib2 = OracleRib::empty(a());
    rib2.insert(
        rp(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: b(),
            metric: 2,
        },
    );
    rib2.insert(
        src(),
        RouteEntry {
            iface: IfaceId(1),
            next_hop: b(),
            metric: 9,
        },
    );
    e.on_route_change(t(30), src(), &rib2);
    let sg = &e.group_state(g()).unwrap().sources[&src()];
    assert_eq!(sg.iif, Some(IfaceId(1)));
    assert!(!sg.spt_bit, "new path must be re-confirmed by data arrival");
}

#[test]
fn route_change_for_unrelated_destination_is_noop() {
    let (mut e, rib) = dr_with_member();
    let before = format!("{:?}", e.group_state(g()));
    let out = e.on_route_change(t(30), Addr::new(10, 0, 77, 1), &rib);
    assert!(out.is_empty());
    assert_eq!(before, format!("{:?}", e.group_state(g())));
}

// ---------------------------------------------------------------------
// Misc: queries, state counting
// ---------------------------------------------------------------------

#[test]
fn tick_emits_periodic_queries_on_all_ifaces() {
    let (mut e, rib) = dr_with_member();
    let out = e.tick(t(0), &rib);
    // One Query, named once for the whole interface set.
    let queries: Vec<_> = out
        .iter()
        .filter_map(|o| match o {
            Action::Control {
                ifaces,
                msg: Message::PimQuery(_),
                ..
            } => Some(ifaces.iter().collect::<Vec<_>>()),
            _ => None,
        })
        .collect();
    assert_eq!(
        queries,
        vec![vec![IfaceId(0), IfaceId(1), IfaceId(2)]],
        "queries on every interface (DR election on member LANs too)"
    );
}

#[test]
fn entry_count_reflects_state() {
    let (mut e, rib) = dr_with_member();
    assert_eq!(e.entry_count(), 1);
    e.on_data(t(10), IfaceId(1), src(), g(), b"d", &rib);
    assert_eq!(e.entry_count(), 2);
}
