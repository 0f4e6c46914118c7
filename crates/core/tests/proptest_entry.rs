//! Property tests over the forwarding-entry state machine and the engine's
//! public invariants under random event sequences.

use netsim::{Deadlines, Duration, IfaceId, SimTime};
use pim::{Engine, Entry, OifKind, PimConfig};
use proptest::prelude::*;
use unicast::{OracleRib, RouteEntry};
use wire::pim::{GroupEntry, JoinPrune, SourceEntry};
use wire::{Addr, Group};

fn arb_kind() -> impl Strategy<Value = OifKind> {
    prop_oneof![
        Just(OifKind::Joined),
        Just(OifKind::CopiedFromStar),
        Just(OifKind::LocalMembers),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// add/remove/expire on an entry's oif set keep the forward set
    /// consistent: never contains the iif, never contains removed ifaces,
    /// local-member oifs never expire.
    #[test]
    fn entry_oif_state_machine(
        ops in prop::collection::vec(
            (0u32..6, arb_kind(), 0u64..500, any::<bool>()),
            1..40
        )
    ) {
        let mut e = Entry::new_star(
            Group::test(1),
            Addr::new(10, 0, 0, 9),
            Some(IfaceId(7)),
            Some(Addr::new(10, 0, 0, 9)),
        );
        let mut timers = Deadlines::new();
        let mut locals = std::collections::BTreeSet::new();
        for (iface, kind, at, remove) in ops {
            let iface = IfaceId(iface);
            if remove {
                e.remove_oif(&mut timers, iface);
                locals.remove(&iface);
            } else {
                e.add_oif(&mut timers, iface, kind, SimTime(at));
                if kind == OifKind::LocalMembers {
                    locals.insert(iface);
                }
            }
            // Invariants after every op:
            let fwd = e.forward_set(None);
            prop_assert!(!fwd.contains(&IfaceId(7)), "iif must never be forwarded to");
            prop_assert_eq!(e.has_local_members(), !locals.is_empty()
                || e.oifs().values().any(|o| o.kind == OifKind::LocalMembers));
            // The index holds exactly the timers a walk of the entry finds.
            let mut walked: Vec<SimTime> = e.deadlines().collect();
            walked.sort();
            prop_assert_eq!(timers.as_slice(), &walked[..]);
        }
        // Expiry removes everything except local members.
        e.expire_oifs(&mut timers, SimTime(10_000));
        for (i, o) in e.oifs() {
            prop_assert_eq!(o.kind, OifKind::LocalMembers, "{:?} survived expiry", i);
        }
        prop_assert_eq!(timers.first(), None);
    }

    /// Feeding the engine arbitrary join/prune sequences never panics and
    /// never leaves an entry whose iif appears in its oif list.
    #[test]
    fn engine_survives_random_join_prune_sequences(
        events in prop::collection::vec(
            (
                0u32..4,           // arrival iface
                0u8..3,            // entry flavor: 0=shared, 1=source, 2=source-rpt
                any::<bool>(),     // join or prune
                1u16..400,         // holdtime
                0u64..1000,        // time
            ),
            1..60
        )
    ) {
        let me = Addr::new(10, 0, 1, 1);
        let rp = Addr::new(10, 0, 9, 1);
        let src = Addr::new(10, 0, 7, 10);
        let mut rib = OracleRib::empty(me);
        rib.insert(rp, RouteEntry { iface: IfaceId(0), next_hop: rp, metric: 1 });
        rib.insert(src, RouteEntry { iface: IfaceId(1), next_hop: Addr::new(10, 0, 7, 1), metric: 1 });
        let mut engine = Engine::new(me, 4, PimConfig::default());
        engine.set_rp_mapping(Group::test(1), vec![rp]);

        let mut now = 0u64;
        for (iface, flavor, is_join, holdtime, dt) in events {
            now += dt;
            let entry = match flavor {
                0 => SourceEntry::shared_tree(rp),
                1 => SourceEntry::source(src),
                _ => SourceEntry::source_on_rp_tree(src),
            };
            let ge = if is_join {
                GroupEntry::join(Group::test(1), entry)
            } else {
                GroupEntry::prune(Group::test(1), entry)
            };
            let jp = JoinPrune {
                upstream_neighbor: me,
                holdtime,
                groups: vec![ge],
            };
            engine.on_join_prune(SimTime(now), IfaceId(iface), Addr::new(10, 0, 5, 1), &jp, &rib);
            engine.tick(SimTime(now), &rib);

            if let Some(gs) = engine.group_state(Group::test(1)) {
                if let Some(star) = &gs.star {
                    if let Some(iif) = star.iif {
                        prop_assert!(!star.oifs().contains_key(&iif), "(*,G) iif in oifs");
                    }
                }
                for (s, e) in &gs.sources {
                    if let (Some(iif), false) = (e.iif, e.local_source) {
                        prop_assert!(!e.oifs().contains_key(&iif), "({s},G) iif in oifs");
                    }
                    if e.is_negative() {
                        prop_assert!(gs.star.is_some(), "negative cache without (*,G)");
                    }
                }
            }
        }
        // And the engine's state eventually drains without refreshes.
        let horizon = now + 10 * PimConfig::default().holdtime.ticks();
        engine.tick(SimTime(horizon), &rib);
        engine.tick(SimTime(horizon + Duration(400).ticks()), &rib);
        let residual = engine.entry_count();
        prop_assert!(
            residual == 0,
            "soft state must fully drain without refreshes ({residual} entries left)"
        );
    }
}
