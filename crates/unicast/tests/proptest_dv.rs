//! Property tests for the distance-vector engine: arbitrary update
//! streams never panic and never violate table invariants (no route to a
//! local destination, metrics bounded by infinity, split horizon always
//! poisons, adopted routes never worse than what was offered).

use netsim::{IfaceId, SimTime};
use proptest::prelude::*;
use unicast::dv::{DvConfig, DvEngine, GC_TIMEOUT, ROUTE_TIMEOUT};
use unicast::{Engine, Rib};
use wire::unicast::{DvRoute, DvUpdate, INFINITY_METRIC};
use wire::{Addr, Message};

fn me() -> Addr {
    Addr::new(10, 0, 0, 1)
}

fn neighbor(i: u8) -> Addr {
    Addr::new(10, 0, 1, i + 1)
}

fn dest(i: u8) -> Addr {
    Addr::new(10, 9, 0, i + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dv_invariants_under_arbitrary_updates(
        updates in prop::collection::vec(
            (
                0u32..3,                                  // arrival iface
                0u8..3,                                   // sending neighbor
                prop::collection::vec((0u8..6, 0u32..200), 0..6), // (dest, metric)
                0u64..40,                                 // dt
            ),
            1..50
        )
    ) {
        let cfg = DvConfig { infinity: 64 };
        let mut e = DvEngine::from_parts(me(), vec![1, 3, 7], cfg);
        e.add_local_dest(dest(5)); // one destination is ours
        let mut now = 0u64;
        for (iface, nb, routes, dt) in updates {
            now += dt;
            let update = DvUpdate {
                routes: routes
                    .iter()
                    .map(|&(d, m)| DvRoute { dst: dest(d), metric: m })
                    .collect(),
            };
            e.on_message(
                SimTime(now),
                IfaceId(iface),
                neighbor(nb),
                &Message::DvUpdate(update),
            );
            e.tick(SimTime(now));

            // Invariants:
            prop_assert!(e.route(me()).is_none(), "route to self");
            prop_assert!(e.route(dest(5)).is_none(), "route to a local dest");
            for d in 0..6u8 {
                if let Some(r) = e.route(dest(d)) {
                    prop_assert!(r.metric < 64, "unreachable metric leaked");
                    prop_assert!((r.iface.0) < 3, "phantom interface");
                }
            }
            // Split horizon with poisoned reverse on every interface.
            for i in 0..3u32 {
                let adv = e.update_for_iface(IfaceId(i));
                for r in &adv.routes {
                    if let Some(cur) = e.route(r.dst) {
                        if cur.iface == IfaceId(i) {
                            prop_assert_eq!(
                                r.metric,
                                INFINITY_METRIC,
                                "reverse not poisoned on if{}", i
                            );
                        }
                    }
                }
            }
        }
        // Total silence: every learned route must eventually vanish.
        // First tick poisons (metric → ∞, arming the GC timer); a second
        // tick after the GC timeout removes the carcass.
        let horizon = now + 10 * ROUTE_TIMEOUT.ticks();
        e.tick(SimTime(horizon));
        e.tick(SimTime(horizon + GC_TIMEOUT.ticks() + 1));
        prop_assert_eq!(e.table_size(), 0, "routes must drain without refreshes");
    }
}
