//! Property tests for the membership protocol: hosts and queriers fed
//! arbitrary event sequences never panic, and membership state stays
//! coherent (a querier's member set reflects reports within the timeout,
//! a host's pending reports never outlive membership).

use igmp::{Host, Querier, QuerierOutput, MEMBERSHIP_TIMEOUT};
use netsim::SimTime;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wire::igmp::{HostQuery, HostReport};
use wire::{Addr, Group, Message};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Host state machine: joins/leaves of any size, queries and foreign
    /// reports in any order leave membership exactly equal to the
    /// join/leave ledger of member counts, and ticks only emit reports for
    /// current members.
    #[test]
    fn host_membership_coherent(
        ops in prop::collection::vec((0u8..4, 0u32..5, 0u64..50, 1u64..4), 1..60),
        seed in any::<u64>(),
    ) {
        let mut host = Host::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ledger = std::collections::BTreeMap::new();
        let mut now = 0u64;
        for (op, gi, dt, n) in ops {
            now += dt;
            let g = Group::test(gi);
            match op {
                0 => {
                    host.join(g, n);
                    ledger.insert(g, n);
                }
                1 => {
                    host.leave(g, n);
                    if let Some(m) = ledger.get_mut(&g) {
                        *m = m.saturating_sub(n);
                        if *m == 0 {
                            ledger.remove(&g);
                        }
                    }
                }
                2 => {
                    host.on_message(
                        SimTime(now),
                        &Message::HostQuery(HostQuery { max_resp_time: 10 }),
                        &mut rng,
                    );
                }
                _ => {
                    host.on_message(
                        SimTime(now),
                        &Message::HostReport(HostReport { group: g }),
                        &mut rng,
                    );
                }
            }
            for out in host.tick(SimTime(now + 11)) {
                let igmp::HostOutput::Send { msg, .. } = out;
                if let Message::HostReport(r) = msg {
                    prop_assert!(
                        ledger.contains_key(&r.group),
                        "report for a group the host is not in"
                    );
                }
            }
            prop_assert_eq!(host.groups().count(), ledger.len());
            for (&g, &m) in &ledger {
                prop_assert!(host.is_member(g));
                prop_assert_eq!(host.members(g), m);
            }
        }
    }

    /// Querier: reports create members exactly once, expiry fires exactly
    /// once per lapsed group, and `has_member` matches the event history.
    #[test]
    fn querier_member_accounting(
        reports in prop::collection::vec((0u32..4, 0u64..100), 1..40),
    ) {
        let mut q = Querier::new(Addr::new(10, 0, 0, 1));
        let mut last_report = std::collections::BTreeMap::new();
        let mut now = 0u64;
        for (gi, dt) in reports {
            now += dt;
            let g = Group::test(gi);
            let outs = q.on_message(
                SimTime(now),
                Addr::new(10, 0, 0, 50),
                &Message::HostReport(HostReport { group: g }),
            );
            let was_member = last_report
                .get(&g)
                .is_some_and(|&t| now < t + MEMBERSHIP_TIMEOUT.ticks());
            if was_member {
                prop_assert!(outs.is_empty(), "refresh must not re-announce");
            } else {
                prop_assert_eq!(outs, vec![QuerierOutput::MemberJoined(g)]);
            }
            last_report.insert(g, now);
            // Expire anything that lapsed before this report arrived.
            let expired = q.tick(SimTime(now));
            for e in expired {
                if let QuerierOutput::MemberExpired(g2) = e {
                    let t = last_report.get(&g2).copied().unwrap_or(0);
                    prop_assert!(
                        now >= t + MEMBERSHIP_TIMEOUT.ticks(),
                        "premature expiry of {g2}"
                    );
                }
            }
        }
        // Far future: everything must lapse.
        q.tick(SimTime(now + 10 * MEMBERSHIP_TIMEOUT.ticks()));
        prop_assert_eq!(q.groups().count(), 0);
    }
}
