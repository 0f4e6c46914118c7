//! `pim` drives on a warmed engine: the (S,G) data fast path, a
//! join/prune refresh, and an idle tick — the cases of
//! `crates/bench/benches/micro.rs` that were never recorded.

use super::{ns_per_op, Budget};
use netsim::{IfaceId, SimTime};
use pim::{Engine, PimConfig};
use std::hint::black_box;
use unicast::{OracleRib, RouteEntry};
use wire::pim::{GroupEntry, JoinPrune, SourceEntry};
use wire::{Addr, Group};

/// A PIM engine with a shared tree and a confirmed SPT entry.
fn warmed_engine() -> (Engine, OracleRib, Addr, Group) {
    let me = Addr::new(10, 0, 1, 1);
    let rp = Addr::new(10, 0, 9, 1);
    let src = Addr::new(10, 0, 7, 10);
    let group = Group::test(1);
    let mut rib = OracleRib::empty(me);
    rib.insert(
        rp,
        RouteEntry {
            iface: IfaceId(1),
            next_hop: rp,
            metric: 1,
        },
    );
    rib.insert(
        src,
        RouteEntry {
            iface: IfaceId(2),
            next_hop: Addr::new(10, 0, 7, 1),
            metric: 1,
        },
    );
    let mut e = Engine::new(me, 4, PimConfig::default());
    e.set_host_lan(IfaceId(0));
    e.set_rp_mapping(group, vec![rp]);
    e.local_member_joined(SimTime(0), group, IfaceId(0), &rib);
    // Create and confirm the SPT entry.
    e.on_data(SimTime(1), IfaceId(1), src, group, b"x", &rib);
    e.on_data(SimTime(2), IfaceId(2), src, group, b"x", &rib);
    (e, rib, src, group)
}

/// Run the `pim` drives.
pub fn run(budget: Budget) -> Vec<(&'static str, f64)> {
    let payload = [0u8; 64];

    let (mut e, rib, src, group) = warmed_engine();
    let mut t = 10u64;
    let fastpath = ns_per_op(budget, || {
        t += 1;
        black_box(e.on_data(
            SimTime(t),
            IfaceId(2),
            src,
            group,
            black_box(&payload),
            &rib,
        ));
    });

    let jp = JoinPrune {
        upstream_neighbor: Addr::new(10, 0, 1, 1),
        holdtime: 180,
        groups: vec![GroupEntry::join(
            group,
            SourceEntry::shared_tree(Addr::new(10, 0, 9, 1)),
        )],
    };
    let (mut e, rib, _, _) = warmed_engine();
    let mut t = 10u64;
    let refresh = ns_per_op(budget, || {
        t += 1;
        black_box(e.on_join_prune(
            SimTime(t),
            IfaceId(3),
            Addr::new(10, 0, 2, 1),
            black_box(&jp),
            &rib,
        ));
    });

    // Time stands still: the deadlines are scanned and nothing fires.
    let (mut e, rib, _, _) = warmed_engine();
    let tick = ns_per_op(budget, || {
        black_box(e.tick(SimTime(10), &rib));
    });

    vec![
        ("pim.on_data_fastpath_ns", fastpath),
        ("pim.join_prune_refresh_ns", refresh),
        ("pim.tick_idle_ns", tick),
    ]
}
