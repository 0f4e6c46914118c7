//! Criterion micro-benchmarks for the performance-critical paths:
//!
//! * wire encode/decode (every packet on every simulated link pays this);
//! * the PIM engine's data-forwarding fast path and join/prune processing;
//! * the graph machinery behind the Figure-2 Monte-Carlo study (Dijkstra,
//!   all-pairs, optimal-center search, flow counting);
//! * a complete end-to-end protocol simulation (the unit of cost of the
//!   overhead experiment).
//!
//! Run: `cargo bench -p bench`

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use graph::algo::AllPairs;
use graph::gen::{random_connected, RandomGraphParams};
use graph::NodeId;
use mctree::{cbt_link_flows, optimal_center_tree, spt_link_flows, GroupSpec};
use netsim::{IfaceId, SimTime};
use pim::{Engine, PimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use unicast::{OracleRib, RouteEntry};
use wire::pim::{GroupEntry, JoinPrune, SourceEntry};
use wire::{Addr, Group, Message};

fn bench_wire(c: &mut Criterion) {
    let msg = Message::PimJoinPrune(JoinPrune {
        upstream_neighbor: Addr::new(10, 0, 0, 1),
        holdtime: 180,
        groups: (0..8)
            .map(|i| GroupEntry {
                group: Group::test(i),
                joins: vec![
                    SourceEntry::shared_tree(Addr::new(10, 0, 0, 9)),
                    SourceEntry::source(Addr::new(10, 0, 7, 10)),
                ],
                prunes: vec![SourceEntry::source_on_rp_tree(Addr::new(10, 0, 8, 10))],
            })
            .collect(),
    });
    c.bench_function("wire/join_prune_encode", |b| {
        b.iter(|| black_box(&msg).encode())
    });
    let buf = msg.encode();
    c.bench_function("wire/join_prune_decode", |b| {
        b.iter(|| Message::decode(black_box(&buf)).expect("valid"))
    });
    let header = wire::ip::Header {
        proto: wire::ip::Protocol::Data,
        ttl: 32,
        src: Addr::new(10, 0, 1, 10),
        dst: Group::test(1).addr(),
    };
    let pkt = header.encap(&[0u8; 64]);
    c.bench_function("wire/ip_decap", |b| {
        b.iter(|| wire::ip::Header::decap(black_box(&pkt)).expect("valid"))
    });
}

/// A PIM engine warmed up with a shared tree + an SPT entry, for
/// forwarding-path benchmarks.
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

fn bench_engine(c: &mut Criterion) {
    let (mut e, rib, src, group) = warmed_engine();
    let payload = [0u8; 64];
    c.bench_function("pim/on_data_spt_fastpath", |b| {
        let mut t = 10u64;
        b.iter(|| {
            t += 1;
            e.on_data(
                SimTime(t),
                IfaceId(2),
                src,
                group,
                black_box(&payload),
                &rib,
            )
        })
    });

    let jp = JoinPrune {
        upstream_neighbor: Addr::new(10, 0, 1, 1),
        holdtime: 180,
        groups: vec![GroupEntry::join(
            group,
            SourceEntry::shared_tree(Addr::new(10, 0, 9, 1)),
        )],
    };
    let (mut e2, rib2, _, _) = warmed_engine();
    c.bench_function("pim/on_join_prune_refresh", |b| {
        let mut t = 10u64;
        b.iter(|| {
            t += 1;
            e2.on_join_prune(
                SimTime(t),
                IfaceId(3),
                Addr::new(10, 0, 2, 1),
                black_box(&jp),
                &rib2,
            )
        })
    });

    let (mut e3, rib3, _, _) = warmed_engine();
    c.bench_function("pim/tick_idle", |b| {
        let mut t = 10u64;
        b.iter(|| {
            t += 1; // sub-refresh cadence: timers scanned, nothing fires
            e3.tick(SimTime(t), &rib3)
        })
    });
}

fn bench_graph(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let g = random_connected(
        &RandomGraphParams {
            nodes: 50,
            avg_degree: 4.0,
            delay_range: (1, 10),
        },
        &mut rng,
    );
    c.bench_function("graph/dijkstra_50n", |b| {
        b.iter(|| graph::algo::dijkstra(black_box(&g), NodeId(0)))
    });
    c.bench_function("graph/all_pairs_50n", |b| {
        b.iter(|| AllPairs::new(black_box(&g)))
    });

    let ap = AllPairs::new(&g);
    let spec = GroupSpec::random(50, 10, 10, &mut rng);
    c.bench_function("mctree/optimal_center_50n_10m", |b| {
        b.iter(|| optimal_center_tree(black_box(&g), &ap, &spec.members))
    });

    let groups: Vec<GroupSpec> = (0..20)
        .map(|_| GroupSpec::random(50, 40, 32, &mut rng))
        .collect();
    c.bench_function("mctree/spt_flows_20groups", |b| {
        b.iter(|| spt_link_flows(black_box(&g), &ap, &groups))
    });
    c.bench_function("mctree/cbt_flows_20groups", |b| {
        b.iter(|| {
            cbt_link_flows(black_box(&g), &ap, &groups, |spec| {
                mctree::flows::one_center(&g, &ap, &spec.members)
            })
        })
    });
}

fn bench_sim(c: &mut Criterion) {
    // One full protocol scenario end to end (build + run), the unit of
    // cost for the overhead experiment.
    let mut rng = StdRng::seed_from_u64(3);
    let g = random_connected(
        &RandomGraphParams {
            nodes: 20,
            avg_degree: 3.5,
            delay_range: (1, 5),
        },
        &mut rng,
    );
    c.bench_function("sim/pim_scenario_20n", |b| {
        b.iter(|| {
            bench::run_protocol_sim(
                black_box(&g),
                scenario::Protocol::Pim,
                &[bench::Workload {
                    group: Group::test(1),
                    members: vec![NodeId(2), NodeId(9), NodeId(17)],
                    senders: vec![NodeId(9)],
                    rendezvous: NodeId(0),
                    population: 1,
                }],
                5,
                1,
            )
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_wire, bench_engine, bench_graph, bench_sim
);
criterion_main!(benches);
