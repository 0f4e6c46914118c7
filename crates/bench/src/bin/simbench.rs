//! **Simulator microbenchmarks** — the netsim hot paths the protocol
//! experiments lean on, timed in isolation:
//!
//! 1. **LAN fan-out**: one sender and many receivers on a single
//!    multi-access link. Every transmit schedules one delivery per
//!    receiver; with the `Arc<[u8]>` payload this is a refcount bump per
//!    receiver instead of a buffer copy, and this bench is where that
//!    shows up. A FNV-1a fingerprint of every reception (time, iface,
//!    payload) is printed so payload-representation changes can be proven
//!    behavior-preserving.
//! 2. **End-to-end protocol run**: a full PIM source-tree simulation over
//!    a random internet, the workload `scenario`/`ablation` execute
//!    thousands of times.
//! 3. **Node-count scaling sweep**: the same PIM workload over Waxman
//!    internets of growing size (default 20/50/100/200 routers), the
//!    wall-clock-vs-node-count table that tracks how the region-
//!    partitioned event core scales with topology size. Each point also
//!    reports how many regions the auto-partitioner produced at the
//!    requested `--threads`.
//! 4. **Hierarchical scale sweep**: PIM over backbone+stub-domain
//!    internets (500/1000/2000 routers) with one aggregate
//!    [`igmp::PopulationNode`] member site per domain, plus a membership
//!    sweep (10³…10⁶ total members at 1000 routers). Reports state and
//!    control overhead per router and per-event cost; each row's
//!    reception fingerprint is byte-identical across `--threads`, and
//!    the world is partitioned along domain boundaries.
//! 5. **Congestion sweep** (`--congestion`): the end-to-end PIM workload
//!    with every link capped at a shrinking per-tick byte rate and a
//!    bounded transmit queue — the graceful-degradation curve. Reports
//!    deliveries, tail drops by traffic class, ECN marks, and peak queue
//!    depth per rate; with control priority on, `dropc` staying 0 is the
//!    no-starvation claim in bench form.
//!
//! Run: `cargo run -p bench --release --bin simbench [--trials N]
//! [--seed N] [--smoke] [--threads N] [--nodes N,N,...] [--hier N,N,...]
//! [--members N,N,...] [--congestion] [--json PATH]`
//! (`--trials` = LAN packets).

use bench::{cli, perf, run_protocol_sim_hier, run_protocol_sim_opts, SimOptions, Workload};
use graph::gen::{
    hierarchical, random_connected, waxman, HierParams, RandomGraphParams, WaxmanParams,
};
use graph::NodeId;
use mctree::GroupSpec;
use netsim::{Ctx, Duration, IfaceId, LinkCapacity, Node, NodeIdx, SimTime, World};
use pim::PimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenario::Protocol;
use std::any::Any;
use wire::Group;

const RECEIVERS: usize = 32;
/// LAN fan-out payload sizes: a bare header, the classic 1 KiB datagram,
/// and a jumbo frame — the copy-vs-refcount cost curve.
const PAYLOADS: [usize; 3] = [64, 1024, 8192];

/// Sends `total` packets on interface 0, one per tick.
struct Blaster {
    payload: Vec<u8>,
    total: u64,
    sent: u64,
}

impl Node for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration(1), 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _packet: &[u8]) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.sent < self.total {
            // Vary the first byte so the fingerprint covers payload bytes,
            // not just counts.
            self.payload[0] = (self.sent & 0xFF) as u8;
            ctx.send(IfaceId(0), self.payload.clone());
            self.sent += 1;
            ctx.set_timer(Duration(1), 0);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Counts receptions and folds every delivery into a FNV-1a fingerprint.
struct Sink {
    received: u64,
    fingerprint: u64,
}

impl Sink {
    fn new() -> Sink {
        Sink {
            received: 0,
            fingerprint: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn fold(&mut self, byte: u8) {
        self.fingerprint = (self.fingerprint ^ byte as u64).wrapping_mul(0x100_0000_01b3);
    }
}

impl Node for Sink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
        self.received += 1;
        for b in ctx.now().ticks().to_le_bytes() {
            self.fold(b);
        }
        self.fold(iface.index() as u8);
        for &b in packet {
            self.fold(b);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// LAN fan-out: returns (deliveries, combined fingerprint, wall ms).
fn lan_fanout(seed: u64, packets: u64, payload: usize) -> (u64, u64, f64) {
    let mut w = World::new(seed);
    let sender = w.add_node(Box::new(Blaster {
        payload: vec![0u8; payload],
        total: packets,
        sent: 0,
    }));
    let sinks: Vec<NodeIdx> = (0..RECEIVERS)
        .map(|_| w.add_node(Box::new(Sink::new())))
        .collect();
    let mut all: Vec<NodeIdx> = vec![sender];
    all.extend(&sinks);
    w.add_lan(&all, Duration(1));
    let (_, wall_ms) = perf::time(|| w.run_until(SimTime(packets + 8)));
    let mut received = 0;
    let mut fingerprint = 0u64;
    for &s in &sinks {
        let sink: &Sink = w.node(s);
        received += sink.received;
        fingerprint ^= sink.fingerprint.rotate_left((s.0 % 64) as u32);
    }
    (received, fingerprint, wall_ms)
}

/// One end-to-end PIM source-tree run; returns (deliveries, wall ms).
fn protocol_run(seed: u64, threads: usize) -> (u64, f64) {
    let mut rng = StdRng::seed_from_u64(par::mix(seed, 2, 0));
    let g = random_connected(
        &RandomGraphParams {
            nodes: 30,
            avg_degree: 3.5,
            delay_range: (1, 6),
        },
        &mut rng,
    );
    let spec = GroupSpec::random(30, 6, 2, &mut rng);
    let w = Workload {
        group: Group::test(1),
        members: spec.members.clone(),
        senders: spec.senders.clone(),
        rendezvous: NodeId(rng.gen_range(0..30)),
        population: 1,
    };
    let (r, wall_ms) = perf::time(|| {
        run_protocol_sim_opts(
            &g,
            Protocol::Pim,
            &[w],
            &SimOptions {
                packets_per_sender: 40,
                seed: par::mix(seed, 3, 0),
                link_loss: 0.0,
                pim: PimConfig::default(),
                threads,
                profile: false,
                ..SimOptions::default()
            },
        )
    });
    (r.deliveries, wall_ms)
}

/// Transmit-queue bound for the congestion sweep, in bytes.
const CONGESTION_QUEUE: u64 = 96;
/// Per-tick link rates swept by `--congestion` (0 = unlimited baseline).
const CONGESTION_RATES: [u64; 5] = [0, 8, 4, 2, 1];

/// One row of the bounded-capacity congestion sweep.
struct CongestionRow {
    rate: u64,
    deliveries: u64,
    expected: u64,
    drops_data: u64,
    drops_ctrl: u64,
    ecn_marks: u64,
    peak_queue: u64,
    events: u64,
    fingerprint: u64,
    wall_ms: f64,
}

/// The same 30-node PIM workload as `protocol_run`, re-run with every
/// router-router link capped at a sweep of per-tick rates: the graceful-
/// degradation curve. Deliveries fall and tail drops rise as the cap
/// tightens, while the prioritized control plane keeps the tree alive
/// (`dropc` stays 0). The reception fingerprint per row is deterministic
/// and byte-identical across `--threads`.
fn congestion_sweep(seed: u64, threads: usize) -> Vec<CongestionRow> {
    let mut rng = StdRng::seed_from_u64(par::mix(seed, 2, 0));
    let g = random_connected(
        &RandomGraphParams {
            nodes: 30,
            avg_degree: 3.5,
            delay_range: (1, 6),
        },
        &mut rng,
    );
    let spec = GroupSpec::random(30, 6, 2, &mut rng);
    let w = Workload {
        group: Group::test(1),
        members: spec.members.clone(),
        senders: spec.senders.clone(),
        rendezvous: NodeId(rng.gen_range(0..30)),
        population: 1,
    };
    CONGESTION_RATES
        .iter()
        .map(|&rate| {
            let capacity = if rate == 0 {
                LinkCapacity::UNLIMITED
            } else {
                LinkCapacity {
                    bytes_per_tick: rate,
                    queue_bytes: CONGESTION_QUEUE,
                    ecn_bytes: CONGESTION_QUEUE / 2,
                    ctrl_priority: true,
                }
            };
            let (r, wall_ms) = perf::time(|| {
                run_protocol_sim_opts(
                    &g,
                    Protocol::Pim,
                    std::slice::from_ref(&w),
                    &SimOptions {
                        packets_per_sender: 40,
                        seed: par::mix(seed, 13, rate),
                        threads,
                        capacity,
                        ..SimOptions::default()
                    },
                )
            });
            CongestionRow {
                rate,
                deliveries: r.deliveries,
                expected: r.expected_deliveries,
                drops_data: r.queue_drops_data,
                drops_ctrl: r.queue_drops_ctrl,
                ecn_marks: r.ecn_marks,
                peak_queue: r.peak_queue_bytes,
                events: r.events_dispatched,
                fingerprint: r.reception_fingerprint,
                wall_ms,
            }
        })
        .collect()
}

/// One row of the node-count scaling sweep.
struct SweepRow {
    nodes: usize,
    deliveries: u64,
    events: u64,
    regions: usize,
    wall_ms: f64,
    /// Event-loop time alone (`World::run_until`), excluding topology /
    /// oracle / world construction — the honest per-event denominator.
    run_ms: f64,
    profile: Option<netsim::SimProfile>,
}

impl SweepRow {
    fn us_per_event(&self) -> f64 {
        self.run_ms * 1e3 / self.events as f64
    }
}

/// PIM source-tree runs over Waxman internets of growing size: the
/// wall-clock-vs-node-count table, each point profiled per region ×
/// event kind so the sweep says *which* phase bends as the topology
/// grows. Membership scales with the network (one member per ~5
/// routers, 2 senders) so larger points do proportionally more protocol
/// work, not just more idle topology.
fn node_sweep(sizes: &[usize], seed: u64, threads: usize) -> Vec<SweepRow> {
    sizes
        .iter()
        .map(|&nodes| {
            let mut rng = StdRng::seed_from_u64(par::mix(seed, 4, nodes as u64));
            let g = waxman(
                &WaxmanParams {
                    nodes,
                    ..WaxmanParams::default()
                },
                &mut rng,
            );
            let spec = GroupSpec::random(nodes, (nodes / 5).max(4), 2, &mut rng);
            let w = Workload {
                group: Group::test(1),
                members: spec.members.clone(),
                senders: spec.senders.clone(),
                rendezvous: NodeId(rng.gen_range(0..nodes as u32)),
                population: 1,
            };
            let (r, wall_ms) = perf::time(|| {
                run_protocol_sim_opts(
                    &g,
                    Protocol::Pim,
                    std::slice::from_ref(&w),
                    &SimOptions {
                        packets_per_sender: 30,
                        seed: par::mix(seed, 5, nodes as u64),
                        link_loss: 0.0,
                        pim: PimConfig::default(),
                        threads,
                        profile: true,
                        ..SimOptions::default()
                    },
                )
            });
            SweepRow {
                nodes,
                deliveries: r.deliveries,
                events: r.events_dispatched,
                regions: r.regions,
                wall_ms,
                run_ms: r.run_ms,
                profile: r.profile,
            }
        })
        .collect()
}

/// One row of the hierarchical scale sweep.
struct HierRow {
    routers: usize,
    domains: usize,
    members: u64,
    deliveries: u64,
    expected: u64,
    events: u64,
    state_entries: usize,
    control_pkts: u64,
    regions: usize,
    wall_ms: f64,
    run_ms: f64,
    fingerprint: u64,
    profile: Option<netsim::SimProfile>,
}

impl HierRow {
    /// Event-loop cost per event: `run_until` wall time over dispatched
    /// events. Excludes topology generation, the oracle RIB build, and
    /// world build (the `wall ms` column includes them).
    fn us_per_event(&self) -> f64 {
        self.run_ms * 1e3 / self.events as f64
    }

    /// The deterministic content of the row, greppable by the CI gate's
    /// `--threads 1` vs `4` diff (the line contains "fingerprint").
    fn det_line(&self) -> String {
        format!(
            "hier_fingerprint routers={} members={} deliveries={} events={} \
             state={} ctrl={} fingerprint={:#018x}",
            self.routers,
            self.members,
            self.deliveries,
            self.events,
            self.state_entries,
            self.control_pkts,
            self.fingerprint
        )
    }
}

/// Shape a hierarchical internet of roughly `routers` routers: a Waxman
/// backbone of `routers / 10` and stub domains of 9 hung off it.
fn hier_params(routers: usize) -> HierParams {
    let backbone = (routers / 10).max(3);
    let domain_size = 9;
    let domains = (routers.saturating_sub(backbone) / domain_size).max(2);
    HierParams {
        backbone: WaxmanParams {
            nodes: backbone,
            ..WaxmanParams::default()
        },
        domains,
        domain_size,
        ..HierParams::default()
    }
}

/// One PIM run over a hierarchical internet with `total_members` aggregate
/// members spread over one [`igmp::PopulationNode`] site per stub domain.
fn hier_run(routers: usize, total_members: u64, seed: u64, threads: usize) -> HierRow {
    let params = hier_params(routers);
    let mut rng = StdRng::seed_from_u64(par::mix(seed, 6, routers as u64 ^ total_members));
    let h = hierarchical(&params, &mut rng);
    let domains = params.domains;
    // One member site per domain — its leaf router, the farthest point
    // from the backbone — holding an equal share of the membership.
    let members: Vec<NodeId> = (0..domains).map(|d| h.leaf(d)).collect();
    let population = (total_members / domains as u64).max(2);
    let senders = vec![h.leaf(0), h.leaf(domains / 2)];
    let w = Workload {
        group: Group::test(1),
        members,
        senders,
        rendezvous: NodeId(0), // a backbone router as RP
        population,
    };
    let (r, wall_ms) = perf::time(|| {
        run_protocol_sim_hier(
            &h,
            Protocol::Pim,
            std::slice::from_ref(&w),
            &SimOptions {
                packets_per_sender: 30,
                seed: par::mix(seed, 7, routers as u64 ^ total_members),
                threads,
                profile: true,
                ..SimOptions::default()
            },
        )
    });
    HierRow {
        routers: h.node_count(),
        domains,
        members: population * domains as u64,
        deliveries: r.deliveries,
        expected: r.expected_deliveries,
        events: r.events_dispatched,
        state_entries: r.state_entries,
        control_pkts: r.control_pkts,
        regions: r.regions,
        wall_ms,
        run_ms: r.run_ms,
        fingerprint: r.reception_fingerprint,
        profile: r.profile,
    }
}

fn print_hier_table(rows: &[HierRow]) {
    println!(
        "{:<8} {:>8} {:>9} {:>11} {:>6} {:>10} {:>10} {:>9} {:>8} {:>9} {:>8} {:>7}",
        "routers",
        "domains",
        "members",
        "deliveries",
        "del%",
        "events",
        "state/rtr",
        "ctrl/rtr",
        "regions",
        "wall ms",
        "run ms",
        "us/ev"
    );
    for r in rows {
        println!(
            "{:<8} {:>8} {:>9} {:>11} {:>6.1} {:>10} {:>10.2} {:>9.1} {:>8} {:>9.1} {:>8.1} {:>7.2}",
            r.routers,
            r.domains,
            r.members,
            r.deliveries,
            100.0 * r.deliveries as f64 / r.expected as f64,
            r.events,
            r.state_entries as f64 / r.routers as f64,
            r.control_pkts as f64 / r.routers as f64,
            r.regions,
            r.wall_ms,
            r.run_ms,
            r.us_per_event(),
        );
    }
    for r in rows {
        println!("{}", r.det_line());
    }
    // Per-event attribution of the largest row: how much of the wall
    // clock is event dispatch at all (the rest is world build + the
    // all-pairs unicast oracle).
    if let Some(r) = rows.last() {
        if let Some(p) = &r.profile {
            println!(
                "hier_profile routers={} ({} events dispatched):",
                r.routers,
                p.events()
            );
            for l in p.render().lines() {
                println!("  {l}");
            }
        }
    }
}

fn hier_json(rows: &[HierRow]) -> String {
    let mut s = String::new();
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"routers\": {}, \"domains\": {}, \"members\": {}, \
             \"deliveries\": {}, \"events\": {}, \"state_entries\": {}, \
             \"control_pkts\": {}, \"regions\": {}, \"wall_ms\": {:.1}, \
             \"run_ms\": {:.1}, \"us_per_event\": {:.3}, \"fingerprint\": \"{:#018x}\"}}{}\n",
            r.routers,
            r.domains,
            r.members,
            r.deliveries,
            r.events,
            r.state_entries,
            r.control_pkts,
            r.regions,
            r.wall_ms,
            r.run_ms,
            r.us_per_event(),
            r.fingerprint,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s
}

fn main() {
    let args = cli::parse_smoke(20_000, 500);
    let packets = args.trials as u64;
    println!("# Simulator microbench: LAN fan-out + end-to-end protocol run");
    let mut lan_rows = Vec::new();
    for payload in PAYLOADS {
        let (received, fingerprint, lan_ms) = lan_fanout(args.seed, packets, payload);
        assert_eq!(received, packets * RECEIVERS as u64, "lost deliveries");
        println!(
            "lan_fanout   {packets} pkts x {RECEIVERS} receivers x {payload}B: \
             {received} deliveries in {lan_ms:.1} ms ({:.0}/ms)",
            received as f64 / lan_ms
        );
        println!("lan_fanout   {payload}B fingerprint {fingerprint:#018x}");
        lan_rows.push((payload, received, fingerprint, lan_ms));
    }
    let (deliveries, proto_ms) = protocol_run(args.seed, args.threads);
    println!("protocol_run pim-spt 30 nodes, 2 senders x 40 pkts: {deliveries} deliveries in {proto_ms:.1} ms");

    let sizes: Vec<usize> = args.nodes.clone().unwrap_or_else(|| {
        if args.smoke {
            vec![20, 50]
        } else {
            vec![20, 50, 100, 200]
        }
    });
    let rows = node_sweep(&sizes, args.seed, args.threads);
    println!(
        "node_sweep   pim-spt on Waxman internets, {} threads:",
        args.threads
    );
    println!(
        "{:<8} {:>12} {:>12} {:>9} {:>10} {:>8} {:>7} {:>8}",
        "nodes", "deliveries", "events", "regions", "wall ms", "run ms", "us/ev", "serial%"
    );
    for r in &rows {
        println!(
            "{:<8} {:>12} {:>12} {:>9} {:>10.1} {:>8.1} {:>7.2} {:>8}",
            r.nodes,
            r.deliveries,
            r.events,
            r.regions,
            r.wall_ms,
            r.run_ms,
            r.us_per_event(),
            r.profile
                .as_ref()
                .map(|p| format!("{:.1}", p.serial_pct()))
                .unwrap_or_else(|| "-".into()),
        );
    }
    // Greppable one-liner for the CI gate: the auto-partitioner must be
    // live at the largest sweep point.
    let last = rows.last().expect("non-empty sweep");
    println!(
        "auto_partition regions={} nodes={} threads={}",
        last.regions, last.nodes, args.threads
    );
    // Where the event loop bends: per-region × event-kind attribution of
    // the largest sweep point (nanosecond columns are wall-clock and
    // vary run to run; event counts are deterministic).
    if let Some(p) = &last.profile {
        println!(
            "node_profile nodes={} ({} events dispatched):",
            last.nodes,
            p.events()
        );
        for l in p.render().lines() {
            println!("  {l}");
        }
    }

    // Hierarchical scale sweep: router counts at a fixed aggregate
    // membership, then a membership sweep at the largest default size.
    let hier_sizes: Vec<usize> = args.hier.clone().unwrap_or_else(|| {
        if args.smoke {
            vec![60]
        } else {
            vec![500, 1000, 2000]
        }
    });
    let hier_members = 10_000u64;
    println!(
        "hier_sweep   pim-spt on hierarchical internets ({} aggregate members), {} threads:",
        hier_members, args.threads
    );
    let hier_rows: Vec<HierRow> = hier_sizes
        .iter()
        .map(|&n| hier_run(n, hier_members, args.seed, args.threads))
        .collect();
    print_hier_table(&hier_rows);

    let member_totals: Vec<u64> = args.members.clone().unwrap_or_else(|| {
        if args.smoke {
            vec![]
        } else {
            vec![1_000, 10_000, 100_000, 1_000_000]
        }
    });
    let member_rows: Vec<HierRow> = if member_totals.is_empty() {
        Vec::new()
    } else {
        let routers = 1000;
        println!(
            "members_sweep pim-spt at {routers} routers, {} threads:",
            args.threads
        );
        let rows: Vec<HierRow> = member_totals
            .iter()
            .map(|&m| hier_run(routers, m, args.seed, args.threads))
            .collect();
        print_hier_table(&rows);
        rows
    };

    // Bounded-capacity congestion sweep (opt-in: it measures graceful
    // degradation, not throughput, so the default run stays unchanged).
    let congestion_rows = if args.congestion {
        let rows = congestion_sweep(args.seed, args.threads);
        println!(
            "congestion_sweep pim-spt at 30 nodes, queue={CONGESTION_QUEUE}B \
             ecn={}B ctrl-prio on, {} threads:",
            CONGESTION_QUEUE / 2,
            args.threads
        );
        println!(
            "{:<10} {:>11} {:>6} {:>7} {:>7} {:>6} {:>7} {:>10} {:>9}",
            "rate B/tk",
            "deliveries",
            "del%",
            "dropd",
            "dropc",
            "ecn",
            "peakq",
            "events",
            "wall ms"
        );
        for r in &rows {
            println!(
                "{:<10} {:>11} {:>6.1} {:>7} {:>7} {:>6} {:>7} {:>10} {:>9.1}",
                if r.rate == 0 {
                    "unlimited".to_string()
                } else {
                    r.rate.to_string()
                },
                r.deliveries,
                100.0 * r.deliveries as f64 / r.expected as f64,
                r.drops_data,
                r.drops_ctrl,
                r.ecn_marks,
                r.peak_queue,
                r.events,
                r.wall_ms,
            );
        }
        for r in &rows {
            println!(
                "congestion_fingerprint rate={} deliveries={} dropd={} dropc={} \
                 fingerprint={:#018x}",
                r.rate, r.deliveries, r.drops_data, r.drops_ctrl, r.fingerprint
            );
        }
        rows
    } else {
        Vec::new()
    };

    if let Some(path) = &args.json {
        let mut sweep_json = String::new();
        for (i, r) in rows.iter().enumerate() {
            sweep_json.push_str(&format!(
                "    {{\"nodes\": {}, \"deliveries\": {}, \"events\": {}, \
                 \"regions\": {}, \"wall_ms\": {:.1}, \"run_ms\": {:.1}, \
                 \"us_per_event\": {:.2}, \"serial_pct\": {}}}{}\n",
                r.nodes,
                r.deliveries,
                r.events,
                r.regions,
                r.wall_ms,
                r.run_ms,
                r.us_per_event(),
                r.profile
                    .as_ref()
                    .map(|p| format!("{:.1}", p.serial_pct()))
                    .unwrap_or_else(|| "null".into()),
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        let mut lan_json = String::new();
        for (i, (payload, received, fingerprint, lan_ms)) in lan_rows.iter().enumerate() {
            lan_json.push_str(&format!(
                "    {{\"packets\": {packets}, \"receivers\": {RECEIVERS}, \
                 \"payload_bytes\": {payload}, \"deliveries\": {received}, \
                 \"fingerprint\": \"{fingerprint:#018x}\", \"wall_ms\": {lan_ms:.1}, \
                 \"deliveries_per_ms\": {:.0}}}{}\n",
                *received as f64 / lan_ms,
                if i + 1 == lan_rows.len() { "" } else { "," }
            ));
        }
        let mut congestion_json = String::new();
        for (i, r) in congestion_rows.iter().enumerate() {
            congestion_json.push_str(&format!(
                "    {{\"rate_bytes_per_tick\": {}, \"queue_bytes\": {}, \
                 \"deliveries\": {}, \"expected\": {}, \"queue_drops_data\": {}, \
                 \"queue_drops_ctrl\": {}, \"ecn_marks\": {}, \"peak_queue_bytes\": {}, \
                 \"events\": {}, \"wall_ms\": {:.1}, \"fingerprint\": \"{:#018x}\"}}{}\n",
                r.rate,
                if r.rate == 0 { 0 } else { CONGESTION_QUEUE },
                r.deliveries,
                r.expected,
                r.drops_data,
                r.drops_ctrl,
                r.ecn_marks,
                r.peak_queue,
                r.events,
                r.wall_ms,
                r.fingerprint,
                if i + 1 == congestion_rows.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        let json = format!(
            "{{\n  \"bench\": \"simbench\", \"seed\": {}, \"threads\": {},\n  \
             \"lan_fanout\": [\n{lan_json}  ],\n  \
             \"protocol_run\": {{\"proto\": \"pim-spt\", \"nodes\": 30, \
             \"deliveries\": {deliveries}, \"wall_ms\": {proto_ms:.1}}},\n  \
             \"node_sweep\": [\n{sweep_json}  ],\n  \
             \"hier_sweep\": [\n{}  ],\n  \
             \"members_sweep\": [\n{}  ],\n  \
             \"congestion_sweep\": [\n{congestion_json}  ]\n}}\n",
            args.seed,
            args.threads,
            hier_json(&hier_rows),
            hier_json(&member_rows),
        );
        perf::write_json(path, &json);
    }
}
