//! Smoke runner: a table of workloads, each run against all three
//! protocols under the full oracle battery.
//!
//! ```text
//! smoke hier     [--domains N] [--population N] [--threads N] [--seed N]
//! smoke overload [--threads N] [--seed N]
//! ```
//!
//! **hier** — scale. One hierarchical internetwork (Waxman backbone, stub
//! domains of nine routers each — 500 routers at the default 50 domains)
//! with an [`igmp::PopulationNode`] aggregate site on every domain's leaf
//! router (10^4 members at the default population of 200), partitioned
//! along domain boundaries. After a warm-up train that absorbs the PIM
//! shared-tree → SPT switchover, every probe must reach every other site
//! and the battery must hold — including the site-scaled state bound,
//! which fails if any router's table grows with *members* rather than
//! *sites*. `--domains 200` is the 2 000-router shape of the benchmark's
//! `hier_ctrl` workloads.
//!
//! **overload** — congestion. Two workloads on the diamond, each with the
//! r1-r2 link (link 1, the RP-side edge) capped to a few bytes per tick
//! while the load is applied and restored before the probe train:
//! *flash-crowd* (cycles of synchronized join/leave churn plus a dense
//! warm-up train, so join waves and data compete for the capped link) and
//! *rp-overload* (elephant streams from the member slots converge on the
//! RP across the capped link). Both must actually congest — a workload
//! too weak to bite is itself a failure — and the probes must still
//! arrive (`congestion-recovery`).
//!
//! Every counter on a `PASS`/`FAIL` row is part of the deterministic
//! contract: `scripts/check.sh` diffs those rows at `--threads` 1, 2 and
//! 4. Indented under each row is the run's [`netsim::SimProfile`] — where
//! the wall-clock went, region by region, and the lock-step bound on
//! speed-up (`busy-us / critical-us / handoff-us / speed-up<=`); it only
//! observes, and its microsecond columns vary run to run. Exits nonzero
//! on any violation.

use graph::gen::{hierarchical, HierParams, WaxmanParams};
use graph::NodeId;
use netsim::{host_addr, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenario::{
    build_net_aggregate, check_battery, congested, topology, FaultEvent, FaultSchedule, Protocol,
    ScenarioNet, Substrate, TopoSpec, Violation,
};
use std::sync::{Arc, Mutex};
use telemetry::MetricsAggregator;

/// Warm-up packets from slot 0 (absorb RP-tree → SPT switchover losses;
/// under a cap, the data load that fights for the link).
const TRAIN: u64 = 10;
/// Checked probe packets from slot 0, sent once the network has settled.
const PROBES: u64 = 20;
/// Gap between probe packets.
const PROBE_GAP: u64 = 25;
/// The overload table's capped link: diamond link 1 is r1-r2, the edge
/// into the RP.
const CAPPED_LINK: usize = 1;
/// Tick at which the overload table restores the capped link.
const HEAL_AT: u64 = 1200;

/// One row of a smoke table. Slot 0 is the probe source; every other
/// slot must receive the probes.
struct Workload {
    name: String,
    topo: TopoSpec,
    population: u64,
    /// Domain-aligned region per router, when the topology has one.
    regions: Option<Vec<u32>>,
    schedule: FaultSchedule,
    /// Joins, warm-up and load, then the probe train at its own start.
    traffic: fn(&mut ScenarioNet),
    /// Run horizon: generously past the last probe.
    check_at: u64,
    /// The load exists to congest the capped link; staying clean fails.
    must_congest: bool,
    /// `par::mix` stream of the per-protocol world seed.
    stream: u64,
}

fn hier_traffic(net: &mut ScenarioNet) {
    for slot in 0..net.hosts.len() {
        net.join_at(slot, 20 + slot as u64);
    }
    net.send_at(0, 100, TRAIN, 40);
    net.send_at(0, 600, PROBES, PROBE_GAP);
}

/// Churn waves under the cap, warm-up data in the thick of it, probes
/// after the heal.
fn flash_crowd_traffic(net: &mut ScenarioNet) {
    net.flash_crowd(50, 3, 200, 7);
    net.send_at(0, 700, TRAIN, 5);
    net.send_at(0, 1500, PROBES, PROBE_GAP);
}

/// Members join early, elephant streams from the member slots cross the
/// capped link toward the RP, probes after the heal.
fn rp_overload_traffic(net: &mut ScenarioNet) {
    net.join_at(1, 20);
    net.join_at(2, 30);
    net.send_at(0, 100, TRAIN, 10);
    net.elephants(&[1, 2], 250, 40, 5);
    net.send_at(0, 1500, PROBES, PROBE_GAP);
}

fn hier_table(domains: usize, population: u64, threads: usize, seed: u64) -> Vec<Workload> {
    let params = HierParams {
        backbone: WaxmanParams {
            nodes: domains.max(3),
            ..WaxmanParams::default()
        },
        domains,
        domain_size: 9,
        ..HierParams::default()
    };
    let mut rng = StdRng::seed_from_u64(par::mix(seed, 8, domains as u64));
    let h = hierarchical(&params, &mut rng);
    vec![Workload {
        name: format!(
            "routers={} domains={} members={}",
            h.node_count(),
            h.domains,
            population * h.domains as u64
        ),
        regions: Some(h.region_hints(threads)),
        topo: TopoSpec {
            name: "hier",
            // One aggregate site per domain, at the leaf router.
            host_routers: (0..h.domains).map(|d| h.leaf(d)).collect(),
            graph: h.graph,
            rendezvous: NodeId(0),
        },
        population,
        schedule: FaultSchedule::default(),
        traffic: hier_traffic,
        check_at: 1600,
        must_congest: false,
        stream: 9,
    }]
}

fn overload_table() -> Vec<Workload> {
    let row = |name: &str, cap_at: u64, traffic: fn(&mut ScenarioNet)| {
        let mut schedule = FaultSchedule::default();
        schedule.push(cap_at, FaultEvent::Bandwidth(CAPPED_LINK, 2, 48, 1));
        schedule.push(HEAL_AT, FaultEvent::Bandwidth(CAPPED_LINK, 0, 0, 1));
        Workload {
            name: name.to_string(),
            topo: topology("diamond").expect("diamond topology"),
            population: 1,
            regions: None,
            schedule,
            traffic,
            check_at: 3000,
            must_congest: true,
            stream: 12,
        }
    };
    vec![
        row("flash-crowd", 100, flash_crowd_traffic),
        row("rp-overload", 200, rp_overload_traffic),
    ]
}

fn usage() -> ! {
    eprintln!(
        "usage: smoke hier [--domains N] [--population N] [--threads N] [--seed N]\n       \
         smoke overload [--threads N] [--seed N]"
    );
    std::process::exit(2);
}

/// Build → install → traffic → run → battery for one workload under one
/// protocol; prints the PASS/FAIL line and returns whether it passed.
fn run(table: &str, w: &Workload, proto: Protocol, threads: usize, seed: u64) -> bool {
    let mut net = build_net_aggregate(
        &w.topo.graph,
        proto,
        Substrate::Oracle,
        wire::Group::test(1),
        w.topo.rendezvous,
        &w.topo.host_routers,
        &vec![w.population; w.topo.host_routers.len()],
        par::mix(seed, w.stream, proto as u64),
    );
    net.install(&w.schedule);
    (w.traffic)(&mut net);
    let metrics = Arc::new(Mutex::new(MetricsAggregator::new()));
    net.attach_telemetry(metrics.clone());
    net.parallelize(threads, w.regions.as_deref());
    net.world.enable_profile();
    net.world.run_until(SimTime(w.check_at));

    let members: Vec<u32> = (1..w.topo.host_routers.len() as u32).collect();
    let source = host_addr(w.topo.host_routers[0], 0);
    let expected: Vec<u64> = (TRAIN..TRAIN + PROBES).collect();
    let mut violations = check_battery(&net, &members, source, &expected);
    if w.must_congest && !congested(&net) {
        violations.push(Violation {
            oracle: "overload-bites",
            node: 0,
            detail: format!("workload {} never congested the capped link", w.name),
        });
    }

    let c = net.world.counters();
    // Queue-depth distribution over the run's power-of-two peak samples
    // (deterministic, so part of the 1t-vs-4t diff).
    let (qd50, qd99) = {
        let mut m = telemetry::lock(&metrics);
        m.finish();
        (
            m.queue_depth.percentile(50.0),
            m.queue_depth.percentile(99.0),
        )
    };
    let verdict = if violations.is_empty() {
        "PASS"
    } else {
        "FAIL"
    };
    println!(
        "smoke {table} {} {:<5} {verdict} events={} drops={}/{} ecn={} peak={} \
         qdepth_p50={qd50} qdepth_p99={qd99} violations={}",
        w.name,
        proto.name(),
        c.events_dispatched(),
        c.queue_drops_data(),
        c.queue_drops_ctrl(),
        c.ecn_marks(),
        c.peak_queue_bytes(),
        violations.len(),
    );
    for v in violations.iter().take(10) {
        println!("  {} node {}: {}", v.oracle, v.node, v.detail);
    }
    let profile = net.world.profile().expect("enabled before the run");
    for line in profile.render().lines() {
        println!("  {line}");
    }
    violations.is_empty()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let table = args.next().unwrap_or_else(|| usage());
    let (mut domains, mut population, mut threads, mut seed) = (50usize, 200u64, 1usize, None);
    while let Some(a) = args.next() {
        let mut num = || -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{a} needs a number");
                usage()
            })
        };
        match (table.as_str(), a.as_str()) {
            ("hier", "--domains") => domains = num() as usize,
            ("hier", "--population") => population = num(),
            (_, "--threads") => threads = num() as usize,
            (_, "--seed") => seed = Some(num()),
            _ => usage(),
        }
    }
    let (workloads, seed) = match table.as_str() {
        "hier" => {
            let seed = seed.unwrap_or(11);
            (hier_table(domains, population, threads, seed), seed)
        }
        "overload" => (overload_table(), seed.unwrap_or(7)),
        _ => usage(),
    };
    println!("smoke {table} threads={threads}");
    let mut passed = true;
    for w in &workloads {
        for proto in Protocol::ALL {
            passed &= run(&table, w, proto, threads, seed);
        }
    }
    if !passed {
        std::process::exit(1);
    }
}
