//! `hier_ctrl` / `hier_ctrl_par`: PIM-SPT over a hierarchical internet,
//! one aggregate member site per stub domain, long simulated time and
//! sparse data — so the event mix is control deliveries and timers.
//!
//! `hier_ctrl_par` is byte-identical input on two regions (backbone |
//! domains, `HierTopology::region_hints(2)`) and two threads.

use super::sim::{self, LayerSums, StatSums};
use super::{slice, Check, Rep, Workload};
use crate::span::Tracer;
use graph::gen::{hierarchical, HierParams, HierTopology, WaxmanParams};
use graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenario::{build_net_aggregate, Protocol, ScenarioNet, Substrate};
use wire::Group;

/// Size knobs.
struct Size {
    routers: usize,
    /// Simulated ticks the run covers.
    horizon: u64,
}

const FULL: Size = Size {
    routers: 2000,
    horizon: 2600,
};
const SMOKE: Size = Size {
    routers: 150,
    horizon: 1200,
};

/// Total aggregate members, spread evenly over the member sites.
const MEMBERS: u64 = 10_000;
/// Joins are staggered over this window from tick 20.
const JOIN_SPREAD: u64 = 40;
/// Data starts after every join has reached the RP.
const SEND_START: u64 = 400;
/// One 8-byte packet per sender every `SEND_GAP` ticks.
const SEND_GAP: u64 = 200;
/// Ticks left after the last packet for it to reach every member.
const DRAIN: u64 = 200;

/// A backbone of `routers / 10` and stub domains of 9 hung off it.
fn hier_params(routers: usize) -> HierParams {
    let backbone = (routers / 10).max(3);
    let domain_size = 9;
    HierParams {
        backbone: WaxmanParams {
            nodes: backbone,
            ..WaxmanParams::default()
        },
        domains: ((routers - backbone) / domain_size).max(2),
        domain_size,
        ..HierParams::default()
    }
}

/// Everything the timed run needs, built from the seed.
struct Input {
    net: ScenarioNet,
    /// Host slots that send (also member sites).
    senders: [usize; 2],
    packets_per_sender: u64,
    horizon: u64,
    /// Seconds `graph::gen::hierarchical` took.
    gen_s: f64,
}

/// Both variants draw from hier_ctrl's stream: identical inputs.
const STREAM: u64 = Workload::HierCtrl as u64;

/// The workload's internet for `seed` (also what the `unicast` drive
/// builds its oracle RIB over).
pub fn topology(seed: u64, smoke: bool) -> HierTopology {
    let size = if smoke { &SMOKE } else { &FULL };
    let mut rng = StdRng::seed_from_u64(par::mix(seed, STREAM, 0));
    hierarchical(&hier_params(size.routers), &mut rng)
}

fn setup(seed: u64, smoke: bool, threads: usize, tracer: &mut Tracer) -> Input {
    let size = if smoke { &SMOKE } else { &FULL };
    let (h, gen_s) = tracer.time("hierarchical", "graph", |_| topology(seed, smoke));
    // One member site per domain, at its leaf router.
    let sites: Vec<NodeId> = (0..h.domains).map(|d| h.leaf(d)).collect();
    let populations = vec![(MEMBERS / h.domains as u64).max(2); sites.len()];
    let (mut net, _) = tracer.time("build_net_aggregate", "scenario", |_| {
        build_net_aggregate(
            &h.graph,
            Protocol::Pim,
            Substrate::Oracle,
            Group::test(1),
            NodeId(0), // a backbone router as RP
            &sites,
            &populations,
            par::mix(seed, STREAM, 1),
        )
    });
    let senders = [0, h.domains / 2];
    let packets_per_sender = (size.horizon - SEND_START - DRAIN) / SEND_GAP;
    tracer.time("install", "scenario", |_| {
        for k in 0..sites.len() {
            net.join_at(k, 20 + k as u64 % JOIN_SPREAD);
        }
        for (i, &s) in senders.iter().enumerate() {
            net.send_at(s, SEND_START + 7 * i as u64, packets_per_sender, SEND_GAP);
        }
    });
    tracer.time("partition", "netsim", |_| {
        net.world.parallelize(threads);
        if threads > 1 {
            // Hosts inherit their router's region, so no host LAN is cut
            // and every cross-region link is a gateway link.
            let mut hints = h.region_hints(threads);
            let of_hosts: Vec<u32> = sites.iter().map(|n| hints[n.index()]).collect();
            hints.extend(of_hosts);
            net.world.set_partition(&hints);
        }
    });
    Input {
        net,
        senders,
        packets_per_sender,
        horizon: size.horizon,
        gen_s,
    }
}

/// Steps of simulated time the timed run is cut into.
const SLICES: u64 = 128;

/// One repetition on `threads` threads.
pub fn rep(seed: u64, smoke: bool, threads: usize, traced: bool, tracer: &mut Tracer) -> Rep {
    let (mut input, setup_s) = tracer.time("setup", "bench", |t| setup(seed, smoke, threads, t));

    let mut slices = Vec::new();
    let mut sums = StatSums::default();
    let (run, _) = tracer.time("run", "bench", |t| {
        let net = &mut input.net;
        let run = sim::run_sliced(net, input.horizon, SLICES, traced, t, &mut slices);
        let slots: Vec<usize> = (0..net.hosts.len()).collect();
        slice(&mut slices, || sums.add(net, &run.counters, &slots, 0));
        run
    });

    let net = &input.net;
    let total: u64 = net.populations.iter().sum();
    let expected: u64 = input
        .senders
        .iter()
        .map(|&s| input.packets_per_sender * (total - net.populations[s]))
        .sum();
    let regions = net.world.region_count();
    let checks = vec![
        sim::delivery_check(expected, sums.member_deliveries),
        Check::new(
            smoke || sums.control_share() >= 0.90,
            format!(
                "control+timer share of events {:.3} (>= 0.90)",
                sums.control_share()
            ),
        ),
        Check::new(
            regions == threads,
            format!("regions {regions} (expected {threads})"),
        ),
    ];
    let mut layer = Vec::new();
    if traced {
        let mut l = LayerSums::default();
        l.add(net, &run);
        layer = l.metrics();
        layer.push(("graph.gen_s", input.gen_s));
    }
    Rep {
        setup_s,
        slices,
        attempted: expected,
        failed: expected.saturating_sub(sums.member_deliveries),
        sim_stats: sums.stats(),
        checks,
        layer,
    }
}
