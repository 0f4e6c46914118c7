//! `stream_data`: PIM-SPT on a flat Waxman internet with 1 KiB packets
//! streamed down four source trees at one packet per tick — so the event
//! mix is data deliveries, timers are noise and set-up is milliseconds.
//! The mirror image of `hier_ctrl`.

use super::sim::{self, LayerSums, StatSums};
use super::{slice, Check, Rep, Workload};
use crate::span::Tracer;
use graph::gen::{waxman, WaxmanParams};
use graph::NodeId;
use mctree::GroupSpec;
use netsim::{IfaceId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenario::{build_net, Protocol, ScenarioNet, Substrate};
use wire::ip;
use wire::Group;

struct Size {
    /// Independent networks per rep: summing over several topologies
    /// keeps the work nearly the same from seed to seed.
    worlds: usize,
    routers: usize,
    member_sites: usize,
    packets_per_sender: u64,
}

const FULL: Size = Size {
    worlds: 4,
    routers: 100,
    member_sites: 40,
    packets_per_sender: 1500,
};
const SMOKE: Size = Size {
    worlds: 2,
    routers: 30,
    member_sites: 10,
    packets_per_sender: 200,
};

const SENDERS: usize = 4;
/// Datagram payload: an 8-byte big-endian sequence number (what
/// `HostNode` logs) followed by filler up to 1 KiB.
const PAYLOAD: usize = 1024;
const DATA_TTL: u8 = 32;
/// Each sender first sends a few spaced packets so the register path,
/// the shared tree and the switch to the source tree are done before
/// the back-to-back stream starts. A warm-up packet can fall into the
/// switch-over transient and be lost; only stream packets are counted
/// as operations.
const WARM_PACKETS: u64 = 4;
const WARM_START: u64 = 150;
const WARM_GAP: u64 = 60;
const STREAM_START: u64 = 400;
/// Ticks after the last packet for it to reach every member.
const DRAIN: u64 = 200;

struct Input {
    /// The networks; every host slot is a member site and the first
    /// `SENDERS` slots also send.
    nets: Vec<ScenarioNet>,
    horizon: u64,
    gen_s: f64,
}

/// Schedule one datagram: built at send time from the host's slot with
/// the public pieces (`World::at`, `call_node`, `ip::Header::encap`), so
/// the payload size is the benchmark's choice, not `HostNode`'s.
fn send_at(net: &mut ScenarioNet, slot: usize, at: u64, seq: u64) {
    let (host, addr) = net.hosts[slot];
    let group = net.group;
    net.world.at(SimTime(at), move |w| {
        w.call_node(host, |_, ctx| {
            let mut payload = [0xa5u8; PAYLOAD];
            payload[..8].copy_from_slice(&seq.to_be_bytes());
            let header = ip::Header {
                proto: ip::Protocol::Data,
                ttl: DATA_TTL,
                src: addr,
                dst: group.addr(),
            };
            ctx.send(IfaceId(0), header.encap(&payload));
        });
    });
}

fn setup_net(seed: u64, size: &Size, world: u64, tracer: &mut Tracer) -> (ScenarioNet, f64) {
    let stream = Workload::StreamData as u64;
    let mut rng = StdRng::seed_from_u64(par::mix(seed, stream, 2 * world));
    let (g, gen_s) = tracer.time("waxman", "graph", |_| {
        waxman(
            &WaxmanParams {
                nodes: size.routers,
                ..WaxmanParams::default()
            },
            &mut rng,
        )
    });
    let spec = GroupSpec::random(size.routers, size.member_sites, SENDERS, &mut rng);
    let rendezvous = NodeId(rng.gen_range(0..size.routers as u32));
    let (mut net, _) = tracer.time("build_net", "scenario", |_| {
        build_net(
            &g,
            Protocol::Pim,
            Substrate::Oracle,
            Group::test(1),
            rendezvous,
            &spec.members,
            par::mix(seed, stream, 2 * world + 1),
        )
    });
    tracer.time("install", "scenario", |_| {
        for k in 0..size.member_sites {
            net.join_at(k, 20 + k as u64);
        }
        for s in 0..SENDERS {
            let offset = s as u64 * 3;
            for k in 0..WARM_PACKETS {
                send_at(&mut net, s, WARM_START + offset + k * WARM_GAP, k);
            }
            for k in 0..size.packets_per_sender {
                send_at(&mut net, s, STREAM_START + k, WARM_PACKETS + k);
            }
        }
    });
    (net, gen_s)
}

fn setup(seed: u64, size: &Size, tracer: &mut Tracer) -> Input {
    let mut gen_s = 0.0;
    let nets = (0..size.worlds as u64)
        .map(|w| {
            let (net, s) = setup_net(seed, size, w, tracer);
            gen_s += s;
            net
        })
        .collect();
    Input {
        nets,
        horizon: STREAM_START + size.packets_per_sender + DRAIN,
        gen_s,
    }
}

/// Steps of simulated time each network's run is cut into.
const SLICES: u64 = 48;

/// One repetition.
pub fn rep(seed: u64, smoke: bool, traced: bool, tracer: &mut Tracer) -> Rep {
    let size = if smoke { &SMOKE } else { &FULL };
    let (mut input, setup_s) = tracer.time("setup", "bench", |t| setup(seed, size, t));

    let mut slices = Vec::new();
    let mut sums = StatSums::default();
    let mut layer_sums = LayerSums::default();
    tracer.time("run", "bench", |t| {
        let members: Vec<usize> = (0..size.member_sites).collect();
        for net in &mut input.nets {
            let run = sim::run_sliced(net, input.horizon, SLICES, traced, t, &mut slices);
            slice(&mut slices, || {
                sums.add(net, &run.counters, &members, WARM_PACKETS)
            });
            if traced {
                layer_sums.add(net, &run);
            }
        }
    });

    // Every sender is a member site too and does not hear itself. The
    // warm-up packets are not operations.
    let expected = (input.nets.len() * SENDERS) as u64
        * size.packets_per_sender
        * (size.member_sites as u64 - 1);
    let checks = vec![
        sim::delivery_check(expected, sums.member_deliveries),
        Check::new(
            smoke || sums.data_share() >= 0.85,
            format!(
                "data-delivery share of events {:.3} (>= 0.85)",
                sums.data_share()
            ),
        ),
        Check::new(
            smoke || sums.timer_share() <= 0.02,
            format!("timer share of events {:.4} (<= 0.02)", sums.timer_share()),
        ),
    ];
    let mut layer = Vec::new();
    if traced {
        layer = layer_sums.metrics();
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
