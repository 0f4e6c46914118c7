//! `netsim` drives: LAN fan-out, per-hop forwarding, timers, and the
//! extra per-hop cost of the capacity and channel models.
//!
//! Receivers are O(1) per packet (count + length + first byte) so the
//! drive times the simulator, not its own harness; the reception
//! fingerprint is computed in a second, untimed pass over the same
//! inputs, which must deliver the same count. The sender's `Vec` clone
//! per packet stays inside the timed region on purpose: it is imposed by
//! `Ctx::send(iface, Vec<u8>)` and is therefore the program's cost.

use super::{best_ns_per_unit, Budget};
use netsim::{
    ChannelModel, Ctx, Duration, IfaceId, LinkCapacity, LinkId, Node, NodeIdx, SimTime, TimerId,
    World,
};
use std::any::Any;
use std::time::Instant;

/// Receivers on the fan-out LAN.
const RECEIVERS: usize = 32;
/// Nodes in the relay chain (so 15 hops per packet).
const CHAIN: usize = 16;
/// Nodes re-arming timers in the timer drive.
const TIMER_NODES: usize = 1000;

macro_rules! any_boilerplate {
    () => {
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    };
}

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
            // Vary the first byte so the fingerprint covers payload bytes.
            self.payload[0] = (self.sent & 0xff) as u8;
            ctx.send(IfaceId(0), self.payload.clone());
            self.sent += 1;
            ctx.set_timer(Duration(1), 0);
        }
    }
    any_boilerplate!();
}

/// A receiver. In the timed pass it is O(1) per packet; in the untimed
/// fingerprint pass it also folds arrival time, interface and every
/// payload byte into FNV-1a.
struct Receiver {
    fingerprinting: bool,
    received: u64,
    bytes: u64,
    first_bytes: u64,
    fingerprint: u64,
}

impl Receiver {
    fn new(fingerprinting: bool) -> Receiver {
        Receiver {
            fingerprinting,
            received: 0,
            bytes: 0,
            first_bytes: 0,
            fingerprint: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn fold(&mut self, byte: u8) {
        self.fingerprint = (self.fingerprint ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
}

impl Node for Receiver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
        self.received += 1;
        self.bytes += packet.len() as u64;
        self.first_bytes += u64::from(packet[0]);
        if self.fingerprinting {
            for b in ctx.now().ticks().to_le_bytes() {
                self.fold(b);
            }
            self.fold(iface.index() as u8);
            for &b in packet {
                self.fold(b);
            }
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    any_boilerplate!();
}

/// Forwards every packet out of its other interface, re-allocating it —
/// what every protocol adapter's `ctx.send(iface, pkt.to_vec())` does.
struct Relay;

impl Node for Relay {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
        ctx.send(IfaceId(1 - iface.0), packet.to_vec());
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    any_boilerplate!();
}

/// What one pass of a packet drive saw.
struct Pass {
    secs: f64,
    received: u64,
    bytes: u64,
    fingerprint: u64,
}

fn collect(w: &World, receivers: &[NodeIdx], secs: f64) -> Pass {
    let mut pass = Pass {
        secs,
        received: 0,
        bytes: 0,
        fingerprint: 0,
    };
    for &r in receivers {
        let node: &Receiver = w.node(r);
        pass.received += node.received;
        pass.bytes += node.bytes;
        pass.fingerprint ^= node.fingerprint.rotate_left((r.0 % 64) as u32);
        std::hint::black_box(node.first_bytes);
    }
    pass
}

fn timed_run(w: &mut World, until: u64) -> f64 {
    let t0 = Instant::now();
    w.run_until(SimTime(until));
    t0.elapsed().as_secs_f64()
}

/// One sender, `RECEIVERS` receivers on one LAN, `packets` packets.
fn fanout_pass(payload: usize, packets: u64, fingerprinting: bool) -> Pass {
    let mut w = World::new(7);
    let sender = w.add_node(Box::new(Blaster {
        payload: vec![0; payload],
        total: packets,
        sent: 0,
    }));
    let receivers: Vec<NodeIdx> = (0..RECEIVERS)
        .map(|_| w.add_node(Box::new(Receiver::new(fingerprinting))))
        .collect();
    let mut all = vec![sender];
    all.extend(&receivers);
    w.add_lan(&all, Duration(1));
    let secs = timed_run(&mut w, packets + 8);
    collect(&w, &receivers, secs)
}

/// A `CHAIN`-node line: sender, relays, one receiver. `shape` may put a
/// capacity or channel model on every link before the run.
fn chain_pass(
    payload: usize,
    packets: u64,
    fingerprinting: bool,
    shape: impl Fn(&mut World, LinkId),
) -> Pass {
    let mut w = World::new(7);
    let mut prev = w.add_node(Box::new(Blaster {
        payload: vec![0; payload],
        total: packets,
        sent: 0,
    }));
    let mut last = prev;
    for k in 1..CHAIN {
        last = if k + 1 == CHAIN {
            w.add_node(Box::new(Receiver::new(fingerprinting)))
        } else {
            w.add_node(Box::new(Relay))
        };
        let (link, _, _) = w.add_p2p(prev, last, Duration(1));
        shape(&mut w, link);
        prev = last;
    }
    let secs = timed_run(&mut w, packets + 2 * CHAIN as u64 + 64);
    collect(&w, &[last], secs)
}

/// Best nanoseconds per unit over the budget's batches, after checking
/// the timed pass against one untimed fingerprint pass.
fn packet_drive(
    budget: Budget,
    expect_received: u64,
    units: u64,
    pass: impl Fn(bool) -> Pass,
) -> f64 {
    let reference = pass(true);
    assert_eq!(
        reference.received, expect_received,
        "fingerprint pass lost packets"
    );
    assert_ne!(reference.fingerprint, 0);
    best_ns_per_unit(budget, || {
        let p = pass(false);
        assert_eq!(
            (p.received, p.bytes),
            (reference.received, reference.bytes),
            "timed and fingerprint passes must deliver the same packets"
        );
        (p.secs, units)
    })
}

/// Re-arms itself every tick for `rounds` rounds; with `decoy` it also
/// arms one far-future timer per fire and cancels the previous one.
struct Rearm {
    rounds: u64,
    fired: u64,
    decoy: bool,
    pending: Option<TimerId>,
}

impl Node for Rearm {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration(1), 0);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _packet: &[u8]) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.fired += 1;
        if self.decoy {
            if let Some(id) = self.pending.take() {
                ctx.cancel_timer(id);
            }
            self.pending = Some(ctx.set_timer(Duration(1 << 40), 1));
        }
        if self.fired < self.rounds {
            ctx.set_timer_at(ctx.now() + Duration(1), 0);
        }
    }
    any_boilerplate!();
}

/// Seconds for `TIMER_NODES` nodes to fire `rounds` timers each.
fn timer_pass(rounds: u64, decoy: bool) -> f64 {
    let mut w = World::new(7);
    let nodes: Vec<NodeIdx> = (0..TIMER_NODES)
        .map(|_| {
            w.add_node(Box::new(Rearm {
                rounds,
                fired: 0,
                decoy,
                pending: None,
            }))
        })
        .collect();
    let secs = timed_run(&mut w, rounds + 2);
    let fired: u64 = nodes.iter().map(|&n| w.node::<Rearm>(n).fired).sum();
    assert_eq!(fired, rounds * TIMER_NODES as u64, "every timer must fire");
    secs
}

/// Run the `netsim` drives.
pub fn run(budget: Budget, smoke: bool) -> Vec<(&'static str, f64)> {
    let scale = if smoke { 20 } else { 1 };
    let mut m = Vec::new();

    for (name, payload, packets) in [
        ("netsim.fanout_ns_per_delivery_64b", 64, 4000 / scale),
        ("netsim.fanout_ns_per_delivery_1k", 1024, 4000 / scale),
        ("netsim.fanout_ns_per_delivery_8k", 8192, 2000 / scale),
    ] {
        let deliveries = packets * RECEIVERS as u64;
        let ns = packet_drive(budget, deliveries, deliveries, |fp| {
            fanout_pass(payload, packets, fp)
        });
        m.push((name, ns));
    }

    let hops = CHAIN as u64 - 1;
    let packets = 8000 / scale;
    let clean = |payload: usize| {
        packet_drive(budget, packets, packets * hops, |fp| {
            chain_pass(payload, packets, fp, |_, _| {})
        })
    };
    let clean_64b = clean(64);
    m.push(("netsim.p2p_ns_per_hop_64b", clean_64b));
    m.push(("netsim.p2p_ns_per_hop_1k", clean(1024)));

    // Ample bandwidth and queue: the capacity path runs on every hop but
    // never delays or drops, so the same packets arrive.
    let capped = packet_drive(budget, packets, packets * hops, |fp| {
        chain_pass(64, packets, fp, |w, l| {
            w.set_link_capacity(
                l,
                LinkCapacity {
                    bytes_per_tick: 1 << 20,
                    queue_bytes: 1 << 30,
                    ecn_bytes: 0,
                    ctrl_priority: true,
                },
            )
        })
    });
    m.push(("netsim.capacity_ns_per_hop", capped - clean_64b));
    // A non-clean channel draws randomness per copy; a one-per-mille
    // reorder by one tick delays a few copies and loses none.
    let impaired = best_ns_per_unit(budget, || {
        let p = chain_pass(64, packets, false, |w, l| {
            w.set_channel_model(
                l,
                ChannelModel {
                    corrupt_pm: 0,
                    duplicate_pm: 0,
                    reorder_pm: 1,
                    jitter: 1,
                },
            )
        });
        (p.secs, p.received * hops)
    });
    m.push(("netsim.channel_ns_per_hop", impaired - clean_64b));

    let rounds = 200 / scale.min(10);
    let fires = rounds * TIMER_NODES as u64;
    let plain = best_ns_per_unit(budget, || (timer_pass(rounds, false), fires));
    let decoy = best_ns_per_unit(budget, || (timer_pass(rounds, true), fires));
    m.push(("netsim.timer_ns_per_fire", plain));
    m.push(("netsim.timer_ns_per_cancel", decoy - plain));
    m
}
