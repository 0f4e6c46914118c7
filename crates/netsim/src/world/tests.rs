//! Unit tests of the simulator core, all layers: they share the `Echo` /
//! `Quiet` nodes and the world fixtures, and keep the `world::tests::`
//! names tier-1 records them under.

use super::*;
use crate::queue::{next_dispatch_seq, EventQueue, SEQ_BITS};
use std::any::Any;
use std::cmp::Reverse;
use std::sync::Mutex;

/// A test node that echoes every packet back out the interface it came
/// in on, decrementing the first byte as a TTL; records deliveries.
struct Echo {
    received: Vec<(u64, IfaceId, Vec<u8>)>,
    timers: Vec<(u64, u64)>,
}

impl Echo {
    fn new() -> Self {
        Echo {
            received: Vec::new(),
            timers: Vec::new(),
        }
    }
}

impl Node for Echo {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
        self.received
            .push((ctx.now().ticks(), iface, packet.to_vec()));
        if let Some((&ttl, rest)) = packet.split_first() {
            if ttl > 0 {
                let mut next = vec![ttl - 1];
                next.extend_from_slice(rest);
                ctx.send(iface, next);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.timers.push((ctx.now().ticks(), token));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Records deliveries and nothing else — no retransmission. The
/// channel-model tests need this: corruption can flip a bit in the
/// byte [`Echo`] treats as a TTL, and an echoing receiver would then
/// amplify duplicated copies into an unbounded packet storm.
#[derive(Default)]
struct Quiet {
    received: Vec<(u64, IfaceId, Vec<u8>)>,
}

impl Node for Quiet {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
        self.received
            .push((ctx.now().ticks(), iface, packet.to_vec()));
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn quiet_world() -> (World, NodeIdx, NodeIdx, LinkId) {
    let mut w = World::new(1);
    let a = w.add_node(Box::<Quiet>::default());
    let b = w.add_node(Box::<Quiet>::default());
    let (l, _, _) = w.add_p2p(a, b, Duration(3));
    (w, a, b, l)
}

fn two_node_world() -> (World, NodeIdx, NodeIdx, LinkId) {
    let mut w = World::new(1);
    let a = w.add_node(Box::new(Echo::new()));
    let b = w.add_node(Box::new(Echo::new()));
    let (l, _, _) = w.add_p2p(a, b, Duration(3));
    (w, a, b, l)
}

#[test]
fn p2p_delivery_with_delay() {
    let (mut w, a, b, _) = two_node_world();
    w.at(SimTime(10), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 42]));
    });
    w.run_until(SimTime(100));
    let eb: &Echo = w.node(b);
    assert_eq!(eb.received.len(), 1);
    assert_eq!(eb.received[0].0, 13); // 10 + delay 3
    assert_eq!(eb.received[0].2, vec![0, 42]);
    // TTL 0: no echo back.
    let ea: &Echo = w.node(a);
    assert!(ea.received.is_empty());
}

#[test]
fn ping_pong_until_ttl_exhausted() {
    let (mut w, a, b, _) = two_node_world();
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![5]));
    });
    w.run_until(SimTime(1000));
    let ea: &Echo = w.node(a);
    let eb: &Echo = w.node(b);
    // b receives ttl=5,3,1; a receives ttl=4,2,0.
    assert_eq!(eb.received.len(), 3);
    assert_eq!(ea.received.len(), 3);
    assert_eq!(ea.received.last().unwrap().2, vec![0]);
}

#[test]
fn lan_broadcast_excludes_sender() {
    let mut w = World::new(1);
    let nodes: Vec<NodeIdx> = (0..4).map(|_| w.add_node(Box::new(Echo::new()))).collect();
    let (_, _ifaces) = w.add_lan(&nodes, Duration(1));
    let sender = nodes[2];
    w.at(SimTime(0), move |w| {
        w.call_node(sender, |_n, ctx| ctx.send(IfaceId(0), vec![0, 7]));
    });
    w.run_until(SimTime(10));
    for (i, &n) in nodes.iter().enumerate() {
        let e: &Echo = w.node(n);
        if n == sender {
            assert!(e.received.is_empty(), "sender must not hear itself");
        } else {
            assert_eq!(e.received.len(), 1, "node {i} missed the broadcast");
            assert_eq!(e.received[0].0, 1);
        }
    }
}

/// The LAN fan-out shares one `Arc` buffer across all receivers:
/// every receiver must see the exact payload bytes, and a receiver
/// re-sending a mutated copy (Echo decrements the TTL byte) must not
/// disturb what the others saw.
#[test]
fn lan_fanout_delivers_identical_payload_bytes() {
    let mut w = World::new(1);
    let nodes: Vec<NodeIdx> = (0..4).map(|_| w.add_node(Box::new(Echo::new()))).collect();
    w.add_lan(&nodes, Duration(1));
    let sender = nodes[0];
    let payload = vec![1, 0xAB, 0xCD, 0xEF];
    let sent = payload.clone();
    w.at(SimTime(0), move |w| {
        w.call_node(sender, |_n, ctx| ctx.send(IfaceId(0), sent));
    });
    w.run_until(SimTime(10));
    for &n in &nodes[1..] {
        let e: &Echo = w.node(n);
        assert_eq!(e.received.len(), 3, "broadcast + two peer echoes");
        assert_eq!(e.received[0].2, payload, "original payload corrupted");
        // The peers' echoes arrive with the TTL byte decremented —
        // their mutation happened on private buffers.
        assert_eq!(e.received[1].2, vec![0, 0xAB, 0xCD, 0xEF]);
        assert_eq!(e.received[2].2, vec![0, 0xAB, 0xCD, 0xEF]);
    }
    let es: &Echo = w.node(sender);
    assert_eq!(es.received.len(), 3, "one echo per receiver");
    assert!(es.received.iter().all(|r| r.2 == [0, 0xAB, 0xCD, 0xEF]));
}

/// A packet built once and sent out of three interfaces is queued as
/// three deliveries of that one buffer: `send` takes the `Arc` as it
/// is, and nothing between there and the event arena copies it.
#[test]
fn one_buffer_sent_out_of_three_interfaces_is_never_copied() {
    let mut w = World::new(1);
    let hub = w.add_node(Box::<Quiet>::default());
    for _ in 0..3 {
        let leaf = w.add_node(Box::<Quiet>::default());
        w.add_p2p(hub, leaf, Duration(5));
    }
    let packet: Arc<[u8]> = vec![7u8; 1024].into();
    let sent = Arc::clone(&packet);
    w.at(SimTime(0), move |w| {
        w.call_node(hub, |_n, ctx| {
            for i in 0..3 {
                ctx.send(IfaceId(i), Arc::clone(&sent));
            }
        });
    });
    w.run_until(SimTime(0));
    let queued: Vec<&Arc<[u8]>> = w.regions[0]
        .events
        .iter()
        .filter_map(|s| match &s.ev {
            Some(Event::Deliver { packet, .. }) => Some(packet),
            _ => None,
        })
        .collect();
    assert_eq!(queued.len(), 3);
    assert!(queued.iter().all(|q| Arc::ptr_eq(q, &packet)));
    w.run_until(SimTime(5));
    assert_eq!(w.counters().rx_pkts(), 3);
}

#[test]
fn timers_fire_in_order() {
    let mut w = World::new(1);
    let a = w.add_node(Box::new(Echo::new()));
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| {
            ctx.set_timer(Duration(10), 1);
            ctx.set_timer(Duration(5), 2);
            ctx.set_timer(Duration(10), 3); // same time as token 1: FIFO
        });
    });
    w.run_until(SimTime(100));
    let e: &Echo = w.node(a);
    assert_eq!(e.timers, vec![(5, 2), (10, 1), (10, 3)]);
}

#[test]
fn cancelled_timer_is_skipped_and_counted_stale() {
    let mut w = World::new(1);
    let a = w.add_node(Box::new(Echo::new()));
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| {
            let t1 = ctx.set_timer(Duration(10), 1);
            ctx.set_timer_at(SimTime(5), 2);
            assert!(ctx.cancel_timer(t1));
            assert!(!ctx.cancel_timer(t1), "double cancel must be a no-op");
        });
    });
    w.run_until(SimTime(100));
    let e: &Echo = w.node(a);
    assert_eq!(e.timers, vec![(5, 2)]);
    assert_eq!(w.counters().timers_fired(), 1);
    assert_eq!(w.counters().timers_skipped_stale(), 1);
}

#[test]
fn stale_handle_cannot_cancel_recycled_slot() {
    let mut w = World::new(1);
    let a = w.add_node(Box::new(Echo::new()));
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| {
            let t1 = ctx.set_timer(Duration(10), 1);
            assert!(ctx.cancel_timer(t1));
            // This reuses t1's arena slot under a new generation.
            ctx.set_timer(Duration(20), 2);
            assert!(
                !ctx.cancel_timer(t1),
                "generation must protect the slot's new tenant"
            );
        });
    });
    w.run_until(SimTime(100));
    let e: &Echo = w.node(a);
    assert_eq!(e.timers, vec![(20, 2)]);
}

#[test]
fn set_timer_at_past_deadline_fires_now() {
    let mut w = World::new(1);
    let a = w.add_node(Box::new(Echo::new()));
    w.at(SimTime(7), move |w| {
        w.call_node(a, |_n, ctx| {
            ctx.set_timer_at(SimTime(3), 9); // already past: clamped to now
        });
    });
    w.run_until(SimTime(100));
    let e: &Echo = w.node(a);
    assert_eq!(e.timers, vec![(7, 9)]);
}

#[test]
fn event_dispatch_counters() {
    let (mut w, a, _b, _l) = two_node_world();
    w.at(SimTime(10), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 42]));
    });
    w.run_until(SimTime(100));
    // One script + one delivery dispatched; no timers anywhere.
    assert_eq!(w.counters().events_dispatched(), 2);
    assert_eq!(w.counters().timers_fired(), 0);
    assert_eq!(w.counters().timers_skipped_stale(), 0);
    assert_eq!(w.counters().rx_pkts(), 1);
}

#[test]
fn downed_link_drops_traffic() {
    let (mut w, a, b, l) = two_node_world();
    w.at(SimTime(0), move |w| w.set_link_up(l, false));
    w.at(SimTime(1), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![3]));
    });
    w.run_until(SimTime(50));
    let eb: &Echo = w.node(b);
    assert!(eb.received.is_empty());
}

#[test]
fn lossy_link_drops_some() {
    let (mut w, a, _b, l) = two_node_world();
    w.set_link_loss(l, 0.5);
    for t in 0..200 {
        w.at(SimTime(t), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0]));
        });
    }
    w.run_until(SimTime(1000));
    let eb: &Echo = w.node(NodeIdx(1));
    assert!(
        eb.received.len() > 50,
        "lost too many: {}",
        eb.received.len()
    );
    assert!(
        eb.received.len() < 150,
        "lost too few: {}",
        eb.received.len()
    );
    assert!(w.counters().losses() > 0);
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let (mut w, a, _b, l) = two_node_world();
        w.set_link_loss(l, 0.3);
        for t in 0..50 {
            w.at(SimTime(t), move |w| {
                w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
            });
        }
        w.run_until(SimTime(500));
        // Drain rather than clone: the world is dropped right after,
        // so the copy was pure waste.
        let eb: &mut Echo = w.node_mut(NodeIdx(1));
        std::mem::take(&mut eb.received)
    };
    assert_eq!(run(), run());
}

#[test]
fn clock_advances_to_horizon_when_idle() {
    let (mut w, _a, _b, _l) = two_node_world();
    w.run_until(SimTime(123));
    assert_eq!(w.now(), SimTime(123));
}

#[test]
#[should_panic(expected = "in the past")]
fn scheduling_in_the_past_rejected() {
    let (mut w, _a, _b, _l) = two_node_world();
    w.run_until(SimTime(10));
    w.at(SimTime(5), |_| {});
}

#[test]
fn crash_cancels_armed_timers() {
    let mut w = World::new(1);
    let a = w.add_node(Box::new(Echo::new()));
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| {
            ctx.set_timer(Duration(10), 1);
            ctx.set_timer(Duration(20), 2);
        });
    });
    w.at(SimTime(5), move |w| w.crash_node(a));
    w.run_until(SimTime(100));
    let e: &Echo = w.node(a);
    assert!(e.timers.is_empty(), "no timer may fire on a dead node");
    assert_eq!(w.counters().timers_cancelled_node_down(), 2);
    assert_eq!(w.counters().timers_fired(), 0);
    assert!(!w.is_node_up(a));
}

#[test]
fn down_node_drops_deliveries_and_restart_revives() {
    let (mut w, a, b, _l) = two_node_world();
    w.at(SimTime(0), move |w| w.crash_node(b));
    // Transmitted while b is down: dropped at the dead attachment.
    w.at(SimTime(1), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 1]));
    });
    w.at(SimTime(10), move |w| w.restart_node(b));
    // Transmitted after restart: delivered normally.
    w.at(SimTime(20), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 2]));
    });
    w.run_until(SimTime(100));
    let eb: &Echo = w.node(b);
    assert_eq!(eb.received.len(), 1, "only the post-restart packet");
    assert_eq!(eb.received[0].2, vec![0, 2]);
    assert_eq!(w.counters().pkts_dropped_node_down(), 1);
    assert!(w.is_node_up(b));
}

#[test]
fn in_flight_packet_to_crashing_node_is_dropped() {
    // delay 3: send at t=0, crash at t=1, delivery due t=3 is discarded.
    let (mut w, a, b, _l) = two_node_world();
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 9]));
    });
    w.at(SimTime(1), move |w| w.crash_node(b));
    w.run_until(SimTime(100));
    let eb: &Echo = w.node(b);
    assert!(eb.received.is_empty());
    assert_eq!(w.counters().pkts_dropped_node_down(), 1);
}

#[test]
fn channel_corruption_flips_one_bit_and_counts() {
    let (mut w, a, _b, l) = quiet_world();
    w.set_channel_model(
        l,
        ChannelModel {
            corrupt_pm: 1000, // always corrupt
            ..ChannelModel::CLEAN
        },
    );
    let payload = vec![0u8, 0xAA, 0xBB, 0xCC];
    let sent = payload.clone();
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), sent));
    });
    w.run_until(SimTime(50));
    let eb: &Quiet = w.node(NodeIdx(1));
    assert_eq!(eb.received.len(), 1, "corruption must not drop the packet");
    let got = &eb.received[0].2;
    assert_eq!(got.len(), payload.len());
    let diff: u32 = got
        .iter()
        .zip(&payload)
        .map(|(a, b)| (a ^ b).count_ones())
        .sum();
    assert_eq!(diff, 1, "exactly one bit flipped");
    assert_eq!(w.counters().pkts_corrupted(), 1);
}

#[test]
fn channel_duplication_delivers_twice() {
    let (mut w, a, _b, l) = quiet_world();
    w.set_channel_model(
        l,
        ChannelModel {
            duplicate_pm: 1000,
            ..ChannelModel::CLEAN
        },
    );
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 7]));
    });
    w.run_until(SimTime(50));
    let eb: &Quiet = w.node(NodeIdx(1));
    assert_eq!(eb.received.len(), 2, "duplicate delivers two copies");
    assert_eq!(eb.received[0].2, eb.received[1].2);
    assert_eq!(w.counters().pkts_duplicated(), 1);
}

#[test]
fn channel_reorder_delays_past_later_traffic() {
    let (mut w, a, _b, l) = quiet_world();
    w.set_channel_model(
        l,
        ChannelModel {
            reorder_pm: 1000,
            jitter: 100,
            ..ChannelModel::CLEAN
        },
    );
    // First packet is delayed by 1..=100 extra ticks; switch the
    // channel off before the second so it travels clean — the second
    // can overtake the first whenever the jitter draw exceeds 5.
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 1]));
    });
    w.at(SimTime(1), move |w| {
        w.set_channel_model(l, ChannelModel::CLEAN)
    });
    w.at(SimTime(5), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 2]));
    });
    w.run_until(SimTime(500));
    let eb: &Quiet = w.node(NodeIdx(1));
    assert_eq!(eb.received.len(), 2);
    assert_eq!(w.counters().pkts_reordered(), 1);
    // Delivery time of the jittered copy is strictly later than clean.
    assert!(eb.received.iter().any(|r| r.2 == [0, 1] && r.0 > 3));
}

#[test]
fn clean_channel_consumes_no_randomness() {
    // Installing a CLEAN model must leave the trace identical to not
    // touching the channel at all (same RNG stream).
    let run = |install: bool| {
        let (mut w, a, _b, l) = quiet_world();
        w.set_link_loss(l, 0.3);
        if install {
            w.set_channel_model(l, ChannelModel::CLEAN);
        }
        for t in 0..50 {
            w.at(SimTime(t), move |w| {
                w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
            });
        }
        w.run_until(SimTime(500));
        let eb: &mut Quiet = w.node_mut(NodeIdx(1));
        std::mem::take(&mut eb.received)
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn adversarial_channel_is_deterministic() {
    let run = || {
        let (mut w, a, _b, l) = quiet_world();
        w.set_channel_model(
            l,
            ChannelModel {
                corrupt_pm: 300,
                duplicate_pm: 300,
                reorder_pm: 300,
                jitter: 40,
            },
        );
        for t in 0..80 {
            w.at(SimTime(t * 3), move |w| {
                w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
            });
        }
        w.run_until(SimTime(2000));
        let stats = (
            w.counters().pkts_corrupted(),
            w.counters().pkts_duplicated(),
            w.counters().pkts_reordered(),
        );
        let eb: &mut Quiet = w.node_mut(NodeIdx(1));
        (std::mem::take(&mut eb.received), stats)
    };
    let (recv_a, stats_a) = run();
    let (recv_b, stats_b) = run();
    assert_eq!(recv_a, recv_b);
    assert_eq!(stats_a, stats_b);
    assert!(stats_a.0 > 0 && stats_a.1 > 0 && stats_a.2 > 0);
}

#[test]
fn decode_failure_accounting() {
    let (mut w, a, _b, _l) = two_node_world();
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| {
            ctx.count_decode_failure(IfaceId(0), "checksum");
            ctx.count_decode_failure(IfaceId(0), "truncated");
        });
    });
    w.run_until(SimTime(10));
    assert_eq!(w.counters().decode_failures(a), 2);
    assert_eq!(w.counters().decode_failures(NodeIdx(1)), 0);
    assert_eq!(w.counters().total_decode_failures(), 2);
}

#[test]
fn crash_and_restart_are_idempotent() {
    let (mut w, _a, b, _l) = two_node_world();
    w.at(SimTime(0), move |w| {
        w.crash_node(b);
        w.crash_node(b); // no-op
    });
    w.at(SimTime(5), move |w| {
        w.restart_node(b);
        w.restart_node(b); // no-op
    });
    w.run_until(SimTime(50));
    assert!(w.is_node_up(b));
}

// ---- Capacity-model tests ---------------------------------------

/// A serialized packet that classifies as [`PacketClass::Data`]
/// (raw unparseable test bytes classify as Control, which the
/// priority class would bypass).
fn data_pkt(len: usize) -> Vec<u8> {
    wire::ip::Header {
        proto: wire::ip::Protocol::Data,
        ttl: 8,
        src: wire::Addr::new(10, 0, 0, 1),
        dst: wire::Addr::new(239, 0, 0, 1),
    }
    .encap(&vec![0u8; len])
}

#[test]
fn capacity_serialization_and_queueing_delay() {
    let (mut w, a, _b, l) = quiet_world();
    w.set_link_capacity(
        l,
        LinkCapacity {
            bytes_per_tick: 1,
            queue_bytes: 10_000,
            ecn_bytes: 0,
            ctrl_priority: true,
        },
    );
    let p1 = data_pkt(4);
    let p2 = data_pkt(4);
    let len = p1.len() as u64;
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| {
            ctx.send(IfaceId(0), p1);
            ctx.send(IfaceId(0), p2);
        });
    });
    w.run_until(SimTime(1000));
    let eb: &Quiet = w.node(NodeIdx(1));
    assert_eq!(eb.received.len(), 2);
    // First packet: backlog = len, so delay 3 + len; second queues
    // behind it: delay 3 + 2*len. FIFO order is preserved.
    assert_eq!(eb.received[0].0, 3 + len);
    assert_eq!(eb.received[1].0, 3 + 2 * len);
    assert_eq!(w.counters().peak_queue_bytes(), 2 * len);
    assert_eq!(w.counters().queue_drops_data(), 0);
}

#[test]
fn capacity_tail_drops_and_marks() {
    let (mut w, a, _b, l) = quiet_world();
    let unit = data_pkt(4).len() as u64;
    // Queue fits exactly two packets; ECN threshold crosses at the
    // second enqueue.
    w.set_link_capacity(
        l,
        LinkCapacity {
            bytes_per_tick: 1,
            queue_bytes: 2 * unit,
            ecn_bytes: unit,
            ctrl_priority: true,
        },
    );
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| {
            for _ in 0..4 {
                ctx.send(IfaceId(0), data_pkt(4));
            }
        });
    });
    w.run_until(SimTime(1000));
    let eb: &Quiet = w.node(NodeIdx(1));
    assert_eq!(eb.received.len(), 2, "third and fourth tail-dropped");
    let c = w.counters();
    assert_eq!(c.queue_drops_data(), 2);
    assert_eq!(c.queue_drops_ctrl(), 0);
    assert_eq!(c.ecn_marks(), 1, "second enqueue crossed the threshold");
    assert_eq!(c.peak_queue_bytes(), 2 * unit);
    assert_eq!(c.link(l).queue_cap_bytes, 2 * unit);
    // Tail-dropped packets never reached the wire: tx counts only
    // the two delivered packets.
    assert_eq!(c.total_data_pkts(), 2);
}

#[test]
fn capacity_ctrl_priority_bypasses_full_queue() {
    // Raw unparseable bytes classify as Control. With priority on,
    // they sail past a saturated queue; with priority off, they
    // tail-drop like anything else — the starvation configuration.
    let unit = data_pkt(4).len() as u64;
    let run = |prio: bool| {
        let (mut w, a, _b, l) = quiet_world();
        w.set_link_capacity(
            l,
            LinkCapacity {
                bytes_per_tick: 1,
                // Exactly one data packet fills the queue.
                queue_bytes: unit,
                ecn_bytes: 0,
                ctrl_priority: prio,
            },
        );
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                // Saturate with data, then offer one control packet.
                ctx.send(IfaceId(0), data_pkt(4));
                ctx.send(IfaceId(0), vec![0xFF; 6]);
            });
        });
        w.run_until(SimTime(1000));
        let got = w.node::<Quiet>(NodeIdx(1)).received.len();
        (got, w.counters().queue_drops_ctrl())
    };
    let (got, starved) = run(true);
    assert_eq!(got, 2, "control bypasses the full queue");
    assert_eq!(starved, 0);
    let (got, starved) = run(false);
    assert_eq!(got, 1, "no priority: control starves behind data");
    assert_eq!(starved, 1);
}

#[test]
fn capacity_disabled_consumes_no_randomness() {
    // Explicitly installing UNLIMITED must leave the trace identical
    // to never touching capacity at all (same RNG stream), exactly
    // like the CLEAN channel contract.
    let run = |install: bool| {
        let (mut w, a, _b, l) = quiet_world();
        w.set_link_loss(l, 0.3);
        if install {
            w.set_link_capacity(l, LinkCapacity::UNLIMITED);
        }
        for t in 0..50 {
            w.at(SimTime(t), move |w| {
                w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
            });
        }
        w.run_until(SimTime(500));
        let eb: &mut Quiet = w.node_mut(NodeIdx(1));
        std::mem::take(&mut eb.received)
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn capacity_drains_backlog_over_time() {
    let (mut w, a, _b, l) = quiet_world();
    let unit = data_pkt(4).len() as u64;
    w.set_link_capacity(
        l,
        LinkCapacity {
            bytes_per_tick: 2,
            queue_bytes: 2 * unit,
            ecn_bytes: 0,
            ctrl_priority: true,
        },
    );
    // Fill the queue at t=0, then send again after it has fully
    // drained: no drop the second time.
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| {
            ctx.send(IfaceId(0), data_pkt(4));
            ctx.send(IfaceId(0), data_pkt(4));
            ctx.send(IfaceId(0), data_pkt(4)); // dropped: queue full
        });
    });
    let late = SimTime(unit); // 2*unit bytes / 2 per tick = unit ticks
    w.at(late, move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), data_pkt(4)));
    });
    w.run_until(SimTime(1000));
    let eb: &Quiet = w.node(NodeIdx(1));
    assert_eq!(eb.received.len(), 3);
    assert_eq!(w.counters().queue_drops_data(), 1);
}

#[test]
fn set_link_loss_clamps_out_of_range() {
    let (mut w, _a, _b, l) = quiet_world();
    w.set_link_loss(l, 1.5);
    assert_eq!(w.link(l).loss, 1.0);
    w.set_link_loss(l, -0.25);
    assert_eq!(w.link(l).loss, 0.0);
    w.set_link_loss(l, f64::NAN);
    assert_eq!(w.link(l).loss, 0.0);
    w.set_link_loss(l, 0.75);
    assert_eq!(w.link(l).loss, 0.75);
}

// ---- Partitioned-core tests -------------------------------------

/// A sink that renders every event to its JSONL form — the same
/// bytes `telemetry::JsonlSink` would write, usable as a fingerprint.
struct VecSink(Vec<String>);

impl telemetry::Sink for VecSink {
    fn event(&mut self, node: u32, at: u64, ev: &telemetry::Event) {
        self.0.push(ev.to_json(node, at));
    }
}

/// Build a 4-node line `n0 -1- n1 -5- n2 -1- n3` (the delay-5 middle
/// link is the natural cross-region cut) and script cross-link
/// ping-pong traffic with loss + adversarial channel + a mid-run
/// crash/restart onto it. Not started: attach telemetry, then run.
fn fixture_world(partition: Option<&[u32]>, threads: Option<usize>) -> (World, Vec<NodeIdx>) {
    let mut w = World::new(42);
    let nodes: Vec<NodeIdx> = (0..4).map(|_| w.add_node(Box::new(Echo::new()))).collect();
    w.add_p2p(nodes[0], nodes[1], Duration(1));
    let (mid, _, _) = w.add_p2p(nodes[1], nodes[2], Duration(5));
    w.add_p2p(nodes[2], nodes[3], Duration(1));
    if let Some(p) = partition {
        w.set_partition(p);
    }
    if let Some(t) = threads {
        w.parallelize(t);
    }
    w.set_link_loss(mid, 0.2);
    w.set_channel_model(
        mid,
        ChannelModel {
            corrupt_pm: 200,
            duplicate_pm: 200,
            reorder_pm: 200,
            jitter: 7,
        },
    );
    // Capacity on the cross-region link, with priority off so the
    // Echo traffic (raw bytes classify as Control) actually queues:
    // per-direction queue state must be partition-invariant too.
    w.set_link_capacity(
        mid,
        LinkCapacity {
            bytes_per_tick: 2,
            queue_bytes: 24,
            ecn_bytes: 12,
            ctrl_priority: false,
        },
    );
    let (n1, n2) = (nodes[1], nodes[2]);
    for t in 0..30u64 {
        w.at(SimTime(t * 4), move |w| {
            // n1's iface 1 faces the cross-region link to n2.
            w.call_node(n1, |_n, ctx| ctx.send(IfaceId(1), vec![4, t as u8]));
        });
    }
    w.at(SimTime(35), move |w| w.crash_node(n2));
    w.at(SimTime(60), move |w| w.restart_node(n2));
    (w, nodes)
}

/// Run [`fixture_world`] to t=600 and return (receptions, telemetry
/// JSONL, counter totals).
#[allow(clippy::type_complexity)]
fn partitioned_fixture(
    partition: Option<&[u32]>,
    threads: Option<usize>,
) -> (Vec<Vec<(u64, IfaceId, Vec<u8>)>>, Vec<String>, Vec<u64>) {
    let (mut w, nodes) = fixture_world(partition, threads);
    let sink = Arc::new(Mutex::new(VecSink(Vec::new())));
    w.set_telemetry(sink.clone() as telemetry::SharedSink);
    w.run_until(SimTime(600));
    let receptions = nodes
        .iter()
        .map(|&n| w.node::<Echo>(n).received.clone())
        .collect();
    let jsonl = sink.lock().unwrap().0.clone();
    let c = w.counters();
    let totals = vec![
        c.events_dispatched(),
        c.rx_pkts(),
        c.losses(),
        c.pkts_corrupted(),
        c.pkts_duplicated(),
        c.pkts_reordered(),
        c.pkts_dropped_node_down(),
        c.timers_fired(),
        c.timers_cancelled_node_down(),
        c.queue_drops_data(),
        c.queue_drops_ctrl(),
        c.ecn_marks(),
        c.peak_queue_bytes(),
    ];
    (receptions, jsonl, totals)
}

/// The tentpole contract: any region assignment produces byte-identical
/// receptions, telemetry, and merged counters — including under
/// impairments and a mid-run crash/restart.
#[test]
fn partitioned_run_is_byte_identical_to_single_region() {
    let single = partitioned_fixture(None, None);
    let split = partitioned_fixture(Some(&[0, 0, 1, 1]), None);
    assert_eq!(single.0, split.0, "receptions diverged");
    assert_eq!(single.1, split.1, "telemetry fingerprint diverged");
    assert_eq!(single.2, split.2, "merged counters diverged");
    // A deliberately bad partition (cutting the delay-1 links too)
    // must still agree — correctness never depends on the partition.
    let scattered = partitioned_fixture(Some(&[0, 1, 2, 3]), None);
    assert_eq!(single.0, scattered.0);
    assert_eq!(single.1, scattered.1);
    assert_eq!(single.2, scattered.2);
}

/// A sink that panics must cost the run that one panic and nothing
/// else: the locks it poisoned are recovered, so the world can be run
/// on, the sibling sink's stream is whole, and nothing is delivered
/// twice.
#[test]
fn a_panicking_sink_leaves_the_world_and_its_siblings_usable() {
    /// Panics while consuming its 40th event.
    struct Bomb(u32);
    impl telemetry::Sink for Bomb {
        fn event(&mut self, _node: u32, _at: u64, _ev: &telemetry::Event) {
            self.0 += 1;
            assert_ne!(self.0, 40, "sink bug");
        }
    }
    let reference = partitioned_fixture(Some(&[0, 0, 1, 1]), None).1;
    assert!(reference.len() > 40);

    let (mut w, _) = fixture_world(Some(&[0, 0, 1, 1]), None);
    let sibling = Arc::new(Mutex::new(VecSink(Vec::new())));
    let mut fan = telemetry::Fanout::new();
    fan.push(sibling.clone());
    fan.push(Arc::new(Mutex::new(Bomb(0))));
    w.set_telemetry(Arc::new(Mutex::new(fan)));
    let blown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        w.run_until(SimTime(600));
    }));
    assert!(blown.is_err(), "the 40th event blows up");
    w.run_until(SimTime(600));
    assert_eq!(telemetry::lock(&sibling).0, reference);
}

/// `parallelize(n)` (auto-partition + the worker crew) is also
/// byte-identical, and the auto-partitioner cuts at the delay-5 link.
#[test]
fn parallelize_auto_partitions_and_matches_single_region() {
    let single = partitioned_fixture(None, None);
    for threads in [2, 4] {
        let par = partitioned_fixture(None, Some(threads));
        assert_eq!(single.0, par.0, "threads={threads}: receptions diverged");
        assert_eq!(single.1, par.1, "threads={threads}: telemetry diverged");
        assert_eq!(single.2, par.2, "threads={threads}: counters diverged");
    }
    // Region-count sanity: the fixture topology splits on the
    // delay-5 middle link into exactly two delay-1 islands.
    let mut w = World::new(7);
    let nodes: Vec<NodeIdx> = (0..4).map(|_| w.add_node(Box::new(Echo::new()))).collect();
    w.add_p2p(nodes[0], nodes[1], Duration(1));
    w.add_p2p(nodes[1], nodes[2], Duration(5));
    w.add_p2p(nodes[2], nodes[3], Duration(1));
    w.parallelize(4);
    assert_eq!(w.region_count(), 2);
    assert_eq!(w.cross_region_lookahead(), Some(Duration(5)));
}

/// Captures merge across shards in canonical transmit order.
#[test]
fn capture_is_partition_independent() {
    let run = |partition: Option<&[u32]>| {
        let mut w = World::new(9);
        let a = w.add_node(Box::new(Echo::new()));
        let b = w.add_node(Box::new(Echo::new()));
        w.add_p2p(a, b, Duration(2));
        if let Some(p) = partition {
            w.set_partition(p);
        }
        w.enable_capture(16);
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![6]));
        });
        w.run_until(SimTime(100));
        w.captured()
            .iter()
            .map(|r| format!("{} {:?} {:?} {}", r.at.ticks(), r.link, r.from, r.summary()))
            .collect::<Vec<_>>()
    };
    let single = run(None);
    let split = run(Some(&[0, 1]));
    assert!(!single.is_empty());
    assert_eq!(single, split);
}

/// A tag with every field drawn from its edges as often as from the
/// middle, so ties on the leading fields are common.
fn arb_tag() -> impl proptest::prelude::Strategy<Value = Tag> {
    use proptest::prelude::*;
    let edge64 = |max: u64| prop_oneof![Just(0u64), Just(1u64), Just(max), 0..=max];
    (
        0u64..4,
        prop_oneof![Just(EPOCH_START), Just(EPOCH_EVENT), any::<u8>()],
        edge64(u32::MAX as u64),
        edge64((1 << SEQ_BITS) - 1),
        edge64(u32::MAX as u64),
    )
        .prop_map(|(time, epoch, origin, seq, emit)| Tag {
            time: SimTime(time),
            epoch,
            origin: origin as u32,
            seq,
            emit: emit as u32,
        })
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// The packed within-tick key orders exactly like the derived
    /// `Ord` on the tag, and loses nothing.
    #[test]
    fn sub_key_orders_like_the_tag_and_round_trips(a in arb_tag(), b in arb_tag()) {
        assert_eq!(Tag::from_sub_key(a.time, a.sub_key()), a);
        let (a0, b0) = (Tag { time: SimTime(0), ..a }, Tag { time: SimTime(0), ..b });
        assert_eq!(a.sub_key().cmp(&b.sub_key()), a0.cmp(&b0));
        assert_eq!((a.time, a.sub_key()).cmp(&(b.time, b.sub_key())), a.cmp(&b));
    }

    /// The pinned order: whatever the interleaving of pushes and
    /// pops, the queue pops exactly what the binary heap it replaced
    /// pops. Pushes land at the tick being drained, earlier than it
    /// after a partial drain, at `u64::MAX - 1`, on crowded ticks and
    /// on ticks of their own; tags repeat, `(slot, gen)` break ties.
    #[test]
    fn event_queue_pops_in_binary_heap_order(
        ops in proptest::prop::collection::vec((0u8..10, 0u64..6, arb_tag()), 1..300),
    ) {
        let mut queue = EventQueue::default();
        let mut reference: BinaryHeap<Reverse<(Tag, usize, u32)>> = BinaryHeap::new();
        let mut draining = 0u64;
        for (slot, (op, delta, tag)) in ops.into_iter().enumerate() {
            let time = match op {
                0..=3 => {
                    let want = reference.pop().map(|Reverse(e)| e);
                    let got = queue.pop();
                    assert_eq!(got, want.map(|(tag, slot, gen)| (tag.time, slot, gen)));
                    if let Some((t, _, _)) = got {
                        draining = t.ticks();
                    }
                    None
                }
                4 => Some(draining),
                5 => Some(draining.saturating_sub(1 + delta)),
                6 => Some(u64::MAX - 1),
                7 => Some(draining.saturating_add(delta)),
                _ => Some(delta * 1000 + tag.time.ticks()),
            };
            if let Some(time) = time {
                let (tag, gen) = (Tag { time: SimTime(time), ..tag }, tag.emit % 3);
                queue.push(tag, slot, gen);
                reference.push(Reverse((tag, slot, gen)));
                // A repeated tag, apart only in (slot, gen).
                if delta == 0 {
                    queue.push(tag, slot, gen + 1);
                    reference.push(Reverse((tag, slot, gen + 1)));
                }
            }
            let want = reference.peek().map(|Reverse((tag, _, _))| tag.time);
            assert_eq!(queue.peek_time(), want);
        }
        while let Some(Reverse((tag, slot, gen))) = reference.pop() {
            assert_eq!(queue.pop(), Some((tag.time, slot, gen)));
        }
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.peek_time(), None);
    }

    /// Whatever order transmits arrive in — a region only ever sees
    /// them nearly sorted, this does not assume it — a shard ends up
    /// holding exactly the `limit` smallest `(tag, arrival)` keys.
    #[test]
    fn a_capture_shard_keeps_the_smallest_keys(
        tags in proptest::prop::collection::vec(arb_tag(), 0..120),
        limit in 0usize..20,
    ) {
        let mut region = Region::new(0);
        let packet: Arc<[u8]> = Arc::from(vec![7u8]);
        for (i, &tag) in tags.iter().enumerate() {
            region.capture(limit, tag, LinkId(i), NodeIdx(0), &packet);
        }
        let mut held: Vec<(Tag, u64)> = region.capture.iter().map(|c| c.key).collect();
        held.sort_unstable();
        let mut want: Vec<(Tag, u64)> = tags.iter().copied().zip(0u64..).collect();
        want.sort_unstable();
        want.truncate(limit);
        assert_eq!(held, want);
        // A record stayed with its key: the link was numbered by arrival.
        assert!(region.capture.iter().all(|c| c.rec.link.0 as u64 == c.key.1));
    }
}

#[test]
fn the_last_dispatch_seq_the_key_can_hold_is_handed_out() {
    let mut counter = (1u64 << SEQ_BITS) - 1;
    assert_eq!(next_dispatch_seq(&mut counter), (1 << SEQ_BITS) - 1);
}

#[test]
#[should_panic(expected = "56-bit seq field")]
fn a_dispatch_seq_of_two_to_the_56_is_refused() {
    let mut counter = 1u64 << SEQ_BITS;
    next_dispatch_seq(&mut counter);
}
