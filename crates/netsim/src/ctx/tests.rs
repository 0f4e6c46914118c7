// `ctx`'s unit tests: send and fan-out, timers, loss, the channel
// model and the capacity model. `world.rs` splices this file into its
// `tests` module with `include!`, so each test keeps the `world::tests::`
// name it has always run under and uses that module's imports and
// `crate::fixture`'s nodes and worlds.

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
