//! Nodes, worlds and strategies the unit tests of every layer share.
#![cfg(test)]

use crate::queue::{Tag, EPOCH_EVENT, EPOCH_START, SEQ_BITS};
use crate::{ChannelModel, Ctx, Duration, IfaceId, LinkCapacity, LinkId, Node, NodeIdx};
use crate::{SimTime, World};
use std::any::Any;
use std::sync::{Arc, Mutex};

/// A test node that echoes every packet back out the interface it came
/// in on, decrementing the first byte as a TTL; records deliveries.
pub(crate) struct Echo {
    pub(crate) received: Vec<(u64, IfaceId, Vec<u8>)>,
    pub(crate) timers: Vec<(u64, u64)>,
}

impl Echo {
    pub(crate) fn new() -> Self {
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
pub(crate) struct Quiet {
    pub(crate) received: Vec<(u64, IfaceId, Vec<u8>)>,
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

/// Two [`Quiet`] nodes on a delay-3 link.
pub(crate) fn quiet_world() -> (World, NodeIdx, NodeIdx, LinkId) {
    let mut w = World::new(1);
    let a = w.add_node(Box::<Quiet>::default());
    let b = w.add_node(Box::<Quiet>::default());
    let (l, _, _) = w.add_p2p(a, b, Duration(3));
    (w, a, b, l)
}

/// Two [`Echo`] nodes on a delay-3 link.
pub(crate) fn two_node_world() -> (World, NodeIdx, NodeIdx, LinkId) {
    let mut w = World::new(1);
    let a = w.add_node(Box::new(Echo::new()));
    let b = w.add_node(Box::new(Echo::new()));
    let (l, _, _) = w.add_p2p(a, b, Duration(3));
    (w, a, b, l)
}

/// A sink that renders every event to its JSONL form — the same
/// bytes `telemetry::JsonlSink` would write, usable as a fingerprint.
pub(crate) struct VecSink(pub(crate) Vec<String>);

impl telemetry::Sink for VecSink {
    fn event(&mut self, node: u32, at: u64, ev: &telemetry::Event) {
        self.0.push(ev.to_json(node, at));
    }
}

/// Build a 4-node line `n0 -1- n1 -5- n2 -1- n3` (the delay-5 middle
/// link is the natural cross-region cut) and script cross-link
/// ping-pong traffic with loss + adversarial channel + a mid-run
/// crash/restart onto it. Not started: attach telemetry, then run.
pub(crate) fn fixture_world(
    partition: Option<&[u32]>,
    threads: Option<usize>,
) -> (World, Vec<NodeIdx>) {
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

/// What a run of [`fixture_world`] is held to: receptions, telemetry
/// JSONL, counter totals, and the captured packets.
pub(crate) type Fingerprint = (
    Vec<Vec<(u64, IfaceId, Vec<u8>)>>,
    Vec<String>,
    Vec<u64>,
    Vec<(u64, usize, usize, Vec<u8>)>,
);

/// Run [`fixture_world`] to t=600 and return its [`Fingerprint`].
pub(crate) fn partitioned_fixture(
    partition: Option<&[u32]>,
    threads: Option<usize>,
) -> Fingerprint {
    let (w, nodes) = fixture_world(partition, threads);
    run_fixture(w, &nodes)
}

/// Run a [`fixture_world`] to t=600, with telemetry and a capture ring
/// smaller than the run's transmits, and return its [`Fingerprint`].
pub(crate) fn run_fixture(mut w: World, nodes: &[NodeIdx]) -> Fingerprint {
    let sink = Arc::new(Mutex::new(VecSink(Vec::new())));
    w.set_telemetry(sink.clone() as telemetry::SharedSink);
    w.enable_capture(64);
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
    let captured = w
        .captured()
        .iter()
        .map(|r| (r.at.ticks(), r.link.0, r.from.0, r.packet.to_vec()))
        .collect();
    (receptions, jsonl, totals, captured)
}

/// A tag with every field drawn from its edges as often as from the
/// middle, so ties on the leading fields are common.
pub(crate) fn arb_tag() -> impl proptest::prelude::Strategy<Value = Tag> {
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
