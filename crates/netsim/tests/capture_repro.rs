//! Repro check: is captured() truncation really partition-independent
//! when the number of transmissions exceeds the capture limit?

use netsim::{Ctx, Duration, IfaceId, Node, NodeIdx, SimTime, World};
use std::any::Any;

/// Replies with one packet to every packet it receives.
struct Echo;

impl Node for Echo {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, _packet: &[u8]) {
        ctx.send(iface, vec![0xEE]);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn run(partition: Option<&[u32]>) -> Vec<String> {
    let mut w = World::new(1);
    // nodes: 0=A, 1=B, 2=C, 3=D
    let n: Vec<NodeIdx> = (0..4).map(|_| w.add_node(Box::new(Echo))).collect();
    // A-D and C-B, both delay 2: deliveries to D and B land at the same tick.
    w.add_p2p(n[0], n[3], Duration(2));
    w.add_p2p(n[2], n[1], Duration(2));
    if let Some(p) = partition {
        w.set_partition(p);
    }
    w.enable_capture(3);
    let (a, c) = (n[0], n[2]);
    w.at(SimTime(0), move |w| {
        w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![1]));
        w.call_node(c, |_n, ctx| ctx.send(IfaceId(0), vec![2]));
    });
    w.run_until(SimTime(2));
    w.captured()
        .iter()
        .map(|r| format!("{} {:?} {:?}", r.at.ticks(), r.link, r.from))
        .collect()
}

#[test]
fn capture_truncation_partition_independence() {
    let single = run(None);
    // D (node 3) alone in one region, everyone else in the other.
    let split = run(Some(&[0, 0, 0, 1]));
    assert_eq!(single, split, "captured() diverged across partitions");
}

/// Three pairs ping-ponging in lock step: three transmits a tick, every
/// other tick, so a ring of 8 fills in the middle of a tick's batch and
/// then turns away a hundred times what it holds.
fn overflow(partition: Option<&[u32]>) -> Vec<(u64, usize, usize, Vec<u8>)> {
    let mut w = World::new(1);
    let n: Vec<NodeIdx> = (0..6).map(|_| w.add_node(Box::new(Echo))).collect();
    // Crossed on purpose: the nodes receiving in a tick are not in the
    // order their senders were.
    for (a, b) in [(0, 5), (4, 1), (2, 3)] {
        w.add_p2p(n[a], n[b], Duration(2));
    }
    if let Some(p) = partition {
        w.set_partition(p);
    }
    w.enable_capture(8);
    let first = [n[0], n[4], n[2]];
    w.at(SimTime(0), move |w| {
        for (i, a) in first.into_iter().enumerate() {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![i as u8]));
        }
    });
    w.run_until(SimTime(600));
    assert!(w.counters().rx_pkts() >= 800, "overflowed a hundredfold");
    w.captured()
        .iter()
        .map(|r| (r.at.ticks(), r.link.0, r.from.0, r.packet.to_vec()))
        .collect()
}

#[test]
fn an_overflowed_ring_holds_the_same_records_on_any_partition() {
    let single = overflow(None);
    assert_eq!(single.len(), 8);
    assert!(single.is_sorted_by_key(|r| r.0), "records in time order");
    assert_eq!(single[7].0, 4, "the first 8 of 3 a tick end at t4");
    assert_eq!(single, overflow(Some(&[0, 1, 0, 1, 0, 1])), "two regions");
    assert_eq!(
        single,
        overflow(Some(&[0, 1, 2, 3, 4, 5])),
        "a region per node"
    );
}
