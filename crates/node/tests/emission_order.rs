//! The order of one dispatch's telemetry stream, pinned literally: the
//! adapter's marks (`ctrl-recv`, `route-changed`, `ctrl-send`), the
//! engine's entry events and the world's timer marks interleave exactly
//! as written below. An engine's events land after what the adapter
//! emitted before calling it and before the marks of the actions it
//! returned; the second case pins that for a call nested under a unicast
//! route change.

use netsim::{Ctx, Duration, IfaceId, Node, NodeIdx, SimTime, World};
use pim::{Engine, PimConfig, PimRouter};
use std::any::Any;
use std::sync::{Arc, Mutex};
use telemetry::{Event, Sink, Ticks};
use unicast::dv::{DvConfig, DvEngine};
use wire::ip::{Header, Protocol};
use wire::pim::{GroupEntry, JoinPrune, SourceEntry};
use wire::unicast::{DvRoute, DvUpdate};
use wire::{Addr, Group, Message};

const ROUTER: Addr = Addr::new(10, 0, 0, 1);
const UP_OLD: Addr = Addr::new(10, 0, 1, 1);
const UP_NEW: Addr = Addr::new(10, 0, 2, 1);
const DOWN: Addr = Addr::new(10, 0, 3, 1);
const RP: Addr = Addr::new(10, 0, 9, 1);

/// Writes down every event it is handed, in order.
#[derive(Default)]
struct Tape(Vec<String>);

impl Sink for Tape {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        self.0.push(format!("n{node} t{at} {ev}"));
    }
}

/// Hears everything, does nothing.
struct Quiet;

impl Node for Quiet {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _packet: &[u8]) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A PIM router on distance-vector routing with three point-to-point
/// neighbours: the old way to the RP (iface 0), the new one (iface 1) and
/// a downstream router (iface 2). Started and run to t=5 with `tape`
/// attached.
fn world(tape: &Arc<Mutex<Tape>>) -> (World, NodeIdx) {
    let mut world = World::new(7);
    let mut router = PimRouter::new(
        Engine::new(ROUTER, 3, PimConfig::default()),
        Box::new(DvEngine::from_parts(
            ROUTER,
            vec![1, 1, 1],
            DvConfig::default(),
        )),
    );
    router.engine_mut().set_rp_mapping(Group::test(1), vec![RP]);
    let router = world.add_node(Box::new(router));
    for _ in 0..3 {
        let n = world.add_node(Box::new(Quiet));
        world.add_p2p(router, n, Duration(2));
    }
    world.set_telemetry(tape.clone());
    world.run_until(SimTime(5));
    (world, router)
}

fn packet(src: Addr, dst: Addr, msg: Message) -> Vec<u8> {
    Header {
        proto: Protocol::Igmp,
        ttl: 1,
        src,
        dst,
    }
    .encap(&msg.encode())
}

/// `neighbour` advertises the RP `metric` hops away.
fn rp_route(neighbour: Addr, metric: u32) -> Vec<u8> {
    let update = DvUpdate {
        routes: vec![DvRoute { dst: RP, metric }],
    };
    packet(neighbour, Addr::ALL_ROUTERS, Message::DvUpdate(update))
}

/// The stream of the one barrier dispatch that hands `pkt` to the router
/// on `iface`.
fn dispatch(
    world: &mut World,
    router: NodeIdx,
    tape: &Arc<Mutex<Tape>>,
    iface: u32,
    pkt: Vec<u8>,
) -> Vec<String> {
    telemetry::lock(tape).0.clear();
    world.call_node(router, |n, ctx| n.on_packet(ctx, IfaceId(iface), &pkt));
    std::mem::take(&mut telemetry::lock(tape).0)
}

/// A router whose route to the RP goes through its old upstream, after
/// the dispatch in which its downstream neighbour joins the shared tree,
/// and that dispatch's stream. The join's 3-tick holdtime makes the new
/// oif the router's earliest deadline, so the dispatch re-arms its wakeup.
fn joined(tape: &Arc<Mutex<Tape>>) -> (World, NodeIdx, Vec<String>) {
    let (mut world, router) = world(tape);
    dispatch(&mut world, router, tape, 0, rp_route(UP_OLD, 1));
    let join = JoinPrune {
        upstream_neighbor: ROUTER,
        holdtime: 3,
        groups: vec![GroupEntry::join(
            Group::test(1),
            SourceEntry::shared_tree(RP),
        )],
    };
    let pkt = packet(DOWN, Addr::ALL_PIM_ROUTERS, Message::PimJoinPrune(join));
    let got = dispatch(&mut world, router, tape, 2, pkt);
    (world, router, got)
}

#[test]
fn a_join_lands_between_its_receipt_and_its_upstream_join() {
    let tape = Arc::new(Mutex::new(Tape::default()));
    let (_, _, got) = joined(&tape);
    assert_eq!(
        got,
        [
            "n0 t5 ctrl-recv pim-join-prune src=10.0.3.1",
            "n0 t5 entry-created (*,239.1.0.1) flags=WC|RP",
            "n0 t5 ctrl-send pim-join-prune dst=224.0.0.2",
            "n0 t5 timer-cancelled token=1",
            "n0 t5 timer-armed token=1 deadline=8",
        ]
    );
}

#[test]
fn a_route_change_nests_the_engine_under_the_unicast_outputs() {
    let tape = Arc::new(Mutex::new(Tape::default()));
    let (mut world, router, _) = joined(&tape);
    let got = dispatch(&mut world, router, &tape, 1, rp_route(UP_NEW, 0));
    assert_eq!(
        got,
        [
            "n0 t5 ctrl-recv dv-update src=10.0.2.1",
            "n0 t5 route-changed dst=10.0.9.1",
            // The engine's answer to the route change: prune the old
            // upstream, join the new one.
            "n0 t5 ctrl-send pim-join-prune dst=224.0.0.2",
            "n0 t5 ctrl-send pim-join-prune dst=224.0.0.2",
            // Then the rest of the unicast outputs: the triggered update.
            "n0 t5 ctrl-send dv-update dst=224.0.0.5",
            "n0 t5 ctrl-send dv-update dst=224.0.0.5",
            "n0 t5 ctrl-send dv-update dst=224.0.0.5",
        ]
    );
}
