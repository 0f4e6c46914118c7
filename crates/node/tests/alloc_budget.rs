//! An allocation budget for the control plane's two hot events, as exact
//! counts: heap allocations repeat exactly from run to run, so this is a
//! performance regression gate that does not need a quiet host.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use netsim::{Ctx, Duration, IfaceId, Node, NodeIdx, SimTime, World};
use pim::{Engine, PimConfig, PimRouter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use unicast::OracleRib;
use wire::ip::{Header, Protocol};
use wire::pim::Query;
use wire::{Addr, Message};

/// The system allocator, counting every block it hands out (a `realloc`
/// counts: it may be a new block).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, r)
}

/// Hears everything, does nothing.
struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _packet: &[u8]) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const ROUTER: Addr = Addr::new(10, 0, 0, 1);

/// A PIM router with `k` point-to-point interfaces, each to a [`Sink`].
fn star(k: usize) -> (World, NodeIdx) {
    let mut world = World::new(1);
    let router = world.add_node(Box::new(PimRouter::new(
        Engine::new(ROUTER, k, PimConfig::default()),
        Box::new(OracleRib::empty(ROUTER)),
    )));
    for _ in 0..k {
        let sink = world.add_node(Box::new(Sink));
        world.add_p2p(router, sink, Duration(2));
    }
    (world, router)
}

/// Allocations of the whole dispatch of the router's Query tick at
/// `query_interval × 4` — engine tick, encode, `k` sends, re-arming the
/// wakeup, and the world's own bookkeeping for all of it — on a
/// `k`-interface router that has ticked four times before.
fn query_tick_allocations(k: usize) -> usize {
    let (mut world, _) = star(k);
    let at = PimConfig::default().query_interval.ticks() * 4;
    world.run_until(SimTime(at - 1));
    let (n, events) = allocations_in(|| world.run_until(SimTime(at)));
    assert_eq!(events, 1, "the window holds the router's wakeup only");
    n
}

#[test]
fn control_plane_allocation_budget() {
    // A steady-state Query delivery: decode, refresh the neighbor's
    // holdtime in place, find the next deadline unmoved (the router's own
    // next Query is always sooner than a neighbor's expiry), leave the
    // wakeup armed.
    let (mut world, router) = star(3);
    let neighbor = Addr::new(10, 0, 9, 1);
    let hello = Header {
        proto: Protocol::Igmp,
        ttl: 1,
        src: neighbor,
        dst: Addr::ALL_PIM_ROUTERS,
    }
    .encap(&Message::PimQuery(Query { holdtime: 105 }).encode());
    let deliver = |world: &mut World, at: u64| {
        world.run_until(SimTime(at));
        let mut n = usize::MAX;
        world.call_node(router, |node, ctx| {
            n = allocations_in(|| node.on_packet(ctx, IfaceId(1), &hello)).0;
        });
        n
    };
    // The first Query from a neighbor creates the adjacency; the ones
    // after it are the steady state.
    deliver(&mut world, 40);
    assert_eq!(deliver(&mut world, 70), 0, "steady-state Query delivery");
    assert_eq!(deliver(&mut world, 100), 0, "steady-state Query delivery");
    let r = world.node::<PimRouter>(router);
    assert_eq!((r.control_msgs, r.malformed_drops), (3, 0));

    // A Query tick: one message built and encoded once whatever the
    // interface count, so the count does not grow with it.
    let narrow = query_tick_allocations(2);
    assert_eq!(narrow, query_tick_allocations(8));
    assert_eq!(narrow, query_tick_allocations(33));
    assert_eq!(narrow, QUERY_TICK_ALLOCATIONS);
}

/// What a Query tick allocates: the engine's one-element action list and
/// the shared packet. The window loop around the dispatch, the event
/// calendar and the re-armed wakeup allocate nothing.
const QUERY_TICK_ALLOCATIONS: usize = 2;
