//! An allocation budget for the explorer's sinks, as exact counts: heap
//! allocations repeat exactly from run to run, so this is a performance
//! gate that does not need a quiet host.
//!
//! * `JsonlSink`, `CoverageSink` and `MetricsAggregator`, warmed by one
//!   pass over a recorded stream, take the same stream again without
//!   allocating — except the metrics' raw histogram samples, which are
//!   its output: each histogram that gained samples may double its list
//!   once.
//! * `CausalIndex` allocates only to grow: an arena block per 256
//!   records, and doublings of its dispatch and block lists — not one
//!   allocation per emitting dispatch.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use telemetry::{
    flags, CausalIndex, CoverageSink, Emission, EntryKey, Event, EventId, JsonlSink,
    MetricsAggregator, Provenance, Sink,
};
use wire::{Addr, Group};

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

/// Records per `CausalIndex` arena block.
const ARENA_BLOCK: usize = 256;

/// One barrier window as the simulator hands it over: its dispatch
/// edges, then its events, both in canonical order.
type Window = (Vec<(EventId, Option<EventId>)>, Vec<Emission>);

/// A recorded stream of about `events` events shaped like an explorer
/// case's: eight nodes, ten-tick windows of twenty dispatches, a third
/// of them silent, the rest emitting one to four events of the kinds a
/// case emits most. `faults` adds `Fault` marks, whose text the causal
/// index must copy.
fn stream(events: usize, faults: bool) -> Vec<Window> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    let g = Group::test(1);
    let src = Addr::new(10, 0, 0, 1);
    let mut windows = Vec::new();
    let mut emitted = 0;
    let mut seq = [0u64; 8];
    let mut prev: Option<EventId> = None;
    while emitted < events {
        let time = windows.len() as u64 * 10;
        let (mut links, mut evs) = (Vec::new(), Vec::new());
        for origin in 0..20u32 {
            let node = origin % 8;
            seq[node as usize] += 1;
            let id = EventId {
                time: time + u64::from(origin / 8),
                epoch: 2,
                origin: node + 1,
                seq: seq[node as usize],
            };
            links.push((id, prev));
            let prov = Provenance { id, cause: prev };
            prev = Some(id);
            let count = next(6).saturating_sub(1);
            for _ in 0..count {
                let ev = match next(if faults { 13 } else { 12 }) {
                    0 => Event::CtrlSend {
                        kind: ["pim-join-prune", "pim-query", "hello"][next(3) as usize],
                        dst: Addr::ALL_PIM_ROUTERS,
                    },
                    1 => Event::CtrlRecv {
                        kind: ["pim-join-prune", "pim-query", "hello"][next(3) as usize],
                        src,
                    },
                    2 => Event::TimerArmed {
                        token: next(4),
                        deadline: time + 60,
                    },
                    3 => Event::TimerFired { token: next(4) },
                    4 => Event::DataDelivered {
                        group: g,
                        source: src,
                    },
                    5 => Event::LocalMemberJoined { group: g },
                    6 => Event::EntryCreated {
                        group: g,
                        key: EntryKey::Star,
                        flags: flags::WC | flags::RP,
                    },
                    7 => Event::EntryModified {
                        group: g,
                        key: EntryKey::Source(src),
                        from: flags::RP,
                        to: flags::SPT,
                    },
                    8 => Event::SptSwitchStart {
                        group: g,
                        source: src,
                    },
                    9 => Event::QueueDepth {
                        link: next(6) as u32,
                        bytes: 64 << next(8),
                    },
                    10 => Event::ChannelImpaired {
                        what: ["corrupt", "duplicate", "reorder"][next(3) as usize],
                        link: next(6) as u32,
                    },
                    11 => Event::DecodeFailed {
                        kind: "checksum",
                        iface: next(3) as u32,
                    },
                    _ => Event::Fault {
                        desc: "crash r2".into(),
                    },
                };
                evs.push(Emission {
                    node,
                    at: id.time,
                    ev,
                    prov,
                });
                emitted += 1;
            }
        }
        windows.push((links, evs));
    }
    windows
}

fn feed(sink: &mut dyn Sink, windows: &[Window]) {
    for (links, events) in windows {
        sink.batch(links, events);
    }
}

/// The same stream `by` ticks later, as a second run of it would arrive.
fn later(windows: &[Window], by: u64) -> Vec<Window> {
    let shift = |id: EventId| EventId {
        time: id.time + by,
        ..id
    };
    windows
        .iter()
        .map(|(links, events)| {
            let links = links.iter().map(|&(id, c)| (shift(id), c.map(shift)));
            let events = events.iter().map(|e| Emission {
                at: e.at + by,
                prov: Provenance {
                    id: shift(e.prov.id),
                    cause: e.prov.cause.map(shift),
                },
                ..e.clone()
            });
            (links.collect(), events.collect())
        })
        .collect()
}

/// What a sink warmed by `windows` allocates taking them again, later.
fn refeed(sink: &mut dyn Sink, windows: &[Window]) -> usize {
    let again = later(windows, windows.len() as u64 * 10);
    feed(sink, windows);
    allocations_in(|| feed(sink, &again)).0
}

#[test]
fn sinks_allocate_only_to_grow() {
    let windows = stream(10_000, true);

    let mut jsonl = JsonlSink::new(std::io::sink());
    assert_eq!(
        refeed(&mut jsonl, &windows),
        0,
        "JsonlSink: one reused line"
    );
    assert_eq!(jsonl.errors, 0);

    let mut coverage = CoverageSink::new(1);
    assert_eq!(
        refeed(&mut coverage, &windows),
        0,
        "CoverageSink: counts only"
    );
    assert!(coverage.map().distinct() > 100, "a real map");

    let again = later(&windows, windows.len() as u64 * 10);
    let mut metrics = MetricsAggregator::new();
    feed(&mut metrics, &windows);
    let before = metrics.clone();
    let (n, ()) = allocations_in(|| feed(&mut metrics, &again));
    let grown = [
        (&before.join_latency, &metrics.join_latency),
        (&before.spt_switch, &metrics.spt_switch),
        (&before.reconvergence, &metrics.reconvergence),
        (&before.queue_depth, &metrics.queue_depth),
    ]
    .iter()
    .filter(|(b, a)| a.count() > b.count())
    .count();
    assert!(grown > 0, "the stream feeds the histograms");
    assert!(
        n <= grown,
        "MetricsAggregator: {n} allocations, only {grown} sample lists grew"
    );

    // A fresh index takes the whole stream: every allocation is an arena
    // block or a list doubling. (`Fault` texts are left out: a record
    // owns its copy.)
    let windows = stream(10_000, false);
    let events: usize = windows.iter().map(|(_, e)| e.len()).sum();
    let dispatches: usize = windows.iter().map(|(l, _)| l.len()).sum();
    let (n, index) = allocations_in(|| {
        let mut index = CausalIndex::new();
        feed(&mut index, &windows);
        index
    });
    assert_eq!(index.len(), dispatches);
    let doublings = |n: usize| (usize::BITS - n.leading_zeros()) as usize;
    let blocks = events.div_ceil(ARENA_BLOCK);
    assert!(
        n <= blocks + doublings(blocks) + doublings(dispatches),
        "CausalIndex: {n} allocations for {events} events over {dispatches} dispatches"
    );
}
