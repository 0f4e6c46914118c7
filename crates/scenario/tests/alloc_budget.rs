//! The cost of one clean explorer case, as exact counts: heap
//! allocations and the peak of live heap bytes repeat exactly from run
//! to run, so this pins what a case costs without a quiet host. Peak
//! live bytes is the host-independent twin of the benchmark's
//! `peak_rss_mb` on `fault_campaign`, whose 180 cases are this one's
//! kind.
//!
//! Only the measuring thread's allocations count, and only while it runs
//! the measured case: on 1 thread the world spawns no worker, so the
//! test harness allocating beside it cannot move a number.

use scenario::{run_case, seed_schedule, topologies, Protocol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every block it hands out (a `realloc`
/// counts: it may be a new block) and the bytes live at each moment.
struct Counting;

/// What the measuring thread has allocated since its count began.
#[derive(Clone, Copy, Default)]
struct Tally {
    allocations: u64,
    /// Bytes allocated minus bytes freed: negative while the case frees
    /// what was allocated before it.
    live: i64,
    /// The highest `live` reached.
    peak: i64,
}

thread_local! {
    /// `Some` while this thread runs the code being measured.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Add one allocation of `grown` bytes (negative: freed) to the tally.
fn count(allocations: u64, grown: i64) {
    // `try_with`: a thread-local already torn down counts nothing.
    let _ = TALLY.try_with(|t| {
        if let Some(mut tally) = t.get() {
            tally.allocations += allocations;
            tally.live += grown;
            tally.peak = tally.peak.max(tally.live);
            t.set(Some(tally));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally is a `const`
// thread-local `Cell` of plain integers with no destructor, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The measuring thread's allocations and peak live bytes while `f`
/// runs, the result dropped inside the count.
fn tally<R>(f: impl FnOnce() -> R) -> Tally {
    TALLY.set(Some(Tally::default()));
    drop(f());
    TALLY.take().expect("the tally was set above")
}

/// One clean case of the explorer's campaign — the diamond under PIM on
/// seed 0's schedule — on 1 thread: its allocation count and peak live
/// heap bytes, exactly. No causal index is built for a clean case, and
/// `run_case` attaches no coverage sink. Before, with both attached to
/// every case and `World::captured` cloning each record, the same case
/// made 6 322 allocations and peaked at 2 610 892 live bytes. With its
/// metrics histograms keeping bucket counts beside their samples, it
/// made 6 232 and peaked at 1 482 740. With each node's RNG stream,
/// dispatch counter and capacity queues in parallel per-region vectors,
/// rather than in one record per node, it made 6 227 and peaked at
/// 1 482 236.
#[test]
fn a_clean_case_costs_exactly_this() {
    let topo = &topologies()[0];
    let schedule = seed_schedule(topo, 0);
    let case = || {
        let outcome = run_case(topo, Protocol::Pim, &schedule, 0);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    };
    // Warm any lazily built process state, then measure a second run.
    case();
    let t = tally(case);
    assert_eq!(t.allocations, 6_219, "allocations");
    assert_eq!(t.peak, 1_481_924, "peak live bytes");
}
