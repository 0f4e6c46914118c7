//! The oracle tables of `hier_ctrl`'s 2 000-router internet (a 200-router
//! backbone, 200 stub domains of 9) in bytes: what a build keeps, and the
//! most it holds at once. Exact counts from a counting allocator, which
//! repeat from run to run and need no quiet host (the style of
//! `crates/node/tests/alloc_budget.rs`).
//!
//! With one table of n slots per router, as before the tables were
//! factored along cut vertices, a build kept 32 255 960 bytes (≈ 31 MiB,
//! nearly all of it 2 000² slots of 8 bytes) and peaked at 32 497 152 at
//! seed 1994, and this test failed. Factored into a 200 × 200 core table
//! plus each stub domain's own slots, it keeps 816 016 bytes and peaks
//! at 1 128 904 (seed 4242: 56 and 308 bytes more).
//!
//! Only the measuring thread's blocks count, and only while it builds
//! (the build spawns no thread), so the test harness allocating beside
//! it cannot move a count.

use graph::gen::{hierarchical, HierParams, WaxmanParams};
use netsim::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use unicast::OracleRib;

/// The system allocator, counting the bytes live and the most ever live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread runs the build being measured.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn grew(bytes: usize) {
    if COUNTING.with(Cell::get) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.with(Cell::get) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// atomics that publish no other data, and the flag a `const`
// thread-local with no destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a new block beside the old one, which is what a
        // moving realloc holds for a moment.
        grew(new_size);
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes still held once a network's tables are built.
const RETAINED_BUDGET: usize = 2 << 20;

/// Bytes held at once while they are built, tables included.
const PEAK_BUDGET: usize = 4 << 20;

#[test]
fn hier_ctrl_tables_fit_in_two_mib() {
    for seed in [1994, 4242] {
        let params = HierParams {
            backbone: WaxmanParams {
                nodes: 200,
                ..WaxmanParams::default()
            },
            domains: 200,
            domain_size: 9,
            ..HierParams::default()
        };
        let h = hierarchical(&params, &mut StdRng::seed_from_u64(seed));
        assert_eq!(h.graph.node_count(), 2000);
        let leaves: Vec<_> = (0..h.domains).map(|d| h.leaf(d)).collect();
        let topo = Topology::from_graph(&h.graph);

        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        COUNTING.set(true);
        let ribs = OracleRib::for_all_with_hosts(&h.graph, &topo, &leaves);
        COUNTING.set(false);
        let retained = LIVE.load(Ordering::Relaxed) - before;
        let peak = PEAK.load(Ordering::Relaxed) - before;
        assert_eq!(ribs.len(), 2000);
        drop(ribs);

        assert!(
            retained <= RETAINED_BUDGET,
            "seed {seed}: the tables keep {retained} bytes, over {RETAINED_BUDGET}"
        );
        assert!(
            peak <= PEAK_BUDGET,
            "seed {seed}: the build holds {peak} bytes at once, over {PEAK_BUDGET}"
        );
        println!("seed {seed}: {retained} bytes kept, {peak} at peak");
    }
}
