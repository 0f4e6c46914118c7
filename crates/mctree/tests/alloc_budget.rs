//! The flow counts allocate per call, never per group, sender or member:
//! an exact count, which repeats from run to run and needs no quiet host
//! (the style of `crates/node/tests/alloc_budget.rs`).
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use graph::algo::AllPairs;
use graph::gen::{random_connected, RandomGraphParams};
use graph::NodeId;
use mctree::{cbt_link_flows, spt_link_flows, GroupSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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
fn allocations_in<R>(f: impl FnOnce() -> R) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    std::hint::black_box(f());
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// What either flow count allocates: the counters it returns and the
/// walk's stamps.
const FLOW_COUNT_ALLOCATIONS: usize = 2;

#[test]
fn flow_counts_allocate_per_call_not_per_group() {
    let mut rng = StdRng::seed_from_u64(17);
    let g = random_connected(&RandomGraphParams::default(), &mut rng);
    let ap = AllPairs::new(&g);
    // Figure 2(b)'s groups, one benchmark slice of them: 25 × 32 source
    // trees over 40 members each.
    let groups: Vec<GroupSpec> = (0..25)
        .map(|_| GroupSpec::random(g.node_count(), 40, 32, &mut rng))
        .collect();
    for some in [&groups[..1], &groups[..]] {
        assert_eq!(
            allocations_in(|| spt_link_flows(&g, &ap, some)),
            FLOW_COUNT_ALLOCATIONS,
            "spt_link_flows over {} group(s)",
            some.len()
        );
        // A fixed core: `one_center` allocates its eccentricity row, once
        // per group, and is the caller's choice.
        assert_eq!(
            allocations_in(|| cbt_link_flows(&g, &ap, some, |_| NodeId(0))),
            FLOW_COUNT_ALLOCATIONS,
            "cbt_link_flows over {} group(s)",
            some.len()
        );
    }
}
