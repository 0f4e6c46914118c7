//! The parallel core's determinism contract, property-tested: for any
//! seed, loss rate, adversarial channel model, link capacity, and fault
//! script, a run on one global region, a run on the auto-partitioned world, and a run on
//! an adversarial one-node-per-region split produce byte-identical
//! receive logs, telemetry streams, counters, and packet captures — also
//! when the run is cut into many short `run_until` slices, and a region
//! that panics on a worker thread fails its own run and nothing else.
//!
//! This is the load-bearing guarantee of the region-partitioned event
//! core (DESIGN.md §9): partitioning and thread count are pure
//! performance knobs, invisible to every observable the experiments
//! record.

use netsim::{ChannelModel, Ctx, Duration, IfaceId, LinkCapacity, Node, NodeIdx, SimTime, World};
use proptest::prelude::*;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use telemetry::{Event, Sink, Ticks};

/// Floods a counter to all interfaces on a timer, `burst` frames at a
/// time, and logs all receptions.
struct Chatter {
    log: Vec<(u64, u32, Vec<u8>)>,
    counter: u8,
    burst: usize,
}

impl Chatter {
    fn new(burst: usize) -> Self {
        Chatter {
            log: Vec::new(),
            counter: 0,
            burst,
        }
    }
}

impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration(3), 1);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
        self.log.push((ctx.now().ticks(), iface.0, packet.to_vec()));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.counter = self.counter.wrapping_add(1);
        for i in 0..ctx.iface_count() {
            for _ in 0..self.burst {
                ctx.send(IfaceId(i as u32), vec![self.counter, 0xA5]);
            }
        }
        if ctx.now() < SimTime(260) {
            ctx.set_timer(Duration(5), 1);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Collects the canonical JSONL telemetry stream.
#[derive(Default)]
struct Collect(Vec<String>);

impl Sink for Collect {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        self.0.push(ev.to_json(node, at));
    }
}

/// How to split the world before running.
#[derive(Clone, Debug)]
enum Split {
    /// One global region — the sequential reference.
    Single,
    /// `World::parallelize(threads)`: delay-aware auto-partition.
    Auto(usize),
    /// An explicit assignment (adversarial splits included).
    Explicit(Vec<u32>),
}

/// Everything observable about a run, for byte-equality comparison.
/// The region count is deliberately *not* part of the equality: it is
/// the one thing that legitimately differs between splits.
#[derive(PartialEq, Debug)]
struct Observed {
    logs: Vec<Vec<(u64, u32, Vec<u8>)>>,
    telemetry: Vec<String>,
    captures: Vec<String>,
    counter_totals: (u64, u64, u64, u64, u64),
    /// Queue drops, ECN marks, peak backlog in bytes.
    congestion: (u64, u64, u64),
}

/// [`run_sliced`] in one `run_until` call.
fn run(
    seed: u64,
    delays: &[u64; 3],
    loss: f64,
    chan: ChannelModel,
    cap: LinkCapacity,
    faults: bool,
    split: &Split,
) -> (Observed, usize) {
    run_sliced(seed, delays, loss, chan, cap, faults, split, 1)
}

/// A 6-node world: a line 0-1-2-3 with proptest-chosen delays, a LAN
/// {1, 4, 5}, loss, an adversarial channel model and a capacity on the
/// middle link, and an optional crash/restart of node 2 mid-run; advanced
/// to tick 400 in `slices` equal `run_until` steps. Under a capacity the
/// nodes send bursts of eight, or a frame every five ticks would never
/// queue.
#[allow(clippy::too_many_arguments)]
fn run_sliced(
    seed: u64,
    delays: &[u64; 3],
    loss: f64,
    chan: ChannelModel,
    cap: LinkCapacity,
    faults: bool,
    split: &Split,
    slices: u64,
) -> (Observed, usize) {
    let mut w = World::new(seed);
    let burst = if cap.is_unlimited() { 1 } else { 8 };
    let nodes: Vec<NodeIdx> = (0..6)
        .map(|_| w.add_node(Box::new(Chatter::new(burst))))
        .collect();
    let mut links = Vec::new();
    for (i, &d) in delays.iter().enumerate() {
        let (l, _, _) = w.add_p2p(nodes[i], nodes[i + 1], Duration(d));
        links.push(l);
    }
    let (lan, _) = w.add_lan(&[nodes[1], nodes[4], nodes[5]], Duration(1));
    if loss > 0.0 {
        w.set_link_loss(links[1], loss);
        w.set_link_loss(lan, loss / 2.0);
    }
    w.set_channel_model(links[1], chan);
    w.set_link_capacity(links[1], cap);
    if faults {
        let n2 = nodes[2];
        w.at(SimTime(70), move |w| w.crash_node(n2));
        w.at(SimTime(150), move |w| w.restart_node(n2));
    }
    let telem = Arc::new(Mutex::new(Collect::default()));
    w.set_telemetry(telem.clone());
    w.enable_capture(200);
    match split {
        Split::Single => {}
        Split::Auto(threads) => w.parallelize(*threads),
        Split::Explicit(assign) => w.set_partition(assign),
    }
    for i in 1..=slices {
        w.run_until(SimTime(400 * i / slices));
    }
    let c = w.counters();
    let telemetry = std::mem::take(&mut telem.lock().unwrap().0);
    let observed = Observed {
        logs: nodes
            .iter()
            .map(|&n| w.node::<Chatter>(n).log.clone())
            .collect(),
        telemetry,
        captures: w
            .captured()
            .iter()
            .map(|r| format!("{} {} {} {}", r.at.ticks(), r.link.0, r.from.0, r.summary()))
            .collect(),
        counter_totals: (
            c.total_bytes(),
            c.events_dispatched(),
            c.rx_pkts(),
            c.timers_fired(),
            c.total_control_pkts(),
        ),
        congestion: (
            c.queue_drops_data() + c.queue_drops_ctrl(),
            c.ecn_marks(),
            c.peak_queue_bytes(),
        ),
    };
    (observed, w.region_count())
}

/// Unlimited half the time; otherwise 1–8 B/tick into a queue of 8–64 B
/// that marks at half, with and without control priority. `Chatter`'s
/// two-byte frames classify as control, so only `ctrl_priority: false`
/// makes the queue bite.
fn arb_capacity() -> impl Strategy<Value = LinkCapacity> {
    let capped =
        (1u64..=8, 8u64..=64, any::<bool>()).prop_map(|(rate, queue, prio)| LinkCapacity {
            bytes_per_tick: rate,
            queue_bytes: queue,
            ecn_bytes: queue / 2,
            ctrl_priority: prio,
        });
    prop_oneof![Just(LinkCapacity::UNLIMITED), capped]
}

/// Single region vs auto-partition vs one-node-per-region: identical
/// observables under loss, channel impairments, congestion, and
/// crash/restart — and the capacity arm is not vacuous: over the cases,
/// queues dropped, marked, and reported a new depth.
#[test]
fn any_partition_matches_single_region() {
    static DROPS: AtomicU64 = AtomicU64::new(0);
    static MARKS: AtomicU64 = AtomicU64::new(0);
    static DEPTHS: AtomicU64 = AtomicU64::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Named like the test around it: the name seeds the cases.
        fn any_partition_matches_single_region(
            seed in any::<u64>(),
            (d0, d1, d2) in (1u64..6, 1u64..6, 1u64..6),
            lossy in any::<bool>(),
            (dup, reorder, corrupt) in (0u32..300, 0u32..300, 0u32..300),
            faults in any::<bool>(),
            cap in arb_capacity(),
        ) {
            let delays = [d0, d1, d2];
            let loss = if lossy { 0.25 } else { 0.0 };
            let chan = ChannelModel {
                corrupt_pm: corrupt,
                duplicate_pm: dup,
                reorder_pm: reorder,
                jitter: 5,
            };
            let (single, single_regions) =
                run(seed, &delays, loss, chan, cap, faults, &Split::Single);
            prop_assert_eq!(single_regions, 1);
            let (auto, _) = run(seed, &delays, loss, chan, cap, faults, &Split::Auto(4));
            let (shredded, shredded_regions) = run(
                seed,
                &delays,
                loss,
                chan,
                cap,
                faults,
                // Nodes 1, 4, 5 share a delay-1 LAN and must stay together
                // (lookahead >= 1 still holds since the LAN delay is 1);
                // everything else gets its own region.
                &Split::Explicit(vec![0, 1, 2, 3, 1, 1]),
            );
            prop_assert_eq!(shredded_regions, 4);
            prop_assert_eq!(&single, &auto);
            prop_assert_eq!(&single, &shredded);
            DROPS.fetch_add(single.congestion.0, Relaxed);
            MARKS.fetch_add(single.congestion.1, Relaxed);
            let depths = single.telemetry.iter().filter(|l| l.contains("queue_depth"));
            DEPTHS.fetch_add(depths.count() as u64, Relaxed);
        }
    }
    any_partition_matches_single_region();
    let seen = (
        DROPS.load(Relaxed),
        MARKS.load(Relaxed),
        DEPTHS.load(Relaxed),
    );
    assert!(
        seen.0 > 0 && seen.1 > 0 && seen.2 > 0,
        "no case congested its link: (drops, marks, depth events) = {seen:?}"
    );
}

/// The auto-partitioner actually engages on this fixture when the middle
/// link is slow — the property above must not be vacuously comparing
/// three single-region runs.
#[test]
fn auto_partition_engages_on_slow_cut() {
    let (_, regions) = run(
        7,
        &[1, 5, 1],
        0.0,
        ChannelModel::CLEAN,
        LinkCapacity::UNLIMITED,
        false,
        &Split::Auto(4),
    );
    assert!(regions > 1, "expected a cut, got {regions} region");
}

/// The benchmark's run shape: one world advanced through 128 short
/// `run_until` slices, so the crew is handed work, left idle between
/// calls (spinning, yielding, then parked) and handed work again.
#[test]
fn sliced_runs_match_the_single_region_reference() {
    let chan = ChannelModel {
        corrupt_pm: 100,
        duplicate_pm: 200,
        reorder_pm: 150,
        jitter: 5,
    };
    let cap = LinkCapacity::UNLIMITED;
    let (single, _) = run(11, &[1, 5, 1], 0.25, chan, cap, true, &Split::Single);
    for threads in [2, 4] {
        let split = Split::Auto(threads);
        let (sliced, regions) = run_sliced(11, &[1, 5, 1], 0.25, chan, cap, true, &split, 128);
        assert!(regions > 1, "threads={threads}: expected a cut");
        assert_eq!(single, sliced, "threads={threads}");
    }
}

/// Panics with its own message when its timer fires.
struct Bomb;

impl Node for Bomb {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration(57), 1);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _packet: &[u8]) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        panic!("node {} gives up at tick {}", ctx.me().0, ctx.now().ticks());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A node that panics mid-window in region 1 — on a worker thread, while
/// the caller runs region 0 — fails `run_until` with the node's own
/// message instead of hanging the caller, and poisons nothing: another
/// world in the same process still matches its single-region reference.
#[test]
fn a_panicking_region_fails_the_run_with_its_own_message() {
    // The world is built and run on a thread of its own so that a lost
    // hand-off fails this test with a timeout instead of stalling it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut w = World::new(3);
        let mut nodes: Vec<NodeIdx> = (0..3)
            .map(|_| w.add_node(Box::new(Chatter::new(1))))
            .collect();
        nodes.push(w.add_node(Box::new(Bomb)));
        for pair in nodes.windows(2) {
            w.add_p2p(pair[0], pair[1], Duration(2));
        }
        w.parallelize(2);
        w.set_partition(&[0, 0, 1, 1]);
        assert_eq!(w.region_count(), 2);
        let run = std::panic::AssertUnwindSafe(|| w.run_until(SimTime(400)));
        let payload = std::panic::catch_unwind(run).expect_err("the bomb goes off");
        let msg = payload.downcast_ref::<String>().cloned();
        // Dropping the failed world joins its workers.
        drop(w);
        tx.send(msg).expect("the test is waiting");
    });
    let msg = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("run_until neither returned nor panicked: a region was lost");
    assert_eq!(msg.as_deref(), Some("node 3 gives up at tick 57"));

    let (single, _) = run(
        7,
        &[1, 5, 1],
        0.0,
        ChannelModel::CLEAN,
        LinkCapacity::UNLIMITED,
        true,
        &Split::Single,
    );
    let (auto, regions) = run(
        7,
        &[1, 5, 1],
        0.0,
        ChannelModel::CLEAN,
        LinkCapacity::UNLIMITED,
        true,
        &Split::Auto(2),
    );
    assert_eq!(regions, 2);
    assert_eq!(single, auto);
}
