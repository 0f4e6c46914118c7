//! The discrete-event simulation world: nodes, links, region-partitioned
//! event queues, and the conservative parallel driver loop.
//!
//! The simulator is deliberately simple (smoltcp-style "simplicity and
//! robustness"): links have a fixed propagation delay and optional random
//! loss, nodes are trait objects that react to packets and timers, and all
//! randomness flows from seeded per-node RNG streams so every run is
//! reproducible. Links can additionally carry a deterministic capacity
//! model ([`LinkCapacity`]): per-direction bandwidth in bytes/tick with a
//! bounded FIFO transmit queue, serialization + queueing delay, tail-drop
//! on overflow, and ECN-style marking — all computed from queue state
//! alone, never from randomness, so a capacity-disabled world (the
//! default) reproduces pre-capacity traces byte-identically.
//!
//! # Parallel core (DESIGN.md §9)
//!
//! Nodes are assigned to **regions** (one by default; see
//! [`World::set_partition`] and [`World::parallelize`]). Each region owns
//! its own event queue, event arena, RNG streams, `Counters` shard, and
//! telemetry buffer, so regions can advance concurrently with no locks on
//! the hot path. Every telemetry event a dispatch emits — the world's
//! timer and channel marks, a node's own, a protocol engine's through its
//! adapter — enters through [`Ctx::emit`] into the region's buffer, a
//! plain field; the user's sink is locked only at barriers.
//!
//! Regions advance in lock-step **windows** bounded by the
//! conservative lookahead `L = min cross-region link delay`: no event a
//! region processes before `T_min + L` can be affected by another region's
//! work in the same window, because any cross-region packet created in the
//! window is due at or after that bound. Cross-region deliveries travel
//! through per-region outboxes drained at the window barrier.
//!
//! This module owns no threads. With `threads > 1` and more than one
//! region, a window is run by a [`par::Crew`] that lives as long as the
//! world: each worker is handed its stripe of regions **by value** (plus
//! an `Arc` of the read-only shared state), the calling thread runs
//! stripe 0, and the regions are back in place before the barrier.
//! `Region::run_window` is a pure function of the region, the shared
//! state and the bound.
//!
//! # Determinism contract
//!
//! Every event carries a partition-independent **canonical key**
//! `(time, epoch, origin node, origin dispatch seq, emission index)`; each
//! region's queue orders by that key, per-node RNG streams are a pure
//! function of the world seed and the node index, and telemetry is
//! buffered per region and merged in canonical-key order at each barrier.
//! The result: receptions, merged counters, captures, and the telemetry
//! byte stream are **identical for any partition and any `--threads`**,
//! including the default single region.

use crate::counters::Counters;
use crate::ctx::{Ctx, Node};
use crate::ids::{IfaceId, LinkId, NodeIdx};
use crate::link::{ChannelModel, Link, LinkCapacity, LinkKind};
use crate::profile::{RegionProfile, SimProfile};
use crate::queue::{Event, Tag, EPOCH_EVENT, EPOCH_SCRIPT, EPOCH_START};
use crate::region::{CaptureRecord, Captured, Region, Shared, Slot, Window};
use crate::time::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// RNG stream id for per-node streams (see [`par::mix`]): node `i`'s
/// stream is `mix(world_seed, NODE_RNG_STREAM, i)`, disjoint from the
/// trial-level streams the bench drivers derive from the same seed.
const NODE_RNG_STREAM: u64 = 0x6E6F_6465; // "node"

/// A scheduled script, ordered by `(at, seq)` — scripts live in a
/// world-level queue on the main thread (their closures mutate the whole
/// world, so they are natural barriers) and all scripts at tick `t` run
/// before any node event at tick `t`.
struct ScriptEntry {
    at: SimTime,
    seq: u64,
    f: Box<dyn FnOnce(&mut World)>,
}

impl PartialEq for ScriptEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for ScriptEntry {}

impl PartialOrd for ScriptEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScriptEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The simulation world.
pub struct World {
    /// From [`World::start`] on, striped `threads` wide (at most one
    /// stripe per region), so that a worker's share of a window changes
    /// hands as one `Vec`.
    regions: par::Striped<Region>,
    /// The workers for stripes 1.., spawned by the first window that has
    /// more than one stripe and joined when the world is dropped. A world
    /// on one thread or with one region never has one.
    crew: Option<par::Crew<Region, Window, (usize, u64)>>,
    shared: Arc<Shared>,
    scripts: BinaryHeap<ScriptEntry>,
    script_seq: u64,
    /// Counter shard for world-level dispatches (scripts).
    world_counters: Counters,
    telem: Option<telemetry::SharedSink>,
    /// Scratch for [`World::flush_telemetry`]'s merged window, kept so
    /// its capacity is reused from barrier to barrier.
    flush_links: Vec<(telemetry::EventId, Option<telemetry::EventId>)>,
    flush_events: Vec<telemetry::Emission>,
    seed: u64,
    threads: usize,
    /// Conservative lookahead: `Some(min cross-region link delay)` when
    /// more than one region and at least one cross link; `None` means
    /// windows are unbounded (single region, or no cross traffic).
    lookahead: Option<Duration>,
    started: bool,
    now: SimTime,
    /// Identity tag of the script currently executing, if any: the
    /// causal root for fault marks and for every barrier dispatch the
    /// script performs.
    cur_script: Option<Tag>,
    /// `Some` when wall-clock/event attribution is collected (see
    /// [`World::enable_profile`]): the world's own half — windows and
    /// barrier, critical-path and hand-off time. The region shards and
    /// the script count join it in [`World::profile`].
    profile: Option<SimProfile>,
}

impl Default for World {
    fn default() -> Self {
        Self::new(0)
    }
}

impl World {
    /// Create an empty world whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> World {
        World {
            regions: par::Striped::new(vec![Region::new(0)], 1),
            crew: None,
            shared: Arc::new(Shared {
                links: Vec::new(),
                ifaces: Vec::new(),
                node_up: Vec::new(),
                place: Vec::new(),
                capture_limit: None,
            }),
            scripts: BinaryHeap::new(),
            script_seq: 0,
            world_counters: Counters::default(),
            telem: None,
            flush_links: Vec::new(),
            flush_events: Vec::new(),
            seed,
            threads: 1,
            lookahead: None,
            started: false,
            now: SimTime::ZERO,
            cur_script: None,
            profile: None,
        }
    }

    /// The shared state, for the barrier-time mutators. Safe code's proof
    /// that no window is running: the workers hold a clone only while
    /// they hold regions, and [`par::Crew::run`] returns after both are
    /// back.
    fn shared_mut(&mut self) -> &mut Shared {
        Arc::get_mut(&mut self.shared).expect("no window is running at a barrier")
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add a node; returns its index. New nodes land in region 0 until
    /// [`World::set_partition`]/[`World::parallelize`] reassigns them.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeIdx {
        assert!(!self.started, "cannot add nodes after start");
        let idx = self.node_count();
        let rng = StdRng::seed_from_u64(par::mix(self.seed, NODE_RNG_STREAM, idx as u64));
        let slots = &mut self.regions[0].slots;
        slots.push(Slot {
            node: Some(node),
            rng,
            dispatch_seq: 0,
            tx_dirs: Vec::new(),
        });
        let slot = slots.len() as u32 - 1;
        let shared = self.shared_mut();
        shared.place.push((0, slot));
        shared.ifaces.push(Vec::new());
        shared.node_up.push(true);
        NodeIdx(idx)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.shared.place.len()
    }

    /// Number of regions in the current partition.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The conservative lookahead: minimum delay over links whose
    /// attachments span more than one region (`None` when single-region
    /// or no link crosses a region boundary).
    pub fn cross_region_lookahead(&self) -> Option<Duration> {
        if self.regions.len() <= 1 {
            return None;
        }
        self.shared
            .links
            .iter()
            .filter(|l| {
                let mut rs = l.attachments.iter().map(|(n, _)| self.shared.place[n.0].0);
                let first = rs.next();
                rs.any(|r| Some(r) != first)
            })
            .map(|l| l.delay)
            .min()
    }

    /// Assign every node to a region (`assign[node] = region id`).
    /// Region ids are renumbered densely by first appearance. Must be
    /// called before [`World::start`]; the default is one region.
    ///
    /// Correctness does not depend on the assignment — any partition
    /// yields byte-identical results — but *liveness* of the parallel
    /// windows requires every cross-region link to have delay ≥ 1 tick
    /// (asserted at start).
    pub fn set_partition(&mut self, assign: &[u32]) {
        assert!(!self.started, "cannot repartition after start");
        assert_eq!(
            assign.len(),
            self.node_count(),
            "one region id per node required"
        );
        // Densify region ids by first appearance.
        let mut lut: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut next = 0u32;
        let dense: Vec<u32> = assign
            .iter()
            .map(|&a| {
                *lut.entry(a).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect();
        // Move every node's slot, in node order, to its new region.
        let mut old: Vec<Vec<Option<Slot>>> = self
            .regions
            .iter_mut()
            .map(|r| r.slots.drain(..).map(Some).collect())
            .collect();
        let mut regions: Vec<Region> = (0..next.max(1)).map(Region::new).collect();
        let place = dense
            .iter()
            .zip(&self.shared.place)
            .map(|(&rid, &(r, s))| {
                let slot = old[r as usize][s as usize].take();
                let to = &mut regions[rid as usize].slots;
                to.push(slot.expect("one place per slot"));
                (rid, to.len() as u32 - 1)
            })
            .collect();
        self.regions = par::Striped::new(regions, 1);
        self.shared_mut().place = place;
        self.lookahead = self.cross_region_lookahead();
    }

    /// Opt into parallel execution with `threads` workers: runs the
    /// delay-aware auto-partitioner ([`crate::partition::auto_partition`])
    /// targeting one region per thread. `threads == 1` keeps the default
    /// single region (and runs inline with no thread machinery). Results
    /// are byte-identical for every thread count.
    pub fn parallelize(&mut self, threads: usize) {
        assert!(!self.started, "cannot repartition after start");
        let threads = threads.max(1);
        self.threads = threads;
        if threads > 1 && self.node_count() > 1 {
            let assign =
                crate::partition::auto_partition(self.node_count(), &self.shared.links, threads);
            self.set_partition(&assign);
        }
    }

    fn attach(&mut self, node: NodeIdx, link: LinkId) -> IfaceId {
        let shared = self.shared_mut();
        let ifaces = &mut shared.ifaces[node.0];
        ifaces.push(link);
        let iface = IfaceId(ifaces.len() as u32 - 1);
        shared.links[link.0].attachments.push((node, iface));
        iface
    }

    /// Add a point-to-point link; returns `(link, iface at a, iface at b)`.
    pub fn add_p2p(
        &mut self,
        a: NodeIdx,
        b: NodeIdx,
        delay: Duration,
    ) -> (LinkId, IfaceId, IfaceId) {
        assert_ne!(a, b, "p2p link endpoints must differ");
        let id = LinkId(self.shared.links.len());
        self.shared_mut()
            .links
            .push(Link::new(LinkKind::PointToPoint, delay));
        let ia = self.attach(a, id);
        let ib = self.attach(b, id);
        (id, ia, ib)
    }

    /// Add a multi-access LAN joining `nodes`; returns the link id and each
    /// node's new interface, in order.
    pub fn add_lan(&mut self, nodes: &[NodeIdx], delay: Duration) -> (LinkId, Vec<IfaceId>) {
        assert!(nodes.len() >= 2, "a LAN needs at least two attachments");
        let id = LinkId(self.shared.links.len());
        self.shared_mut()
            .links
            .push(Link::new(LinkKind::Lan, delay));
        let ifaces = nodes.iter().map(|&n| self.attach(n, id)).collect();
        (id, ifaces)
    }

    /// Crash `node` with total state loss (§2 robustness: routers "may
    /// fail"). The node's volatile protocol state is dropped via
    /// [`Node::on_crash`], every timer it has armed is cancelled (counted
    /// in [`Counters::timers_cancelled_node_down`]) so no stale wakeup
    /// fires against the corpse, and packets addressed to it are discarded
    /// until [`World::restart_node`]. No-op if the node is already down.
    pub fn crash_node(&mut self, idx: NodeIdx) {
        if !self.shared.node_up[idx.0] {
            return;
        }
        self.shared_mut().node_up[idx.0] = false;
        // Eagerly vacate every armed timer owned by the node (timers
        // always live in the node's own region). The queue entries stay
        // behind and are skipped as stale when popped; what matters is
        // that no Timer event can reach a dead node.
        let r = &mut self.regions[self.shared.place[idx.0].0 as usize];
        let doomed: Vec<usize> = r
            .events
            .iter()
            .enumerate()
            .filter_map(|(slot, s)| match s.ev {
                Some(Event::Timer { node, .. }) if node == idx => Some(slot),
                _ => None,
            })
            .collect();
        for slot in doomed {
            r.vacate(slot);
            r.counters.record_timer_cancelled_node_down();
        }
        if let Some(node) = self.slot_mut(idx).node.as_mut() {
            node.on_crash();
        }
    }

    /// Power a crashed node back up: it cold-boots via
    /// [`Node::on_restart`] with whatever static configuration survived
    /// [`Node::on_crash`]. No-op if the node is already up.
    pub fn restart_node(&mut self, idx: NodeIdx) {
        if self.shared.node_up[idx.0] {
            return;
        }
        self.shared_mut().node_up[idx.0] = true;
        let cause = self.cur_script;
        self.dispatch_at_barrier(idx, EPOCH_EVENT, cause, |n, ctx| n.on_restart(ctx));
    }

    /// Is `node` currently up (not crashed)?
    pub fn is_node_up(&self, idx: NodeIdx) -> bool {
        self.shared.node_up[idx.0]
    }

    /// Take a link up or down (topology-change injection).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.shared_mut().links[link.0].up = up;
    }

    /// Set a link's independent per-receiver drop probability — a
    /// **fraction**, clamped into `[0, 1]` (NaN clamps to 0, i.e. no
    /// loss). Contrast [`World::set_channel_model`], whose probabilities
    /// are integer per-mille; the module doc's Units section explains
    /// the split.
    pub fn set_link_loss(&mut self, link: LinkId, loss: f64) {
        let loss = if loss.is_nan() {
            0.0
        } else {
            loss.clamp(0.0, 1.0)
        };
        self.shared_mut().links[link.0].loss = loss;
    }

    /// Install (or, with [`LinkCapacity::UNLIMITED`], remove) the
    /// deterministic bandwidth/queue model on a link. Both directions get
    /// the same configuration but independent queues. Like every fault
    /// knob, this is barrier-mutated state: call it from scripts or
    /// between runs, never from inside a node callback. Queue state
    /// already accumulated on the link survives a reconfiguration; an
    /// unlimited link simply stops consulting it.
    pub fn set_link_capacity(&mut self, link: LinkId, cap: LinkCapacity) {
        self.shared_mut().links[link.0].capacity = cap;
    }

    /// Install an adversarial [`ChannelModel`] on a link (corruption,
    /// duplication, reordering). `ChannelModel::CLEAN` restores a clean
    /// channel.
    pub fn set_channel_model(&mut self, link: LinkId, channel: ChannelModel) {
        assert!(channel.corrupt_pm <= 1000, "corrupt_pm is per-mille");
        assert!(channel.duplicate_pm <= 1000, "duplicate_pm is per-mille");
        assert!(channel.reorder_pm <= 1000, "reorder_pm is per-mille");
        self.shared_mut().links[link.0].channel = channel;
    }

    /// Link metadata.
    pub fn link(&self, link: LinkId) -> &Link {
        &self.shared.links[link.0]
    }

    /// Overhead counters collected so far: the world shard (script
    /// dispatches) merged with every region shard. The merge is
    /// associative and order-independent (see `Counters::merge`), so the
    /// totals are identical for any partition.
    pub fn counters(&self) -> Counters {
        let mut total = self.world_counters.clone();
        for r in self.regions.iter() {
            total.merge(&r.counters);
        }
        total
    }

    /// Attach a structured-event sink for all telemetry: the world's own
    /// events (timer arm / fire / cancel, injected faults) and every
    /// node's, which it emits through [`Ctx::emit`] (a node sees the sink
    /// as [`Ctx::telemetry_on`]). Telemetry only observes: it consumes no
    /// randomness and takes no behavioral branches, so packet traces
    /// are identical with or without a sink. Events reach `sink` in
    /// canonical event order, whatever the partition or thread count.
    pub fn set_telemetry(&mut self, sink: telemetry::SharedSink) {
        assert!(!self.started, "attach telemetry before start");
        self.telem = Some(sink);
    }

    /// Collect per-region wall-clock and event-count attribution (see
    /// [`crate::profile::SimProfile`]). Profiling is the one place the
    /// simulator reads wall-clock time; it observes only — the event
    /// order, RNG streams, and every deterministic output are untouched.
    /// Must be called before [`World::start`].
    pub fn enable_profile(&mut self) {
        assert!(!self.started, "enable profiling before start");
        self.profile = Some(SimProfile::default());
    }

    /// The attribution profile collected so far, `None` unless
    /// [`World::enable_profile`] was called. Event counts are
    /// deterministic; nanosecond attributions are wall-clock and vary
    /// run to run (never put them in a fingerprint).
    pub fn profile(&self) -> Option<SimProfile> {
        let world = self.profile.as_ref()?;
        Some(SimProfile {
            regions: self.regions.iter().filter_map(|r| r.prof.clone()).collect(),
            script_dispatches: self.world_counters.events_dispatched(),
            ..world.clone()
        })
    }

    /// Emit one telemetry event on behalf of `node` (no-op when no sink
    /// is attached). Scenario scripts use this to mark injected faults
    /// so sinks can measure post-fault reconvergence. Only callable at
    /// barriers (scripts run on the main thread), where region buffers
    /// are already flushed, so direct writes stay in canonical order.
    pub fn emit_event(&mut self, node: NodeIdx, ev: telemetry::Event) {
        debug_assert!(
            self.regions.iter().all(|r| r
                .buf
                .as_ref()
                .is_none_or(|b| b.events.is_empty() && b.links.is_empty())),
            "emit_event between a dispatch and its barrier's flush"
        );
        if let Some(sink) = &self.telem {
            // The emitting script's identity is the causal root the
            // event hangs off (fault marks are exactly what
            // `CausalIndex::forward_slice` starts from). Outside any
            // script — possible only from test code — fall back to a
            // sentinel script tag.
            let id = self.cur_script.unwrap_or(Tag {
                time: self.now,
                epoch: EPOCH_SCRIPT,
                origin: u32::MAX,
                seq: u64::MAX,
                emit: 0,
            });
            let id = id.event_id();
            telemetry::lock(sink).batch(
                &[(id, None)],
                &[telemetry::Emission {
                    node: node.0 as u32,
                    at: self.now.ticks(),
                    ev,
                    prov: telemetry::Provenance { id, cause: None },
                }],
            );
        }
    }

    /// Start capturing packet transmissions — the simulator's `tcpdump`.
    /// Records up to `limit` packets (time, link, sender, and the packet
    /// itself, decoded when read) from now on; calling again clears the
    /// buffer. The ring keeps each recorded packet's buffer alive: it
    /// pins up to `limit` × packet length bytes.
    pub fn enable_capture(&mut self, limit: usize) {
        self.shared_mut().capture_limit = Some(limit);
        for r in self.regions.iter_mut() {
            r.capture.clear();
            r.cap_seq = 0;
        }
    }

    /// The packets captured so far (empty if capture was never enabled),
    /// merged across region shards in canonical transmit order and
    /// truncated to the capture limit. Each region keeps the `limit`
    /// canonically-smallest records it saw, so any record in the true
    /// global first-`limit` (whose region-local rank can only be lower)
    /// is guaranteed to be present in some shard — truncation after the
    /// merge is exact, not partition-dependent. The records are borrowed
    /// from the shards: a read copies no record and bumps no packet's
    /// reference count.
    pub fn captured(&self) -> Vec<&CaptureRecord> {
        let limit = match self.shared.capture_limit {
            Some(l) => l,
            None => return Vec::new(),
        };
        let mut all: Vec<&Captured> = self.regions.iter().flat_map(|r| r.capture.iter()).collect();
        all.sort_unstable_by_key(|c| c.key);
        all.into_iter().take(limit).map(|c| &c.rec).collect()
    }

    /// Schedule an arbitrary scripted action (host joins a group, link
    /// fails, ...) at absolute time `at`. Scripts are barriers: all
    /// scripts at tick `t` run (in scheduling order) before any node
    /// event at tick `t`.
    pub fn at(&mut self, at: SimTime, f: impl FnOnce(&mut World) + 'static) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.script_seq += 1;
        self.scripts.push(ScriptEntry {
            at,
            seq: self.script_seq,
            f: Box::new(f),
        });
    }

    /// Immutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node is of a different type (a test bug, not a runtime
    /// condition).
    pub fn node<T: 'static>(&self, idx: NodeIdx) -> &T {
        self.slot(idx)
            .node
            .as_deref()
            .expect("node is not mid-callback")
            .as_any()
            .downcast_ref()
            .expect("node type mismatch")
    }

    /// Mutable access to a node, downcast to its concrete type. Unlike
    /// [`World::call_node`] this is not a dispatch: no context, no
    /// provenance edge.
    pub fn node_mut<T: 'static>(&mut self, idx: NodeIdx) -> &mut T {
        self.slot_mut(idx)
            .node
            .as_deref_mut()
            .expect("node is not mid-callback")
            .as_any_mut()
            .downcast_mut()
            .expect("node type mismatch")
    }

    /// The slot that holds node `idx`, in whichever region it lives.
    fn slot(&self, idx: NodeIdx) -> &Slot {
        let (r, s) = self.shared.place[idx.0];
        &self.regions[r as usize].slots[s as usize]
    }

    /// [`World::slot`], mutably.
    fn slot_mut(&mut self, idx: NodeIdx) -> &mut Slot {
        let (r, s) = self.shared.place[idx.0];
        &mut self.regions[r as usize].slots[s as usize]
    }

    /// Run one node callback at a barrier (scripts, start, restart): the
    /// owning region's clock is pulled up to world time, the dispatch
    /// runs inline on the main thread, any cross-region events it
    /// creates are routed immediately, and its telemetry is flushed so
    /// the stream stays in canonical order around direct
    /// [`World::emit_event`] writes.
    fn dispatch_at_barrier(
        &mut self,
        idx: NodeIdx,
        epoch: u8,
        cause: Option<Tag>,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
    ) {
        let rid = self.shared.place[idx.0].0 as usize;
        let now = self.now;
        let region = &mut self.regions[rid];
        debug_assert!(region.now <= now, "region ahead of barrier time");
        region.now = now;
        region.dispatch(&self.shared, idx, epoch, cause, f);
        self.route_mail();
        self.flush_telemetry();
    }

    /// Invoke a node's [`Node::on_timer`]-style entry from scripted events,
    /// giving scenario code a way to poke engines with full context. The
    /// dispatch's causal parent is the executing script, so everything a
    /// scripted poke sets in motion traces back to the script.
    pub fn call_node(&mut self, idx: NodeIdx, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>)) {
        let cause = self.cur_script;
        self.dispatch_at_barrier(idx, EPOCH_EVENT, cause, f);
    }

    /// Deliver `on_start` to every node (idempotent; called automatically by
    /// the run methods). With telemetry attached, this is also where every
    /// region gets its telemetry buffer.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Partition and thread count are final: deal the regions over the
        // threads that will run them.
        self.regions.restripe(self.threads.min(self.regions.len()));
        self.lookahead = self.cross_region_lookahead();
        if self.regions.len() > 1 {
            if let Some(l) = self.lookahead {
                assert!(
                    l.ticks() >= 1,
                    "cross-region links must have delay >= 1 tick (conservative lookahead)"
                );
            }
        }
        if self.telem.is_some() {
            for r in self.regions.iter_mut() {
                r.buf = Some(Box::default());
            }
        }
        if self.profile.is_some() {
            for r in self.regions.iter_mut() {
                r.prof = Some(RegionProfile::new(r.id));
            }
        }
        for i in 0..self.node_count() {
            self.dispatch_at_barrier(NodeIdx(i), EPOCH_START, None, |n, ctx| n.on_start(ctx));
        }
    }

    /// The earliest pending region-event time across all regions.
    fn min_event_time(&self) -> Option<SimTime> {
        self.regions
            .iter()
            .filter_map(|r| r.queue.peek_time())
            .min()
    }

    /// Drain every region's outbox into the destination regions' queues.
    /// Order is irrelevant: queues order by the canonical tag.
    fn route_mail(&mut self) {
        for src in 0..self.regions.len() {
            // Emptied in place and handed back, so each outbox keeps its
            // capacity from barrier to barrier.
            let mut outbox = std::mem::take(&mut self.regions[src].outbox);
            for m in outbox.drain(..) {
                let _ = self.regions[m.dst as usize].push_event(m.tag, m.cause, m.ev);
            }
            self.regions[src].outbox = outbox;
        }
    }

    /// Merge all region telemetry buffers into the user sink in
    /// canonical order and clear them. Called at every barrier, so each
    /// flushed batch covers a disjoint slice of the canonical order and
    /// concatenation preserves it. The sink is locked once and takes the
    /// whole window as one [`telemetry::Sink::batch`]: provenance edges
    /// first (every dispatch, silent ones included), then the events.
    fn flush_telemetry(&mut self) {
        let Some(sink) = &self.telem else {
            return;
        };
        let (links, events) = (&mut self.flush_links, &mut self.flush_events);
        // Cleared here, not after delivery: a sink that panicked mid-batch
        // must not get the same window again on the next flush.
        links.clear();
        events.clear();
        let mut sources = 0;
        // By index: `iter_mut` allocates, and this runs at every barrier.
        for i in 0..self.regions.len() {
            if let Some(buf) = &mut self.regions[i].buf {
                if buf.links.is_empty() && buf.events.is_empty() {
                    continue;
                }
                sources += 1;
                buf.sort_canonical();
                events.append(&mut buf.events);
                links.append(&mut buf.links);
            }
        }
        if sources == 0 {
            return;
        }
        if sources > 1 {
            // Merge the per-region sorted runs. One dispatch runs in one
            // region, so same-id events came from one buffer and the
            // stable sort keeps their emission order.
            events.sort_by_key(|e| e.prov.id);
            links.sort();
        }
        telemetry::lock(sink).batch(links, events);
    }

    /// Run one lock-step window: every region processes its events due
    /// before `bound` — stripe by stripe on the crew when the regions are
    /// striped over more than one thread, inline otherwise — then
    /// cross-region mail is routed and telemetry merged at the barrier.
    /// Returns the number of queue pops across all regions.
    fn run_window_all(&mut self, bound: SimTime) -> usize {
        let t0 = self.profile.as_ref().map(|_| std::time::Instant::now());
        let window = Window {
            shared: Arc::clone(&self.shared),
            bound,
        };
        let width = self.regions.width();
        let (mut n, mut slowest) = (0, 0);
        let mut tally = |(pops, busy): (usize, u64)| {
            n += pops;
            slowest = slowest.max(busy);
        };
        if width == 1 {
            // By index: `iter_mut` allocates, and this loop is inside
            // `node`'s exact allocation budget.
            for i in 0..self.regions.len() {
                tally(self.regions[i].run_window_timed(&window));
            }
        } else {
            let crew = self.crew.get_or_insert_with(|| {
                par::Crew::new(
                    width - 1,
                    Arc::new(|_, r: &mut Region, w: &Window| r.run_window_timed(w)),
                )
            });
            match crew.run(&mut self.regions, &window) {
                Ok(done) => done.into_iter().for_each(tally),
                Err(p) => {
                    // The regions are all back and the crew is idle: the
                    // run fails with the node's own panic, nothing hangs
                    // and nothing is poisoned.
                    eprintln!(
                        "netsim: region {} panicked in the window ending before tick {}",
                        p.item,
                        bound.ticks()
                    );
                    std::panic::resume_unwind(p.payload)
                }
            }
        }
        let t1 = self.profile.as_ref().map(|_| std::time::Instant::now());
        self.route_mail();
        self.flush_telemetry();
        if let (Some(p), Some(t0), Some(t1)) = (&mut self.profile, t0, t1) {
            p.windows += 1;
            p.critical_nanos += slowest;
            let wall = t1.duration_since(t0).as_nanos() as u64;
            p.handoff_nanos += wall.saturating_sub(slowest);
            p.barrier_nanos += t1.elapsed().as_nanos() as u64;
        }
        n
    }

    /// Pop and run every script scheduled for exactly tick `t` (they may
    /// schedule more work, including further scripts at `t`). Returns the
    /// number of scripts dispatched.
    fn run_scripts_at(&mut self, t: SimTime) -> usize {
        let mut n = 0;
        while self.scripts.peek().map(|s| s.at) == Some(t) {
            let entry = self.scripts.pop().expect("peeked script vanished");
            self.world_counters.record_dispatch();
            // The script's canonical identity: the causal root for the
            // fault marks it emits and the dispatches it performs.
            // Scripts execute in (time, seq) order, which is exactly
            // tag order, so identities ascend like every other tag.
            self.cur_script = Some(Tag {
                time: t,
                epoch: EPOCH_SCRIPT,
                origin: 0,
                seq: entry.seq,
                emit: 0,
            });
            (entry.f)(self);
            self.cur_script = None;
            n += 1;
            self.flush_telemetry();
        }
        n
    }

    /// Run until the event queue is empty or simulated time would exceed
    /// `until`. Returns the number of events processed (scripts plus
    /// region queue pops, stale skips included).
    pub fn run_until(&mut self, until: SimTime) -> usize {
        self.start();
        let mut n = 0;
        loop {
            let t_ev = self.min_event_time();
            let t_sc = self.scripts.peek().map(|s| s.at);
            let t = match t_ev.into_iter().chain(t_sc).min() {
                Some(t) => t,
                None => break,
            };
            if t > until {
                break;
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            if t_sc == Some(t) {
                n += self.run_scripts_at(t);
                continue;
            }
            let mut bound = SimTime(until.ticks().saturating_add(1));
            if let Some(ts) = t_sc {
                bound = bound.min(ts);
            }
            if let Some(l) = self.lookahead {
                bound = bound.min(SimTime(t.ticks().saturating_add(l.ticks())));
            }
            n += self.run_window_all(bound);
            self.now = self.now.max(SimTime(bound.ticks().saturating_sub(1)));
        }
        // Advance the clock to the requested horizon even if idle.
        if self.now < until {
            self.now = until;
        }
        n
    }
}

/// The crate's unit tests. The world's own (scripts, crash and restart,
/// partitions, sinks) are here; every other layer's sit in a `tests.rs`
/// beside it (`queue/`, `region/`, `ctx/`), spliced in with `include!`
/// so that each test keeps the `world::tests::` name it has always run
/// under. The nodes and worlds they share are `crate::fixture`'s.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::*;
    use crate::queue::{next_dispatch_seq, EventQueue, SEQ_BITS};
    use std::cmp::Reverse;
    use std::sync::Mutex;

    include!("queue/tests.rs");
    include!("region/tests.rs");
    include!("ctx/tests.rs");

    #[test]
    fn event_dispatch_counters() {
        let (mut w, a, _b, _l) = two_node_world();
        w.at(SimTime(10), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 42]));
        });
        w.run_until(SimTime(100));
        // One script + one delivery dispatched; no timers anywhere.
        assert_eq!(w.counters().events_dispatched(), 2);
        assert_eq!(w.counters().timers_fired(), 0);
        assert_eq!(w.counters().timers_skipped_stale(), 0);
        assert_eq!(w.counters().rx_pkts(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (mut w, a, _b, l) = two_node_world();
            w.set_link_loss(l, 0.3);
            for t in 0..50 {
                w.at(SimTime(t), move |w| {
                    w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
                });
            }
            w.run_until(SimTime(500));
            // Drain rather than clone: the world is dropped right after,
            // so the copy was pure waste.
            let eb: &mut Echo = w.node_mut(NodeIdx(1));
            std::mem::take(&mut eb.received)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clock_advances_to_horizon_when_idle() {
        let (mut w, _a, _b, _l) = two_node_world();
        w.run_until(SimTime(123));
        assert_eq!(w.now(), SimTime(123));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_rejected() {
        let (mut w, _a, _b, _l) = two_node_world();
        w.run_until(SimTime(10));
        w.at(SimTime(5), |_| {});
    }

    #[test]
    fn crash_cancels_armed_timers() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.set_timer(Duration(10), 1);
                ctx.set_timer(Duration(20), 2);
            });
        });
        w.at(SimTime(5), move |w| w.crash_node(a));
        w.run_until(SimTime(100));
        let e: &Echo = w.node(a);
        assert!(e.timers.is_empty(), "no timer may fire on a dead node");
        assert_eq!(w.counters().timers_cancelled_node_down(), 2);
        assert_eq!(w.counters().timers_fired(), 0);
        assert!(!w.is_node_up(a));
    }

    #[test]
    fn down_node_drops_deliveries_and_restart_revives() {
        let (mut w, a, b, _l) = two_node_world();
        w.at(SimTime(0), move |w| w.crash_node(b));
        // Transmitted while b is down: dropped at the dead attachment.
        w.at(SimTime(1), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 1]));
        });
        w.at(SimTime(10), move |w| w.restart_node(b));
        // Transmitted after restart: delivered normally.
        w.at(SimTime(20), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 2]));
        });
        w.run_until(SimTime(100));
        let eb: &Echo = w.node(b);
        assert_eq!(eb.received.len(), 1, "only the post-restart packet");
        assert_eq!(eb.received[0].2, vec![0, 2]);
        assert_eq!(w.counters().pkts_dropped_node_down(), 1);
        assert!(w.is_node_up(b));
    }

    #[test]
    fn in_flight_packet_to_crashing_node_is_dropped() {
        // delay 3: send at t=0, crash at t=1, delivery due t=3 is discarded.
        let (mut w, a, b, _l) = two_node_world();
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 9]));
        });
        w.at(SimTime(1), move |w| w.crash_node(b));
        w.run_until(SimTime(100));
        let eb: &Echo = w.node(b);
        assert!(eb.received.is_empty());
        assert_eq!(w.counters().pkts_dropped_node_down(), 1);
    }

    #[test]
    fn crash_and_restart_are_idempotent() {
        let (mut w, _a, b, _l) = two_node_world();
        w.at(SimTime(0), move |w| {
            w.crash_node(b);
            w.crash_node(b); // no-op
        });
        w.at(SimTime(5), move |w| {
            w.restart_node(b);
            w.restart_node(b); // no-op
        });
        w.run_until(SimTime(50));
        assert!(w.is_node_up(b));
    }

    #[test]
    fn set_link_loss_clamps_out_of_range() {
        let (mut w, _a, _b, l) = quiet_world();
        w.set_link_loss(l, 1.5);
        assert_eq!(w.link(l).loss, 1.0);
        w.set_link_loss(l, -0.25);
        assert_eq!(w.link(l).loss, 0.0);
        w.set_link_loss(l, f64::NAN);
        assert_eq!(w.link(l).loss, 0.0);
        w.set_link_loss(l, 0.75);
        assert_eq!(w.link(l).loss, 0.75);
    }

    /// The tentpole contract: any region assignment produces byte-identical
    /// receptions, telemetry, and merged counters — including under
    /// impairments and a mid-run crash/restart.
    #[test]
    fn partitioned_run_is_byte_identical_to_single_region() {
        let single = partitioned_fixture(None, None);
        let split = partitioned_fixture(Some(&[0, 0, 1, 1]), None);
        assert_eq!(single.0, split.0, "receptions diverged");
        assert_eq!(single.1, split.1, "telemetry fingerprint diverged");
        assert_eq!(single.2, split.2, "merged counters diverged");
        assert_eq!(single.3, split.3, "captures diverged");
        // A deliberately bad partition (cutting the delay-1 links too)
        // must still agree — correctness never depends on the partition.
        let scattered = partitioned_fixture(Some(&[0, 1, 2, 3]), None);
        assert_eq!(single.0, scattered.0);
        assert_eq!(single.1, scattered.1);
        assert_eq!(single.2, scattered.2);
        assert_eq!(single.3, scattered.3);
    }

    /// A sink that panics must cost the run that one panic and nothing
    /// else: the locks it poisoned are recovered, so the world can be run
    /// on, the sibling sink's stream is whole, and nothing is delivered
    /// twice.
    #[test]
    fn a_panicking_sink_leaves_the_world_and_its_siblings_usable() {
        /// Panics while consuming its 40th event.
        struct Bomb(u32);
        impl telemetry::Sink for Bomb {
            fn event(&mut self, _node: u32, _at: u64, _ev: &telemetry::Event) {
                self.0 += 1;
                assert_ne!(self.0, 40, "sink bug");
            }
        }
        let reference = partitioned_fixture(Some(&[0, 0, 1, 1]), None).1;
        assert!(reference.len() > 40);

        let (mut w, _) = fixture_world(Some(&[0, 0, 1, 1]), None);
        let sibling = Arc::new(Mutex::new(VecSink(Vec::new())));
        let mut fan = telemetry::Fanout::new();
        fan.push(sibling.clone());
        fan.push(Arc::new(Mutex::new(Bomb(0))));
        w.set_telemetry(Arc::new(Mutex::new(fan)));
        let blown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run_until(SimTime(600));
        }));
        assert!(blown.is_err(), "the 40th event blows up");
        w.run_until(SimTime(600));
        assert_eq!(telemetry::lock(&sibling).0, reference);
    }

    /// `parallelize(n)` (auto-partition + the worker crew) is also
    /// byte-identical, and the auto-partitioner cuts at the delay-5 link.
    #[test]
    fn parallelize_auto_partitions_and_matches_single_region() {
        let single = partitioned_fixture(None, None);
        for threads in [2, 4] {
            let par = partitioned_fixture(None, Some(threads));
            assert_eq!(single.0, par.0, "threads={threads}: receptions diverged");
            assert_eq!(single.1, par.1, "threads={threads}: telemetry diverged");
            assert_eq!(single.2, par.2, "threads={threads}: counters diverged");
            assert_eq!(single.3, par.3, "threads={threads}: captures diverged");
        }
        // Region-count sanity: the fixture topology splits on the
        // delay-5 middle link into exactly two delay-1 islands.
        let mut w = World::new(7);
        let nodes: Vec<NodeIdx> = (0..4).map(|_| w.add_node(Box::new(Echo::new()))).collect();
        w.add_p2p(nodes[0], nodes[1], Duration(1));
        w.add_p2p(nodes[1], nodes[2], Duration(5));
        w.add_p2p(nodes[2], nodes[3], Duration(1));
        w.parallelize(4);
        assert_eq!(w.region_count(), 2);
        assert_eq!(w.cross_region_lookahead(), Some(Duration(5)));
    }

    /// Repartitioning twice before start — the auto-partitioner's cut, then
    /// an explicit assignment that moves n1 and n3 to the other side of it —
    /// moves every node with its RNG stream and nothing else: the run is
    /// the single-region run, byte for byte.
    #[test]
    fn repartitioning_twice_before_start_matches_single_region() {
        let single = partitioned_fixture(None, None);
        assert_eq!(single.3.len(), 64, "the capture ring is full");
        let (mut w, nodes) = fixture_world(None, Some(2));
        assert_eq!(w.region_count(), 2, "auto-partition: [0, 0, 1, 1]");
        w.set_partition(&[0, 1, 1, 0]);
        assert_eq!(w.region_count(), 2);
        let twice = run_fixture(w, &nodes);
        assert_eq!(single.0, twice.0, "receptions diverged");
        assert_eq!(single.1, twice.1, "telemetry diverged");
        assert_eq!(single.2, twice.2, "merged counters diverged");
        assert_eq!(single.3, twice.3, "captures diverged");
    }

    /// Captures merge across shards in canonical transmit order.
    #[test]
    fn capture_is_partition_independent() {
        let run = |partition: Option<&[u32]>| {
            let mut w = World::new(9);
            let a = w.add_node(Box::new(Echo::new()));
            let b = w.add_node(Box::new(Echo::new()));
            w.add_p2p(a, b, Duration(2));
            if let Some(p) = partition {
                w.set_partition(p);
            }
            w.enable_capture(16);
            w.at(SimTime(0), move |w| {
                w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![6]));
            });
            w.run_until(SimTime(100));
            w.captured()
                .iter()
                .map(|r| format!("{} {:?} {:?} {}", r.at.ticks(), r.link, r.from, r.summary()))
                .collect::<Vec<_>>()
        };
        let single = run(None);
        let split = run(Some(&[0, 1]));
        assert!(!single.is_empty());
        assert_eq!(single, split);
    }
}
