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
//! # Units
//!
//! Two impairment knobs use different units for historical reasons, kept
//! deliberately distinct: [`Link::loss`] is a *fraction* (`f64` in
//! `[0, 1]`, clamped at set time) because it predates the text-round-trip
//! requirement, while every [`ChannelModel`] probability is integer
//! *per-mille* (`0..=1000`) so fault schedules carrying them round-trip
//! exactly through text. [`LinkCapacity`] fields are plain integers
//! (bytes/tick and bytes) for the same round-trip reason.
//!
//! # Parallel core (DESIGN.md §9)
//!
//! Nodes are assigned to **regions** (one by default; see
//! [`World::set_partition`] and [`World::parallelize`]). Each region owns
//! its own event queue, event arena, RNG streams, `Counters` shard, and
//! telemetry buffer, so regions can advance concurrently with no locks on
//! the hot path. Regions advance in lock-step **windows** bounded by the
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

use crate::counters::{Counters, PacketClass};
use crate::time::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::sync::{Arc, Mutex};

/// RNG stream id for per-node streams (see [`par::mix`]): node `i`'s
/// stream is `mix(world_seed, NODE_RNG_STREAM, i)`, disjoint from the
/// trial-level streams the bench drivers derive from the same seed.
const NODE_RNG_STREAM: u64 = 0x6E6F_6465; // "node"

/// Canonical-key epoch for start-of-world dispatches (`on_start`): they
/// sort before any runtime event at the same tick.
const EPOCH_START: u8 = 0;
/// Canonical-key epoch for scripts. Scripts live in a separate
/// world-level queue and never enter a region queue; the epoch exists so
/// a script dispatch has a canonical identity of its own — the causal
/// root every fault injection's consequences hang off — that sorts
/// before the node events it triggers at the same tick.
const EPOCH_SCRIPT: u8 = 1;
/// Canonical-key epoch for runtime node events (deliveries, timers,
/// barrier dispatches).
const EPOCH_EVENT: u8 = 2;

/// Index of a node in the world.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIdx(pub usize);

impl fmt::Debug for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// A node-local interface index: position in the node's own interface list.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfaceId(pub u32);

impl IfaceId {
    /// As a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for IfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "if{}", self.0)
    }
}

impl fmt::Display for IfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "if{}", self.0)
    }
}

/// Index of a link in the world.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Whether a link is a point-to-point wire or a multi-access LAN.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKind {
    /// Exactly two attachments; a send by one is delivered to the other.
    PointToPoint,
    /// Any number of attachments; a send by one is delivered to all others
    /// (needed for the paper's §3.7 multi-access subnetwork behaviors:
    /// prune override, join suppression, DR election).
    Lan,
}

/// Per-link adversarial impairments, applied independently per receiver
/// copy at transmit time from the sender's seeded RNG stream — a real
/// wide-area fabric does not just drop packets, it also corrupts,
/// duplicates, and reorders them (the regime where the paper's §2
/// soft-state robustness claim must hold).
///
/// Probabilities are integer per-mille (`0..=1000`), never floats, so
/// scenario schedules carrying them round-trip exactly through text.
/// The default (all zeros) is a clean channel that consumes no
/// randomness, leaving pre-existing traces byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelModel {
    /// Per-mille probability that a delivered copy has one byte flipped.
    pub corrupt_pm: u32,
    /// Per-mille probability that a receiver gets the packet twice.
    pub duplicate_pm: u32,
    /// Per-mille probability that a copy is delayed past later traffic.
    pub reorder_pm: u32,
    /// Maximum extra delay (in ticks) added to a reordered copy; the
    /// actual extra delay is drawn uniformly from `1..=jitter.max(1)`.
    pub jitter: u64,
}

impl ChannelModel {
    /// A clean channel: no corruption, duplication, or reordering.
    pub const CLEAN: ChannelModel = ChannelModel {
        corrupt_pm: 0,
        duplicate_pm: 0,
        reorder_pm: 0,
        jitter: 0,
    };
}

/// Deterministic per-direction link capacity: bandwidth in bytes/tick
/// with a bounded FIFO transmit queue (the ce-netsim design from the
/// ROADMAP). Every quantity is an integer and every decision is a pure
/// function of queue state — the capacity path consumes **no randomness**,
/// so enabling it on some links leaves the RNG streams (and therefore
/// every loss/impairment roll) of a run untouched.
///
/// Each *direction* of a link — each `(link, sending node)` pair — has its
/// own queue: a sender transmitting `len` bytes first drains its backlog
/// by `elapsed × bytes_per_tick`, then tail-drops the packet if
/// `backlog + len` would exceed `queue_bytes`, otherwise enqueues it and
/// delivers after `ceil(backlog / bytes_per_tick)` serialization +
/// queueing delay on top of the link's propagation delay. Crossing
/// `ecn_bytes` (when nonzero) counts an ECN-style congestion mark.
///
/// With `ctrl_priority` (the default), control-class packets — soft-state
/// refreshes, Joins/Prunes, IGMP queries (see
/// [`crate::counters::PacketClass`]) — bypass the data queue entirely:
/// the paper's §3 graceful-degradation argument requires that the
/// control plane keeps converging while the data plane saturates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkCapacity {
    /// Bandwidth in bytes per tick; `0` disables the capacity model for
    /// the link (unlimited, the default — no queueing, no drops).
    pub bytes_per_tick: u64,
    /// Transmit queue bound in bytes; a packet that would push the
    /// backlog past this is tail-dropped at the sender.
    pub queue_bytes: u64,
    /// ECN-style marking threshold in bytes (`0` = no marking): an
    /// enqueue that pushes the backlog past this counts a congestion
    /// mark (observable in counters/telemetry, not in packet bytes).
    pub ecn_bytes: u64,
    /// Control-class packets bypass the queue (never dropped or delayed
    /// by data backlog). Disable to model a fabric without priority —
    /// the configuration the no-starvation oracle exists to catch.
    pub ctrl_priority: bool,
}

impl LinkCapacity {
    /// No capacity model: unlimited bandwidth, no queueing (the default).
    pub const UNLIMITED: LinkCapacity = LinkCapacity {
        bytes_per_tick: 0,
        queue_bytes: 0,
        ecn_bytes: 0,
        ctrl_priority: true,
    };

    /// True when the capacity model is disabled for this link — the
    /// transmit path then takes the pre-capacity fast path untouched.
    pub fn is_unlimited(&self) -> bool {
        self.bytes_per_tick == 0
    }
}

impl Default for LinkCapacity {
    fn default() -> Self {
        LinkCapacity::UNLIMITED
    }
}

/// A link connecting node interfaces.
#[derive(Debug)]
pub struct Link {
    /// Point-to-point or LAN.
    pub kind: LinkKind,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Administratively/physically up?
    pub up: bool,
    /// Per-receiver independent drop probability (failure injection).
    /// A **fraction** in `[0, 1]` — unlike [`ChannelModel`], whose
    /// probabilities are integer per-mille (see the module doc's Units
    /// section). Clamped into range by [`World::set_link_loss`].
    pub loss: f64,
    /// Adversarial impairments (corrupt/duplicate/reorder).
    pub channel: ChannelModel,
    /// Deterministic bandwidth/queue model (default: unlimited).
    pub capacity: LinkCapacity,
    /// The attached `(node, iface)` pairs.
    pub attachments: Vec<(NodeIdx, IfaceId)>,
}

/// A simulated node. Implementations wrap sans-IO protocol engines and
/// translate their outputs into [`Ctx`] calls.
///
/// `Send` is required because the partitioned world hands whole regions
/// (which own their nodes) to its worker threads, by value, for the length
/// of a window; a node is only ever touched by the one thread running its
/// region.
pub trait Node: Send {
    /// Called once when the simulation starts, before any packets flow.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet arrived on `iface`. `packet` is the full serialized buffer
    /// (network header included).
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]);

    /// A timer set via [`Ctx::set_timer`]/[`Ctx::set_timer_at`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);

    /// The node crashed with total state loss ([`World::crash_node`]).
    /// Implementations drop all volatile protocol state; static
    /// configuration (addresses, interface roles) survives, modelling a
    /// router whose config is in NVRAM but whose RAM is gone. No [`Ctx`] is
    /// provided — a dead node cannot send or arm timers.
    fn on_crash(&mut self) {}

    /// The node powered back up after a crash ([`World::restart_node`]).
    /// Default: cold-boot via [`Node::on_start`].
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.on_start(ctx);
    }

    /// The world attached a telemetry sink ([`World::set_telemetry`]):
    /// adopt the per-node handle for protocol-level emissions. Default:
    /// ignore (nodes that emit nothing need no handle).
    fn set_telemetry(&mut self, _telem: telemetry::Telem) {}

    /// Downcast support for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support for scenario scripting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The partition-independent canonical key of a region event.
///
/// `origin` is the creating node's index + 1 (0 is reserved for the
/// world itself, which never creates region events); `seq` is the
/// creating dispatch's per-node sequence number; `emit` is the 1-based
/// emission index within that dispatch (0 is reserved for the dispatch's
/// own identity tag, used to key telemetry and captures). Because every
/// component is derived from the creating node's own deterministic
/// history — never from a global insertion counter — the total order of
/// events is the same for every region assignment and thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Tag {
    time: SimTime,
    epoch: u8,
    origin: u32,
    seq: u64,
    emit: u32,
}

/// Width of the `seq` field in [`Tag::sub_key`]: a node may run 2⁵⁶
/// dispatches before the packed key would stop ordering like the tag
/// (at a dispatch per nanosecond, two years of host time).
const SEQ_BITS: u32 = 56;

/// Hand out the next per-node dispatch sequence number, refusing to run
/// past the range [`Tag::sub_key`] can hold. A real check: a `seq` that
/// spilled into the `origin` bits would silently reorder events.
fn next_dispatch_seq(counter: &mut u64) -> u64 {
    let seq = *counter;
    assert!(
        seq < 1 << SEQ_BITS,
        "node dispatch sequence exhausted the event key's 56-bit seq field"
    );
    *counter = seq + 1;
    seq
}

impl Tag {
    /// Everything but `time`, packed `epoch:8 | origin:32 | seq:56 |
    /// emit:32` so one integer compare orders two same-tick events
    /// exactly as the derived `Ord` orders their tags.
    fn sub_key(self) -> u128 {
        debug_assert!(self.seq < 1 << SEQ_BITS, "seq outruns the packed key");
        (self.epoch as u128) << 120
            | (self.origin as u128) << 88
            | (self.seq as u128) << 32
            | self.emit as u128
    }

    /// Inverse of [`Tag::sub_key`] (only tests need the fields back; the
    /// event loop reads just the time of a popped event).
    #[cfg(test)]
    fn from_sub_key(time: SimTime, key: u128) -> Tag {
        Tag {
            time,
            epoch: (key >> 120) as u8,
            origin: (key >> 88) as u32,
            seq: (key >> 32) as u64 & ((1 << SEQ_BITS) - 1),
            emit: key as u32,
        }
    }

    /// The dispatch-identity part of the tag as a public
    /// [`telemetry::EventId`]. The `emit` component is dropped: causal
    /// provenance identifies *dispatches* (always `emit == 0`), and the
    /// tags stored as causes are exactly the identity tags.
    fn event_id(self) -> telemetry::EventId {
        telemetry::EventId {
            time: self.time.ticks(),
            epoch: self.epoch,
            origin: self.origin,
            seq: self.seq,
        }
    }
}

enum Event {
    Deliver {
        node: NodeIdx,
        iface: IfaceId,
        /// Shared, immutable payload: a LAN transmit enqueues one
        /// delivery per attached receiver, and the `Arc` makes each a
        /// refcount bump on the single serialized buffer instead of a
        /// per-receiver copy. Receivers only ever see `&[u8]`
        /// ([`Node::on_packet`]), so immutability is free.
        packet: Arc<[u8]>,
        link: LinkId,
    },
    Timer {
        node: NodeIdx,
        token: u64,
    },
}

/// Handle to a scheduled timer, usable with [`Ctx::cancel_timer`].
///
/// Generation-counted: event slots are recycled once an event fires or is
/// cancelled, and the generation disambiguates a handle from any later
/// tenant of the same slot, so cancelling an already-fired timer is a safe
/// no-op rather than an ABA hazard. The slot index is region-local; a
/// handle is only meaningful to the node that armed the timer (timers
/// never cross regions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId {
    slot: usize,
    gen: u32,
}

/// One event-arena slot. The queue stores `(tag, slot, gen)`; a popped
/// entry whose generation no longer matches (or whose slot is empty) is a
/// cancelled timer and is skipped without dispatch.
struct EventSlot {
    gen: u32,
    ev: Option<Event>,
    /// Identity tag of the dispatch that created this event — the
    /// event's causal parent, threaded into the handling dispatch so
    /// every consequence links back to its cause.
    cause: Tag,
}

/// One queued event: `(Tag::sub_key, arena slot, slot generation)`. The
/// tick is the bucket the entry sits in.
type QueueEntry = (u128, u32, u32);

/// A region's pending events, popped in canonical `(Tag, slot, gen)`
/// order. A calendar queue: simulated time is a small dense integer
/// (link delays are a few ticks, hundreds of events share each tick), so
/// events are bucketed by tick and only the tick being drained is kept
/// in order — a push is one `Vec::push` and a pop one `Vec::pop`, where a
/// binary heap paid `log n` five-field tag comparisons for both.
#[derive(Default)]
struct EventQueue {
    /// Every tick but the open one: unsorted buckets.
    future: BTreeMap<u64, Vec<QueueEntry>>,
    /// The tick being drained. `None` before the first pop and after a
    /// push earlier than the open tick folded it back into `future`.
    open: Option<u64>,
    /// The open tick's entries as of when it was opened, sorted
    /// descending: the next event is at the back.
    current: Vec<QueueEntry>,
    /// Events created *at* the open tick after it was sorted (zero-delay
    /// links, timers clamped to now): few, so a small min-heap.
    side: BinaryHeap<Reverse<QueueEntry>>,
    /// Emptied bucket `Vec`s, reused so a steady run allocates none.
    spare: Vec<Vec<QueueEntry>>,
}

impl EventQueue {
    fn bucket(&mut self, tick: u64) -> &mut Vec<QueueEntry> {
        self.future
            .entry(tick)
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
    }

    fn push(&mut self, tag: Tag, slot: usize, gen: u32) {
        let slot = u32::try_from(slot).expect("event arena outgrew 2^32 slots");
        let (tick, entry) = (tag.time.ticks(), (tag.sub_key(), slot, gen));
        match self.open {
            Some(open) if tick == open => self.side.push(Reverse(entry)),
            Some(open) if tick < open => {
                // Earlier than the tick being drained (a budget-cut
                // window resumed after barrier work): close the open
                // tick again so `future` alone says what is next.
                if !self.current.is_empty() || !self.side.is_empty() {
                    let mut rest = std::mem::take(&mut self.current);
                    rest.extend(self.side.drain().map(|Reverse(e)| e));
                    let displaced = self.future.insert(open, rest);
                    debug_assert!(displaced.is_none(), "open-tick pushes go to `side`");
                }
                self.open = None;
                self.bucket(tick).push(entry);
            }
            _ => self.bucket(tick).push(entry),
        }
    }

    /// The time of the event [`EventQueue::pop`] would return.
    fn peek_time(&self) -> Option<SimTime> {
        match self.open {
            Some(open) if !self.current.is_empty() || !self.side.is_empty() => Some(SimTime(open)),
            _ => self.future.keys().next().map(|&t| SimTime(t)),
        }
    }

    /// Remove and return the least `(time, slot, gen)`.
    fn pop(&mut self) -> Option<(SimTime, usize, u32)> {
        loop {
            if let Some(open) = self.open {
                let from_side = match (self.current.last(), self.side.peek()) {
                    (Some(c), Some(Reverse(s))) => s < c,
                    (None, Some(_)) => true,
                    (Some(_), None) => false,
                    (None, None) => {
                        self.open = None;
                        continue;
                    }
                };
                let (_, slot, gen) = if from_side {
                    self.side.pop().expect("peeked").0
                } else {
                    self.current.pop().expect("peeked")
                };
                return Some((SimTime(open), slot as usize, gen));
            }
            let (tick, mut bucket) = self.future.pop_first()?;
            bucket.sort_unstable_by(|a, b| b.cmp(a));
            std::mem::swap(&mut self.current, &mut bucket);
            self.spare.push(bucket);
            self.open = Some(tick);
        }
    }
}

/// One captured transmission (see [`World::enable_capture`]).
#[derive(Clone, Debug)]
pub struct CaptureRecord {
    /// Transmission time.
    pub at: SimTime,
    /// The link transmitted on.
    pub link: LinkId,
    /// The transmitting node.
    pub from: NodeIdx,
    /// Human-readable decode of the packet (see [`crate::trace`]).
    pub summary: String,
}

/// Per-region telemetry buffer. Node adapters and the world's own
/// emitters write here during a window (each buffer is only touched by
/// the thread running its region — the mutex is uncontended); the main
/// thread drains all buffers at every barrier, restores the
/// partition-independent order, and hands the window to the user's sink
/// as one [`telemetry::Sink::batch`].
#[derive(Default)]
struct RegionBuf {
    /// The running dispatch and its cause, stamped on every emission.
    prov: telemetry::Provenance,
    events: Vec<telemetry::Emission>,
    /// One provenance edge per dispatch this window — including silent
    /// dispatches that emit no events, so backward slices never have
    /// holes where a hop merely forwarded data.
    links: Vec<(telemetry::EventId, Option<telemetry::EventId>)>,
}

impl RegionBuf {
    /// Open dispatch `tag`: record its provenance edge and stamp what
    /// it emits from here on.
    fn begin(&mut self, tag: Tag, cause: Option<Tag>) {
        let (id, cause) = (tag.event_id(), cause.map(Tag::event_id));
        self.prov = telemetry::Provenance { id, cause };
        self.links.push((id, cause));
    }

    fn push(&mut self, node: u32, at: u64, ev: telemetry::Event) {
        self.events.push(telemetry::Emission {
            node,
            at,
            ev,
            prov: self.prov,
        });
    }

    /// Put the window's entries in canonical (dispatch-id) order. The
    /// region ran its dispatches in execution order: ascending in time,
    /// but within one tick ordered by the tags of the events handled,
    /// not by the ids of the dispatches handling them. So entries are
    /// only ever out of place among same-tick neighbours, and sorting
    /// tick by tick is a full sort at a fraction of the comparisons.
    /// Stable for events: one dispatch's emissions keep emission order.
    fn sort_canonical(&mut self) {
        for tick in self
            .events
            .chunk_by_mut(|a, b| a.prov.id.time == b.prov.id.time)
        {
            tick.sort_by_key(|e| e.prov.id);
        }
        for tick in self.links.chunk_by_mut(|a, b| a.0.time == b.0.time) {
            tick.sort_unstable();
        }
        debug_assert!(self.events.is_sorted_by_key(|e| e.prov.id));
        debug_assert!(self.links.is_sorted());
    }
}

/// What the node adapters' [`telemetry::Telem`] handles write through.
impl telemetry::Sink for RegionBuf {
    fn event(&mut self, node: u32, at: u64, ev: &telemetry::Event) {
        self.push(node, at, ev.clone());
    }
}

/// A cross-region delivery waiting at the window barrier to be routed
/// into its destination region's queue. The queue orders by canonical tag,
/// so routing order is irrelevant to the result.
struct Outgoing {
    dst: u32,
    tag: Tag,
    /// Identity tag of the creating dispatch (causal parent).
    cause: Tag,
    node: NodeIdx,
    iface: IfaceId,
    packet: Arc<[u8]>,
    link: LinkId,
}

/// State shared read-only across regions during a window: topology and
/// node liveness. Mutated only at barriers (scripts, fault injection) on
/// the main thread, through [`World::shared_mut`].
struct Shared {
    links: Vec<Link>,
    /// ifaces[node.0][iface.0] = link the interface attaches to.
    ifaces: Vec<Vec<LinkId>>,
    /// node_up[node.0]: false while the node is crashed. Down nodes get no
    /// deliveries and no timer callbacks.
    node_up: Vec<bool>,
    /// region_of[node.0] = owning region id.
    region_of: Vec<u32>,
    /// slot_of[node.0] = the node's slot inside its region.
    slot_of: Vec<u32>,
    /// Packet capture limit, `Some(limit)` when enabled.
    capture_limit: Option<usize>,
}

/// Per-direction transmit-queue state for the capacity model: one per
/// sending interface (an interface is one direction of one link). Lives
/// in the sender's region — every transmit by a node runs inside its own
/// region's dispatches, so the state is touched by exactly one region
/// and the partition cannot observe it (the PR 6 byte-identity
/// invariant).
#[derive(Clone, Copy, Default)]
struct TxDir {
    /// Last time the backlog was drained (sender-region clock).
    last: SimTime,
    /// Queued bytes not yet serialized onto the wire.
    backlog: u64,
    /// Highest power-of-2 backlog bucket seen, for rate-limited
    /// queue-depth telemetry: one event per new peak bucket, not one
    /// per packet, keeps the stream bounded and deterministic.
    peak_bucket: u32,
}

/// One region of the partitioned world: its nodes, their RNG streams and
/// dispatch counters, an event queue + arena, a `Counters` shard, capture
/// shard, telemetry buffer, and the cross-region outbox.
struct Region {
    id: u32,
    now: SimTime,
    nodes: Vec<Option<Box<dyn Node>>>,
    rngs: Vec<StdRng>,
    /// Per-slot dispatch counter: the `seq` component of canonical tags.
    dispatch_seq: Vec<u64>,
    queue: EventQueue,
    /// Event arena, indexed by the slot carried in the queue. Slots are
    /// vacated (and recycled via `free`) as events fire or are cancelled,
    /// so memory is bounded by *outstanding* events, not events ever
    /// scheduled.
    events: Vec<EventSlot>,
    /// Vacated arena slots available for reuse.
    free: Vec<usize>,
    counters: Counters,
    /// Capture shard: `(dispatch tag, per-region seq, record)`.
    capture: Vec<(Tag, u64, CaptureRecord)>,
    cap_seq: u64,
    buf: Option<Arc<Mutex<RegionBuf>>>,
    outbox: Vec<Outgoing>,
    /// Capacity-model queue state, `tx_dirs[node slot][iface]`. A node's
    /// column grows to cover an interface the first time it transmits on
    /// a link with a [`LinkCapacity`] configured; an unlimited link never
    /// touches it.
    tx_dirs: Vec<Vec<TxDir>>,
    /// Wall-clock/event-count attribution shard, `Some` when profiling
    /// (see [`World::enable_profile`]). Only the profiler reads
    /// wall-clock; nothing inside the simulation ever does.
    prof: Option<crate::profile::RegionProfile>,
}

impl Region {
    fn new(id: u32) -> Region {
        Region {
            id,
            now: SimTime::ZERO,
            nodes: Vec::new(),
            rngs: Vec::new(),
            dispatch_seq: Vec::new(),
            queue: EventQueue::default(),
            events: Vec::new(),
            free: Vec::new(),
            counters: Counters::default(),
            capture: Vec::new(),
            cap_seq: 0,
            buf: None,
            outbox: Vec::new(),
            tx_dirs: Vec::new(),
            prof: None,
        }
    }

    fn push_event(&mut self, tag: Tag, cause: Tag, ev: Event) -> TimerId {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot].ev = Some(ev);
                self.events[slot].cause = cause;
                slot
            }
            None => {
                self.events.push(EventSlot {
                    gen: 0,
                    ev: Some(ev),
                    cause,
                });
                self.events.len() - 1
            }
        };
        let gen = self.events[slot].gen;
        self.queue.push(tag, slot, gen);
        TimerId { slot, gen }
    }

    /// Vacate a slot after its event fired or was cancelled: bump the
    /// generation (so outstanding handles and queue entries for this tenant
    /// go stale) and recycle the index. The generation must strictly
    /// increase across a recycle — if it ever wrapped, a 2^32-events-old
    /// stale handle (or a future cross-region cancel) could ABA the
    /// slot's new tenant.
    fn vacate(&mut self, slot: usize) -> Event {
        let s = &mut self.events[slot];
        let ev = s.ev.take().expect("vacating an empty event slot");
        let old = s.gen;
        s.gen = old.wrapping_add(1);
        debug_assert!(
            s.gen > old,
            "event-slot generation wrapped: recycled slot would ABA stale handles"
        );
        self.free.push(slot);
        ev
    }

    /// Run one node callback under a fresh canonical dispatch tag,
    /// through the take-call-put dance that lets the node borrow the
    /// region mutably alongside itself. `cause` is the identity tag of
    /// the dispatch that created the event being handled (`None` for
    /// causal roots: `on_start`, and barrier dispatches outside any
    /// script); it stamps every emission and is recorded as one
    /// provenance edge even when the callback emits nothing.
    fn dispatch(
        &mut self,
        shared: &Shared,
        node: NodeIdx,
        epoch: u8,
        cause: Option<Tag>,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
    ) {
        let slot = shared.slot_of[node.0] as usize;
        let seq = next_dispatch_seq(&mut self.dispatch_seq[slot]);
        let tag = Tag {
            time: self.now,
            epoch,
            origin: node.0 as u32 + 1,
            seq,
            emit: 0,
        };
        if let Some(buf) = &self.buf {
            telemetry::lock(buf).begin(tag, cause);
        }
        let mut node_box = self.nodes[slot].take().expect("node re-entrancy");
        {
            let mut ctx = Ctx {
                region: self,
                shared,
                node,
                slot,
                tag,
                emits: 0,
            };
            f(node_box.as_mut(), &mut ctx);
        }
        self.nodes[slot] = Some(node_box);
    }

    /// Process every event in this region due strictly before `bound`
    /// (up to `budget` queue pops), advancing the region clock event by
    /// event. Newly created same-region events inside the window are
    /// picked up in the same pass; cross-region events land in the
    /// outbox (the lookahead guarantees they are due at or after
    /// `bound`, so routing them at the barrier is conservative-safe).
    fn run_window(&mut self, shared: &Shared, bound: SimTime, budget: usize) -> usize {
        let mut n = 0;
        while n < budget {
            if self.queue.peek_time().is_none_or(|due| due >= bound) {
                break;
            }
            let Some((time, slot, gen)) = self.queue.pop() else {
                break;
            };
            debug_assert!(time >= self.now, "region time went backwards");
            self.now = time;
            n += 1;
            // A generation mismatch or empty slot means the event was
            // cancelled (or the slot recycled after cancellation): skip
            // without dispatch.
            if self.events[slot].gen != gen || self.events[slot].ev.is_none() {
                self.counters.record_timer_skipped();
                if let Some(p) = &mut self.prof {
                    p.stale_events += 1;
                }
                continue;
            }
            let cause = self.events[slot].cause;
            let ev = self.vacate(slot);
            self.counters.record_dispatch();
            let t0 = self.prof.as_ref().map(|_| std::time::Instant::now());
            match ev {
                Event::Deliver {
                    node,
                    iface,
                    packet,
                    link,
                } => {
                    // In-flight packets to a node that crashed after
                    // transmit are discarded at its dead NIC.
                    if !shared.node_up[node.0] {
                        self.counters.record_pkt_dropped_node_down();
                        continue;
                    }
                    let class = PacketClass::classify(&packet);
                    self.counters.record_rx(link, class, packet.len());
                    self.dispatch(shared, node, EPOCH_EVENT, Some(cause), |nb, ctx| {
                        nb.on_packet(ctx, iface, &packet)
                    });
                    if let (Some(p), Some(t0)) = (&mut self.prof, t0) {
                        p.deliver_events += 1;
                        p.deliver_nanos += t0.elapsed().as_nanos() as u64;
                    }
                }
                Event::Timer { node, token } => {
                    // Belt-and-braces: crash_node cancels the node's
                    // timers eagerly, but a script could still arm one
                    // against a down node via call_node.
                    if !shared.node_up[node.0] {
                        self.counters.record_timer_cancelled_node_down();
                        continue;
                    }
                    self.counters.record_timer_fired();
                    self.dispatch(shared, node, EPOCH_EVENT, Some(cause), |nb, ctx| {
                        ctx.emit(node, || telemetry::Event::TimerFired { token });
                        nb.on_timer(ctx, token);
                    });
                    if let (Some(p), Some(t0)) = (&mut self.prof, t0) {
                        p.timer_events += 1;
                        p.timer_nanos += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
        }
        n
    }

    /// [`Region::run_window`] for the crew and the inline loop alike:
    /// returns the pops and, when profiling, the wall-clock nanoseconds
    /// the window took here (two clock reads per region per window, added
    /// to the shard's `busy_nanos`).
    fn run_window_timed(&mut self, w: &Window) -> (usize, u64) {
        let t0 = self.prof.as_ref().map(|_| std::time::Instant::now());
        let n = self.run_window(&w.shared, w.bound, w.budget);
        let busy = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        if let Some(p) = &mut self.prof {
            p.busy_nanos += busy;
        }
        (n, busy)
    }
}

/// One lock-step window's orders, as every thread running a stripe of
/// regions gets them: a handle on the shared state and the bound. Workers
/// drop their clone before they hand their regions back, so the world's
/// `Arc<Shared>` is unique again at every barrier.
#[derive(Clone)]
struct Window {
    shared: Arc<Shared>,
    bound: SimTime,
    budget: usize,
}

/// The per-callback view of the world handed to [`Node`] implementations.
pub struct Ctx<'a> {
    region: &'a mut Region,
    shared: &'a Shared,
    node: NodeIdx,
    slot: usize,
    /// The dispatch's canonical identity tag (`emit == 0`).
    tag: Tag,
    /// Emission counter: 1-based `emit` component for created events.
    emits: u32,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.region.now
    }

    /// The index of the node being called.
    pub fn me(&self) -> NodeIdx {
        self.node
    }

    /// Number of interfaces this node has.
    pub fn iface_count(&self) -> usize {
        self.shared.ifaces[self.node.0].len()
    }

    /// Emit a structured telemetry event on behalf of `node` into the
    /// region buffer. The closure runs only when a sink is attached, so
    /// the disabled path never constructs (or allocates for) the event.
    #[inline]
    fn emit(&mut self, node: NodeIdx, f: impl FnOnce() -> telemetry::Event) {
        if let Some(buf) = &self.region.buf {
            telemetry::lock(buf).push(node.0 as u32, self.region.now.ticks(), f());
        }
    }

    /// The canonical tag for the next event this dispatch creates.
    fn next_tag(&mut self, time: SimTime) -> Tag {
        self.emits += 1;
        Tag {
            time,
            epoch: EPOCH_EVENT,
            origin: self.tag.origin,
            seq: self.tag.seq,
            emit: self.emits,
        }
    }

    /// Schedule a delivery, locally or via the cross-region outbox.
    fn schedule_deliver(
        &mut self,
        due: SimTime,
        node: NodeIdx,
        iface: IfaceId,
        packet: Arc<[u8]>,
        link: LinkId,
    ) {
        let tag = self.next_tag(due);
        let dst = self.shared.region_of[node.0];
        if dst == self.region.id {
            let _ = self.region.push_event(
                tag,
                self.tag,
                Event::Deliver {
                    node,
                    iface,
                    packet,
                    link,
                },
            );
        } else {
            self.region.outbox.push(Outgoing {
                dst,
                tag,
                cause: self.tag,
                node,
                iface,
                packet,
                link,
            });
        }
    }

    /// Transmit `packet` out of `(node, iface)`: schedule deliveries to
    /// all other attachments of the link after its propagation delay,
    /// applying the link's loss probability independently per receiver.
    /// All rolls come from the *sender's* RNG stream, during the
    /// sender's own dispatch — which is what keeps impairments a pure
    /// function of the seed regardless of how receivers are partitioned.
    fn transmit(&mut self, iface: IfaceId, packet: Arc<[u8]>) {
        let from = self.node;
        let link_id = self.shared.ifaces[from.0][iface.index()];
        let link = &self.shared.links[link_id.0];
        if !link.up {
            return;
        }
        let (class, proto) = PacketClass::classify_full(&packet);
        // Deterministic capacity model (see [`LinkCapacity`]): drain the
        // sender's per-direction backlog by elapsed time, tail-drop on
        // overflow, otherwise enqueue and pay serialization + queueing
        // delay. Everything here is pure integer arithmetic on queue
        // state — no RNG draw ever happens on this path, so a world with
        // capacity disabled (or only *other* links capped) keeps its
        // random streams, and therefore its traces, byte-identical.
        // Control-class packets bypass the queue when the link grants
        // them priority: the structural guarantee behind the
        // no-starvation oracle.
        let cap = link.capacity;
        let mut qdelay = Duration(0);
        let priority_bypass = cap.ctrl_priority && class == PacketClass::Control;
        if !cap.is_unlimited() && !priority_bypass {
            let len = packet.len() as u64;
            let rate = cap.bytes_per_tick;
            let now = self.region.now;
            let (dropped, backlog, marked, new_peak) = {
                let dirs = &mut self.region.tx_dirs[self.slot];
                if dirs.len() <= iface.index() {
                    dirs.resize(iface.index() + 1, TxDir::default());
                }
                let q = &mut dirs[iface.index()];
                let elapsed = now.ticks().saturating_sub(q.last.ticks());
                q.backlog = q.backlog.saturating_sub(elapsed.saturating_mul(rate));
                q.last = now;
                if q.backlog.saturating_add(len) > cap.queue_bytes {
                    (true, q.backlog, false, false)
                } else {
                    let marked = cap.ecn_bytes > 0 && q.backlog + len > cap.ecn_bytes;
                    q.backlog += len;
                    // Rate-limit queue-depth telemetry to new power-of-2
                    // peak buckets so the stream stays bounded however
                    // long the overload lasts.
                    let bucket = 64 - q.backlog.leading_zeros();
                    let new_peak = bucket > q.peak_bucket;
                    if new_peak {
                        q.peak_bucket = bucket;
                    }
                    (false, q.backlog, marked, new_peak)
                }
            };
            if dropped {
                // Tail drop at the sender: the packet never reaches the
                // wire — no tx accounting, no capture, no deliveries.
                self.region.counters.record_queue_drop(link_id, class);
                let what = match class {
                    PacketClass::Control => "ctrl",
                    PacketClass::Data => "data",
                };
                self.emit(from, || telemetry::Event::QueueDrop {
                    what,
                    link: link_id.0 as u32,
                });
                return;
            }
            self.region
                .counters
                .record_queue_depth(link_id, backlog, cap.queue_bytes);
            if marked {
                self.region.counters.record_ecn_mark(link_id);
                self.emit(from, || telemetry::Event::EcnMark {
                    link: link_id.0 as u32,
                });
            }
            if new_peak {
                self.emit(from, || telemetry::Event::QueueDepth {
                    link: link_id.0 as u32,
                    bytes: backlog,
                });
            }
            // Ceil division: a partially serialized packet occupies the
            // wire for the whole remaining tick. The delay is strictly
            // positive (backlog now includes this packet), so capacity
            // can only push deliveries later — the conservative
            // cross-region lookahead bound still holds.
            qdelay = Duration(backlog.div_ceil(rate));
        }
        self.region
            .counters
            .record_tx(link_id, class, proto, packet.len(), self.region.now);
        if let Some(limit) = self.shared.capture_limit {
            if limit > 0 {
                let cs = self.region.cap_seq;
                self.region.cap_seq += 1;
                let cap = &mut self.region.capture;
                // Keep the canonically-*smallest* `limit` records, not the
                // first-inserted: same-tick dispatch tags are keyed by the
                // receiving node and can invert relative to queue (event-tag)
                // order, so insertion order is not canonical order even
                // within one region. Bounded replacement preserves the
                // invariant `captured()` relies on.
                let full = cap.len() >= limit;
                let evict = if full {
                    let (i, (t, c, _)) = cap
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, (t, c, _))| (*t, *c))
                        .expect("non-empty capture shard");
                    if (self.tag, cs) < (*t, *c) {
                        Some(i)
                    } else {
                        None
                    }
                } else {
                    None
                };
                if !full || evict.is_some() {
                    let rec = CaptureRecord {
                        at: self.region.now,
                        link: link_id,
                        from,
                        summary: crate::trace::describe_packet(&packet),
                    };
                    match evict {
                        Some(i) => cap[i] = (self.tag, cs, rec),
                        None => cap.push((self.tag, cs, rec)),
                    }
                }
            }
        }
        let delay = link.delay;
        let loss = link.loss;
        let chan = link.channel;
        let n_att = link.attachments.len();
        let at = self.region.now + delay + qdelay;
        // One shared buffer for the whole fan-out; each delivery below is
        // a refcount bump, not a copy of the packet bytes. Attachments are
        // walked by index (re-reading the shared link each step) so the
        // fan-out allocates nothing — collecting the destination list
        // first cost a Vec per transmit on the hot path.
        for ai in 0..n_att {
            let (n, i) = self.shared.links[link_id.0].attachments[ai];
            if (n, i) == (from, iface) {
                continue;
            }
            if !self.shared.node_up[n.0] {
                self.region.counters.record_pkt_dropped_node_down();
                continue;
            }
            if loss > 0.0 && self.region.rngs[self.slot].gen::<f64>() < loss {
                self.region.counters.record_loss(link_id);
                continue;
            }
            // Adversarial channel: per-receiver rolls in a fixed order
            // (duplicate, then corrupt and reorder per copy) so traces are
            // a pure function of the seed. Each roll happens only when its
            // probability is nonzero — a clean channel consumes no
            // randomness and pre-existing traces stay byte-identical.
            let copies = if chan.duplicate_pm > 0
                && self.region.rngs[self.slot].gen_range(0..1000) < chan.duplicate_pm
            {
                self.region.counters.record_duplicated(link_id);
                self.emit(n, || telemetry::Event::ChannelImpaired {
                    what: "duplicate",
                    link: link_id.0 as u32,
                });
                2
            } else {
                1
            };
            for _ in 0..copies {
                let mut copy = packet.clone();
                let mut due = at;
                if chan.corrupt_pm > 0
                    && self.region.rngs[self.slot].gen_range(0..1000) < chan.corrupt_pm
                {
                    // Flip one random bit of one random byte. The shared
                    // Arc must never be mutated (other receivers see the
                    // same buffer), so the corrupted copy gets its own
                    // private allocation.
                    let mut bytes = copy.to_vec();
                    if !bytes.is_empty() {
                        let idx = self.region.rngs[self.slot].gen_range(0..bytes.len());
                        let bit = 1u8 << self.region.rngs[self.slot].gen_range(0..8u32);
                        bytes[idx] ^= bit;
                    }
                    copy = bytes.into();
                    self.region.counters.record_corrupted(link_id);
                    self.emit(n, || telemetry::Event::ChannelImpaired {
                        what: "corrupt",
                        link: link_id.0 as u32,
                    });
                }
                if chan.reorder_pm > 0
                    && self.region.rngs[self.slot].gen_range(0..1000) < chan.reorder_pm
                {
                    due += Duration(self.region.rngs[self.slot].gen_range(1..=chan.jitter.max(1)));
                    self.region.counters.record_reordered(link_id);
                    self.emit(n, || telemetry::Event::ChannelImpaired {
                        what: "reorder",
                        link: link_id.0 as u32,
                    });
                }
                self.schedule_deliver(due, n, i, copy, link_id);
            }
        }
    }

    /// Transmit a serialized packet out of `iface`. The buffer is shared,
    /// never copied or mutated, from here to every receiver: a caller
    /// sending one packet out of several interfaces builds the `Arc` once
    /// and passes clones; a `Vec<u8>` is converted (one copy) on entry.
    pub fn send(&mut self, iface: IfaceId, packet: impl Into<Arc<[u8]>>) {
        debug_assert!(
            iface.index() < self.iface_count(),
            "send on nonexistent interface {iface:?}"
        );
        self.transmit(iface, packet.into());
    }

    /// Arrange for [`Node::on_timer`] to be called with `token` after `d`.
    pub fn set_timer(&mut self, d: Duration, token: u64) -> TimerId {
        self.set_timer_at(self.region.now + d, token)
    }

    /// Arrange for [`Node::on_timer`] to be called with `token` at absolute
    /// time `at` (clamped to now: a past deadline fires this instant, after
    /// the current event). Returns a handle for [`Ctx::cancel_timer`].
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) -> TimerId {
        let at = at.max(self.region.now);
        let me = self.node;
        self.emit(me, || telemetry::Event::TimerArmed {
            token,
            deadline: at.ticks(),
        });
        let tag = self.next_tag(at);
        self.region
            .push_event(tag, self.tag, Event::Timer { node: me, token })
    }

    /// Cancel a pending timer. Returns `true` if the timer was still
    /// pending and belonged to this node; stale handles (the timer already
    /// fired, was cancelled, or the slot was recycled) are a no-op. The
    /// queue entry stays behind and is skipped — and counted as stale — when
    /// popped.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        let Some(s) = self.region.events.get(id.slot) else {
            return false;
        };
        if s.gen != id.gen {
            return false;
        }
        match s.ev {
            Some(Event::Timer { node, token }) if node == self.node => {
                self.region.vacate(id.slot);
                let me = self.node;
                self.emit(me, || telemetry::Event::TimerCancelled { token });
                true
            }
            _ => false,
        }
    }

    /// Seeded randomness for protocol jitter (e.g. IGMP report delays).
    /// Each node draws from its own stream — a pure function of the world
    /// seed and the node index — so one node's draws can never perturb
    /// another's, whatever the partition.
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.region.rngs[self.slot]
    }

    /// Record that a data packet was delivered to a locally attached group
    /// member (for the experiment counters).
    pub fn count_local_delivery(&mut self) {
        self.region.counters.record_local_delivery(self.node);
    }

    /// Record that a received payload failed to decode and was dropped
    /// (see [`crate::Counters::total_decode_failures`]), emitting one
    /// telemetry [`telemetry::Event::DecodeFailed`] mark.
    pub fn count_decode_failure(&mut self, iface: IfaceId, kind: &'static str) {
        self.region.counters.record_decode_failure(self.node);
        let me = self.node;
        self.emit(me, || telemetry::Event::DecodeFailed {
            kind,
            iface: iface.0,
        });
    }
}

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
    /// Whether per-region wall-clock/event attribution is collected
    /// (see [`World::enable_profile`]).
    profile: bool,
    prof_windows: u64,
    prof_barrier_nanos: u64,
    prof_critical_nanos: u64,
    prof_handoff_nanos: u64,
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
                region_of: Vec::new(),
                slot_of: Vec::new(),
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
            profile: false,
            prof_windows: 0,
            prof_barrier_nanos: 0,
            prof_critical_nanos: 0,
            prof_handoff_nanos: 0,
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
        let idx = self.shared.region_of.len();
        let r = &mut self.regions[0];
        let slot = r.nodes.len() as u32;
        r.nodes.push(Some(node));
        r.rngs.push(StdRng::seed_from_u64(par::mix(
            self.seed,
            NODE_RNG_STREAM,
            idx as u64,
        )));
        r.dispatch_seq.push(0);
        r.tx_dirs.push(Vec::new());
        let shared = self.shared_mut();
        shared.region_of.push(0);
        shared.slot_of.push(slot);
        shared.ifaces.push(Vec::new());
        shared.node_up.push(true);
        NodeIdx(idx)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.shared.region_of.len()
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
                let mut rs = l
                    .attachments
                    .iter()
                    .map(|(n, _)| self.shared.region_of[n.0]);
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
        // Pull every node (and its RNG stream) out in global index order.
        let mut moved: Vec<(Box<dyn Node>, StdRng)> = Vec::with_capacity(assign.len());
        for i in 0..assign.len() {
            let r = &mut self.regions[self.shared.region_of[i] as usize];
            let slot = self.shared.slot_of[i] as usize;
            let node = r.nodes[slot].take().expect("node is not mid-callback");
            let rng = r.rngs[slot].clone();
            moved.push((node, rng));
        }
        // Rebuild the regions.
        let mut regions: Vec<Region> = (0..next.max(1)).map(Region::new).collect();
        let mut slot_of = Vec::with_capacity(assign.len());
        for (&rid, (node, rng)) in dense.iter().zip(moved) {
            let r = &mut regions[rid as usize];
            slot_of.push(r.nodes.len() as u32);
            r.nodes.push(Some(node));
            r.rngs.push(rng);
            r.dispatch_seq.push(0);
            r.tx_dirs.push(Vec::new());
        }
        self.regions = par::Striped::new(regions, 1);
        let shared = self.shared_mut();
        shared.region_of = dense;
        shared.slot_of = slot_of;
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
        self.shared_mut().links.push(Link {
            kind: LinkKind::PointToPoint,
            delay,
            up: true,
            loss: 0.0,
            channel: ChannelModel::CLEAN,
            capacity: LinkCapacity::UNLIMITED,
            attachments: Vec::new(),
        });
        let ia = self.attach(a, id);
        let ib = self.attach(b, id);
        (id, ia, ib)
    }

    /// Add a multi-access LAN joining `nodes`; returns the link id and each
    /// node's new interface, in order.
    pub fn add_lan(&mut self, nodes: &[NodeIdx], delay: Duration) -> (LinkId, Vec<IfaceId>) {
        assert!(nodes.len() >= 2, "a LAN needs at least two attachments");
        let id = LinkId(self.shared.links.len());
        self.shared_mut().links.push(Link {
            kind: LinkKind::Lan,
            delay,
            up: true,
            loss: 0.0,
            channel: ChannelModel::CLEAN,
            capacity: LinkCapacity::UNLIMITED,
            attachments: Vec::new(),
        });
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
        let r = &mut self.regions[self.shared.region_of[idx.0] as usize];
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
        let slot = self.shared.slot_of[idx.0] as usize;
        if let Some(node) = r.nodes[slot].as_mut() {
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
    /// events (timer arm / fire / cancel, injected faults) and — via the
    /// [`Node::set_telemetry`] hook wired at start — every node adapter's
    /// protocol events. Telemetry only observes: it consumes no
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
        self.profile = true;
    }

    /// The attribution profile collected so far, `None` unless
    /// [`World::enable_profile`] was called. Event counts are
    /// deterministic; nanosecond attributions are wall-clock and vary
    /// run to run (never put them in a fingerprint).
    pub fn profile(&self) -> Option<crate::profile::SimProfile> {
        if !self.profile {
            return None;
        }
        Some(crate::profile::SimProfile {
            regions: self.regions.iter().filter_map(|r| r.prof.clone()).collect(),
            windows: self.prof_windows,
            barrier_nanos: self.prof_barrier_nanos,
            critical_nanos: self.prof_critical_nanos,
            handoff_nanos: self.prof_handoff_nanos,
            script_dispatches: self.world_counters.events_dispatched(),
        })
    }

    /// Emit one telemetry event on behalf of `node` (no-op when no sink
    /// is attached). Scenario scripts use this to mark injected faults
    /// so sinks can measure post-fault reconvergence. Only callable at
    /// barriers (scripts run on the main thread), where region buffers
    /// are already flushed, so direct writes stay in canonical order.
    pub fn emit_event(&mut self, node: NodeIdx, ev: telemetry::Event) {
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
    /// Records up to `limit` packets (time, link, sender, human-readable
    /// decode) from now on; calling again clears the buffer.
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
    /// merge is exact, not partition-dependent.
    pub fn captured(&self) -> Vec<CaptureRecord> {
        let limit = match self.shared.capture_limit {
            Some(l) => l,
            None => return Vec::new(),
        };
        let mut all: Vec<&(Tag, u64, CaptureRecord)> =
            self.regions.iter().flat_map(|r| r.capture.iter()).collect();
        all.sort_by_key(|(tag, cs, _)| (*tag, *cs));
        all.into_iter()
            .take(limit)
            .map(|(_, _, r)| r.clone())
            .collect()
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

    /// Immutable access to a node as the trait object it was added as, for
    /// callers that reach it through a trait several node types implement
    /// and so cannot name one concrete type.
    pub fn node_dyn(&self, idx: NodeIdx) -> &dyn Node {
        self.regions[self.shared.region_of[idx.0] as usize].nodes
            [self.shared.slot_of[idx.0] as usize]
            .as_deref()
            .expect("node is not mid-callback")
    }

    /// Mutable [`World::node_dyn`]. Unlike [`World::call_node`] this is
    /// not a dispatch: no context, no provenance edge.
    pub fn node_dyn_mut(&mut self, idx: NodeIdx) -> &mut dyn Node {
        self.regions[self.shared.region_of[idx.0] as usize].nodes
            [self.shared.slot_of[idx.0] as usize]
            .as_deref_mut()
            .expect("node is not mid-callback")
    }

    /// Immutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node is of a different type (a test bug, not a runtime
    /// condition).
    pub fn node<T: 'static>(&self, idx: NodeIdx) -> &T {
        self.node_dyn(idx)
            .as_any()
            .downcast_ref()
            .expect("node type mismatch")
    }

    /// Mutable access to a node, downcast to its concrete type.
    pub fn node_mut<T: 'static>(&mut self, idx: NodeIdx) -> &mut T {
        self.node_dyn_mut(idx)
            .as_any_mut()
            .downcast_mut()
            .expect("node type mismatch")
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
        let rid = self.shared.region_of[idx.0] as usize;
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
    /// node receives its per-region buffered [`telemetry::Telem`] handle.
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
                r.buf = Some(Arc::new(Mutex::new(RegionBuf::default())));
            }
            for i in 0..self.node_count() {
                let rid = self.shared.region_of[i] as usize;
                let buf = self.regions[rid].buf.as_ref().expect("buffer just created");
                let sink: telemetry::SharedSink = Arc::clone(buf) as telemetry::SharedSink;
                let slot = self.shared.slot_of[i] as usize;
                self.regions[rid].nodes[slot]
                    .as_mut()
                    .expect("node is not mid-callback")
                    .set_telemetry(telemetry::Telem::attached(sink, i as u32));
            }
        }
        if self.profile {
            for r in self.regions.iter_mut() {
                r.prof = Some(crate::profile::RegionProfile::new(r.id));
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
                let _ = self.regions[m.dst as usize].push_event(
                    m.tag,
                    m.cause,
                    Event::Deliver {
                        node: m.node,
                        iface: m.iface,
                        packet: m.packet,
                        link: m.link,
                    },
                );
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
        for r in self.regions.iter() {
            if let Some(buf) = &r.buf {
                let mut guard = telemetry::lock(buf);
                if guard.links.is_empty() && guard.events.is_empty() {
                    continue;
                }
                sources += 1;
                guard.sort_canonical();
                events.append(&mut guard.events);
                links.append(&mut guard.links);
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
    fn run_window_all(&mut self, bound: SimTime, budget: usize) -> usize {
        let t0 = self.profile.then(std::time::Instant::now);
        let window = Window {
            shared: Arc::clone(&self.shared),
            bound,
            budget,
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
        let t1 = self.profile.then(std::time::Instant::now);
        self.route_mail();
        self.flush_telemetry();
        if let (Some(t0), Some(t1)) = (t0, t1) {
            self.prof_windows += 1;
            self.prof_critical_nanos += slowest;
            let wall = t1.duration_since(t0).as_nanos() as u64;
            self.prof_handoff_nanos += wall.saturating_sub(slowest);
            self.prof_barrier_nanos += t1.elapsed().as_nanos() as u64;
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
            n += self.run_window_all(bound, usize::MAX);
            self.now = self.now.max(SimTime(bound.ticks().saturating_sub(1)));
        }
        // Advance the clock to the requested horizon even if idle.
        if self.now < until {
            self.now = until;
        }
        n
    }

    /// Run until the queue drains completely (only sensible when no node
    /// sets periodic timers), or until `max_events` as a runaway guard
    /// (per region within a window, exact in the default single-region
    /// world).
    pub fn run_to_idle(&mut self, max_events: usize) -> usize {
        self.start();
        let mut n = 0;
        while n < max_events {
            let t_ev = self.min_event_time();
            let t_sc = self.scripts.peek().map(|s| s.at);
            let t = match t_ev.into_iter().chain(t_sc).min() {
                Some(t) => t,
                None => break,
            };
            self.now = t;
            if t_sc == Some(t) {
                let entry = self.scripts.pop().expect("peeked script vanished");
                self.world_counters.record_dispatch();
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
            } else {
                let mut bound = SimTime(u64::MAX);
                if let Some(ts) = t_sc {
                    bound = ts;
                }
                if let Some(l) = self.lookahead {
                    bound = bound.min(SimTime(t.ticks().saturating_add(l.ticks())));
                }
                let c = self.run_window_all(bound, max_events - n);
                n += c;
                if c == 0 {
                    break;
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test node that echoes every packet back out the interface it came
    /// in on, decrementing the first byte as a TTL; records deliveries.
    struct Echo {
        received: Vec<(u64, IfaceId, Vec<u8>)>,
        timers: Vec<(u64, u64)>,
    }

    impl Echo {
        fn new() -> Self {
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
    struct Quiet {
        received: Vec<(u64, IfaceId, Vec<u8>)>,
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

    fn quiet_world() -> (World, NodeIdx, NodeIdx, LinkId) {
        let mut w = World::new(1);
        let a = w.add_node(Box::<Quiet>::default());
        let b = w.add_node(Box::<Quiet>::default());
        let (l, _, _) = w.add_p2p(a, b, Duration(3));
        (w, a, b, l)
    }

    fn two_node_world() -> (World, NodeIdx, NodeIdx, LinkId) {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        let b = w.add_node(Box::new(Echo::new()));
        let (l, _, _) = w.add_p2p(a, b, Duration(3));
        (w, a, b, l)
    }

    #[test]
    fn p2p_delivery_with_delay() {
        let (mut w, a, b, _) = two_node_world();
        w.at(SimTime(10), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 42]));
        });
        w.run_until(SimTime(100));
        let eb: &Echo = w.node(b);
        assert_eq!(eb.received.len(), 1);
        assert_eq!(eb.received[0].0, 13); // 10 + delay 3
        assert_eq!(eb.received[0].2, vec![0, 42]);
        // TTL 0: no echo back.
        let ea: &Echo = w.node(a);
        assert!(ea.received.is_empty());
    }

    #[test]
    fn ping_pong_until_ttl_exhausted() {
        let (mut w, a, b, _) = two_node_world();
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![5]));
        });
        w.run_until(SimTime(1000));
        let ea: &Echo = w.node(a);
        let eb: &Echo = w.node(b);
        // b receives ttl=5,3,1; a receives ttl=4,2,0.
        assert_eq!(eb.received.len(), 3);
        assert_eq!(ea.received.len(), 3);
        assert_eq!(ea.received.last().unwrap().2, vec![0]);
    }

    #[test]
    fn lan_broadcast_excludes_sender() {
        let mut w = World::new(1);
        let nodes: Vec<NodeIdx> = (0..4).map(|_| w.add_node(Box::new(Echo::new()))).collect();
        let (_, _ifaces) = w.add_lan(&nodes, Duration(1));
        let sender = nodes[2];
        w.at(SimTime(0), move |w| {
            w.call_node(sender, |_n, ctx| ctx.send(IfaceId(0), vec![0, 7]));
        });
        w.run_until(SimTime(10));
        for (i, &n) in nodes.iter().enumerate() {
            let e: &Echo = w.node(n);
            if n == sender {
                assert!(e.received.is_empty(), "sender must not hear itself");
            } else {
                assert_eq!(e.received.len(), 1, "node {i} missed the broadcast");
                assert_eq!(e.received[0].0, 1);
            }
        }
    }

    /// The LAN fan-out shares one `Arc` buffer across all receivers:
    /// every receiver must see the exact payload bytes, and a receiver
    /// re-sending a mutated copy (Echo decrements the TTL byte) must not
    /// disturb what the others saw.
    #[test]
    fn lan_fanout_delivers_identical_payload_bytes() {
        let mut w = World::new(1);
        let nodes: Vec<NodeIdx> = (0..4).map(|_| w.add_node(Box::new(Echo::new()))).collect();
        w.add_lan(&nodes, Duration(1));
        let sender = nodes[0];
        let payload = vec![1, 0xAB, 0xCD, 0xEF];
        let sent = payload.clone();
        w.at(SimTime(0), move |w| {
            w.call_node(sender, |_n, ctx| ctx.send(IfaceId(0), sent));
        });
        w.run_until(SimTime(10));
        for &n in &nodes[1..] {
            let e: &Echo = w.node(n);
            assert_eq!(e.received.len(), 3, "broadcast + two peer echoes");
            assert_eq!(e.received[0].2, payload, "original payload corrupted");
            // The peers' echoes arrive with the TTL byte decremented —
            // their mutation happened on private buffers.
            assert_eq!(e.received[1].2, vec![0, 0xAB, 0xCD, 0xEF]);
            assert_eq!(e.received[2].2, vec![0, 0xAB, 0xCD, 0xEF]);
        }
        let es: &Echo = w.node(sender);
        assert_eq!(es.received.len(), 3, "one echo per receiver");
        assert!(es.received.iter().all(|r| r.2 == [0, 0xAB, 0xCD, 0xEF]));
    }

    /// A packet built once and sent out of three interfaces is queued as
    /// three deliveries of that one buffer: `send` takes the `Arc` as it
    /// is, and nothing between there and the event arena copies it.
    #[test]
    fn one_buffer_sent_out_of_three_interfaces_is_never_copied() {
        let mut w = World::new(1);
        let hub = w.add_node(Box::<Quiet>::default());
        for _ in 0..3 {
            let leaf = w.add_node(Box::<Quiet>::default());
            w.add_p2p(hub, leaf, Duration(5));
        }
        let packet: Arc<[u8]> = vec![7u8; 1024].into();
        let sent = Arc::clone(&packet);
        w.at(SimTime(0), move |w| {
            w.call_node(hub, |_n, ctx| {
                for i in 0..3 {
                    ctx.send(IfaceId(i), Arc::clone(&sent));
                }
            });
        });
        w.run_until(SimTime(0));
        let queued: Vec<&Arc<[u8]>> = w.regions[0]
            .events
            .iter()
            .filter_map(|s| match &s.ev {
                Some(Event::Deliver { packet, .. }) => Some(packet),
                _ => None,
            })
            .collect();
        assert_eq!(queued.len(), 3);
        assert!(queued.iter().all(|q| Arc::ptr_eq(q, &packet)));
        w.run_until(SimTime(5));
        assert_eq!(w.counters().rx_pkts(), 3);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.set_timer(Duration(10), 1);
                ctx.set_timer(Duration(5), 2);
                ctx.set_timer(Duration(10), 3); // same time as token 1: FIFO
            });
        });
        w.run_until(SimTime(100));
        let e: &Echo = w.node(a);
        assert_eq!(e.timers, vec![(5, 2), (10, 1), (10, 3)]);
    }

    #[test]
    fn cancelled_timer_is_skipped_and_counted_stale() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                let t1 = ctx.set_timer(Duration(10), 1);
                ctx.set_timer_at(SimTime(5), 2);
                assert!(ctx.cancel_timer(t1));
                assert!(!ctx.cancel_timer(t1), "double cancel must be a no-op");
            });
        });
        w.run_until(SimTime(100));
        let e: &Echo = w.node(a);
        assert_eq!(e.timers, vec![(5, 2)]);
        assert_eq!(w.counters().timers_fired(), 1);
        assert_eq!(w.counters().timers_skipped_stale(), 1);
    }

    #[test]
    fn stale_handle_cannot_cancel_recycled_slot() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                let t1 = ctx.set_timer(Duration(10), 1);
                assert!(ctx.cancel_timer(t1));
                // This reuses t1's arena slot under a new generation.
                ctx.set_timer(Duration(20), 2);
                assert!(
                    !ctx.cancel_timer(t1),
                    "generation must protect the slot's new tenant"
                );
            });
        });
        w.run_until(SimTime(100));
        let e: &Echo = w.node(a);
        assert_eq!(e.timers, vec![(20, 2)]);
    }

    #[test]
    fn set_timer_at_past_deadline_fires_now() {
        let mut w = World::new(1);
        let a = w.add_node(Box::new(Echo::new()));
        w.at(SimTime(7), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.set_timer_at(SimTime(3), 9); // already past: clamped to now
            });
        });
        w.run_until(SimTime(100));
        let e: &Echo = w.node(a);
        assert_eq!(e.timers, vec![(7, 9)]);
    }

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
    fn downed_link_drops_traffic() {
        let (mut w, a, b, l) = two_node_world();
        w.at(SimTime(0), move |w| w.set_link_up(l, false));
        w.at(SimTime(1), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![3]));
        });
        w.run_until(SimTime(50));
        let eb: &Echo = w.node(b);
        assert!(eb.received.is_empty());
    }

    #[test]
    fn lossy_link_drops_some() {
        let (mut w, a, _b, l) = two_node_world();
        w.set_link_loss(l, 0.5);
        for t in 0..200 {
            w.at(SimTime(t), move |w| {
                w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0]));
            });
        }
        w.run_until(SimTime(1000));
        let eb: &Echo = w.node(NodeIdx(1));
        assert!(
            eb.received.len() > 50,
            "lost too many: {}",
            eb.received.len()
        );
        assert!(
            eb.received.len() < 150,
            "lost too few: {}",
            eb.received.len()
        );
        assert!(w.counters().losses() > 0);
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
    fn channel_corruption_flips_one_bit_and_counts() {
        let (mut w, a, _b, l) = quiet_world();
        w.set_channel_model(
            l,
            ChannelModel {
                corrupt_pm: 1000, // always corrupt
                ..ChannelModel::CLEAN
            },
        );
        let payload = vec![0u8, 0xAA, 0xBB, 0xCC];
        let sent = payload.clone();
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), sent));
        });
        w.run_until(SimTime(50));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 1, "corruption must not drop the packet");
        let got = &eb.received[0].2;
        assert_eq!(got.len(), payload.len());
        let diff: u32 = got
            .iter()
            .zip(&payload)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
        assert_eq!(w.counters().pkts_corrupted(), 1);
    }

    #[test]
    fn channel_duplication_delivers_twice() {
        let (mut w, a, _b, l) = quiet_world();
        w.set_channel_model(
            l,
            ChannelModel {
                duplicate_pm: 1000,
                ..ChannelModel::CLEAN
            },
        );
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 7]));
        });
        w.run_until(SimTime(50));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 2, "duplicate delivers two copies");
        assert_eq!(eb.received[0].2, eb.received[1].2);
        assert_eq!(w.counters().pkts_duplicated(), 1);
    }

    #[test]
    fn channel_reorder_delays_past_later_traffic() {
        let (mut w, a, _b, l) = quiet_world();
        w.set_channel_model(
            l,
            ChannelModel {
                reorder_pm: 1000,
                jitter: 100,
                ..ChannelModel::CLEAN
            },
        );
        // First packet is delayed by 1..=100 extra ticks; switch the
        // channel off before the second so it travels clean — the second
        // can overtake the first whenever the jitter draw exceeds 5.
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 1]));
        });
        w.at(SimTime(1), move |w| {
            w.set_channel_model(l, ChannelModel::CLEAN)
        });
        w.at(SimTime(5), move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, 2]));
        });
        w.run_until(SimTime(500));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 2);
        assert_eq!(w.counters().pkts_reordered(), 1);
        // Delivery time of the jittered copy is strictly later than clean.
        assert!(eb.received.iter().any(|r| r.2 == [0, 1] && r.0 > 3));
    }

    #[test]
    fn clean_channel_consumes_no_randomness() {
        // Installing a CLEAN model must leave the trace identical to not
        // touching the channel at all (same RNG stream).
        let run = |install: bool| {
            let (mut w, a, _b, l) = quiet_world();
            w.set_link_loss(l, 0.3);
            if install {
                w.set_channel_model(l, ChannelModel::CLEAN);
            }
            for t in 0..50 {
                w.at(SimTime(t), move |w| {
                    w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
                });
            }
            w.run_until(SimTime(500));
            let eb: &mut Quiet = w.node_mut(NodeIdx(1));
            std::mem::take(&mut eb.received)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn adversarial_channel_is_deterministic() {
        let run = || {
            let (mut w, a, _b, l) = quiet_world();
            w.set_channel_model(
                l,
                ChannelModel {
                    corrupt_pm: 300,
                    duplicate_pm: 300,
                    reorder_pm: 300,
                    jitter: 40,
                },
            );
            for t in 0..80 {
                w.at(SimTime(t * 3), move |w| {
                    w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
                });
            }
            w.run_until(SimTime(2000));
            let stats = (
                w.counters().pkts_corrupted(),
                w.counters().pkts_duplicated(),
                w.counters().pkts_reordered(),
            );
            let eb: &mut Quiet = w.node_mut(NodeIdx(1));
            (std::mem::take(&mut eb.received), stats)
        };
        let (recv_a, stats_a) = run();
        let (recv_b, stats_b) = run();
        assert_eq!(recv_a, recv_b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.0 > 0 && stats_a.1 > 0 && stats_a.2 > 0);
    }

    #[test]
    fn decode_failure_accounting() {
        let (mut w, a, _b, _l) = two_node_world();
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.count_decode_failure(IfaceId(0), "checksum");
                ctx.count_decode_failure(IfaceId(0), "truncated");
            });
        });
        w.run_until(SimTime(10));
        assert_eq!(w.counters().decode_failures(a), 2);
        assert_eq!(w.counters().decode_failures(NodeIdx(1)), 0);
        assert_eq!(w.counters().total_decode_failures(), 2);
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

    // ---- Capacity-model tests ---------------------------------------

    /// A serialized packet that classifies as [`PacketClass::Data`]
    /// (raw unparseable test bytes classify as Control, which the
    /// priority class would bypass).
    fn data_pkt(len: usize) -> Vec<u8> {
        wire::ip::Header {
            proto: wire::ip::Protocol::Data,
            ttl: 8,
            src: wire::Addr::new(10, 0, 0, 1),
            dst: wire::Addr::new(239, 0, 0, 1),
        }
        .encap(&vec![0u8; len])
    }

    #[test]
    fn capacity_serialization_and_queueing_delay() {
        let (mut w, a, _b, l) = quiet_world();
        w.set_link_capacity(
            l,
            LinkCapacity {
                bytes_per_tick: 1,
                queue_bytes: 10_000,
                ecn_bytes: 0,
                ctrl_priority: true,
            },
        );
        let p1 = data_pkt(4);
        let p2 = data_pkt(4);
        let len = p1.len() as u64;
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.send(IfaceId(0), p1);
                ctx.send(IfaceId(0), p2);
            });
        });
        w.run_until(SimTime(1000));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 2);
        // First packet: backlog = len, so delay 3 + len; second queues
        // behind it: delay 3 + 2*len. FIFO order is preserved.
        assert_eq!(eb.received[0].0, 3 + len);
        assert_eq!(eb.received[1].0, 3 + 2 * len);
        assert_eq!(w.counters().peak_queue_bytes(), 2 * len);
        assert_eq!(w.counters().queue_drops_data(), 0);
    }

    #[test]
    fn capacity_tail_drops_and_marks() {
        let (mut w, a, _b, l) = quiet_world();
        let unit = data_pkt(4).len() as u64;
        // Queue fits exactly two packets; ECN threshold crosses at the
        // second enqueue.
        w.set_link_capacity(
            l,
            LinkCapacity {
                bytes_per_tick: 1,
                queue_bytes: 2 * unit,
                ecn_bytes: unit,
                ctrl_priority: true,
            },
        );
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                for _ in 0..4 {
                    ctx.send(IfaceId(0), data_pkt(4));
                }
            });
        });
        w.run_until(SimTime(1000));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 2, "third and fourth tail-dropped");
        let c = w.counters();
        assert_eq!(c.queue_drops_data(), 2);
        assert_eq!(c.queue_drops_ctrl(), 0);
        assert_eq!(c.ecn_marks(), 1, "second enqueue crossed the threshold");
        assert_eq!(c.peak_queue_bytes(), 2 * unit);
        assert_eq!(c.link(l).queue_cap_bytes, 2 * unit);
        // Tail-dropped packets never reached the wire: tx counts only
        // the two delivered packets.
        assert_eq!(c.total_data_pkts(), 2);
    }

    #[test]
    fn capacity_ctrl_priority_bypasses_full_queue() {
        // Raw unparseable bytes classify as Control. With priority on,
        // they sail past a saturated queue; with priority off, they
        // tail-drop like anything else — the starvation configuration.
        let unit = data_pkt(4).len() as u64;
        let run = |prio: bool| {
            let (mut w, a, _b, l) = quiet_world();
            w.set_link_capacity(
                l,
                LinkCapacity {
                    bytes_per_tick: 1,
                    // Exactly one data packet fills the queue.
                    queue_bytes: unit,
                    ecn_bytes: 0,
                    ctrl_priority: prio,
                },
            );
            w.at(SimTime(0), move |w| {
                w.call_node(a, |_n, ctx| {
                    // Saturate with data, then offer one control packet.
                    ctx.send(IfaceId(0), data_pkt(4));
                    ctx.send(IfaceId(0), vec![0xFF; 6]);
                });
            });
            w.run_until(SimTime(1000));
            let got = w.node::<Quiet>(NodeIdx(1)).received.len();
            (got, w.counters().queue_drops_ctrl())
        };
        let (got, starved) = run(true);
        assert_eq!(got, 2, "control bypasses the full queue");
        assert_eq!(starved, 0);
        let (got, starved) = run(false);
        assert_eq!(got, 1, "no priority: control starves behind data");
        assert_eq!(starved, 1);
    }

    #[test]
    fn capacity_disabled_consumes_no_randomness() {
        // Explicitly installing UNLIMITED must leave the trace identical
        // to never touching capacity at all (same RNG stream), exactly
        // like the CLEAN channel contract.
        let run = |install: bool| {
            let (mut w, a, _b, l) = quiet_world();
            w.set_link_loss(l, 0.3);
            if install {
                w.set_link_capacity(l, LinkCapacity::UNLIMITED);
            }
            for t in 0..50 {
                w.at(SimTime(t), move |w| {
                    w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), vec![0, t as u8]));
                });
            }
            w.run_until(SimTime(500));
            let eb: &mut Quiet = w.node_mut(NodeIdx(1));
            std::mem::take(&mut eb.received)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn capacity_drains_backlog_over_time() {
        let (mut w, a, _b, l) = quiet_world();
        let unit = data_pkt(4).len() as u64;
        w.set_link_capacity(
            l,
            LinkCapacity {
                bytes_per_tick: 2,
                queue_bytes: 2 * unit,
                ecn_bytes: 0,
                ctrl_priority: true,
            },
        );
        // Fill the queue at t=0, then send again after it has fully
        // drained: no drop the second time.
        w.at(SimTime(0), move |w| {
            w.call_node(a, |_n, ctx| {
                ctx.send(IfaceId(0), data_pkt(4));
                ctx.send(IfaceId(0), data_pkt(4));
                ctx.send(IfaceId(0), data_pkt(4)); // dropped: queue full
            });
        });
        let late = SimTime(unit); // 2*unit bytes / 2 per tick = unit ticks
        w.at(late, move |w| {
            w.call_node(a, |_n, ctx| ctx.send(IfaceId(0), data_pkt(4)));
        });
        w.run_until(SimTime(1000));
        let eb: &Quiet = w.node(NodeIdx(1));
        assert_eq!(eb.received.len(), 3);
        assert_eq!(w.counters().queue_drops_data(), 1);
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

    // ---- Partitioned-core tests -------------------------------------

    /// A sink that renders every event to its JSONL form — the same
    /// bytes `telemetry::JsonlSink` would write, usable as a fingerprint.
    struct VecSink(Vec<String>);

    impl telemetry::Sink for VecSink {
        fn event(&mut self, node: u32, at: u64, ev: &telemetry::Event) {
            self.0.push(ev.to_json(node, at));
        }
    }

    /// Build a 4-node line `n0 -1- n1 -5- n2 -1- n3` (the delay-5 middle
    /// link is the natural cross-region cut) and script cross-link
    /// ping-pong traffic with loss + adversarial channel + a mid-run
    /// crash/restart onto it. Not started: attach telemetry, then run.
    fn fixture_world(partition: Option<&[u32]>, threads: Option<usize>) -> (World, Vec<NodeIdx>) {
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

    /// Run [`fixture_world`] to t=600 and return (receptions, telemetry
    /// JSONL, counter totals).
    #[allow(clippy::type_complexity)]
    fn partitioned_fixture(
        partition: Option<&[u32]>,
        threads: Option<usize>,
    ) -> (Vec<Vec<(u64, IfaceId, Vec<u8>)>>, Vec<String>, Vec<u64>) {
        let (mut w, nodes) = fixture_world(partition, threads);
        let sink = Arc::new(Mutex::new(VecSink(Vec::new())));
        w.set_telemetry(sink.clone() as telemetry::SharedSink);
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
        (receptions, jsonl, totals)
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
        // A deliberately bad partition (cutting the delay-1 links too)
        // must still agree — correctness never depends on the partition.
        let scattered = partitioned_fixture(Some(&[0, 1, 2, 3]), None);
        assert_eq!(single.0, scattered.0);
        assert_eq!(single.1, scattered.1);
        assert_eq!(single.2, scattered.2);
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
                .map(|r| format!("{} {:?} {:?} {}", r.at.ticks(), r.link, r.from, r.summary))
                .collect::<Vec<_>>()
        };
        let single = run(None);
        let split = run(Some(&[0, 1]));
        assert!(!single.is_empty());
        assert_eq!(single, split);
    }

    /// A tag with every field drawn from its edges as often as from the
    /// middle, so ties on the leading fields are common.
    fn arb_tag() -> impl proptest::prelude::Strategy<Value = Tag> {
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The packed within-tick key orders exactly like the derived
        /// `Ord` on the tag, and loses nothing.
        #[test]
        fn sub_key_orders_like_the_tag_and_round_trips(a in arb_tag(), b in arb_tag()) {
            assert_eq!(Tag::from_sub_key(a.time, a.sub_key()), a);
            let (a0, b0) = (Tag { time: SimTime(0), ..a }, Tag { time: SimTime(0), ..b });
            assert_eq!(a.sub_key().cmp(&b.sub_key()), a0.cmp(&b0));
            assert_eq!((a.time, a.sub_key()).cmp(&(b.time, b.sub_key())), a.cmp(&b));
        }

        /// The pinned order: whatever the interleaving of pushes and
        /// pops, the queue pops exactly what the binary heap it replaced
        /// pops. Pushes land at the tick being drained, earlier than it
        /// after a partial drain, at `u64::MAX - 1`, on crowded ticks and
        /// on ticks of their own; tags repeat, `(slot, gen)` break ties.
        #[test]
        fn event_queue_pops_in_binary_heap_order(
            ops in proptest::prop::collection::vec((0u8..10, 0u64..6, arb_tag()), 1..300),
        ) {
            let mut queue = EventQueue::default();
            let mut reference: BinaryHeap<Reverse<(Tag, usize, u32)>> = BinaryHeap::new();
            let mut draining = 0u64;
            for (slot, (op, delta, tag)) in ops.into_iter().enumerate() {
                let time = match op {
                    0..=3 => {
                        let want = reference.pop().map(|Reverse(e)| e);
                        let got = queue.pop();
                        assert_eq!(got, want.map(|(tag, slot, gen)| (tag.time, slot, gen)));
                        if let Some((t, _, _)) = got {
                            draining = t.ticks();
                        }
                        None
                    }
                    4 => Some(draining),
                    5 => Some(draining.saturating_sub(1 + delta)),
                    6 => Some(u64::MAX - 1),
                    7 => Some(draining.saturating_add(delta)),
                    _ => Some(delta * 1000 + tag.time.ticks()),
                };
                if let Some(time) = time {
                    let (tag, gen) = (Tag { time: SimTime(time), ..tag }, tag.emit % 3);
                    queue.push(tag, slot, gen);
                    reference.push(Reverse((tag, slot, gen)));
                    // A repeated tag, apart only in (slot, gen).
                    if delta == 0 {
                        queue.push(tag, slot, gen + 1);
                        reference.push(Reverse((tag, slot, gen + 1)));
                    }
                }
                let want = reference.peek().map(|Reverse((tag, _, _))| tag.time);
                assert_eq!(queue.peek_time(), want);
            }
            while let Some(Reverse((tag, slot, gen))) = reference.pop() {
                assert_eq!(queue.pop(), Some((tag.time, slot, gen)));
            }
            assert_eq!(queue.pop(), None);
            assert_eq!(queue.peek_time(), None);
        }
    }

    #[test]
    fn the_last_dispatch_seq_the_key_can_hold_is_handed_out() {
        let mut counter = (1u64 << SEQ_BITS) - 1;
        assert_eq!(next_dispatch_seq(&mut counter), (1 << SEQ_BITS) - 1);
    }

    #[test]
    #[should_panic(expected = "56-bit seq field")]
    fn a_dispatch_seq_of_two_to_the_56_is_refused() {
        let mut counter = 1u64 << SEQ_BITS;
        next_dispatch_seq(&mut counter);
    }
}
