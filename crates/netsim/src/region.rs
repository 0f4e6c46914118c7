//! One region of the partitioned world and what it does in a lock-step
//! window: pop, dispatch, buffer telemetry, capture, post cross-region mail.

use crate::counters::{Counters, PacketClass};
use crate::ctx::{Ctx, Node};
use crate::ids::{LinkId, NodeIdx};
use crate::link::{Link, TxDir};
use crate::queue::{next_dispatch_seq, Event, EventQueue, EventSlot, Tag, EPOCH_EVENT};
use crate::time::SimTime;
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::sync::Arc;

/// Per-region telemetry buffer, owned by its region: every emission of a
/// dispatch reaches it through [`Ctx::emit`], with no lock, from the one
/// thread running the region; the main thread drains all buffers at every
/// barrier, restores the partition-independent order, and hands the
/// window to the user's sink as one [`telemetry::Sink::batch`].
#[derive(Default)]
pub(crate) struct RegionBuf {
    /// The running dispatch and its cause, stamped on every emission.
    prov: telemetry::Provenance,
    pub(crate) events: Vec<telemetry::Emission>,
    /// One provenance edge per dispatch this window — including silent
    /// dispatches that emit no events, so backward slices never have
    /// holes where a hop merely forwarded data.
    pub(crate) links: Vec<(telemetry::EventId, Option<telemetry::EventId>)>,
}

impl RegionBuf {
    /// Open dispatch `tag`: record its provenance edge and stamp what
    /// it emits from here on.
    pub(crate) fn begin(&mut self, tag: Tag, cause: Option<Tag>) {
        let (id, cause) = (tag.event_id(), cause.map(Tag::event_id));
        self.prov = telemetry::Provenance { id, cause };
        self.links.push((id, cause));
    }

    pub(crate) fn push(&mut self, node: u32, at: u64, ev: telemetry::Event) {
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
    pub(crate) fn sort_canonical(&mut self) {
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

/// A cross-region delivery waiting at the window barrier to be routed
/// into its destination region's queue. The queue orders by canonical tag,
/// so routing order is irrelevant to the result.
pub(crate) struct Outgoing {
    pub(crate) dst: u32,
    pub(crate) tag: Tag,
    /// Identity tag of the creating dispatch (causal parent).
    pub(crate) cause: Tag,
    pub(crate) ev: Event,
}

/// State shared read-only across regions during a window: topology and
/// node liveness. Mutated only at barriers (scripts, fault injection) on
/// the main thread, through `World::shared_mut`.
pub(crate) struct Shared {
    pub(crate) links: Vec<Link>,
    /// `ifaces[node.0][iface.0]` = link the interface attaches to.
    pub(crate) ifaces: Vec<Vec<LinkId>>,
    /// node_up[node.0]: false while the node is crashed. Down nodes get no
    /// deliveries and no timer callbacks.
    pub(crate) node_up: Vec<bool>,
    /// `place[node.0] = (region, slot)`: where the node's [`Slot`] lives.
    pub(crate) place: Vec<(u32, u32)>,
    /// Packet capture limit, `Some(limit)` when enabled.
    pub(crate) capture_limit: Option<usize>,
}

/// One node's record, held by the region it lives in: everything of the
/// simulator's that is the node's own. A node's **slot** is its index in
/// [`Region::slots`]; the slot moves whole when the node changes region.
pub(crate) struct Slot {
    /// `None` only while the node runs (see [`Region::dispatch`]).
    pub(crate) node: Option<Box<dyn Node>>,
    /// The node's RNG stream: a pure function of the world seed and the
    /// node index, whatever region holds it.
    pub(crate) rng: StdRng,
    /// The node's dispatch counter: the `seq` component of its canonical
    /// tags.
    pub(crate) dispatch_seq: u64,
    /// Capacity-model queue state, one per interface. Grows to cover an
    /// interface the first time the node transmits on a link with a
    /// [`crate::LinkCapacity`] configured; an unlimited link never
    /// touches it.
    pub(crate) tx_dirs: Vec<TxDir>,
}

/// One region of the partitioned world: its nodes' slots, an event queue
/// and arena, a `Counters` shard, capture shard, telemetry buffer, and
/// the cross-region outbox.
pub(crate) struct Region {
    pub(crate) id: u32,
    pub(crate) now: SimTime,
    pub(crate) slots: Vec<Slot>,
    pub(crate) queue: EventQueue,
    /// Event arena, indexed by the slot carried in the queue. Slots are
    /// vacated (and recycled via `free`) as events fire or are cancelled,
    /// so memory is bounded by *outstanding* events, not events ever
    /// scheduled.
    pub(crate) events: Vec<EventSlot>,
    /// Vacated arena slots available for reuse.
    pub(crate) free: Vec<usize>,
    pub(crate) counters: Counters,
    /// Capture shard: the canonically smallest records this region has
    /// seen. In transmit order until it fills; from then on a max-heap,
    /// so the one to evict is at hand (see [`Region::capture`]).
    pub(crate) capture: Vec<Captured>,
    pub(crate) cap_seq: u64,
    /// Boxed, not inline: an inline buffer grows `Region` by ≈ 100 bytes,
    /// and that layout cost the two-region `hier_ctrl_par` benchmark 3–8 %
    /// `run_s` with no sink attached (EXPERIMENTS.md PERF).
    pub(crate) buf: Option<Box<RegionBuf>>,
    pub(crate) outbox: Vec<Outgoing>,
    /// Wall-clock/event-count attribution shard, `Some` when profiling
    /// (see [`crate::World::enable_profile`]). Only the profiler reads
    /// wall-clock; nothing inside the simulation ever does.
    pub(crate) prof: Option<crate::profile::RegionProfile>,
}

impl Region {
    pub(crate) fn new(id: u32) -> Region {
        Region {
            id,
            now: SimTime::ZERO,
            slots: Vec::new(),
            queue: EventQueue::default(),
            events: Vec::new(),
            free: Vec::new(),
            counters: Counters::default(),
            capture: Vec::new(),
            cap_seq: 0,
            buf: None,
            outbox: Vec::new(),
            prof: None,
        }
    }
    /// Run one node callback under a fresh canonical dispatch tag,
    /// through the take-call-put dance that lets the node borrow the
    /// region mutably alongside itself. `cause` is the identity tag of
    /// the dispatch that created the event being handled (`None` for
    /// causal roots: `on_start`, and barrier dispatches outside any
    /// script); it stamps every emission and is recorded as one
    /// provenance edge even when the callback emits nothing.
    pub(crate) fn dispatch(
        &mut self,
        shared: &Shared,
        node: NodeIdx,
        epoch: u8,
        cause: Option<Tag>,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
    ) {
        let slot = shared.place[node.0].1 as usize;
        let seq = next_dispatch_seq(&mut self.slots[slot].dispatch_seq);
        let tag = Tag {
            time: self.now,
            epoch,
            origin: node.0 as u32 + 1,
            seq,
            emit: 0,
        };
        if let Some(buf) = &mut self.buf {
            buf.begin(tag, cause);
        }
        let mut node_box = self.slots[slot].node.take().expect("node re-entrancy");
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
        self.slots[slot].node = Some(node_box);
    }

    /// Process every event in this region due strictly before `bound`,
    /// advancing the region clock event by event. Newly created same-region events inside the window are
    /// picked up in the same pass; cross-region events land in the
    /// outbox (the lookahead guarantees they are due at or after
    /// `bound`, so routing them at the barrier is conservative-safe).
    fn run_window(&mut self, shared: &Shared, bound: SimTime) -> usize {
        let mut n = 0;
        while self.queue.peek_time().is_some_and(|due| due < bound) {
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
                        ctx.emit(|| telemetry::Event::TimerFired { token });
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

    /// The **capture** stage of a transmit: record `packet`, sent by
    /// `from` on `link` under dispatch `tag`, if it is among the `limit`
    /// canonically smallest this region has seen. Recording is a refcount
    /// bump on the buffer every receiver shares; text is the reader's job.
    pub(crate) fn capture(
        &mut self,
        limit: usize,
        tag: Tag,
        link: LinkId,
        from: NodeIdx,
        packet: &Arc<[u8]>,
    ) {
        if limit == 0 {
            return;
        }
        let cs = self.cap_seq;
        self.cap_seq += 1;
        let key = (tag, cs);
        let entry = || Captured {
            key,
            rec: CaptureRecord {
                at: self.now,
                link,
                from,
                packet: Arc::clone(packet),
            },
        };
        // Keep the canonically-*smallest* `limit` records, not the
        // first-inserted: same-tick dispatch tags are keyed by the
        // receiving node and can invert relative to queue (event-tag)
        // order, so insertion order is not canonical order even
        // within one region. Bounded replacement preserves the
        // invariant `captured()` relies on.
        let cap = &mut self.capture;
        if cap.len() < limit {
            cap.push(entry());
            return;
        }
        if cs == limit as u64 {
            // The first transmit to find the shard full (`cap_seq` counts
            // them since `enable_capture`). From here on the shard is a
            // max-heap, and a descending sort is one.
            cap.sort_unstable_by_key(|c| Reverse(c.key));
        }
        if key < cap[0].key {
            cap[0] = entry();
            sift_down(cap);
        }
    }

    /// [`Region::run_window`] for the crew and the inline loop alike:
    /// returns the pops and, when profiling, the wall-clock nanoseconds
    /// the window took here (two clock reads per region per window, added
    /// to the shard's `busy_nanos`).
    pub(crate) fn run_window_timed(&mut self, w: &Window) -> (usize, u64) {
        let t0 = self.prof.as_ref().map(|_| std::time::Instant::now());
        let n = self.run_window(&w.shared, w.bound);
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
pub(crate) struct Window {
    pub(crate) shared: Arc<Shared>,
    pub(crate) bound: SimTime,
}

/// One captured transmission (see [`crate::World::enable_capture`]): when,
/// where, who, and the bytes put on the wire — the buffer the receivers
/// got, shared, not a copy. [`CaptureRecord::summary`] decodes it.
#[derive(Clone, Debug)]
pub struct CaptureRecord {
    /// Transmission time.
    pub at: SimTime,
    /// The link transmitted on.
    pub link: LinkId,
    /// The transmitting node.
    pub from: NodeIdx,
    /// The serialized packet, network header included.
    pub packet: Arc<[u8]>,
}

impl CaptureRecord {
    /// Human-readable decode of the packet, rendered now (see
    /// [`crate::trace::describe_packet`]; a caller building a longer line
    /// appends with [`crate::trace::write_packet`] instead).
    pub fn summary(&self) -> String {
        crate::trace::describe_packet(&self.packet)
    }
}

/// A capture shard's entry: a record under its canonical key, `(dispatch
/// tag, per-region transmit seq)`.
pub(crate) struct Captured {
    pub(crate) key: (Tag, u64),
    pub(crate) rec: CaptureRecord,
}

/// Restore a max-heap on `key` after its root was replaced.
fn sift_down(heap: &mut [Captured]) {
    let mut at = 0;
    loop {
        let left = 2 * at + 1;
        let Some(l) = heap.get(left) else {
            return;
        };
        let larger = match heap.get(left + 1) {
            Some(r) if r.key > l.key => left + 1,
            _ => left,
        };
        if heap[larger].key <= heap[at].key {
            return;
        }
        heap.swap(at, larger);
        at = larger;
    }
}
