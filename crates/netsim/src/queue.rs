//! Events and their order: the canonical key, the per-region calendar
//! queue that pops by it, and the arena the queued events live in.

use crate::ids::{IfaceId, LinkId, NodeIdx};
use crate::region::Region;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// Canonical-key epoch for start-of-world dispatches (`on_start`): they
/// sort before any runtime event at the same tick.
pub(crate) const EPOCH_START: u8 = 0;
/// Canonical-key epoch for scripts. Scripts live in a separate
/// world-level queue and never enter a region queue; the epoch exists so
/// a script dispatch has a canonical identity of its own — the causal
/// root every fault injection's consequences hang off — that sorts
/// before the node events it triggers at the same tick.
pub(crate) const EPOCH_SCRIPT: u8 = 1;
/// Canonical-key epoch for runtime node events (deliveries, timers,
/// barrier dispatches).
pub(crate) const EPOCH_EVENT: u8 = 2;

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
pub(crate) struct Tag {
    pub(crate) time: SimTime,
    pub(crate) epoch: u8,
    pub(crate) origin: u32,
    pub(crate) seq: u64,
    pub(crate) emit: u32,
}

/// Width of the `seq` field in [`Tag::sub_key`]: a node may run 2⁵⁶
/// dispatches before the packed key would stop ordering like the tag
/// (at a dispatch per nanosecond, two years of host time).
pub(crate) const SEQ_BITS: u32 = 56;

/// Hand out the next per-node dispatch sequence number, refusing to run
/// past the range [`Tag::sub_key`] can hold. A real check: a `seq` that
/// spilled into the `origin` bits would silently reorder events.
pub(crate) fn next_dispatch_seq(counter: &mut u64) -> u64 {
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
    pub(crate) fn sub_key(self) -> u128 {
        debug_assert!(self.seq < 1 << SEQ_BITS, "seq outruns the packed key");
        (self.epoch as u128) << 120
            | (self.origin as u128) << 88
            | (self.seq as u128) << 32
            | self.emit as u128
    }

    /// Inverse of [`Tag::sub_key`] (only tests need the fields back; the
    /// event loop reads just the time of a popped event).
    #[cfg(test)]
    pub(crate) fn from_sub_key(time: SimTime, key: u128) -> Tag {
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
    pub(crate) fn event_id(self) -> telemetry::EventId {
        telemetry::EventId {
            time: self.time.ticks(),
            epoch: self.epoch,
            origin: self.origin,
            seq: self.seq,
        }
    }
}

pub(crate) enum Event {
    Deliver {
        node: NodeIdx,
        iface: IfaceId,
        /// Shared, immutable payload: a LAN transmit enqueues one
        /// delivery per attached receiver, and the `Arc` makes each a
        /// refcount bump on the single serialized buffer instead of a
        /// per-receiver copy. Receivers only ever see `&[u8]`
        /// ([`crate::Node::on_packet`]), so immutability is free.
        packet: Arc<[u8]>,
        link: LinkId,
    },
    Timer {
        node: NodeIdx,
        token: u64,
    },
}

/// Handle to a scheduled timer, usable with [`crate::Ctx::cancel_timer`].
///
/// Generation-counted: event slots are recycled once an event fires or is
/// cancelled, and the generation disambiguates a handle from any later
/// tenant of the same slot, so cancelling an already-fired timer is a safe
/// no-op rather than an ABA hazard. The slot index is region-local; a
/// handle is only meaningful to the node that armed the timer (timers
/// never cross regions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId {
    pub(crate) slot: usize,
    pub(crate) gen: u32,
}

/// One event-arena slot. The queue stores `(tag, slot, gen)`; a popped
/// entry whose generation no longer matches (or whose slot is empty) is a
/// cancelled timer and is skipped without dispatch.
pub(crate) struct EventSlot {
    pub(crate) gen: u32,
    pub(crate) ev: Option<Event>,
    /// Identity tag of the dispatch that created this event — the
    /// event's causal parent, threaded into the handling dispatch so
    /// every consequence links back to its cause.
    pub(crate) cause: Tag,
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
pub(crate) struct EventQueue {
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

    pub(crate) fn push(&mut self, tag: Tag, slot: usize, gen: u32) {
        let slot = u32::try_from(slot).expect("event arena outgrew 2^32 slots");
        let (tick, entry) = (tag.time.ticks(), (tag.sub_key(), slot, gen));
        match self.open {
            Some(open) if tick == open => self.side.push(Reverse(entry)),
            Some(open) if tick < open => {
                // Earlier than the tick being drained: close the open
                // tick again so `future` alone says what is next. No
                // caller does this today — a window drains every tick it
                // opens, and barrier work pushes at or after the world
                // clock — but the queue stays total, and its proptest
                // pins this branch.
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
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        match self.open {
            Some(open) if !self.current.is_empty() || !self.side.is_empty() => Some(SimTime(open)),
            _ => self.future.keys().next().map(|&t| SimTime(t)),
        }
    }

    /// Remove and return the least `(time, slot, gen)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, usize, u32)> {
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

/// The event arena, indexed by the slot a queue entry carries.
impl Region {
    pub(crate) fn push_event(&mut self, tag: Tag, cause: Tag, ev: Event) -> TimerId {
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
    pub(crate) fn vacate(&mut self, slot: usize) -> Event {
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
}
