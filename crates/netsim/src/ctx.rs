//! What a node is and what it may do while it runs: the [`Node`] trait and
//! the per-callback [`Ctx`] — send, arm and cancel timers, draw randomness.

use crate::counters::PacketClass;
use crate::ids::{IfaceId, LinkId, NodeIdx};
use crate::link::TxDir;
use crate::queue::{Event, Tag, TimerId, EPOCH_EVENT};
use crate::region::{CaptureRecord, Outgoing, Region, Shared};
use crate::time::{Duration, SimTime};
use rand::Rng;
use std::any::Any;
use std::sync::Arc;

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

    /// The node crashed with total state loss ([`crate::World::crash_node`]).
    /// Implementations drop all volatile protocol state; static
    /// configuration (addresses, interface roles) survives, modelling a
    /// router whose config is in NVRAM but whose RAM is gone. No [`Ctx`] is
    /// provided — a dead node cannot send or arm timers.
    fn on_crash(&mut self) {}

    /// The node powered back up after a crash ([`crate::World::restart_node`]).
    /// Default: cold-boot via [`Node::on_start`].
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.on_start(ctx);
    }

    /// The world attached a telemetry sink ([`crate::World::set_telemetry`]):
    /// adopt the per-node handle for protocol-level emissions. Default:
    /// ignore (nodes that emit nothing need no handle).
    fn set_telemetry(&mut self, _telem: telemetry::Telem) {}

    /// Downcast support for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support for scenario scripting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The per-callback view of the world handed to [`Node`] implementations.
pub struct Ctx<'a> {
    pub(crate) region: &'a mut Region,
    pub(crate) shared: &'a Shared,
    pub(crate) node: NodeIdx,
    pub(crate) slot: usize,
    /// The dispatch's canonical identity tag (`emit == 0`).
    pub(crate) tag: Tag,
    /// Emission counter: 1-based `emit` component for created events.
    pub(crate) emits: u32,
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
    pub(crate) fn emit(&mut self, node: NodeIdx, f: impl FnOnce() -> telemetry::Event) {
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
        let ev = Event::Deliver {
            node,
            iface,
            packet,
            link,
        };
        if dst == self.region.id {
            let _ = self.region.push_event(tag, self.tag, ev);
        } else {
            self.region.outbox.push(Outgoing {
                dst,
                tag,
                cause: self.tag,
                ev,
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
