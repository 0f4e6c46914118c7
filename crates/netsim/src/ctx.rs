//! What a node is and what it may do while it runs: the [`Node`] trait and
//! the per-callback [`Ctx`] — send, arm and cancel timers, draw randomness.

use crate::counters::PacketClass;
use crate::ids::{IfaceId, LinkId, NodeIdx};
use crate::link::{ChannelModel, LinkCapacity, TxDir};
use crate::queue::{Event, Tag, TimerId, EPOCH_EVENT};
use crate::region::{Outgoing, Region, Shared};
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

    /// Whether a telemetry sink is attached ([`crate::World::set_telemetry`]).
    pub fn telemetry_on(&self) -> bool {
        self.region.buf.is_some()
    }

    /// Emit a structured telemetry event from the running node, stamped
    /// with the current time and this dispatch's provenance. The closure
    /// runs only when a sink is attached, so the disabled path never
    /// constructs (or allocates for) the event.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> telemetry::Event) {
        self.emit_for(self.node, f);
    }

    /// [`Ctx::emit`] on behalf of another node: the channel marks a
    /// receiver's impairments during the sender's dispatch.
    #[inline]
    pub(crate) fn emit_for(&mut self, node: NodeIdx, f: impl FnOnce() -> telemetry::Event) {
        if let Some(buf) = &mut self.region.buf {
            buf.push(node.0 as u32, self.region.now.ticks(), f());
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
        let dst = self.shared.place[node.0].0;
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

    /// The **admit** stage of a transmit, with its accounting: `None` if
    /// the link's capacity model `cap` tail-drops the packet at the
    /// sender, otherwise the serialization + queueing delay it pays (zero
    /// on an unlimited link). Control-class packets bypass the
    /// queue when the link grants them priority: the structural guarantee
    /// behind the no-starvation oracle.
    fn admit(
        &mut self,
        iface: IfaceId,
        link_id: LinkId,
        cap: LinkCapacity,
        class: PacketClass,
        len: u64,
    ) -> Option<Duration> {
        if cap.is_unlimited() || (cap.ctrl_priority && class == PacketClass::Control) {
            return Some(Duration(0));
        }
        let dirs = &mut self.region.slots[self.slot].tx_dirs;
        if dirs.len() <= iface.index() {
            dirs.resize(iface.index() + 1, TxDir::default());
        }
        let Some((backlog, marked, new_peak)) =
            dirs[iface.index()].admit(&cap, self.region.now, len)
        else {
            // Tail drop at the sender: the packet never reaches the
            // wire — no tx accounting, no capture, no deliveries.
            self.region.counters.record_queue_drop(link_id, class);
            let what = match class {
                PacketClass::Control => "ctrl",
                PacketClass::Data => "data",
            };
            self.emit(|| telemetry::Event::QueueDrop {
                what,
                link: link_id.0 as u32,
            });
            return None;
        };
        self.region
            .counters
            .record_queue_depth(link_id, backlog, cap.queue_bytes);
        if marked {
            self.region.counters.record_ecn_mark(link_id);
            self.emit(|| telemetry::Event::EcnMark {
                link: link_id.0 as u32,
            });
        }
        if new_peak {
            self.emit(|| telemetry::Event::QueueDepth {
                link: link_id.0 as u32,
                bytes: backlog,
            });
        }
        // Ceil division: a partially serialized packet occupies the
        // wire for the whole remaining tick. The delay is strictly
        // positive (backlog now includes this packet), so capacity
        // can only push deliveries later — the conservative
        // cross-region lookahead bound still holds.
        Some(Duration(backlog.div_ceil(cap.bytes_per_tick)))
    }

    /// The **impair** and **schedule** stages of a transmit, for one
    /// receiver: the link's channel model `chan` duplicates, corrupts and
    /// reorders (each counted and marked in telemetry on the receiver's
    /// behalf), and every resulting copy is scheduled.
    fn impair(
        &mut self,
        chan: ChannelModel,
        link_id: LinkId,
        to: (NodeIdx, IfaceId),
        packet: &Arc<[u8]>,
        at: SimTime,
    ) {
        let link = link_id.0 as u32;
        let copies = if chan.duplicate(&mut self.region.slots[self.slot].rng) {
            self.region.counters.record_duplicated(link_id);
            let what = "duplicate";
            self.emit_for(to.0, || telemetry::Event::ChannelImpaired { what, link });
            2
        } else {
            1
        };
        for _ in 0..copies {
            let mut copy = Arc::clone(packet);
            let mut due = at;
            if let Some(bytes) = chan.corrupt(&mut self.region.slots[self.slot].rng, &copy) {
                copy = bytes;
                self.region.counters.record_corrupted(link_id);
                let what = "corrupt";
                self.emit_for(to.0, || telemetry::Event::ChannelImpaired { what, link });
            }
            if let Some(extra) = chan.reorder(&mut self.region.slots[self.slot].rng) {
                due += extra;
                self.region.counters.record_reordered(link_id);
                let what = "reorder";
                self.emit_for(to.0, || telemetry::Event::ChannelImpaired { what, link });
            }
            self.schedule_deliver(due, to.0, to.1, copy, link_id);
        }
    }

    /// Transmit `packet` out of `(node, iface)` — up? → admit → account →
    /// capture → per receiver: alive? → lose? → impair → schedule — so
    /// that every other attachment of the link gets it after the
    /// propagation delay, the loss probability applying independently
    /// per receiver. All rolls come from the *sender's* RNG stream,
    /// during the sender's own dispatch, in this order — which is what
    /// keeps impairments a pure function of the seed regardless of how
    /// receivers are partitioned.
    fn transmit(&mut self, iface: IfaceId, packet: Arc<[u8]>) {
        let from = self.node;
        let link_id = self.shared.ifaces[from.0][iface.index()];
        let link = &self.shared.links[link_id.0];
        if !link.up {
            return;
        }
        let (class, proto) = PacketClass::classify_full(&packet);
        let len = packet.len() as u64;
        let Some(qdelay) = self.admit(iface, link_id, link.capacity, class, len) else {
            return;
        };
        self.region
            .counters
            .record_tx(link_id, class, proto, packet.len(), self.region.now);
        if let Some(limit) = self.shared.capture_limit {
            self.region.capture(limit, self.tag, link_id, from, &packet);
        }
        let at = self.region.now + link.delay + qdelay;
        // One shared buffer for the whole fan-out; each delivery is a
        // refcount bump, not a copy of the packet bytes.
        for &(n, i) in &link.attachments {
            if (n, i) == (from, iface) {
                continue;
            }
            if !self.shared.node_up[n.0] {
                self.region.counters.record_pkt_dropped_node_down();
                continue;
            }
            if link.loss > 0.0 && self.region.slots[self.slot].rng.gen::<f64>() < link.loss {
                self.region.counters.record_loss(link_id);
                continue;
            }
            self.impair(link.channel, link_id, (n, i), &packet, at);
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
        self.emit(|| telemetry::Event::TimerArmed {
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
                self.emit(|| telemetry::Event::TimerCancelled { token });
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
        &mut self.region.slots[self.slot].rng
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
        self.emit(|| telemetry::Event::DecodeFailed {
            kind,
            iface: iface.0,
        });
    }
}
