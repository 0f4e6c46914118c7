//! Links: what a wire or a LAN is, and what it does to a packet sent
//! across it — loss, adversarial impairments, bounded capacity.
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

use crate::ids::{IfaceId, NodeIdx};
use crate::time::{Duration, SimTime};
use rand::Rng;
use std::sync::Arc;

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

    // The **impair** stage of a transmit, one roll each, made per
    // receiver in a fixed order — duplicate, then corrupt and reorder per
    // copy — so traces are a pure function of the seed. A roll happens
    // only when its probability is nonzero: a clean channel consumes no
    // randomness and pre-existing traces stay byte-identical.

    /// Does the receiver get the packet twice?
    #[inline]
    pub(crate) fn duplicate(&self, rng: &mut impl Rng) -> bool {
        self.duplicate_pm > 0 && rng.gen_range(0..1000) < self.duplicate_pm
    }

    /// A copy of `packet` with one random bit of one random byte flipped,
    /// if this copy is corrupted. The shared buffer must never be mutated
    /// (other receivers see it), so the corrupted copy gets its own
    /// private allocation.
    #[inline]
    pub(crate) fn corrupt(&self, rng: &mut impl Rng, packet: &[u8]) -> Option<Arc<[u8]>> {
        if self.corrupt_pm == 0 || rng.gen_range(0..1000) >= self.corrupt_pm {
            return None;
        }
        let mut bytes = packet.to_vec();
        if !bytes.is_empty() {
            let idx = rng.gen_range(0..bytes.len());
            let bit = 1u8 << rng.gen_range(0..8u32);
            bytes[idx] ^= bit;
        }
        Some(bytes.into())
    }

    /// The extra delay of this copy, if it is reordered past later
    /// traffic.
    #[inline]
    pub(crate) fn reorder(&self, rng: &mut impl Rng) -> Option<Duration> {
        (self.reorder_pm > 0 && rng.gen_range(0..1000) < self.reorder_pm)
            .then(|| Duration(rng.gen_range(1..=self.jitter.max(1))))
    }
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
    /// section). Clamped into range by [`crate::World::set_link_loss`].
    pub loss: f64,
    /// Adversarial impairments (corrupt/duplicate/reorder).
    pub channel: ChannelModel,
    /// Deterministic bandwidth/queue model (default: unlimited).
    pub capacity: LinkCapacity,
    /// The attached `(node, iface)` pairs.
    pub attachments: Vec<(NodeIdx, IfaceId)>,
}

impl Link {
    /// A new link as [`crate::World::add_p2p`] and
    /// [`crate::World::add_lan`] create it: up, lossless, clean,
    /// unlimited, nothing attached yet.
    pub(crate) fn new(kind: LinkKind, delay: Duration) -> Link {
        Link {
            kind,
            delay,
            up: true,
            loss: 0.0,
            channel: ChannelModel::CLEAN,
            capacity: LinkCapacity::UNLIMITED,
            attachments: Vec::new(),
        }
    }
}

/// Per-direction transmit-queue state for the capacity model: one per
/// sending interface (an interface is one direction of one link). Lives
/// in the sender's region — every transmit by a node runs inside its own
/// region's dispatches, so the state is touched by exactly one region
/// and the partition cannot observe it (the PR 6 byte-identity
/// invariant).
#[derive(Clone, Copy, Default)]
pub(crate) struct TxDir {
    /// Last time the backlog was drained (sender-region clock).
    last: SimTime,
    /// Queued bytes not yet serialized onto the wire.
    backlog: u64,
    /// Highest power-of-2 backlog bucket seen, for rate-limited
    /// queue-depth telemetry: one event per new peak bucket, not one
    /// per packet, keeps the stream bounded and deterministic.
    peak_bucket: u32,
}

impl TxDir {
    /// The **admit** stage of a transmit: drain the backlog by the time
    /// elapsed, then tail-drop the `len`-byte packet (`None`) or enqueue
    /// it and return `(backlog, marked, new_peak)` — the backlog with
    /// this packet in it, whether the enqueue crossed `cap.ecn_bytes`,
    /// and whether the backlog reached a new power-of-2 peak bucket.
    /// Pure integer arithmetic on queue state: no RNG draw ever happens
    /// here, so a world with capacity disabled (or only *other* links
    /// capped) keeps its random streams, and therefore its traces,
    /// byte-identical.
    pub(crate) fn admit(
        &mut self,
        cap: &LinkCapacity,
        now: SimTime,
        len: u64,
    ) -> Option<(u64, bool, bool)> {
        let elapsed = now.ticks().saturating_sub(self.last.ticks());
        self.backlog = self
            .backlog
            .saturating_sub(elapsed.saturating_mul(cap.bytes_per_tick));
        self.last = now;
        if self.backlog.saturating_add(len) > cap.queue_bytes {
            return None;
        }
        let marked = cap.ecn_bytes > 0 && self.backlog + len > cap.ecn_bytes;
        self.backlog += len;
        // Rate-limit queue-depth telemetry to new power-of-2 peak
        // buckets so the stream stays bounded however long the overload
        // lasts.
        let bucket = 64 - self.backlog.leading_zeros();
        let new_peak = bucket > self.peak_bucket;
        if new_peak {
            self.peak_bucket = bucket;
        }
        Some((self.backlog, marked, new_peak))
    }
}
