//! Overhead accounting.
//!
//! The paper's efficiency metric (§1): "state, control message processing,
//! and data packet processing required across the entire network in order to
//! deliver data packets to the members of the group." The simulator counts
//! the per-link message halves of that here; router state is counted by the
//! protocol adapters themselves (they know their table sizes).

use crate::time::SimTime;
use crate::{LinkId, NodeIdx};
use wire::ip::{Header, Protocol};

/// Whether a packet is protocol control traffic or application data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketClass {
    /// IGMP-family control messages (IGMP, PIM, DVMRP, CBT, unicast
    /// routing).
    Control,
    /// Application data (including data encapsulated in PIM Registers —
    /// those count as control, since they are unicast protocol messages).
    Data,
}

impl PacketClass {
    /// Classify a serialized packet by its network-header protocol field.
    /// Unparseable packets count as control (conservative for the
    /// experiments, which report data-packet overhead for PIM).
    pub fn classify(packet: &[u8]) -> PacketClass {
        Self::classify_full(packet).0
    }

    /// Classify class *and* control sub-protocol in one header decode —
    /// the tx path calls this once per transmission so EXPERIMENTS.md can
    /// attribute control cost per protocol without re-parsing.
    pub fn classify_full(packet: &[u8]) -> (PacketClass, Option<CtrlProto>) {
        match Header::decap(packet) {
            Ok((h, _)) if h.proto == Protocol::Data => (PacketClass::Data, None),
            Ok((_, payload)) => (
                PacketClass::Control,
                Some(CtrlProto::of_type_octet(payload.first().copied())),
            ),
            Err(_) => (PacketClass::Control, Some(CtrlProto::Other)),
        }
    }
}

/// The control sub-protocol of a control packet, classified from the
/// message-type octet (the first payload byte) without a full message
/// decode. The type-octet ranges are fixed by `wire::message`:
/// `0x11..=0x13` IGMP, `0x20..=0x23` PIM, `0x30..=0x33` DVMRP,
/// `0x40..=0x45` CBT, `0x50..=0x52` unicast routing (DV/LSA/Hello).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CtrlProto {
    /// IGMP host-membership messages (query/report/RP-mapping).
    Igmp,
    /// PIM query/register/join-prune/RP-reachability.
    Pim,
    /// DVMRP probe/prune/graft/graft-ack.
    Dvmrp,
    /// CBT join/join-ack/echo/echo-reply/quit/flush.
    Cbt,
    /// Unicast routing control (DV updates, LSAs, hellos).
    Unicast,
    /// Unknown type octet or unparseable packet.
    #[default]
    Other,
}

impl CtrlProto {
    /// All sub-protocols, in report order.
    pub const ALL: [CtrlProto; 6] = [
        CtrlProto::Igmp,
        CtrlProto::Pim,
        CtrlProto::Dvmrp,
        CtrlProto::Cbt,
        CtrlProto::Unicast,
        CtrlProto::Other,
    ];

    /// Classify from a message-type octet (`None` = empty payload).
    pub fn of_type_octet(octet: Option<u8>) -> CtrlProto {
        match octet {
            Some(0x11..=0x13) => CtrlProto::Igmp,
            Some(0x20..=0x23) => CtrlProto::Pim,
            Some(0x30..=0x33) => CtrlProto::Dvmrp,
            Some(0x40..=0x45) => CtrlProto::Cbt,
            Some(0x50..=0x52) => CtrlProto::Unicast,
            _ => CtrlProto::Other,
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CtrlProto::Igmp => "igmp",
            CtrlProto::Pim => "pim",
            CtrlProto::Dvmrp => "dvmrp",
            CtrlProto::Cbt => "cbt",
            CtrlProto::Unicast => "unicast",
            CtrlProto::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            CtrlProto::Igmp => 0,
            CtrlProto::Pim => 1,
            CtrlProto::Dvmrp => 2,
            CtrlProto::Cbt => 3,
            CtrlProto::Unicast => 4,
            CtrlProto::Other => 5,
        }
    }
}

/// Per-link transmit statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Control packets transmitted onto the link.
    pub control_pkts: u64,
    /// Data packets transmitted onto the link.
    pub data_pkts: u64,
    /// Total bytes transmitted (all classes).
    pub bytes: u64,
    /// Packets dropped by loss injection.
    pub losses: u64,
    /// Packet copies corrupted by the channel model (one byte flipped).
    pub corrupted: u64,
    /// Extra packet copies injected by the channel model's duplication.
    pub duplicated: u64,
    /// Packet copies delayed out of order by the channel model.
    pub reordered: u64,
    /// Data-class packets tail-dropped by the capacity model's bounded
    /// transmit queue (never reached the wire).
    pub queue_drops_data: u64,
    /// Control-class packets tail-dropped by the capacity model. Always
    /// zero while the link's control-priority class is enabled — the
    /// no-starvation oracle is exactly the assertion that this stays zero.
    pub queue_drops_ctrl: u64,
    /// ECN-style congestion marks (enqueues past the marking threshold).
    pub ecn_marks: u64,
    /// Highest transmit-queue backlog (bytes) observed on any direction
    /// of this link.
    pub peak_queue_bytes: u64,
    /// Largest configured queue bound seen at enqueue time — kept here so
    /// the bounded-queue oracle can check `peak ≤ cap` after a schedule
    /// has already healed the link back to unlimited.
    pub queue_cap_bytes: u64,
    /// Time of the most recent data-packet transmission.
    pub last_data_at: Option<SimTime>,
}

/// Grow a dense column to cover `idx` and hand back its slot. Link and
/// node ids are assigned densely by the world, so indexed columns replace
/// the hash-per-packet maps this module used to keep — `record_tx` runs
/// once per transmitted copy and sits on the event-loop hot path.
fn slot<T: Default + Clone>(column: &mut Vec<T>, idx: usize) -> &mut T {
    if idx >= column.len() {
        column.resize(idx + 1, T::default());
    }
    &mut column[idx]
}

/// World-wide overhead counters.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Dense per-link stats indexed by [`LinkId`]; links past the end of
    /// the column have never recorded anything.
    per_link: Vec<LinkStats>,
    /// Control packets transmitted, broken down by sub-protocol
    /// ([`CtrlProto::index`] order).
    ctrl_tx: [u64; 6],
    /// Dense per-node local-delivery counts indexed by [`NodeIdx`].
    local_deliveries: Vec<u64>,
    /// Undecodable payloads dropped at each node's receive path.
    decode_failures: Vec<u64>,
    rx_control_pkts: u64,
    rx_data_pkts: u64,
    rx_bytes: u64,
    events_dispatched: u64,
    timers_fired: u64,
    timers_skipped_stale: u64,
    timers_cancelled_node_down: u64,
    pkts_dropped_node_down: u64,
}

impl Counters {
    pub(crate) fn record_tx(
        &mut self,
        link: LinkId,
        class: PacketClass,
        proto: Option<CtrlProto>,
        len: usize,
        at: SimTime,
    ) {
        let s = slot(&mut self.per_link, link.0);
        match class {
            PacketClass::Control => {
                s.control_pkts += 1;
                self.ctrl_tx[proto.unwrap_or(CtrlProto::Other).index()] += 1;
            }
            PacketClass::Data => {
                s.data_pkts += 1;
                s.last_data_at = Some(at);
            }
        }
        s.bytes += len as u64;
    }

    pub(crate) fn record_rx(&mut self, _link: LinkId, class: PacketClass, len: usize) {
        match class {
            PacketClass::Control => self.rx_control_pkts += 1,
            PacketClass::Data => self.rx_data_pkts += 1,
        }
        self.rx_bytes += len as u64;
    }

    pub(crate) fn record_dispatch(&mut self) {
        self.events_dispatched += 1;
    }

    pub(crate) fn record_timer_fired(&mut self) {
        self.timers_fired += 1;
    }

    pub(crate) fn record_timer_skipped(&mut self) {
        self.timers_skipped_stale += 1;
    }

    pub(crate) fn record_timer_cancelled_node_down(&mut self) {
        self.timers_cancelled_node_down += 1;
    }

    pub(crate) fn record_pkt_dropped_node_down(&mut self) {
        self.pkts_dropped_node_down += 1;
    }

    pub(crate) fn record_loss(&mut self, link: LinkId) {
        slot(&mut self.per_link, link.0).losses += 1;
    }

    pub(crate) fn record_corrupted(&mut self, link: LinkId) {
        slot(&mut self.per_link, link.0).corrupted += 1;
    }

    pub(crate) fn record_duplicated(&mut self, link: LinkId) {
        slot(&mut self.per_link, link.0).duplicated += 1;
    }

    pub(crate) fn record_reordered(&mut self, link: LinkId) {
        slot(&mut self.per_link, link.0).reordered += 1;
    }

    pub(crate) fn record_queue_drop(&mut self, link: LinkId, class: PacketClass) {
        let s = slot(&mut self.per_link, link.0);
        match class {
            PacketClass::Control => s.queue_drops_ctrl += 1,
            PacketClass::Data => s.queue_drops_data += 1,
        }
    }

    pub(crate) fn record_ecn_mark(&mut self, link: LinkId) {
        slot(&mut self.per_link, link.0).ecn_marks += 1;
    }

    pub(crate) fn record_queue_depth(&mut self, link: LinkId, backlog: u64, cap: u64) {
        let s = slot(&mut self.per_link, link.0);
        s.peak_queue_bytes = s.peak_queue_bytes.max(backlog);
        s.queue_cap_bytes = s.queue_cap_bytes.max(cap);
    }

    pub(crate) fn record_decode_failure(&mut self, node: NodeIdx) {
        *slot(&mut self.decode_failures, node.0) += 1;
    }

    pub(crate) fn record_local_delivery(&mut self, node: NodeIdx) {
        *slot(&mut self.local_deliveries, node.0) += 1;
    }

    /// Fold another counter shard into this one.
    ///
    /// The partitioned world keeps one `Counters` shard per region and
    /// merges them on demand. Merging is **associative and commutative**
    /// (every field is a sum except `last_data_at`, which is a max), so
    /// the merged totals are identical for any region assignment and any
    /// merge order — part of the byte-identity contract the parallel
    /// simulation core pins.
    pub fn merge(&mut self, other: &Counters) {
        for (link, o) in other.per_link.iter().enumerate() {
            let s = slot(&mut self.per_link, link);
            s.control_pkts += o.control_pkts;
            s.data_pkts += o.data_pkts;
            s.bytes += o.bytes;
            s.losses += o.losses;
            s.corrupted += o.corrupted;
            s.duplicated += o.duplicated;
            s.reordered += o.reordered;
            s.queue_drops_data += o.queue_drops_data;
            s.queue_drops_ctrl += o.queue_drops_ctrl;
            s.ecn_marks += o.ecn_marks;
            // Peaks and caps merge by max — max is associative and
            // commutative, so the merged totals stay partition-invariant.
            s.peak_queue_bytes = s.peak_queue_bytes.max(o.peak_queue_bytes);
            s.queue_cap_bytes = s.queue_cap_bytes.max(o.queue_cap_bytes);
            s.last_data_at = match (s.last_data_at, o.last_data_at) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        for (i, n) in other.ctrl_tx.iter().enumerate() {
            self.ctrl_tx[i] += n;
        }
        for (node, n) in other.local_deliveries.iter().enumerate() {
            *slot(&mut self.local_deliveries, node) += n;
        }
        for (node, n) in other.decode_failures.iter().enumerate() {
            *slot(&mut self.decode_failures, node) += n;
        }
        self.rx_control_pkts += other.rx_control_pkts;
        self.rx_data_pkts += other.rx_data_pkts;
        self.rx_bytes += other.rx_bytes;
        self.events_dispatched += other.events_dispatched;
        self.timers_fired += other.timers_fired;
        self.timers_skipped_stale += other.timers_skipped_stale;
        self.timers_cancelled_node_down += other.timers_cancelled_node_down;
        self.pkts_dropped_node_down += other.pkts_dropped_node_down;
    }

    /// Stats for one link (zeroes if it never carried traffic).
    pub fn link(&self, link: LinkId) -> LinkStats {
        self.per_link.get(link.0).copied().unwrap_or_default()
    }

    /// Iterate over links that carried any traffic.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &LinkStats)> + '_ {
        self.per_link
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != LinkStats::default())
            .map(|(l, s)| (LinkId(l), s))
    }

    /// Total control packets transmitted network-wide.
    pub fn total_control_pkts(&self) -> u64 {
        self.per_link.iter().map(|s| s.control_pkts).sum()
    }

    /// Control packets transmitted for one sub-protocol.
    pub fn control_pkts_by(&self, proto: CtrlProto) -> u64 {
        self.ctrl_tx[proto.index()]
    }

    /// The per-sub-protocol control-packet breakdown, in
    /// [`CtrlProto::ALL`] order.
    pub fn control_breakdown(&self) -> [(CtrlProto, u64); 6] {
        CtrlProto::ALL.map(|p| (p, self.ctrl_tx[p.index()]))
    }

    /// Total data packets transmitted network-wide (each link transit counts
    /// once — this is the paper's "data packet processing across the entire
    /// network").
    pub fn total_data_pkts(&self) -> u64 {
        self.per_link.iter().map(|s| s.data_pkts).sum()
    }

    /// Total bytes transmitted network-wide.
    pub fn total_bytes(&self) -> u64 {
        self.per_link.iter().map(|s| s.bytes).sum()
    }

    /// Total packets dropped by loss injection.
    pub fn losses(&self) -> u64 {
        self.per_link.iter().map(|s| s.losses).sum()
    }

    /// Total packet copies corrupted by the channel model.
    pub fn pkts_corrupted(&self) -> u64 {
        self.per_link.iter().map(|s| s.corrupted).sum()
    }

    /// Total extra packet copies injected by channel duplication.
    pub fn pkts_duplicated(&self) -> u64 {
        self.per_link.iter().map(|s| s.duplicated).sum()
    }

    /// Total packet copies delayed out of order by the channel model.
    pub fn pkts_reordered(&self) -> u64 {
        self.per_link.iter().map(|s| s.reordered).sum()
    }

    /// Total data-class packets tail-dropped by bounded transmit queues.
    pub fn queue_drops_data(&self) -> u64 {
        self.per_link.iter().map(|s| s.queue_drops_data).sum()
    }

    /// Total control-class packets tail-dropped by bounded transmit
    /// queues. Structurally zero whenever control priority is enabled.
    pub fn queue_drops_ctrl(&self) -> u64 {
        self.per_link.iter().map(|s| s.queue_drops_ctrl).sum()
    }

    /// Total ECN-style congestion marks network-wide.
    pub fn ecn_marks(&self) -> u64 {
        self.per_link.iter().map(|s| s.ecn_marks).sum()
    }

    /// Highest transmit-queue backlog (bytes) observed on any link.
    pub fn peak_queue_bytes(&self) -> u64 {
        self.per_link
            .iter()
            .map(|s| s.peak_queue_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Undecodable payloads dropped at `node`'s receive path.
    pub fn decode_failures(&self, node: NodeIdx) -> u64 {
        self.decode_failures.get(node.0).copied().unwrap_or(0)
    }

    /// Undecodable payloads dropped network-wide. Zero on a clean channel:
    /// every encoder produces decodable bytes, so decode failures can only
    /// come from channel corruption (asserted by the hardening oracle).
    pub fn total_decode_failures(&self) -> u64 {
        self.decode_failures.iter().sum()
    }

    /// Data packets delivered to local group members at `node`.
    pub fn local_deliveries(&self, node: NodeIdx) -> u64 {
        self.local_deliveries.get(node.0).copied().unwrap_or(0)
    }

    /// Total data packets delivered to local group members anywhere.
    pub fn total_local_deliveries(&self) -> u64 {
        self.local_deliveries.iter().sum()
    }

    /// Events the world actually dispatched (deliveries + timers + scripts).
    /// The paper's scaling argument is that this should track state churn,
    /// not wall-clock: an idle network should dispatch almost nothing.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Timer events that fired (dispatched to a node).
    pub fn timers_fired(&self) -> u64 {
        self.timers_fired
    }

    /// Timer heap entries popped but skipped because the timer had been
    /// cancelled or rescheduled (lazy-deletion cost of the timer wheel).
    pub fn timers_skipped_stale(&self) -> u64 {
        self.timers_skipped_stale
    }

    /// Armed timers cancelled because their owning node crashed (see
    /// [`crate::World::crash_node`]); without this sweep, stale wakeups
    /// would fire against a dead node.
    pub fn timers_cancelled_node_down(&self) -> u64 {
        self.timers_cancelled_node_down
    }

    /// Packets discarded because the receiving node was down — either at
    /// transmit time (attachment is dead) or in flight when the node
    /// crashed.
    pub fn pkts_dropped_node_down(&self) -> u64 {
        self.pkts_dropped_node_down
    }

    /// Control packets delivered to nodes (receive side, per event loop).
    pub fn rx_control_pkts(&self) -> u64 {
        self.rx_control_pkts
    }

    /// Data packets delivered to nodes (receive side, per event loop).
    pub fn rx_data_pkts(&self) -> u64 {
        self.rx_data_pkts
    }

    /// All packets delivered to nodes.
    pub fn rx_pkts(&self) -> u64 {
        self.rx_control_pkts + self.rx_data_pkts
    }

    /// Total bytes delivered to nodes.
    pub fn rx_bytes(&self) -> u64 {
        self.rx_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::ip::{Header, Protocol};
    use wire::Addr;

    fn data_packet() -> Vec<u8> {
        Header {
            proto: Protocol::Data,
            ttl: 8,
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(239, 0, 0, 1),
        }
        .encap(b"payload")
    }

    fn control_packet() -> Vec<u8> {
        Header {
            proto: Protocol::Igmp,
            ttl: 1,
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::ALL_PIM_ROUTERS,
        }
        .encap(&[0; 4])
    }

    #[test]
    fn classification() {
        assert_eq!(PacketClass::classify(&data_packet()), PacketClass::Data);
        assert_eq!(
            PacketClass::classify(&control_packet()),
            PacketClass::Control
        );
        assert_eq!(PacketClass::classify(&[1, 2, 3]), PacketClass::Control);
    }

    #[test]
    fn ctrl_proto_type_octet_ranges() {
        use CtrlProto::*;
        let cases = [
            (0x11, Igmp),
            (0x13, Igmp),
            (0x20, Pim),
            (0x23, Pim),
            (0x30, Dvmrp),
            (0x33, Dvmrp),
            (0x40, Cbt),
            (0x45, Cbt),
            (0x50, Unicast),
            (0x52, Unicast),
            (0x00, Other),
            (0x60, Other),
        ];
        for (octet, want) in cases {
            assert_eq!(
                CtrlProto::of_type_octet(Some(octet)),
                want,
                "octet {octet:#04x}"
            );
        }
        assert_eq!(CtrlProto::of_type_octet(None), Other);
    }

    #[test]
    fn classify_full_attributes_sub_protocol() {
        let (class, proto) = PacketClass::classify_full(&data_packet());
        assert_eq!(class, PacketClass::Data);
        assert_eq!(proto, None);
        // control_packet() carries a zeroed payload: type octet 0 = Other.
        let (class, proto) = PacketClass::classify_full(&control_packet());
        assert_eq!(class, PacketClass::Control);
        assert_eq!(proto, Some(CtrlProto::Other));
        let (class, proto) = PacketClass::classify_full(&[1, 2, 3]);
        assert_eq!(class, PacketClass::Control);
        assert_eq!(proto, Some(CtrlProto::Other));
    }

    #[test]
    fn control_breakdown_accumulates_per_proto() {
        let mut c = Counters::default();
        let l = LinkId(0);
        c.record_tx(
            l,
            PacketClass::Control,
            Some(CtrlProto::Pim),
            20,
            SimTime(1),
        );
        c.record_tx(
            l,
            PacketClass::Control,
            Some(CtrlProto::Pim),
            20,
            SimTime(2),
        );
        c.record_tx(
            l,
            PacketClass::Control,
            Some(CtrlProto::Igmp),
            20,
            SimTime(3),
        );
        c.record_tx(l, PacketClass::Control, None, 20, SimTime(4));
        c.record_tx(l, PacketClass::Data, None, 30, SimTime(5));
        assert_eq!(c.control_pkts_by(CtrlProto::Pim), 2);
        assert_eq!(c.control_pkts_by(CtrlProto::Igmp), 1);
        assert_eq!(c.control_pkts_by(CtrlProto::Other), 1);
        assert_eq!(c.control_pkts_by(CtrlProto::Cbt), 0);
        let total: u64 = c.control_breakdown().iter().map(|&(_, n)| n).sum();
        assert_eq!(total, c.total_control_pkts());
    }

    #[test]
    fn accounting() {
        let mut c = Counters::default();
        let l = LinkId(0);
        c.record_tx(l, PacketClass::Data, None, 30, SimTime(5));
        c.record_tx(l, PacketClass::Control, None, 20, SimTime(6));
        c.record_tx(LinkId(1), PacketClass::Data, None, 30, SimTime(7));
        c.record_loss(l);
        c.record_local_delivery(NodeIdx(3));
        c.record_local_delivery(NodeIdx(3));

        assert_eq!(c.link(l).data_pkts, 1);
        assert_eq!(c.link(l).control_pkts, 1);
        assert_eq!(c.link(l).bytes, 50);
        assert_eq!(c.link(l).last_data_at, Some(SimTime(5)));
        assert_eq!(c.link(LinkId(9)).data_pkts, 0);
        assert_eq!(c.total_data_pkts(), 2);
        assert_eq!(c.total_control_pkts(), 1);
        assert_eq!(c.total_bytes(), 80);
        assert_eq!(c.losses(), 1);
        assert_eq!(c.local_deliveries(NodeIdx(3)), 2);
        assert_eq!(c.local_deliveries(NodeIdx(0)), 0);
        assert_eq!(c.total_local_deliveries(), 2);
    }

    /// Sharded recording + merge must reproduce single-heap totals, and
    /// the merge must be associative: `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`.
    #[test]
    fn merge_matches_single_heap_and_is_associative() {
        // One recording script, replayable into any counter shard.
        let record = |c: &mut Counters, salt: u64| {
            let l = LinkId((salt % 3) as usize);
            c.record_tx(l, PacketClass::Data, None, 100, SimTime(10 + salt));
            c.record_tx(
                l,
                PacketClass::Control,
                Some(CtrlProto::Pim),
                20,
                SimTime(salt),
            );
            c.record_rx(l, PacketClass::Data, 100);
            c.record_dispatch();
            c.record_timer_fired();
            c.record_loss(l);
            c.record_corrupted(l);
            c.record_queue_drop(l, PacketClass::Data);
            if salt.is_multiple_of(3) {
                c.record_queue_drop(l, PacketClass::Control);
            }
            c.record_ecn_mark(l);
            c.record_queue_depth(l, 64 + salt * 8, 256);
            c.record_local_delivery(NodeIdx(salt as usize));
            c.record_decode_failure(NodeIdx(salt as usize));
            if salt.is_multiple_of(2) {
                c.record_timer_skipped();
                c.record_pkt_dropped_node_down();
            }
        };

        // The "single heap": everything recorded into one Counters.
        let mut whole = Counters::default();
        for salt in 0..9 {
            record(&mut whole, salt);
        }

        // The "region shards": the same records split three ways.
        let mut shards = [
            Counters::default(),
            Counters::default(),
            Counters::default(),
        ];
        for salt in 0..9 {
            record(&mut shards[(salt % 3) as usize], salt);
        }

        let merge_all = |order: &[usize]| {
            let mut total = Counters::default();
            for &i in order {
                total.merge(&shards[i]);
            }
            total
        };
        let eq = |a: &Counters, b: &Counters| {
            assert_eq!(a.total_data_pkts(), b.total_data_pkts());
            assert_eq!(a.total_control_pkts(), b.total_control_pkts());
            assert_eq!(a.control_breakdown(), b.control_breakdown());
            assert_eq!(a.total_bytes(), b.total_bytes());
            assert_eq!(a.losses(), b.losses());
            assert_eq!(a.pkts_corrupted(), b.pkts_corrupted());
            assert_eq!(a.queue_drops_data(), b.queue_drops_data());
            assert_eq!(a.queue_drops_ctrl(), b.queue_drops_ctrl());
            assert_eq!(a.ecn_marks(), b.ecn_marks());
            assert_eq!(a.peak_queue_bytes(), b.peak_queue_bytes());
            assert_eq!(a.rx_pkts(), b.rx_pkts());
            assert_eq!(a.events_dispatched(), b.events_dispatched());
            assert_eq!(a.timers_fired(), b.timers_fired());
            assert_eq!(a.timers_skipped_stale(), b.timers_skipped_stale());
            assert_eq!(a.pkts_dropped_node_down(), b.pkts_dropped_node_down());
            assert_eq!(a.total_local_deliveries(), b.total_local_deliveries());
            assert_eq!(a.total_decode_failures(), b.total_decode_failures());
            for l in 0..3 {
                assert_eq!(a.link(LinkId(l)), b.link(LinkId(l)), "link {l}");
            }
        };

        // Shard-merge equals the single-heap totals, in any merge order.
        eq(&merge_all(&[0, 1, 2]), &whole);
        eq(&merge_all(&[2, 0, 1]), &whole);

        // Associativity: ((a ⊕ b) ⊕ c) == (a ⊕ (b ⊕ c)).
        let mut left = shards[0].clone();
        left.merge(&shards[1]);
        left.merge(&shards[2]);
        let mut bc = shards[1].clone();
        bc.merge(&shards[2]);
        let mut right = shards[0].clone();
        right.merge(&bc);
        eq(&left, &right);
    }
}
