//! The generic router adapter shared by every multicast routing protocol.
//!
//! PIM, DVMRP, and CBT differ in their protocol engines, but their
//! [`netsim`] adapters were structural triplets: decapsulate the packet,
//! dispatch to the engine / the per-interface IGMP querier / the unicast
//! engine, carry out the outputs, and poll everything on a fixed tick. This
//! crate collapses the three copies into one [`ProtocolNode`], generic over
//! a [`ProtocolEngine`] — the small trait each protocol implements on its
//! sans-IO engine.
//!
//! The adapter is **deadline-driven**, not polled: after every event it
//! asks each engine for its [`next_deadline`](ProtocolEngine::next_deadline)
//! and arms exactly one cancellable wakeup timer at the earliest one. An
//! idle converged network therefore dispatches events at the rate of
//! protocol refresh periods (whole seconds of simulated time), not at a
//! fixed poll granularity — the paper's scaling argument (§1: overhead must
//! track state, not wall-clock) applied to the simulator itself.

#![warn(missing_docs)]

use igmp::{Querier, QuerierOutput};
use netsim::{earliest, Ctx, Duration, IfaceId, IfaceSet, Node, SimTime, TimerId};
use std::any::Any;
use telemetry::{message_kind, Event, Telem};
use unicast::Rib;
use wire::ip::{Header, Protocol};
use wire::{Addr, Group, Message};

/// Timer token for the single deadline wakeup.
const TOKEN_WAKE: u64 = 1;

/// TTL stamped on multicast data a router originates itself (a payload it
/// decapsulated from a Register). Hosts originate with the same value.
const DATA_TTL: u8 = 32;

/// An IO action requested by a [`ProtocolEngine`]. The node owns all
/// serialization and transmission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send one control message out of every interface in `ifaces`, in
    /// ascending order. The node encodes it once and hands each interface
    /// the same packet.
    Control {
        /// Interfaces to transmit on.
        ifaces: IfaceSet,
        /// Destination address for the network header.
        dst: Addr,
        /// Network TTL (1 for link-local chatter, larger for unicast
        /// messages like PIM Registers).
        ttl: u8,
        /// The message.
        msg: Message,
    },
    /// Forward the multicast data packet being handled out of each
    /// listed interface, in list order. The node already holds its
    /// payload and stamps the decremented arrival TTL; only meaningful in
    /// answer to [`ProtocolEngine::on_multicast_data`] (anywhere else
    /// there is no packet to forward: the node drops the action and
    /// counts it in [`ProtocolNode::stray_forwards`]).
    Forward {
        /// Interfaces to transmit on.
        ifaces: Vec<IfaceId>,
        /// Original source host (network-header source).
        source: Addr,
        /// Destination group.
        group: Group,
    },
    /// Forward multicast data the engine unwrapped itself (a Register
    /// decapsulated at the RP or core), with a fresh origination TTL:
    /// the one case where the payload is not the packet in hand and has
    /// to travel with the action.
    ForwardDecapsulated {
        /// Interfaces to transmit on.
        ifaces: Vec<IfaceId>,
        /// Original source host (network-header source).
        source: Addr,
        /// Destination group.
        group: Group,
        /// The decapsulated data payload.
        payload: Vec<u8>,
    },
    /// The packet under consideration is unicast traffic in transit (e.g. a
    /// Register addressed to some other router): forward the original
    /// packet by the unicast routing table.
    RelayUnicast,
}

impl Action {
    /// [`Action::Control`] out of the one interface `iface`.
    pub fn control(iface: IfaceId, dst: Addr, ttl: u8, msg: Message) -> Action {
        Action::Control {
            ifaces: iface.into(),
            dst,
            ttl,
            msg,
        }
    }
}

/// What a multicast routing protocol must expose for [`ProtocolNode`] to
/// drive it. Implemented by the PIM, DVMRP, and CBT engines.
///
/// IGMP host messages and unicast routing messages never reach
/// [`on_control`](ProtocolEngine::on_control) — the node routes those to
/// the per-interface [`Querier`]s and the unicast engine itself.
pub trait ProtocolEngine: Send {
    /// This router's address.
    fn addr(&self) -> Addr;

    /// Multicast forwarding entries held (the state-overhead metric).
    fn entry_count(&self) -> usize;

    /// A control message arrived on `iface`. `src`/`dst` are the network
    /// header addresses (Registers need `dst` to tell "for me" from "in
    /// transit").
    fn on_control(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        dst: Addr,
        msg: &Message,
        rib: &dyn Rib,
    ) -> Vec<Action>;

    /// A multicast data packet arrived on `iface`. `from_host_lan` is
    /// true when the arrival interface is a directly attached host
    /// subnetwork (the DR origination path for protocols that distinguish
    /// it).
    #[allow(clippy::too_many_arguments)]
    fn on_multicast_data(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        source: Addr,
        group: Group,
        payload: &[u8],
        from_host_lan: bool,
        rib: &dyn Rib,
    ) -> Vec<Action>;

    /// Does this router forward unicast data packets not addressed to it?
    /// (PIM and CBT relay Registers and plain unicast; dense-mode DVMRP
    /// drops non-multicast data.)
    fn relays_unicast(&self) -> bool {
        true
    }

    /// IGMP reported a first local member of `group` on `iface`.
    fn local_member_joined(
        &mut self,
        now: SimTime,
        group: Group,
        iface: IfaceId,
        rib: &dyn Rib,
    ) -> Vec<Action>;

    /// IGMP expired the last local member of `group` on `iface`.
    fn local_member_left(&mut self, now: SimTime, group: Group, iface: IfaceId) -> Vec<Action>;

    /// A host advertised the RP set for `group` (paper §3.1 footnote 9).
    /// Only PIM cares; the default ignores it.
    fn rp_mapping_learned(&mut self, _group: Group, _rps: &[Addr]) {}

    /// `iface` was declared a host-facing subnetwork with the directly
    /// attached `hosts` (potential sources) on it. Grow/mark any
    /// engine-side per-interface state and register the hosts; return how
    /// many interfaces the unicast engine must grow to stay index-aligned.
    fn host_lan_attached(&mut self, iface: IfaceId, hosts: &[Addr]) -> u32;

    /// The unicast route toward `dst` changed (§3.8 repair for PIM; the
    /// dense/CBT baselines re-derive paths lazily and ignore it).
    fn on_route_change(&mut self, _now: SimTime, _dst: Addr, _rib: &dyn Rib) -> Vec<Action> {
        Vec::new()
    }

    /// Drop all volatile protocol state (crash with total state loss,
    /// [`netsim::World::crash_node`]). Static configuration survives —
    /// address, interface roles, registered local hosts, and administrative
    /// mappings (RP sets, core placements) model NVRAM config — while
    /// adjacencies, tree/table entries, and pending timer deadlines are
    /// erased, so a restarted router rebuilds everything from protocol
    /// exchange alone.
    fn reset(&mut self);

    /// Run soft-state maintenance. Called when a deadline matures; engines
    /// gate internally, so early calls are harmless.
    fn tick(&mut self, now: SimTime, rib: &dyn Rib) -> Vec<Action>;

    /// The absolute time of the engine's next pending timer; `None` when
    /// fully quiescent. The node asks after every packet and every
    /// wakeup, so engines answer from a [`netsim::Deadlines`] index they
    /// keep current where they write a timer — a read, never a walk.
    fn next_deadline(&self) -> Option<SimTime>;

    /// The engine's telemetry outbox: it queues entry-lifecycle and
    /// election events there; the node switches it on when the world has
    /// a sink and moves what it holds into the running dispatch before
    /// acting on the engine's [`Action`]s.
    fn telem(&mut self) -> &mut Telem;

    /// The `show mroute` of the simulator: the engine's live
    /// (\*,G)/(S,G)/tree state at `now` — entries with flag bits,
    /// outgoing interfaces and timers — one entry per line, for replay
    /// artifacts and debugging. Deterministic (sorted maps) and free of
    /// wall-clock values.
    fn state_dump(&self, now: SimTime) -> String;
}

/// A router node: one [`ProtocolEngine`] + one interchangeable unicast
/// engine + one IGMP [`Querier`] per host-facing interface, glued to the
/// simulator with deadline-driven scheduling.
///
/// `ProtocolNode<dyn ProtocolEngine>` is a router of any protocol: a
/// harness that reads what every router has (state dump, entry count,
/// counters, host-LAN attach) takes one, unsized from the typed router.
pub struct ProtocolNode<P: ProtocolEngine + ?Sized> {
    unicast: Box<dyn unicast::Engine>,
    /// `queriers[iface]` is `Some` on host-facing interfaces. Indexed, so
    /// ticking them walks interfaces in ascending order — the order their
    /// queries reach the wire must not depend on a hasher.
    queriers: Vec<Option<Querier>>,
    /// Count of multicast data packets this router forwarded (processing
    /// overhead metric).
    pub data_forwards: u64,
    /// Count of control messages processed.
    pub control_msgs: u64,
    /// Count of received payloads dropped because they failed to decode
    /// (truncated frames, checksum mismatches, unknown types…). Zero on a
    /// clean channel; nonzero only under channel corruption.
    pub malformed_drops: u64,
    /// Count of [`Action::Forward`]s the engine issued with no data
    /// packet in hand. An engine bug, not a channel effect: zero in every
    /// run, and each one is dropped and reported on stderr with this
    /// router's address and the tick rather than panicking the run.
    pub stray_forwards: u64,
    /// The single armed wakeup, if any: (fire time, timer handle).
    wakeup: Option<(SimTime, TimerId)>,
    /// Where outgoing control packets are written before they move to
    /// their shared buffer; kept for its capacity.
    image: Vec<u8>,
    /// Last, so the node unsizes to `ProtocolNode<dyn ProtocolEngine>`.
    engine: P,
}

impl<P: ProtocolEngine + ?Sized> ProtocolNode<P> {
    /// Build a router from its protocol engine and a unicast routing
    /// engine.
    pub fn new(engine: P, unicast: Box<dyn unicast::Engine>) -> ProtocolNode<P>
    where
        P: Sized,
    {
        ProtocolNode {
            engine,
            unicast,
            queriers: Vec::new(),
            data_forwards: 0,
            control_msgs: 0,
            malformed_drops: 0,
            stray_forwards: 0,
            wakeup: None,
            image: Vec::new(),
        }
    }

    /// The engine's `show mroute`-style state snapshot at `now`.
    pub fn state_dump(&self, now: SimTime) -> String {
        self.engine.state_dump(now)
    }

    /// Declare `iface` a host-facing subnetwork: an IGMP querier runs
    /// there, attached `hosts` are registered as potential sources, and
    /// the unicast engine originates reachability for them.
    pub fn attach_host_lan(&mut self, iface: IfaceId, hosts: &[Addr]) {
        IfaceSet::check_width(iface.index() + 1)
            .unwrap_or_else(|e| panic!("router {}: {e}", self.engine.addr()));
        let grow = self.engine.host_lan_attached(iface, hosts);
        for _ in 0..grow {
            self.unicast.grow_iface(1);
        }
        if self.queriers.len() <= iface.index() {
            self.queriers.resize_with(iface.index() + 1, || None);
        }
        self.queriers[iface.index()] = Some(Querier::new(self.engine.addr()));
        for &h in hosts {
            self.unicast.attach_local(h, 1);
        }
    }

    /// The protocol engine (inspection).
    pub fn engine(&self) -> &P {
        &self.engine
    }

    /// The protocol engine, mutably (pre-run configuration: RP mappings,
    /// cores, LAN declarations).
    pub fn engine_mut(&mut self) -> &mut P {
        &mut self.engine
    }

    /// The unicast engine (inspection).
    pub fn rib(&self) -> &dyn unicast::Engine {
        self.unicast.as_ref()
    }

    /// This router's address.
    pub fn addr(&self) -> Addr {
        self.engine.addr()
    }

    /// Send one control message out of `ifaces`, ascending. The packet is
    /// built once; each interface gets a reference to the same buffer and
    /// its own `CtrlSend` mark.
    fn send_control(
        &mut self,
        ctx: &mut Ctx<'_>,
        ifaces: IfaceSet,
        dst: Addr,
        ttl: u8,
        msg: &Message,
    ) {
        let header = Header {
            proto: Protocol::Igmp,
            ttl,
            src: self.engine.addr(),
            dst,
        };
        let pkt = header.encap_message_shared(msg, &mut self.image);
        for i in ifaces.iter() {
            ctx.emit(|| Event::CtrlSend {
                kind: message_kind(msg),
                dst,
            });
            ctx.send(i, pkt.clone());
        }
    }

    fn is_host_lan(&self, iface: IfaceId) -> bool {
        matches!(self.queriers.get(iface.index()), Some(Some(_)))
    }

    /// Send one data packet out of `ifaces`. The packet is built once;
    /// each interface (and, inside the world, each receiver) gets a
    /// reference to the same buffer.
    fn fan_out(
        &mut self,
        ctx: &mut Ctx<'_>,
        ifaces: &[IfaceId],
        source: Addr,
        group: Group,
        ttl: u8,
        payload: &[u8],
    ) {
        let header = Header {
            proto: Protocol::Data,
            ttl,
            src: source,
            dst: group.addr(),
        };
        let pkt = header.encap_shared(payload);
        for &i in ifaces {
            self.data_forwards += 1;
            if self.is_host_lan(i) {
                // Any forward onto a host LAN is a delivery edge for the
                // experiment counters.
                ctx.count_local_delivery();
                ctx.emit(|| Event::DataDelivered { group, source });
            }
            ctx.send(i, pkt.clone());
        }
    }

    /// Carry out engine actions; returns true if the engine asked for the
    /// current packet to be relayed as unicast. `data` is the payload of
    /// the multicast data packet being handled and the TTL its forwarded
    /// copies carry, when there is one. Every engine call's output passes
    /// here first, so this is where the events the call queued enter the
    /// dispatch: after what the node emitted before the call, before the
    /// marks of the actions it returned.
    fn handle_actions(
        &mut self,
        ctx: &mut Ctx<'_>,
        actions: Vec<Action>,
        data: Option<(&[u8], u8)>,
    ) -> bool {
        for ev in self.engine.telem().drain() {
            ctx.emit(|| ev);
        }
        let mut relay = false;
        for a in actions {
            match a {
                Action::Control {
                    ifaces,
                    dst,
                    ttl,
                    msg,
                } => {
                    self.send_control(ctx, ifaces, dst, ttl, &msg);
                }
                Action::Forward {
                    ifaces,
                    source,
                    group,
                } => match data {
                    Some((payload, ttl)) => self.fan_out(ctx, &ifaces, source, group, ttl, payload),
                    None => {
                        self.stray_forwards += 1;
                        eprintln!(
                            "router {} at {}: engine asked to forward ({source}, {group}) \
                             with no data packet in hand; dropped",
                            self.engine.addr(),
                            ctx.now()
                        );
                    }
                },
                Action::ForwardDecapsulated {
                    ifaces,
                    source,
                    group,
                    payload,
                } => {
                    self.fan_out(ctx, &ifaces, source, group, DATA_TTL, &payload);
                }
                Action::RelayUnicast => relay = true,
            }
        }
        relay
    }

    fn handle_unicast_outputs(&mut self, ctx: &mut Ctx<'_>, outputs: Vec<unicast::Output>) {
        let now = ctx.now();
        for o in outputs {
            match o {
                unicast::Output::Send { iface, dst, msg } => {
                    self.send_control(ctx, iface.into(), dst, 1, &msg);
                }
                unicast::Output::RouteChanged { dst } => {
                    ctx.emit(|| Event::RouteChanged { dst });
                    let acts = self.engine.on_route_change(now, dst, self.unicast.as_ref());
                    self.handle_actions(ctx, acts, None);
                }
            }
        }
    }

    fn handle_querier_outputs(
        &mut self,
        ctx: &mut Ctx<'_>,
        iface: IfaceId,
        outputs: Vec<QuerierOutput>,
    ) {
        let now = ctx.now();
        for o in outputs {
            match o {
                QuerierOutput::Send { dst, msg } => {
                    self.send_control(ctx, iface.into(), dst, 1, &msg);
                }
                QuerierOutput::MemberJoined(group) => {
                    ctx.emit(|| Event::LocalMemberJoined { group });
                    let acts =
                        self.engine
                            .local_member_joined(now, group, iface, self.unicast.as_ref());
                    self.handle_actions(ctx, acts, None);
                }
                QuerierOutput::MemberExpired(group) => {
                    ctx.emit(|| Event::LocalMemberLeft { group });
                    let acts = self.engine.local_member_left(now, group, iface);
                    self.handle_actions(ctx, acts, None);
                }
                QuerierOutput::RpMappingLearned(group, rps) => {
                    self.engine.rp_mapping_learned(group, &rps);
                }
            }
        }
    }

    /// Forward a unicast packet not addressed to us via the routing table.
    fn forward_unicast(&mut self, ctx: &mut Ctx<'_>, header: &Header, payload: &[u8]) {
        let Some(next) = header.decrement_ttl() else {
            return; // TTL exhausted
        };
        if let Some(r) = self.unicast.route(header.dst) {
            ctx.send(r.iface, next.encap_shared(payload));
        }
    }

    /// The earliest deadline across the protocol engine, the unicast
    /// engine, and every IGMP querier.
    fn next_deadline(&self) -> Option<SimTime> {
        let mut best = self.engine.next_deadline();
        best = earliest(best, self.unicast.next_deadline());
        for q in self.queriers.iter().flatten() {
            best = earliest(best, q.next_deadline());
        }
        best
    }

    /// (Re)arm the single wakeup at the earliest pending deadline, clamped
    /// to `floor`. Packet handlers pass `now` (a same-instant deadline is
    /// processed before time advances); the timer handler passes `now + 1`
    /// so a deadline its tick could not clear cannot spin the event loop at
    /// one instant forever.
    fn reschedule(&mut self, ctx: &mut Ctx<'_>, floor: SimTime) {
        let Some(d) = self.next_deadline() else {
            if let Some((_, id)) = self.wakeup.take() {
                ctx.cancel_timer(id);
            }
            return;
        };
        let at = d.max(floor);
        if let Some((t, id)) = self.wakeup {
            if t == at {
                return; // already armed at the right instant
            }
            ctx.cancel_timer(id);
        }
        let id = ctx.set_timer_at(at, TOKEN_WAKE);
        self.wakeup = Some((at, id));
    }

    fn on_igmp_family(
        &mut self,
        ctx: &mut Ctx<'_>,
        iface: IfaceId,
        header: &Header,
        payload: &[u8],
    ) {
        let msg = match Message::decode(payload) {
            Ok(msg) => msg,
            // Malformed control traffic is dropped, never panics — but the
            // drop is accounted (counter + world counters + telemetry with
            // the DecodeError kind and ingress interface), so the
            // adversarial-channel experiments can audit every lost frame.
            Err(e) => {
                self.malformed_drops += 1;
                ctx.count_decode_failure(iface, e.kind());
                return;
            }
        };
        self.control_msgs += 1;
        let now = ctx.now();
        ctx.emit(|| Event::CtrlRecv {
            kind: message_kind(&msg),
            src: header.src,
        });
        match &msg {
            Message::HostQuery(_) | Message::HostReport(_) | Message::RpMapping(_) => {
                if let Some(Some(q)) = self.queriers.get_mut(iface.index()) {
                    let was_querier = q.is_querier();
                    let outs = q.on_message(now, header.src, &msg);
                    let is_querier = q.is_querier();
                    if was_querier != is_querier {
                        ctx.emit(|| Event::QuerierChanged {
                            iface: iface.0,
                            is_querier,
                        });
                    }
                    self.handle_querier_outputs(ctx, iface, outs);
                }
            }
            Message::DvUpdate(_) | Message::Lsa(_) | Message::Hello(_) => {
                let outs = self.unicast.on_message(now, iface, header.src, &msg);
                self.handle_unicast_outputs(ctx, outs);
            }
            _ => {
                let acts = self.engine.on_control(
                    now,
                    iface,
                    header.src,
                    header.dst,
                    &msg,
                    self.unicast.as_ref(),
                );
                if self.handle_actions(ctx, acts, None) {
                    self.forward_unicast(ctx, header, payload);
                }
            }
        }
    }

    fn on_data_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        iface: IfaceId,
        header: &Header,
        payload: &[u8],
    ) {
        let now = ctx.now();
        if header.dst.is_multicast() {
            let Some(group) = Group::new(header.dst) else {
                return;
            };
            let Some(fwd) = header.decrement_ttl() else {
                return;
            };
            let from_host_lan = self.is_host_lan(iface);
            let acts = self.engine.on_multicast_data(
                now,
                iface,
                header.src,
                group,
                payload,
                from_host_lan,
                self.unicast.as_ref(),
            );
            self.handle_actions(ctx, acts, Some((payload, fwd.ttl)));
        } else if header.dst != self.engine.addr() && self.engine.relays_unicast() {
            self.forward_unicast(ctx, header, payload);
        }
    }
}

impl<P: ProtocolEngine + 'static> Node for ProtocolNode<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Before the first engine call; idempotent on restart, where
        // `reset` has kept the bit.
        self.engine.telem().set_enabled(ctx.telemetry_on());
        let outs = self.unicast.on_start(ctx.now());
        self.handle_unicast_outputs(ctx, outs);
        self.reschedule(ctx, ctx.now());
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
        let (header, payload) = match Header::decap(packet) {
            Ok(hp) => hp,
            Err(e) => {
                // Corrupt packets are dropped at the network layer; same
                // accounting as an undecodable IGMP-family payload.
                self.malformed_drops += 1;
                ctx.count_decode_failure(iface, e.kind());
                return;
            }
        };
        match header.proto {
            Protocol::Igmp => self.on_igmp_family(ctx, iface, &header, payload),
            Protocol::Data => self.on_data_packet(ctx, iface, &header, payload),
        }
        self.reschedule(ctx, ctx.now());
    }

    /// Crash with total state loss: the protocol engine, the unicast
    /// engine, and every IGMP querier forget their volatile state. The
    /// world has already cancelled our armed wakeup.
    fn on_crash(&mut self) {
        self.engine.reset();
        self.unicast.reset();
        let addr = self.engine.addr();
        for q in self.queriers.iter_mut().flatten() {
            *q = Querier::new(addr);
        }
        self.wakeup = None;
    }

    // on_restart: the default cold-boot via on_start is exactly right —
    // the unicast engine re-announces and the single wakeup is re-armed at
    // the earliest post-reset deadline (typically "immediately").

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_WAKE {
            return;
        }
        self.wakeup = None;
        let now = ctx.now();
        // Tick every engine; each gates internally on its own deadlines, so
        // a wakeup armed for one engine costs the others a cheap no-op.
        let outs = self.unicast.tick(now);
        self.handle_unicast_outputs(ctx, outs);
        for i in 0..self.queriers.len() {
            let Some(q) = &mut self.queriers[i] else {
                continue; // not a host LAN
            };
            let was_querier = q.is_querier();
            let outs = q.tick(now);
            let is_querier = q.is_querier();
            if was_querier != is_querier {
                ctx.emit(|| Event::QuerierChanged {
                    iface: i as u32,
                    is_querier,
                });
            }
            self.handle_querier_outputs(ctx, IfaceId(i as u32), outs);
        }
        let acts = self.engine.tick(now, self.unicast.as_ref());
        self.handle_actions(ctx, acts, None);
        self.reschedule(ctx, now + Duration(1));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{NodeIdx, World};
    use unicast::OracleRib;

    /// Forwards every multicast data packet out of every interface but
    /// the one it arrived on; no timers, and a control plane with a bug:
    /// it answers every control message with a `Forward`, though there
    /// is no data packet in hand to forward.
    struct Flood {
        addr: Addr,
        ifaces: u32,
        telem: Telem,
    }

    impl ProtocolEngine for Flood {
        fn addr(&self) -> Addr {
            self.addr
        }
        fn entry_count(&self) -> usize {
            0
        }
        fn on_control(
            &mut self,
            _: SimTime,
            iface: IfaceId,
            src: Addr,
            _: Addr,
            _: &Message,
            _: &dyn Rib,
        ) -> Vec<Action> {
            vec![Action::Forward {
                ifaces: vec![iface],
                source: src,
                group: Group::test(1),
            }]
        }
        fn on_multicast_data(
            &mut self,
            _now: SimTime,
            iface: IfaceId,
            source: Addr,
            group: Group,
            _payload: &[u8],
            _from_host_lan: bool,
            _rib: &dyn Rib,
        ) -> Vec<Action> {
            vec![Action::Forward {
                ifaces: (0..self.ifaces)
                    .map(IfaceId)
                    .filter(|&i| i != iface)
                    .collect(),
                source,
                group,
            }]
        }
        fn local_member_joined(
            &mut self,
            _: SimTime,
            _: Group,
            _: IfaceId,
            _: &dyn Rib,
        ) -> Vec<Action> {
            Vec::new()
        }
        fn local_member_left(&mut self, _: SimTime, _: Group, _: IfaceId) -> Vec<Action> {
            Vec::new()
        }
        fn host_lan_attached(&mut self, _: IfaceId, _: &[Addr]) -> u32 {
            0
        }
        fn reset(&mut self) {}
        fn tick(&mut self, _: SimTime, _: &dyn Rib) -> Vec<Action> {
            Vec::new()
        }
        fn next_deadline(&self) -> Option<SimTime> {
            None
        }
        fn telem(&mut self) -> &mut Telem {
            &mut self.telem
        }
        fn state_dump(&self, _: SimTime) -> String {
            String::new()
        }
    }

    /// Logs the address each received packet's bytes live at, and the
    /// bytes.
    #[derive(Default)]
    struct Tap {
        seen: Vec<(usize, Vec<u8>)>,
    }

    impl Node for Tap {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, packet: &[u8]) {
            self.seen.push((packet.as_ptr() as usize, packet.to_vec()));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A hop that forwards 1 KiB to three interfaces builds the outgoing
    /// packet once: the three receivers are handed the same buffer.
    #[test]
    fn a_forwarding_hop_builds_one_packet_whatever_its_fan_out() {
        let addr = Addr::new(10, 0, 0, 1);
        let mut world = World::new(3);
        let router = world.add_node(Box::new(ProtocolNode::new(
            Flood {
                addr,
                ifaces: 4,
                telem: Telem::default(),
            },
            Box::new(OracleRib::empty(addr)),
        )));
        let taps: Vec<NodeIdx> = (0..4)
            .map(|_| {
                let tap = world.add_node(Box::<Tap>::default());
                world.add_p2p(router, tap, Duration(2));
                tap
            })
            .collect();
        let header = Header {
            proto: Protocol::Data,
            ttl: 9,
            src: Addr::new(10, 0, 9, 9),
            dst: Group::test(1).addr(),
        };
        let payload = vec![0x5A; 1024];
        let sent = header.encap(&payload);
        let upstream = taps[0];
        world.at(SimTime(1), move |w| {
            w.call_node(upstream, |_, ctx| ctx.send(IfaceId(0), sent));
        });
        world.run_until(SimTime(10));

        assert!(world.node::<Tap>(upstream).seen.is_empty());
        let copies: Vec<&(usize, Vec<u8>)> = taps[1..]
            .iter()
            .map(|&t| {
                let seen = &world.node::<Tap>(t).seen;
                assert_eq!(seen.len(), 1);
                &seen[0]
            })
            .collect();
        let forwarded = header.decrement_ttl().expect("ttl 9").encap(&payload);
        assert!(copies.iter().all(|(_, bytes)| *bytes == forwarded));
        assert!(copies.iter().all(|(at, _)| *at == copies[0].0));
        assert_eq!(world.node::<ProtocolNode<Flood>>(router).data_forwards, 3);
    }

    /// An engine that asks to forward when no data packet is being
    /// handled costs the run one counted drop, not a panic.
    #[test]
    fn a_forward_with_no_packet_in_hand_is_counted_and_dropped() {
        let addr = Addr::new(10, 0, 0, 1);
        let mut world = World::new(3);
        let router = world.add_node(Box::new(ProtocolNode::new(
            Flood {
                addr,
                ifaces: 1,
                telem: Telem::default(),
            },
            Box::new(OracleRib::empty(addr)),
        )));
        let tap = world.add_node(Box::<Tap>::default());
        world.add_p2p(router, tap, Duration(2));
        let header = Header {
            proto: Protocol::Igmp,
            ttl: 1,
            src: Addr::new(10, 0, 9, 1),
            dst: Addr::ALL_PIM_ROUTERS,
        };
        let query = Message::PimQuery(wire::pim::Query { holdtime: 105 });
        let sent = header.encap(&query.encode());
        world.at(SimTime(1), move |w| {
            w.call_node(tap, |_, ctx| ctx.send(IfaceId(0), sent));
        });
        world.run_until(SimTime(10));

        let node = world.node::<ProtocolNode<Flood>>(router);
        assert_eq!((node.control_msgs, node.stray_forwards), (1, 1));
        assert_eq!(node.data_forwards, 0);
        assert!(world.node::<Tap>(tap).seen.is_empty());
    }
}
