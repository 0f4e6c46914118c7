//! A simulated host site: IGMP membership on its attached subnetwork, data
//! transmission, and reception accounting, for one member or for a whole
//! aggregate population behind one LAN.
//!
//! Hosts never speak PIM — the paper's receiver/sender separation is
//! preserved: "the separation of senders and receivers allows any host —
//! member or non-member — to send to a group" (§1.1).

use crate::{Host, HostOutput};
use netsim::{Ctx, IfaceId, Node, NodeIdx, SimTime, TimerId, World};
use std::any::Any;
use wire::ip::{Header, Protocol};
use wire::{Addr, Group, Message};

const TOKEN_WAKE: u64 = 1;
const DATA_TTL: u8 = 32;

/// One received data packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Received {
    /// Arrival time.
    pub at: SimTime,
    /// Original source host.
    pub source: Addr,
    /// Group the packet was addressed to.
    pub group: Group,
    /// Sender-assigned sequence number.
    pub seq: u64,
}

/// A host site of one or more members. It has exactly one interface (0),
/// attached to its LAN, and answers from one address whatever its size:
/// the router on the LAN learns only whether a group has members.
pub struct HostNode {
    addr: Addr,
    igmp: Host,
    /// How many members "the whole slot" is: [`HostNode::join`] and
    /// [`HostNode::leave`] move this many at once.
    population: u64,
    /// Data packets received for joined groups, one entry per packet
    /// (weight = member count at arrival, summed in
    /// [`HostNode::member_receptions`]).
    pub received: Vec<Received>,
    member_receptions: u64,
    next_seq: u64,
    /// The single armed wakeup for a pending randomized report, if any.
    wakeup: Option<(SimTime, TimerId)>,
}

impl HostNode {
    /// New single-member host with the given address.
    pub fn new(addr: Addr) -> HostNode {
        HostNode {
            addr,
            igmp: Host::new(),
            population: 1,
            received: Vec::new(),
            member_receptions: 0,
            next_seq: 0,
            wakeup: None,
        }
    }

    /// Size the slot: an aggregate site of `population` members (at least
    /// one, as a slot always holds a host).
    pub fn sized(mut self, population: u64) -> HostNode {
        self.population = population.max(1);
        self
    }

    /// The host's address (source of its reports and data).
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Configure the RP mapping this host advertises when joining `group`
    /// (the paper's host RP-mapping message, §3.1 footnote 9).
    pub fn set_rp_mapping(&mut self, group: Group, rps: Vec<Addr>) {
        self.igmp.set_rp_mapping(group, rps);
    }

    /// The whole slot joins `group`: its member count becomes the slot's
    /// population and the unsolicited IGMP report goes out immediately.
    /// Call via [`with_host`] so outputs are transmitted.
    pub fn join(&mut self, ctx: &mut Ctx<'_>, group: Group) {
        let outs = self.igmp.join(group, self.population);
        self.emit(ctx, outs);
    }

    /// `n` more members join `group` (partial churn); any nonempty batch
    /// sends one unsolicited report, the only router-observable part of N
    /// simultaneous ones.
    pub fn join_members(&mut self, ctx: &mut Ctx<'_>, group: Group, n: u64) {
        if n == 0 {
            return;
        }
        let outs = self.igmp.join(group, self.igmp.members(group) + n);
        self.emit(ctx, outs);
    }

    /// Every member leaves `group` (silent in IGMPv1: the router's timer
    /// will lapse).
    pub fn leave(&mut self, group: Group) {
        self.igmp.leave(group, u64::MAX);
    }

    /// `n` members leave `group` (saturating), silently.
    pub fn leave_members(&mut self, group: Group, n: u64) {
        self.igmp.leave(group, n);
    }

    /// Current member count for `group`.
    pub fn members(&self, group: Group) -> u64 {
        self.igmp.members(group)
    }

    /// Total member-weighted data receptions (Σ over packets of the member
    /// count at arrival): every member's reception log length, summed.
    pub fn member_receptions(&self) -> u64 {
        self.member_receptions
    }

    /// Sequence numbers received from `source` for `group`, in arrival
    /// order.
    pub fn seqs_from(&self, source: Addr, group: Group) -> Vec<u64> {
        self.received
            .iter()
            .filter(|r| r.source == source && r.group == group)
            .map(|r| r.seq)
            .collect()
    }

    /// Send one data packet to `group`; returns the sequence number used.
    pub fn send_data(&mut self, ctx: &mut Ctx<'_>, group: Group) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let header = Header {
            proto: Protocol::Data,
            ttl: DATA_TTL,
            src: self.addr,
            dst: group.addr(),
        };
        ctx.send(IfaceId(0), header.encap(&seq.to_be_bytes()));
        seq
    }

    /// Drain the reception log, returning it without copying. For
    /// post-run inspection when the world is about to be dropped —
    /// cloning `received` there is pure waste.
    pub fn take_received(&mut self) -> Vec<Received> {
        std::mem::take(&mut self.received)
    }

    fn emit(&mut self, ctx: &mut Ctx<'_>, outs: Vec<HostOutput>) {
        for o in outs {
            match o {
                HostOutput::Send { dst, msg } => {
                    let header = Header {
                        proto: Protocol::Igmp,
                        ttl: 1,
                        src: self.addr,
                        dst,
                    };
                    ctx.send(IfaceId(0), header.encap(&msg.encode()));
                }
            }
        }
    }

    /// Arm one wakeup at the earliest pending report, or cancel it when
    /// the host goes idle. Hosts are quiescent between queries — no timer
    /// exists at all unless a randomized report is outstanding.
    fn reschedule(&mut self, ctx: &mut Ctx<'_>, floor: SimTime) {
        let Some(d) = self.igmp.next_deadline() else {
            if let Some((_, id)) = self.wakeup.take() {
                ctx.cancel_timer(id);
            }
            return;
        };
        let at = d.max(floor);
        if let Some((t, id)) = self.wakeup {
            if t == at {
                return;
            }
            ctx.cancel_timer(id);
        }
        let id = ctx.set_timer_at(at, TOKEN_WAKE);
        self.wakeup = Some((at, id));
    }
}

/// Run `f` on the host at `idx` with a live context: the
/// [`World::call_node`] dispatch every scripted join and send goes
/// through. `f`'s value (a send's sequence number) is dropped.
///
/// # Panics
/// Panics if the node at `idx` is not a [`HostNode`].
pub fn with_host<R>(
    world: &mut World,
    idx: NodeIdx,
    f: impl FnOnce(&mut HostNode, &mut Ctx<'_>) -> R,
) {
    world.call_node(idx, |n, ctx| {
        let host = n.as_any_mut().downcast_mut().expect("node is a host");
        f(host, ctx);
    });
}

impl Node for HostNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, packet: &[u8]) {
        let Ok((header, payload)) = Header::decap(packet) else {
            return;
        };
        match header.proto {
            Protocol::Igmp => {
                if let Ok(msg) = Message::decode(payload) {
                    let now = ctx.now();
                    let outs = self.igmp.on_message(now, &msg, ctx.rng());
                    self.emit(ctx, outs);
                    // A query may have scheduled a randomized report; a
                    // neighbor's report may have suppressed ours.
                    self.reschedule(ctx, now);
                }
            }
            Protocol::Data => {
                let Some(group) = Group::new(header.dst) else {
                    return;
                };
                if header.src == self.addr {
                    return; // our own transmission echoed on the LAN
                }
                let members = self.igmp.members(group);
                if members == 0 {
                    return;
                }
                let seq = payload
                    .get(..8)
                    .map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
                    .unwrap_or(u64::MAX);
                self.received.push(Received {
                    at: ctx.now(),
                    source: header.src,
                    group,
                    seq,
                });
                self.member_receptions += members;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_WAKE {
            return;
        }
        self.wakeup = None;
        let now = ctx.now();
        let outs = self.igmp.tick(now);
        self.emit(ctx, outs);
        self.reschedule(ctx, now + netsim::Duration(1));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
