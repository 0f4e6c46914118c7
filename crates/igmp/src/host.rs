//! A simulated end host: IGMP membership on its attached subnetwork, data
//! transmission, and reception accounting.
//!
//! Hosts never speak PIM — the paper's receiver/sender separation is
//! preserved: "the separation of senders and receivers allows any host —
//! member or non-member — to send to a group" (§1.1).

use crate::{Host, HostOutput};
use netsim::{Ctx, IfaceId, Node, SimTime, TimerId};
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

/// A host node. It has exactly one interface (0), attached to its LAN.
pub struct HostNode {
    addr: Addr,
    igmp: Host,
    /// Data packets received for groups this host is a member of.
    pub received: Vec<Received>,
    next_seq: u64,
    /// The single armed wakeup for a pending randomized report, if any.
    wakeup: Option<(SimTime, TimerId)>,
}

impl HostNode {
    /// New host with the given address.
    pub fn new(addr: Addr) -> HostNode {
        HostNode {
            addr,
            igmp: Host::new(crate::Config::default()),
            received: Vec::new(),
            next_seq: 0,
            wakeup: None,
        }
    }

    /// The host's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Configure the RP mapping this host advertises when joining `group`
    /// (the paper's host RP-mapping message, §3.1 footnote 9).
    pub fn set_rp_mapping(&mut self, group: Group, rps: Vec<Addr>) {
        self.igmp.set_rp_mapping(group, rps);
    }

    /// Join `group` (unsolicited IGMP report goes out immediately). Call
    /// via `World::call_node` so outputs are transmitted.
    pub fn join(&mut self, ctx: &mut Ctx<'_>, group: Group) {
        let outs = self.igmp.join(group);
        self.emit(ctx, outs);
    }

    /// Leave `group` (silent in IGMPv1: the router's timer will lapse).
    pub fn leave(&mut self, group: Group) {
        self.igmp.leave(group);
    }

    /// Is this host currently a member of `group`?
    pub fn is_member(&self, group: Group) -> bool {
        self.igmp.is_member(group)
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
                if !self.igmp.is_member(group) {
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
