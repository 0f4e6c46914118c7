//! The [`netsim`] adapter for the CBT baseline.
//!
//! [`CbtRouter`] is the generic [`node::ProtocolNode`] instantiated with
//! [`CbtEngine`] — the same adapter PIM and DVMRP use. The engine already
//! speaks the node's [`Action`]s; this module is message dispatch.

use crate::engine::CbtEngine;
use netsim::{IfaceId, SimTime};
use node::{Action, ProtocolEngine};
use unicast::Rib;
use wire::{Addr, Group, Message};

/// A CBT router node.
pub type CbtRouter = node::ProtocolNode<CbtEngine>;

impl ProtocolEngine for CbtEngine {
    fn addr(&self) -> Addr {
        CbtEngine::addr(self)
    }

    fn telem(&mut self) -> &mut telemetry::Telem {
        &mut self.telem
    }

    fn on_control(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        dst: Addr,
        msg: &Message,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        match msg {
            Message::CbtJoinRequest(jr) => self.on_join_request(now, iface, src, jr, rib),
            Message::CbtJoinAck(ja) => self.on_join_ack(now, iface, src, ja),
            Message::CbtEcho(e) => self.on_echo(now, iface, src, e),
            Message::CbtEchoReply(er) => self.on_echo_reply(now, iface, src, er, rib),
            Message::CbtQuit(q) => self.on_quit(iface, src, q),
            Message::CbtFlushTree(f) => self.on_flush(now, iface, f, rib),
            Message::PimRegister(reg) => {
                // Senders unicast-encapsulate toward the core; decapsulate
                // when it is ours, relay when in transit.
                if dst == CbtEngine::addr(self) {
                    self.on_encapsulated(reg)
                } else {
                    vec![Action::RelayUnicast]
                }
            }
            _ => Vec::new(),
        }
    }

    fn on_multicast_data(
        &mut self,
        _now: SimTime,
        iface: IfaceId,
        source: Addr,
        group: Group,
        payload: &[u8],
        from_host_lan: bool,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        if from_host_lan {
            self.on_local_data(iface, source, group, payload, rib)
        } else {
            self.on_data(iface, source, group)
        }
    }

    fn local_member_joined(
        &mut self,
        now: SimTime,
        group: Group,
        iface: IfaceId,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        CbtEngine::local_member_joined(self, now, group, iface, rib)
    }

    fn local_member_left(&mut self, _now: SimTime, group: Group, iface: IfaceId) -> Vec<Action> {
        CbtEngine::local_member_left(self, group, iface)
    }

    fn host_lan_attached(&mut self, _iface: IfaceId) -> u32 {
        // CBT keeps no per-interface engine state; the unicast engine still
        // grows one interface per attached host LAN.
        1
    }

    fn register_local_host(&mut self, _host: Addr, _iface: IfaceId) {
        // A local sender's data is told by its host-LAN arrival
        // (`on_local_data`), not by its address.
    }

    // CBT re-derives paths on join retransmission; the default no-op
    // `on_route_change` stands.

    fn reset(&mut self) {
        CbtEngine::reset(self);
    }

    fn tick(&mut self, now: SimTime, rib: &dyn Rib) -> Vec<Action> {
        CbtEngine::tick(self, now, rib)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        CbtEngine::next_deadline(self)
    }
}
