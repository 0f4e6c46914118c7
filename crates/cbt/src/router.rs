//! The [`netsim`] adapter for the CBT baseline.
//!
//! [`CbtRouter`] is the generic [`node::ProtocolNode`] instantiated with
//! [`CbtEngine`] — the same adapter PIM and DVMRP use.

use crate::engine::{CbtEngine, Output};
use netsim::{IfaceId, SimTime};
use node::{Action, ProtocolEngine};
use unicast::Rib;
use wire::{Addr, Group, Message};

/// Data TTL used when (re)originating packets (decapsulated registers).
const DATA_TTL: u8 = 32;

/// A CBT router node.
pub type CbtRouter = node::ProtocolNode<CbtEngine>;

/// Convert engine outputs into node actions, stamping `data_ttl` on data
/// forwards.
fn actions(outs: Vec<Output>, data_ttl: u8) -> Vec<Action> {
    outs.into_iter()
        .map(|o| match o {
            Output::Send {
                iface,
                dst,
                ttl,
                msg,
            } => Action::Control {
                iface,
                dst,
                ttl,
                msg,
            },
            Output::Forward {
                ifaces,
                source,
                group,
            } => Action::Forward {
                ifaces,
                source,
                group,
                ttl: data_ttl,
            },
            Output::ForwardDecapsulated {
                ifaces,
                source,
                group,
                payload,
            } => Action::ForwardDecapsulated {
                ifaces,
                source,
                group,
                ttl: data_ttl,
                payload,
            },
        })
        .collect()
}

impl ProtocolEngine for CbtEngine {
    fn addr(&self) -> Addr {
        CbtEngine::addr(self)
    }

    fn set_telemetry(&mut self, telem: telemetry::Telem) {
        CbtEngine::set_telemetry(self, telem);
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
            Message::CbtJoinRequest(jr) => {
                actions(self.on_join_request(now, iface, src, jr, rib), DATA_TTL)
            }
            Message::CbtJoinAck(ja) => actions(self.on_join_ack(now, iface, src, ja), DATA_TTL),
            Message::CbtEcho(e) => actions(self.on_echo(now, iface, src, e), DATA_TTL),
            Message::CbtEchoReply(er) => {
                actions(self.on_echo_reply(now, iface, src, er, rib), DATA_TTL)
            }
            Message::CbtQuit(q) => actions(self.on_quit(now, iface, src, q), DATA_TTL),
            Message::CbtFlushTree(f) => actions(self.on_flush(now, iface, f, rib), DATA_TTL),
            Message::PimRegister(reg) => {
                // Senders unicast-encapsulate toward the core; decapsulate
                // when it is ours, relay when in transit.
                if dst == CbtEngine::addr(self) {
                    actions(self.on_encapsulated(now, reg), DATA_TTL)
                } else {
                    vec![Action::RelayUnicast]
                }
            }
            _ => Vec::new(),
        }
    }

    fn on_multicast_data(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        source: Addr,
        group: Group,
        ttl: u8,
        payload: &[u8],
        from_host_lan: bool,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        let outs = if from_host_lan {
            self.on_local_data(now, iface, source, group, payload, rib)
        } else {
            self.on_data(now, iface, source, group)
        };
        actions(outs, ttl)
    }

    fn local_member_joined(
        &mut self,
        now: SimTime,
        group: Group,
        iface: IfaceId,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        actions(
            CbtEngine::local_member_joined(self, now, group, iface, rib),
            DATA_TTL,
        )
    }

    fn local_member_left(&mut self, now: SimTime, group: Group, iface: IfaceId) -> Vec<Action> {
        actions(
            CbtEngine::local_member_left(self, now, group, iface),
            DATA_TTL,
        )
    }

    fn host_lan_attached(&mut self, _iface: IfaceId) -> u32 {
        // CBT keeps no per-interface engine state; the unicast engine still
        // grows one interface per attached host LAN.
        1
    }

    fn register_local_host(&mut self, host: Addr, iface: IfaceId) {
        CbtEngine::register_local_host(self, host, iface);
    }

    // CBT re-derives paths on join retransmission; the default no-op
    // `on_route_change` stands.

    fn reset(&mut self) {
        CbtEngine::reset(self);
    }

    fn tick(&mut self, now: SimTime, rib: &dyn Rib) -> Vec<Action> {
        actions(CbtEngine::tick(self, now, rib), DATA_TTL)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        CbtEngine::next_deadline(self)
    }
}
