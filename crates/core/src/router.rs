//! The [`netsim`] adapter: a PIM router node.
//!
//! [`PimRouter`] is the generic [`node::ProtocolNode`] instantiated with
//! the PIM [`Engine`]; this module only supplies the [`ProtocolEngine`]
//! glue — message dispatch and output conversion. The node itself owns all
//! IO, the per-LAN IGMP queriers, the interchangeable unicast engine
//! (protocol independence, paper §2), and the deadline-driven wakeup
//! scheduling.

use crate::engine::{Engine, Output};
use netsim::{IfaceId, SimTime};
use node::{Action, ProtocolEngine};
use unicast::Rib;
use wire::{Addr, Group, Message};

/// Data TTL used when (re)originating packets (decapsulated registers).
const DATA_TTL: u8 = 32;

/// A PIM-speaking router node for the simulator.
pub type PimRouter = node::ProtocolNode<Engine>;

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

impl ProtocolEngine for Engine {
    fn addr(&self) -> Addr {
        Engine::addr(self)
    }

    fn set_telemetry(&mut self, telem: telemetry::Telem) {
        Engine::set_telemetry(self, telem);
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
            Message::PimQuery(q) => actions(self.on_query(now, iface, src, q), DATA_TTL),
            Message::PimJoinPrune(jp) => {
                actions(self.on_join_prune(now, iface, src, jp, rib), DATA_TTL)
            }
            Message::PimRpReachability(r) => {
                actions(self.on_rp_reachability(now, iface, r), DATA_TTL)
            }
            Message::PimRegister(reg) => {
                if dst == Engine::addr(self) {
                    actions(self.on_register(now, reg, rib), DATA_TTL)
                } else {
                    // In transit toward the RP: ordinary unicast forwarding.
                    vec![Action::RelayUnicast]
                }
            }
            // DVMRP/CBT messages are other protocols' business; a PIM
            // router ignores them.
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
            self.on_data(now, iface, source, group, payload, rib)
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
            Engine::local_member_joined(self, now, group, iface, rib),
            DATA_TTL,
        )
    }

    fn local_member_left(&mut self, now: SimTime, group: Group, iface: IfaceId) -> Vec<Action> {
        actions(Engine::local_member_left(self, now, group, iface), DATA_TTL)
    }

    fn rp_mapping_learned(&mut self, group: Group, rps: &[Addr]) {
        // Static configuration wins over host advertisements.
        if self.rp_mapping(group).is_empty() {
            self.set_rp_mapping(group, rps.to_vec());
        }
    }

    fn host_lan_attached(&mut self, iface: IfaceId) -> u32 {
        // Host LANs are wired after the router-router backbone; grow the
        // engine's interface table to cover the new index.
        let mut grown = 0;
        while self.iface_count() <= iface.index() {
            self.add_iface();
            grown += 1;
        }
        self.set_host_lan(iface);
        grown
    }

    fn register_local_host(&mut self, host: Addr, iface: IfaceId) {
        Engine::register_local_host(self, host, iface);
    }

    fn on_route_change(&mut self, now: SimTime, dst: Addr, rib: &dyn Rib) -> Vec<Action> {
        actions(Engine::on_route_change(self, now, dst, rib), DATA_TTL)
    }

    fn reset(&mut self) {
        Engine::reset(self);
    }

    fn tick(&mut self, now: SimTime, rib: &dyn Rib) -> Vec<Action> {
        actions(Engine::tick(self, now, rib), DATA_TTL)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        Engine::next_deadline(self)
    }
}
