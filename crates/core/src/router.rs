//! The [`netsim`] adapter: a PIM router node.
//!
//! [`PimRouter`] is the generic [`node::ProtocolNode`] instantiated with
//! the PIM [`Engine`]; this module only supplies the [`ProtocolEngine`]
//! glue — message dispatch. The engine already speaks the node's
//! [`Action`]s. The node itself owns all IO, the per-LAN IGMP queriers,
//! the interchangeable unicast engine (protocol independence, paper §2),
//! and the deadline-driven wakeup scheduling.

use crate::engine::Engine;
use netsim::{IfaceId, SimTime};
use node::{Action, ProtocolEngine};
use unicast::Rib;
use wire::{Addr, Group, Message};

/// A PIM-speaking router node for the simulator.
pub type PimRouter = node::ProtocolNode<Engine>;

impl ProtocolEngine for Engine {
    fn addr(&self) -> Addr {
        Engine::addr(self)
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
            Message::PimQuery(q) => self.on_query(now, iface, src, q),
            Message::PimJoinPrune(jp) => self.on_join_prune(now, iface, src, jp, rib),
            Message::PimRpReachability(r) => self.on_rp_reachability(now, iface, r),
            Message::PimRegister(reg) => {
                if dst == Engine::addr(self) {
                    self.on_register(now, reg, rib)
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
        payload: &[u8],
        from_host_lan: bool,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        if from_host_lan {
            self.on_local_data(now, iface, source, group, payload, rib)
        } else {
            self.on_data(now, iface, source, group, payload, rib)
        }
    }

    fn local_member_joined(
        &mut self,
        now: SimTime,
        group: Group,
        iface: IfaceId,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        Engine::local_member_joined(self, now, group, iface, rib)
    }

    fn local_member_left(&mut self, now: SimTime, group: Group, iface: IfaceId) -> Vec<Action> {
        Engine::local_member_left(self, now, group, iface)
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
        Engine::on_route_change(self, now, dst, rib)
    }

    fn reset(&mut self) {
        Engine::reset(self);
    }

    fn tick(&mut self, now: SimTime, rib: &dyn Rib) -> Vec<Action> {
        Engine::tick(self, now, rib)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        Engine::next_deadline(self)
    }
}
