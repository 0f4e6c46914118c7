//! The [`netsim`] adapter for the dense-mode baseline.
//!
//! [`DvmrpRouter`] is the generic [`node::ProtocolNode`] instantiated with
//! [`DvmrpEngine`] — the same adapter PIM and CBT use, so the overhead
//! experiments compare protocols, not adapters.

use crate::engine::DvmrpEngine;
use netsim::{IfaceId, SimTime};
use node::{Action, ProtocolEngine};
use unicast::Rib;
use wire::{Addr, Group, Message};

/// A dense-mode (DVMRP-style) router node.
pub type DvmrpRouter = node::ProtocolNode<DvmrpEngine>;

impl ProtocolEngine for DvmrpEngine {
    fn addr(&self) -> Addr {
        DvmrpEngine::addr(self)
    }

    fn telem(&mut self) -> &mut telemetry::Telem {
        &mut self.telem
    }

    fn on_control(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        _dst: Addr,
        msg: &Message,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        match msg {
            Message::DvmrpProbe(p) => {
                self.on_probe(now, iface, src, p);
                Vec::new()
            }
            Message::DvmrpPrune(p) => self.on_prune(now, iface, p),
            Message::DvmrpGraft(gr) => self.on_graft(now, iface, gr, rib),
            Message::DvmrpGraftAck(a) => {
                self.on_graft_ack(a);
                Vec::new()
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
        _payload: &[u8],
        _from_host_lan: bool,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        // Dense mode treats host and router arrivals alike: RPF-check and
        // broadcast-and-prune.
        self.on_data(now, iface, source, group, rib)
    }

    fn relays_unicast(&self) -> bool {
        false // dense mode drops non-multicast data
    }

    fn local_member_joined(
        &mut self,
        now: SimTime,
        group: Group,
        iface: IfaceId,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        DvmrpEngine::local_member_joined(self, now, group, iface, rib)
    }

    fn local_member_left(&mut self, _now: SimTime, group: Group, iface: IfaceId) -> Vec<Action> {
        DvmrpEngine::local_member_left(self, group, iface);
        Vec::new()
    }

    fn host_lan_attached(&mut self, iface: IfaceId) -> u32 {
        let mut grown = 0;
        while self.iface_count() <= iface.index() {
            self.add_iface();
            grown += 1;
        }
        self.set_host_lan(iface);
        grown
    }

    fn register_local_host(&mut self, host: Addr, iface: IfaceId) {
        DvmrpEngine::register_local_host(self, host, iface);
    }

    // Dense mode re-derives RPF lazily per packet; nothing to repair on
    // route changes — the default no-op `on_route_change` stands.

    fn reset(&mut self) {
        DvmrpEngine::reset(self);
    }

    fn tick(&mut self, now: SimTime, rib: &dyn Rib) -> Vec<Action> {
        DvmrpEngine::tick(self, now, rib)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        DvmrpEngine::next_deadline(self)
    }
}
