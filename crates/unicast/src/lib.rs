//! Unicast routing substrates.
//!
//! The defining property of PIM is in its name: *Protocol Independent*
//! Multicast. The paper's requirement (§2): "the protocol should rely on
//! existing unicast routing functionality ... but at the same time be
//! independent of the particular protocol employed. We accomplish this by
//! letting the multicast protocol make use of the unicast routing tables,
//! independent of how those tables are computed."
//!
//! This crate enforces that independence with a trait boundary: the PIM
//! engine only ever sees [`Rib`] (route lookups) and is handed route-change
//! notifications; it cannot observe *how* routes were computed. Three
//! interchangeable engines are provided:
//!
//! * [`OracleRib`] — routes precomputed from the global topology; zero
//!   control traffic. Used for Monte-Carlo-scale experiments.
//! * [`dv::DvEngine`] — a RIP-like distance-vector protocol with split
//!   horizon, poisoned reverse, triggered updates, and route timeout /
//!   garbage collection.
//! * [`ls::LsEngine`] — an OSPF-like link-state protocol with per-interface
//!   hellos, sequence-numbered LSA flooding, and Dijkstra recomputation.
//!
//! The integration tests run the identical PIM scenario over all three and
//! assert the same distribution trees emerge.

#![warn(missing_docs)]

pub mod dv;
pub mod ls;
pub mod oracle;

pub use oracle::OracleRib;

use netsim::{IfaceId, SimTime};
use wire::{Addr, Message};

/// A resolved route to a destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteEntry {
    /// The interface to send out of.
    pub iface: IfaceId,
    /// The next-hop router's address ("the best next hop toward the new
    /// source", §3.3) — equal to the destination itself when directly
    /// connected.
    pub next_hop: Addr,
    /// Total metric to the destination.
    pub metric: u32,
}

/// Read-only routing-table interface — everything PIM is allowed to know
/// about unicast routing.
pub trait Rib {
    /// This router's own unicast address.
    fn local_addr(&self) -> Addr;

    /// Look up the route toward `dst`. `None` means unreachable, or `dst`
    /// is one of this router's own addresses.
    fn route(&self, dst: Addr) -> Option<RouteEntry>;

    /// The RPF interface for `src`: the interface this router would use to
    /// send unicast packets *to* `src`. Multicast packets from `src` are
    /// only accepted on this interface (the incoming-interface check the
    /// paper insists on for all multicast data packets, footnote 4).
    fn rpf_iface(&self, src: Addr) -> Option<IfaceId> {
        self.route(src).map(|r| r.iface)
    }
}

/// An action requested by a unicast routing engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output {
    /// Transmit `msg` out of `iface` with destination `dst` (TTL 1 —
    /// routing chatter is always link-local).
    Send {
        /// Interface to transmit on.
        iface: IfaceId,
        /// Destination address for the network header.
        dst: Addr,
        /// The routing message.
        msg: Message,
    },
    /// The route toward `dst` changed (next hop, interface, or
    /// reachability). PIM reacts per §3.8: update iifs, join on the new
    /// path, prune on the old.
    RouteChanged {
        /// The destination whose route changed.
        dst: Addr,
    },
}

/// A unicast routing engine: a [`Rib`] that also speaks a routing protocol.
///
/// Engines are sans-IO: the router adapter delivers parsed messages and
/// periodic ticks, and carries out the returned [`Output`]s.
pub trait Engine: Rib + Send {
    /// Called once at simulation start; typically emits initial
    /// hellos/updates.
    fn on_start(&mut self, now: SimTime) -> Vec<Output>;

    /// A routing message arrived on `iface` from `src`.
    fn on_message(&mut self, now: SimTime, iface: IfaceId, src: Addr, msg: &Message)
        -> Vec<Output>;

    /// Timer maintenance. The adapter calls this on each of its wakeups,
    /// which it schedules from [`Engine::next_deadline`], so a call may
    /// come before anything is due.
    fn tick(&mut self, now: SimTime) -> Vec<Output>;

    /// The absolute time of this engine's next pending timer event, if any.
    /// `None` means the engine is quiescent: no `tick` call is needed until
    /// new input arrives. Adapters schedule their wakeups from this instead
    /// of polling on a fixed granularity.
    fn next_deadline(&self) -> Option<SimTime>;

    /// Number of routing-table entries currently held (state-overhead
    /// metric).
    fn table_size(&self) -> usize;

    /// A directly attached host came up behind this router: originate
    /// reachability for it (DV advertises it at metric 0; LS adds a stub
    /// link). The oracle ignores this — its tables are precomputed.
    fn attach_local(&mut self, _host: Addr, _cost: u32) {}

    /// The router grew an interface after construction (host LANs are
    /// wired after the backbone). Keeps per-interface cost tables aligned.
    fn grow_iface(&mut self, _cost: u32) {}

    /// Crash with state loss: forget every learned route/adjacency while
    /// keeping static configuration (local address, interface costs,
    /// attached-host originations). The oracle's default is a no-op — its
    /// precomputed tables play the role of static config.
    fn reset(&mut self) {}
}

/// Compare two optional routes for "has the PIM-visible route changed"
/// purposes: interface or next hop differ, or reachability flipped. Metric
/// changes alone do not move multicast state.
pub(crate) fn route_changed(old: Option<RouteEntry>, new: Option<RouteEntry>) -> bool {
    match (old, new) {
        (None, None) => false,
        (Some(a), Some(b)) => a.iface != b.iface || a.next_hop != b.next_hop,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_changed_semantics() {
        let r = |iface, nh: u32| RouteEntry {
            iface: IfaceId(iface),
            next_hop: Addr(nh),
            metric: 1,
        };
        assert!(!route_changed(None, None));
        assert!(route_changed(None, Some(r(0, 1))));
        assert!(route_changed(Some(r(0, 1)), None));
        assert!(!route_changed(Some(r(0, 1)), Some(r(0, 1))));
        assert!(route_changed(Some(r(0, 1)), Some(r(1, 1))));
        assert!(route_changed(Some(r(0, 1)), Some(r(0, 2))));
        // Metric-only changes are not PIM-visible.
        let mut b = r(0, 1);
        b.metric = 99;
        assert!(!route_changed(Some(r(0, 1)), Some(b)));
    }
}
