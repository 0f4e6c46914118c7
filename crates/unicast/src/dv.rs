//! A RIP-like distance-vector unicast routing engine.
//!
//! Classic Bellman-Ford with the standard loop mitigations:
//!
//! * **split horizon with poisoned reverse** — routes learned through an
//!   interface are advertised back out of it with infinity;
//! * **triggered updates** — metric changes are advertised immediately, not
//!   only at the next periodic update;
//! * **route timeout + garbage collection** — a route not refreshed within
//!   `route_timeout` is poisoned (advertised at infinity) and deleted after
//!   `gc_timeout` more.
//!
//! The engine is sans-IO: it receives parsed [`DvUpdate`]s and periodic
//! ticks, and returns [`Output`]s. DVMRP ("an extension to a RIP-like
//! distance-vector unicast protocol", paper §1.1) and PIM both consume it
//! through the [`Rib`] trait.

use crate::{route_changed, Engine, Output, Rib, RouteEntry};
use netsim::build::NodePlan;
use netsim::{Duration, IfaceId, SimTime};
use std::collections::HashMap;
use wire::unicast::{DvRoute, DvUpdate, INFINITY_METRIC};
use wire::{Addr, Message};

/// Tunables for [`DvEngine`]. Defaults follow RIP's 30/180/120-second
/// ratios, scaled to simulator ticks.
#[derive(Clone, Copy, Debug)]
pub struct DvConfig {
    /// Period between full-table advertisements.
    pub update_interval: Duration,
    /// A route unrefreshed for this long is poisoned.
    pub route_timeout: Duration,
    /// A poisoned route is deleted this long after poisoning.
    pub gc_timeout: Duration,
    /// Metrics at or above this are unreachable.
    pub infinity: u32,
}

impl Default for DvConfig {
    fn default() -> Self {
        DvConfig {
            update_interval: Duration(30),
            route_timeout: Duration(180),
            gc_timeout: Duration(120),
            infinity: 64 * 1024, // generous for delay-valued metrics
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct DvRouteState {
    metric: u32,
    iface: IfaceId,
    next_hop: Addr,
    /// When the route was last confirmed by an update (or created).
    refreshed_at: SimTime,
    /// Set when poisoned; the route is deleted at this time.
    gc_at: Option<SimTime>,
}

/// The distance-vector engine for one router.
pub struct DvEngine {
    cfg: DvConfig,
    local: Addr,
    /// Addresses this router originates (its own address plus directly
    /// attached hosts), advertised at metric 0.
    local_dests: Vec<Addr>,
    /// Interface output cost, indexed by `IfaceId`.
    iface_cost: Vec<u32>,
    table: HashMap<Addr, DvRouteState>,
    next_update: SimTime,
}

impl DvEngine {
    /// Create an engine for the router described by `plan`.
    pub fn new(plan: &NodePlan, cfg: DvConfig) -> DvEngine {
        DvEngine {
            cfg,
            local: plan.addr,
            local_dests: vec![plan.addr],
            iface_cost: plan.ifaces.iter().map(|p| p.metric.max(1)).collect(),
            table: HashMap::new(),
            next_update: SimTime::ZERO,
        }
    }

    /// Create an engine from raw parts (unit-test helper): local address
    /// and per-interface costs.
    pub fn from_parts(local: Addr, iface_cost: Vec<u32>, cfg: DvConfig) -> DvEngine {
        DvEngine {
            cfg,
            local,
            local_dests: vec![local],
            iface_cost,
            table: HashMap::new(),
            next_update: SimTime::ZERO,
        }
    }

    /// Additionally originate `addr` (e.g. a directly attached host).
    pub fn add_local_dest(&mut self, addr: Addr) {
        if !self.local_dests.contains(&addr) {
            self.local_dests.push(addr);
        }
    }

    /// Register a host-facing interface added after construction (cost
    /// applies if routes are ever learned through it; hosts don't speak DV,
    /// so this mainly keeps `iface_cost` index-aligned with the node's real
    /// interface list).
    pub fn add_iface(&mut self, cost: u32) {
        self.iface_cost.push(cost.max(1));
    }

    fn is_local(&self, dst: Addr) -> bool {
        self.local_dests.contains(&dst)
    }

    /// Build the update to send out `iface`, applying split horizon with
    /// poisoned reverse. Public for inspection in tests and tooling.
    pub fn update_for_iface(&self, iface: IfaceId) -> DvUpdate {
        let mut routes: Vec<DvRoute> = self
            .local_dests
            .iter()
            .map(|&dst| DvRoute { dst, metric: 0 })
            .collect();
        for (&dst, st) in &self.table {
            // Poisoned reverse: routes learned over `iface` go back as
            // unreachable, as do routes already at infinity.
            let metric = if st.iface == iface || st.metric >= self.cfg.infinity {
                INFINITY_METRIC
            } else {
                st.metric
            };
            routes.push(DvRoute { dst, metric });
        }
        routes.sort_by_key(|r| r.dst);
        DvUpdate { routes }
    }

    fn broadcast_updates(&self) -> Vec<Output> {
        (0..self.iface_cost.len())
            .map(|i| {
                let iface = IfaceId(i as u32);
                Output::Send {
                    iface,
                    dst: Addr::ALL_ROUTERS,
                    msg: Message::DvUpdate(self.update_for_iface(iface)),
                }
            })
            .collect()
    }

    fn entry(&self, dst: Addr) -> Option<RouteEntry> {
        self.table.get(&dst).and_then(|st| {
            (st.metric < self.cfg.infinity).then_some(RouteEntry {
                iface: st.iface,
                next_hop: st.next_hop,
                metric: st.metric,
            })
        })
    }

    fn process_update(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        from: Addr,
        update: &DvUpdate,
    ) -> Vec<Output> {
        let cost = self.iface_cost.get(iface.index()).copied().unwrap_or(1);
        let mut changed: Vec<Addr> = Vec::new();
        for r in &update.routes {
            if self.is_local(r.dst) {
                continue;
            }
            let new_metric = r.metric.saturating_add(cost).min(self.cfg.infinity);
            let old = self.entry(r.dst);
            match self.table.get_mut(&r.dst) {
                Some(st) if st.next_hop == from && st.iface == iface => {
                    // Update from the current next hop is authoritative,
                    // better or worse.
                    st.refreshed_at = now;
                    if new_metric != st.metric {
                        st.metric = new_metric;
                        st.gc_at =
                            (new_metric >= self.cfg.infinity).then(|| now + self.cfg.gc_timeout);
                    } else if new_metric < self.cfg.infinity {
                        st.gc_at = None;
                    }
                }
                Some(st) if new_metric < st.metric => {
                    *st = DvRouteState {
                        metric: new_metric,
                        iface,
                        next_hop: from,
                        refreshed_at: now,
                        gc_at: None,
                    };
                }
                Some(_) => {} // equal-or-worse via a different neighbor
                None if new_metric < self.cfg.infinity => {
                    self.table.insert(
                        r.dst,
                        DvRouteState {
                            metric: new_metric,
                            iface,
                            next_hop: from,
                            refreshed_at: now,
                            gc_at: None,
                        },
                    );
                }
                None => {}
            }
            if route_changed(old, self.entry(r.dst)) {
                changed.push(r.dst);
            }
        }
        let mut out: Vec<Output> = changed
            .iter()
            .map(|&dst| Output::RouteChanged { dst })
            .collect();
        if !changed.is_empty() {
            // Triggered update (undamped; the periodic refresh would repair
            // any burst anyway).
            out.extend(self.broadcast_updates());
        }
        out
    }
}

impl Rib for DvEngine {
    fn local_addr(&self) -> Addr {
        self.local
    }

    fn route(&self, dst: Addr) -> Option<RouteEntry> {
        if self.is_local(dst) {
            return None;
        }
        self.entry(dst)
    }
}

impl Engine for DvEngine {
    fn on_start(&mut self, now: SimTime) -> Vec<Output> {
        self.next_update = now + self.cfg.update_interval;
        self.broadcast_updates()
    }

    fn on_message(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        msg: &Message,
    ) -> Vec<Output> {
        match msg {
            Message::DvUpdate(u) => self.process_update(now, iface, src, u),
            _ => Vec::new(),
        }
    }

    fn tick(&mut self, now: SimTime) -> Vec<Output> {
        let mut changed = Vec::new();
        // Expire and garbage-collect.
        let mut to_delete = Vec::new();
        for (&dst, st) in self.table.iter_mut() {
            if st.metric < self.cfg.infinity && now.since(st.refreshed_at) >= self.cfg.route_timeout
            {
                st.metric = self.cfg.infinity;
                st.gc_at = Some(now + self.cfg.gc_timeout);
                changed.push(dst);
            }
            if let Some(gc) = st.gc_at {
                if now >= gc {
                    to_delete.push(dst);
                }
            }
        }
        for dst in to_delete {
            self.table.remove(&dst);
        }
        // `table` is hashed; the notifications below reach telemetry and
        // trigger joins, so they go out in address order.
        changed.sort_unstable();
        let mut out: Vec<Output> = changed
            .iter()
            .map(|&dst| Output::RouteChanged { dst })
            .collect();
        if now >= self.next_update || !changed.is_empty() {
            out.extend(self.broadcast_updates());
            if now >= self.next_update {
                self.next_update = now + self.cfg.update_interval;
            }
        }
        out
    }

    fn tick_interval(&self) -> Duration {
        self.cfg.update_interval
    }

    fn next_deadline(&self) -> Option<SimTime> {
        let mut best = Some(self.next_update);
        for st in self.table.values() {
            if st.metric < self.cfg.infinity {
                best = netsim::earliest(best, Some(st.refreshed_at + self.cfg.route_timeout));
            }
            best = netsim::earliest(best, st.gc_at);
        }
        best
    }

    fn table_size(&self) -> usize {
        self.table.len()
    }

    fn attach_local(&mut self, host: Addr, _cost: u32) {
        self.add_local_dest(host);
    }

    fn grow_iface(&mut self, cost: u32) {
        self.add_iface(cost);
    }

    fn reset(&mut self) {
        // Learned routes are volatile; local originations and interface
        // costs are configuration and survive. `on_start` after the restart
        // re-announces and re-arms the periodic update.
        self.table.clear();
        self.next_update = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DvConfig {
        DvConfig::default()
    }

    fn addr(n: u8) -> Addr {
        Addr::new(10, 0, n, 1)
    }

    fn update(routes: &[(Addr, u32)]) -> DvUpdate {
        DvUpdate {
            routes: routes
                .iter()
                .map(|&(dst, metric)| DvRoute { dst, metric })
                .collect(),
        }
    }

    /// Engine with two interfaces of cost 1 and 4.
    fn engine() -> DvEngine {
        DvEngine::from_parts(addr(0), vec![1, 4], cfg())
    }

    #[test]
    fn learns_routes_and_prefers_cheaper() {
        let mut e = engine();
        e.on_start(SimTime(0));
        // Neighbor B on iface 1 (cost 4) advertises X at 1.
        let out = e.on_message(
            SimTime(1),
            IfaceId(1),
            addr(2),
            &Message::DvUpdate(update(&[(addr(9), 1)])),
        );
        assert!(out.contains(&Output::RouteChanged { dst: addr(9) }));
        assert_eq!(e.route(addr(9)).unwrap().metric, 5);
        // Neighbor A on iface 0 (cost 1) advertises X at 2 → total 3, better.
        e.on_message(
            SimTime(2),
            IfaceId(0),
            addr(1),
            &Message::DvUpdate(update(&[(addr(9), 2)])),
        );
        let r = e.route(addr(9)).unwrap();
        assert_eq!(r.metric, 3);
        assert_eq!(r.iface, IfaceId(0));
        assert_eq!(r.next_hop, addr(1));
    }

    #[test]
    fn worse_metric_from_current_next_hop_is_believed() {
        let mut e = engine();
        e.on_message(
            SimTime(1),
            IfaceId(0),
            addr(1),
            &Message::DvUpdate(update(&[(addr(9), 2)])),
        );
        assert_eq!(e.route(addr(9)).unwrap().metric, 3);
        e.on_message(
            SimTime(2),
            IfaceId(0),
            addr(1),
            &Message::DvUpdate(update(&[(addr(9), 10)])),
        );
        assert_eq!(e.route(addr(9)).unwrap().metric, 11);
    }

    #[test]
    fn poisoned_route_from_next_hop_removes_reachability() {
        let mut e = engine();
        e.on_message(
            SimTime(1),
            IfaceId(0),
            addr(1),
            &Message::DvUpdate(update(&[(addr(9), 2)])),
        );
        let out = e.on_message(
            SimTime(2),
            IfaceId(0),
            addr(1),
            &Message::DvUpdate(update(&[(addr(9), INFINITY_METRIC)])),
        );
        assert!(e.route(addr(9)).is_none());
        assert!(out.contains(&Output::RouteChanged { dst: addr(9) }));
    }

    #[test]
    fn split_horizon_poisons_reverse() {
        let mut e = engine();
        e.on_message(
            SimTime(1),
            IfaceId(0),
            addr(1),
            &Message::DvUpdate(update(&[(addr(9), 2)])),
        );
        let back = e.update_for_iface(IfaceId(0));
        let r9 = back.routes.iter().find(|r| r.dst == addr(9)).unwrap();
        assert_eq!(r9.metric, INFINITY_METRIC);
        let side = e.update_for_iface(IfaceId(1));
        let r9 = side.routes.iter().find(|r| r.dst == addr(9)).unwrap();
        assert_eq!(r9.metric, 3);
    }

    #[test]
    fn advertises_local_dests_at_zero() {
        let mut e = engine();
        e.add_local_dest(Addr::new(10, 0, 0, 10));
        let u = e.update_for_iface(IfaceId(0));
        assert!(u.routes.iter().any(|r| r.dst == addr(0) && r.metric == 0));
        assert!(u
            .routes
            .iter()
            .any(|r| r.dst == Addr::new(10, 0, 0, 10) && r.metric == 0));
        // Local destinations have no route (they're us).
        assert!(e.route(Addr::new(10, 0, 0, 10)).is_none());
    }

    #[test]
    fn route_times_out_then_garbage_collected() {
        let mut e = engine();
        e.on_message(
            SimTime(0),
            IfaceId(0),
            addr(1),
            &Message::DvUpdate(update(&[(addr(9), 2)])),
        );
        // Not yet expired.
        let out = e.tick(SimTime(100));
        assert!(!out.iter().any(|o| matches!(o, Output::RouteChanged { .. })));
        assert!(e.route(addr(9)).is_some());
        // Past route_timeout: poisoned.
        let out = e.tick(SimTime(181));
        assert!(out.contains(&Output::RouteChanged { dst: addr(9) }));
        assert!(e.route(addr(9)).is_none());
        assert_eq!(e.table_size(), 1); // still present for poisoning
                                       // Past gc: gone entirely.
        e.tick(SimTime(181 + 121));
        assert_eq!(e.table_size(), 0);
    }

    #[test]
    fn refresh_prevents_timeout() {
        let mut e = engine();
        for t in [0u64, 100, 200, 300] {
            e.on_message(
                SimTime(t),
                IfaceId(0),
                addr(1),
                &Message::DvUpdate(update(&[(addr(9), 2)])),
            );
        }
        e.tick(SimTime(350));
        assert!(e.route(addr(9)).is_some());
    }

    #[test]
    fn triggered_update_on_change_only() {
        let mut e = engine();
        let out = e.on_message(
            SimTime(1),
            IfaceId(0),
            addr(1),
            &Message::DvUpdate(update(&[(addr(9), 2)])),
        );
        assert!(out.iter().any(|o| matches!(o, Output::Send { .. })));
        // Same update again: no change, no sends.
        let out = e.on_message(
            SimTime(2),
            IfaceId(0),
            addr(1),
            &Message::DvUpdate(update(&[(addr(9), 2)])),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn periodic_updates_on_schedule() {
        let mut e = engine();
        e.on_start(SimTime(0));
        assert!(e.tick(SimTime(10)).is_empty());
        let out = e.tick(SimTime(30));
        assert_eq!(
            out.iter()
                .filter(|o| matches!(o, Output::Send { .. }))
                .count(),
            2 // one per interface
        );
    }

    #[test]
    fn ignores_foreign_messages() {
        let mut e = engine();
        let out = e.on_message(
            SimTime(1),
            IfaceId(0),
            addr(1),
            &Message::PimQuery(wire::pim::Query { holdtime: 1 }),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn counting_to_infinity_is_bounded() {
        // Two engines pointing at each other for a dead destination
        // converge to unreachable rather than counting forever, because
        // metrics saturate at cfg.infinity.
        let mut e = DvEngine::from_parts(
            addr(0),
            vec![1, 4],
            DvConfig {
                infinity: 64,
                ..cfg()
            },
        );
        let mut m = 2u32;
        for step in 0..10_000 {
            e.on_message(
                SimTime(step),
                IfaceId(0),
                addr(1),
                &Message::DvUpdate(update(&[(addr(9), m)])),
            );
            let got = e.table.get(&addr(9)).unwrap().metric;
            m = got; // echoed back, simulating a 2-node loop
            if got >= e.cfg.infinity {
                break;
            }
        }
        assert!(e.route(addr(9)).is_none());
    }
}
