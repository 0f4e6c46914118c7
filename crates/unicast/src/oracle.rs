//! The oracle RIB: routes precomputed from global topology knowledge.
//!
//! For Monte-Carlo-scale protocol experiments (hundreds of topologies ×
//! hundreds of groups) running a live routing protocol per topology wastes
//! time the paper's own simulations did not spend — their tree study
//! assumed converged unicast routing. `OracleRib` provides exactly that:
//! per-router tables computed centrally with Dijkstra, plus zero control
//! traffic. It still implements [`Engine`], so protocol adapters are
//! generic over "real protocol vs oracle".

use crate::{Engine, Output, Rib, RouteEntry};
use graph::algo::AllPairs;
use graph::{Graph, NodeId};
use netsim::build::Topology;
use netsim::{host_addr, router_addr, Duration, IfaceId, SimTime};
use std::collections::HashMap;
use wire::{Addr, Message};

/// A routing table computed from global knowledge. One per router.
#[derive(Clone, Debug)]
pub struct OracleRib {
    local: Addr,
    table: HashMap<Addr, RouteEntry>,
}

impl OracleRib {
    /// Build the oracle table for router `me` from all-pairs shortest
    /// paths.
    ///
    /// Every other router's address is routed via the first hop of the
    /// shortest `me → dst` path; the outgoing interface comes from the
    /// topology plan.
    pub fn for_node(g: &Graph, topo: &Topology, ap: &AllPairs, me: NodeId) -> OracleRib {
        let plan = topo.plan(me);
        // Map each incident edge to its interface.
        let iface_of_edge: HashMap<usize, IfaceId> = plan
            .ifaces
            .iter()
            .map(|p| (p.edge.index(), p.iface))
            .collect();
        let sp = ap.from(me);
        let n = g.node_count();
        // First hop from `me` toward each destination, memoized over the
        // shortest-path tree: every node on a root-to-dst branch shares
        // the branch's first hop, so each tree node is walked once and
        // the whole table costs O(n) parent steps instead of
        // O(n · diameter).
        let mut first_hop: Vec<Option<(NodeId, graph::EdgeId)>> = vec![None; n];
        let mut chain: Vec<NodeId> = Vec::new();
        let mut table = HashMap::with_capacity(n.saturating_sub(1));
        for dst in g.nodes() {
            if dst == me {
                continue;
            }
            let Some(metric) = sp.dist_to(dst) else {
                continue;
            };
            if first_hop[dst.index()].is_none() {
                let mut cur = dst;
                let resolved = loop {
                    if let Some(hop) = first_hop[cur.index()] {
                        break hop;
                    }
                    let (parent, edge) = sp.parent_of(g, cur).expect("path must pass through me");
                    if parent == me {
                        break (cur, edge);
                    }
                    chain.push(cur);
                    cur = parent;
                };
                first_hop[cur.index()] = Some(resolved);
                for &v in &chain {
                    first_hop[v.index()] = Some(resolved);
                }
                chain.clear();
            }
            let (next_hop_node, edge) = first_hop[dst.index()].expect("resolved above");
            let iface = iface_of_edge[&edge.index()];
            table.insert(
                router_addr(dst),
                RouteEntry {
                    iface,
                    next_hop: router_addr(next_hop_node),
                    metric: metric as u32,
                },
            );
        }
        OracleRib {
            local: plan.addr,
            table,
        }
    }

    /// Build oracle RIBs for every router of `g` in node order.
    pub fn for_all(g: &Graph, topo: &Topology) -> Vec<OracleRib> {
        let ap = AllPairs::new(g);
        g.nodes().map(|n| Self::for_node(g, topo, &ap, n)).collect()
    }

    /// [`OracleRib::for_all`] for a network with one host (address
    /// `host_addr(n, 0)`) behind each router `n` of `host_routers`: every
    /// *other* router reaches that host the way it reaches `n` (`n` has
    /// no route to itself, so the alias is a no-op on its own table).
    pub fn for_all_with_hosts(
        g: &Graph,
        topo: &Topology,
        host_routers: &[NodeId],
    ) -> Vec<OracleRib> {
        let mut ribs = Self::for_all(g, topo);
        for &n in host_routers {
            let (host, router) = (host_addr(n, 0), router_addr(n));
            for rib in &mut ribs {
                rib.alias_host(host, router);
            }
        }
        ribs
    }

    /// Create an empty RIB with just a local address (unit-test helper).
    pub fn empty(local: Addr) -> OracleRib {
        OracleRib {
            local,
            table: HashMap::new(),
        }
    }

    /// Register an additional destination (e.g. a directly attached host of
    /// a *different* router, or a host behind this router registered on
    /// other routers' oracles).
    pub fn insert(&mut self, dst: Addr, entry: RouteEntry) {
        self.table.insert(dst, entry);
    }

    /// Register `host` as reachable via the same route as `router` (hosts
    /// inherit their attachment router's path). No-op on the router itself.
    pub fn alias_host(&mut self, host: Addr, router: Addr) {
        if let Some(&e) = self.table.get(&router) {
            self.table.insert(host, e);
        }
    }
}

impl Rib for OracleRib {
    fn local_addr(&self) -> Addr {
        self.local
    }

    fn route(&self, dst: Addr) -> Option<RouteEntry> {
        self.table.get(&dst).copied()
    }
}

impl Engine for OracleRib {
    fn on_start(&mut self, _now: SimTime) -> Vec<Output> {
        Vec::new()
    }

    fn on_message(
        &mut self,
        _now: SimTime,
        _iface: IfaceId,
        _src: Addr,
        _msg: &Message,
    ) -> Vec<Output> {
        Vec::new()
    }

    fn tick(&mut self, _now: SimTime) -> Vec<Output> {
        Vec::new()
    }

    fn tick_interval(&self) -> Duration {
        // Effectively never; the adapter skips scheduling at u64::MAX.
        Duration(u64::MAX)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        None // precomputed tables never need maintenance
    }

    fn table_size(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::algo::AllPairs;

    /// 0 --1-- 1 --1-- 2, plus a slow direct 0--2 edge of weight 5.
    fn line() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 1);
        g.add_edge(NodeId(0), NodeId(2), 5);
        g
    }

    #[test]
    fn routes_follow_shortest_paths() {
        let g = line();
        let topo = Topology::from_graph(&g);
        let ribs = OracleRib::for_all(&g, &topo);

        // Node 0 reaches node 2 via node 1 (cost 2), not the direct edge.
        let r = ribs[0].route(router_addr(NodeId(2))).unwrap();
        assert_eq!(r.next_hop, router_addr(NodeId(1)));
        assert_eq!(r.metric, 2);
        // Interface 0 of node 0 is the edge to node 1.
        assert_eq!(r.iface, IfaceId(0));

        // Node 1 reaches both ends directly.
        let r10 = ribs[1].route(router_addr(NodeId(0))).unwrap();
        assert_eq!(r10.next_hop, router_addr(NodeId(0)));
        assert_eq!(r10.metric, 1);
    }

    #[test]
    fn no_route_to_self() {
        let g = line();
        let topo = Topology::from_graph(&g);
        let ribs = OracleRib::for_all(&g, &topo);
        assert!(ribs[0].route(router_addr(NodeId(0))).is_none());
    }

    #[test]
    fn rpf_iface_matches_route() {
        let g = line();
        let topo = Topology::from_graph(&g);
        let ribs = OracleRib::for_all(&g, &topo);
        assert_eq!(
            ribs[2].rpf_iface(router_addr(NodeId(0))),
            Some(ribs[2].route(router_addr(NodeId(0))).unwrap().iface)
        );
    }

    #[test]
    fn host_aliasing() {
        let g = line();
        let topo = Topology::from_graph(&g);
        let mut ribs = OracleRib::for_all(&g, &topo);
        let host = Addr::new(10, 0, 2, 10);
        ribs[0].alias_host(host, router_addr(NodeId(2)));
        assert_eq!(ribs[0].route(host), ribs[0].route(router_addr(NodeId(2))));
        // Aliasing to an unknown router is a no-op.
        let mut empty = OracleRib::empty(Addr::new(10, 0, 0, 1));
        empty.alias_host(host, router_addr(NodeId(2)));
        assert!(empty.route(host).is_none());
    }

    #[test]
    fn engine_impl_is_silent() {
        let g = line();
        let topo = Topology::from_graph(&g);
        let ap = AllPairs::new(&g);
        let mut rib = OracleRib::for_node(&g, &topo, &ap, NodeId(0));
        assert!(rib.on_start(SimTime(0)).is_empty());
        assert!(rib.tick(SimTime(0)).is_empty());
        assert_eq!(rib.table_size(), 2);
    }
}
