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
use graph::algo::{Separators, SpKernel, TooFar};
use graph::{Graph, NodeId};
use netsim::build::Topology;
use netsim::{host_addr, node_of_addr, router_addr, Duration, IfaceId, SimTime};
use std::collections::HashMap;
use std::sync::Arc;
use wire::{Addr, Message};

/// The route to one router, `(interface, metric)` in 8 bytes. The next hop
/// is the neighbour on that interface; [`NO_IFACE`] has none: no route.
type Slot = (u32, u32);

const NO_IFACE: u32 = u32::MAX;

/// A routing table computed from global knowledge. One per router.
#[derive(Clone, Debug)]
pub struct OracleRib {
    local: Addr,
    /// The neighbour's address on each router-router interface.
    neighbors: Vec<Addr>,
    /// `slots[d]` routes to `router_addr(NodeId(d))`.
    slots: Vec<Slot>,
    /// Hosts routed like the router they sit behind; one map shared by
    /// every table of a network.
    aliases: Arc<HashMap<Addr, NodeId>>,
    /// Destinations registered by hand; they shadow everything above.
    extra: HashMap<Addr, RouteEntry>,
}

impl OracleRib {
    /// Build oracle RIBs for every router of `g` in node order: every
    /// other router's address is routed via the first hop of the shortest
    /// path to it (ties broken as [`graph::algo::dijkstra`] documents),
    /// out of the interface the topology plan gives that hop's edge.
    ///
    /// # Panics
    /// Panics if a path metric exceeds `u32::MAX` (see [`SpKernel::run`]).
    pub fn for_all(g: &Graph, topo: &Topology) -> Vec<OracleRib> {
        Self::for_all_with_hosts(g, topo, &[])
    }

    /// [`OracleRib::for_all`] for a network with one host (address
    /// `host_addr(n, 0)`) behind each router `n` of `host_routers`: every
    /// *other* router reaches that host the way it reaches `n` (`n` has
    /// no route to itself, so the alias is a no-op on its own table).
    ///
    /// Routers are visited in the preorder of [`Separators`]. A router `x`
    /// on a side `S` of a cut vertex `e`, `S` under half the graph, runs
    /// the kernel only within `S ∪ {e}` and takes everything beyond from
    /// `e`'s table, already built: every path out of `S` passes `e`, so
    /// such a route is `x`'s interface toward `e` at `d(x, e) + d(e, y)`.
    /// Every other router runs the kernel over the whole graph. Each table
    /// is filled in place; nothing quadratic but the tables is held.
    pub fn for_all_with_hosts(
        g: &Graph,
        topo: &Topology,
        host_routers: &[NodeId],
    ) -> Vec<OracleRib> {
        let aliases: HashMap<_, _> = host_routers.iter().map(|&n| (host_addr(n, 0), n)).collect();
        let aliases = Arc::new(aliases);
        let mut ribs: Vec<OracleRib> = topo
            .plans()
            .iter()
            .map(|plan| OracleRib {
                local: plan.addr,
                neighbors: plan.ifaces.iter().map(|p| p.neighbor_addr).collect(),
                slots: Vec::new(),
                aliases: Arc::clone(&aliases),
                extra: HashMap::new(),
            })
            .collect();
        let n = g.node_count();
        let seps = Separators::new(g);
        let mut kernel = SpKernel::new(g);
        // Edge → this router's interface on it. Only this router's own
        // edges are read, and its plan has just rewritten exactly those.
        let mut iface_on = vec![NO_IFACE; g.edge_count()];
        // A router whose full run meets a path too long for a metric
        // keeps an empty table, so the sides it cuts off run in full and
        // find theirs too; the lowest-id one's is the panic.
        let mut too_far: Option<TooFar> = None;
        for &x in seps.order() {
            let plan = topo.plan(x);
            for p in &plan.ifaces {
                iface_on[p.edge.index()] = p.iface.0;
            }
            let mut slots: Vec<Slot> = vec![(NO_IFACE, 0); n];
            // A side under half the graph, beyond a cut vertex with a table.
            let cut_off = seps
                .side(x)
                .filter(|side| 2 * side.len() < n && !ribs[side.cut.index()].slots.is_empty());
            let copied = cut_off.is_some_and(|side| {
                let within = |v: NodeId| v == side.cut || seps.holds(side, v);
                kernel.run_within(x, within).is_ok() && {
                    fill(&mut slots, &kernel, x, &iface_on);
                    let beyond = &ribs[side.cut.index()].slots;
                    copy_beyond(&mut slots, beyond, side.cut, within)
                }
            });
            if !copied {
                slots.fill((NO_IFACE, 0));
                match kernel.run_within(x, |_| true) {
                    Ok(()) => fill(&mut slots, &kernel, x, &iface_on),
                    Err(far) => {
                        too_far = too_far.filter(|t| t.source < x).or(Some(far));
                        continue;
                    }
                }
            }
            ribs[x.index()].slots = slots;
        }
        if let Some(far) = too_far {
            panic!("{far}");
        }
        ribs
    }

    /// Create an empty RIB with just a local address (unit-test helper).
    pub fn empty(local: Addr) -> OracleRib {
        OracleRib {
            local,
            neighbors: Vec::new(),
            slots: Vec::new(),
            aliases: Arc::default(),
            extra: HashMap::new(),
        }
    }

    /// Register an additional destination (e.g. a directly attached host of
    /// a *different* router, or a host behind this router registered on
    /// other routers' oracles).
    pub fn insert(&mut self, dst: Addr, entry: RouteEntry) {
        self.extra.insert(dst, entry);
    }

    /// Register `host` as reachable via the same route as `router` (hosts
    /// inherit their attachment router's path). No-op on the router itself.
    pub fn alias_host(&mut self, host: Addr, router: Addr) {
        if let Some(e) = self.route(router) {
            self.extra.insert(host, e);
        }
    }

    /// The computed route to `dst`: a router's own slot, a host's router's.
    fn computed(&self, dst: Addr) -> Option<RouteEntry> {
        let node = node_of_addr(dst).or_else(|| self.aliases.get(&dst).copied())?;
        let &(iface, metric) = self.slots.get(node.index())?;
        let next_hop = *self.neighbors.get(iface as usize)?;
        Some(RouteEntry {
            iface: IfaceId(iface),
            next_hop,
            metric,
        })
    }
}

/// Fill `slots` from the kernel's last run, rooted at `root`. A node
/// leaves by its parent's interface, or by the parent edge itself right
/// below the root; parents settle first, so one pass in settle order
/// fills every slot.
fn fill(slots: &mut [Slot], kernel: &SpKernel, root: NodeId, iface_on: &[u32]) {
    for s in kernel.settled() {
        let iface = if s.parent == root {
            iface_on[s.edge.index()]
        } else {
            slots[s.parent.index()].0
        };
        slots[s.node.index()] = (iface, s.dist);
    }
}

/// Route every destination outside `within` (a side and its cut vertex
/// `cut`) through `cut`: the interface toward `cut`, at the distance to it
/// plus `cut`'s metric, taken from `cut`'s table `beyond`. False, leaving
/// `slots` half written, if such a metric exceeds `u32::MAX`.
fn copy_beyond(
    slots: &mut [Slot],
    beyond: &[Slot],
    cut: NodeId,
    within: impl Fn(NodeId) -> bool,
) -> bool {
    let (hop, to_cut) = slots[cut.index()];
    for (y, (slot, &(iface, metric))) in slots.iter_mut().zip(beyond).enumerate() {
        if within(NodeId(y as u32)) {
            continue;
        }
        *slot = if iface == NO_IFACE {
            (NO_IFACE, 0)
        } else {
            match to_cut.checked_add(metric) {
                Some(d) => (hop, d),
                None => return false,
            }
        };
    }
    true
}

impl Rib for OracleRib {
    fn local_addr(&self) -> Addr {
        self.local
    }

    fn route(&self, dst: Addr) -> Option<RouteEntry> {
        (self.extra.get(&dst).copied()).or_else(|| self.computed(dst))
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
        // Computed destinations that resolve, by-hand ones that shadow none.
        let routers = (0..self.slots.len() as u32).map(|d| router_addr(NodeId(d)));
        let computed = routers.chain(self.aliases.keys().copied());
        let by_hand = self.extra.keys().copied();
        computed.filter(|&d| self.computed(d).is_some()).count()
            + by_hand.filter(|&d| self.computed(d).is_none()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_route_slot_is_eight_bytes() {
        // n² of these is the whole footprint of a network's tables.
        assert!(std::mem::size_of::<Slot>() <= 8);
    }

    #[test]
    #[should_panic(expected = "from n0 to n2 has metric 8589934590")]
    fn a_metric_beyond_u32_is_refused_not_truncated() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), u32::MAX as u64);
        g.add_edge(NodeId(1), NodeId(2), u32::MAX as u64);
        OracleRib::for_all(&g, &Topology::from_graph(&g));
    }

    #[test]
    #[should_panic(expected = "shortest path from n4 to n5 has metric 4294967297, beyond u32::MAX")]
    fn a_metric_beyond_u32_past_a_cut_vertex_names_the_first_router() {
        // Block {0, 1, 2, 3}, every member 1 from 3; n4 hangs off 3 at
        // u32::MAX − 1 and n5 off 0 at 2. Only n4 ↔ n5 is too long, and
        // each leaves its side through a cut vertex (3, 0). n5 is seen
        // first from 0, but n4 comes first in node order.
        let mut g = Graph::with_nodes(6);
        g.add_edge(NodeId(0), NodeId(5), 2);
        for v in 0..3 {
            g.add_edge(NodeId(v), NodeId(3), 1);
        }
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 1);
        g.add_edge(NodeId(3), NodeId(4), u32::MAX as u64 - 1);
        OracleRib::for_all(&g, &Topology::from_graph(&g));
    }

    #[test]
    #[should_panic(expected = "shortest path from n1 to n3 has metric 4294967297, beyond u32::MAX")]
    fn a_side_of_a_too_far_cut_vertex_finds_its_own_path() {
        // n1 hangs off n2, and n2 and n3 off n0 at 2³¹ each: n2 ↔ n3 is
        // too long, so n2 has no table to copy, and n1, first in node
        // order, must find its own n1 → n3 by a full run.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(2), 1 << 31);
        g.add_edge(NodeId(0), NodeId(3), 1 << 31);
        g.add_edge(NodeId(2), NodeId(1), 1);
        OracleRib::for_all(&g, &Topology::from_graph(&g));
    }

    #[test]
    fn engine_impl_is_silent() {
        let g = line();
        let topo = Topology::from_graph(&g);
        let mut rib = OracleRib::for_all(&g, &topo).swap_remove(0);
        assert!(rib.on_start(SimTime(0)).is_empty());
        assert!(rib.tick(SimTime(0)).is_empty());
        assert_eq!(rib.table_size(), 2);
    }
}
