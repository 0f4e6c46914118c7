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
use graph::algo::{Separators, Side, SpKernel};
use graph::{Graph, NodeId};
use netsim::build::{NodePlan, Topology};
use netsim::{host_addr, node_of_addr, router_addr, Duration, IfaceId, SimTime};
use std::collections::HashMap;
use std::sync::Arc;
use wire::{Addr, Message};

/// The route to one router, `(interface, metric)` in 8 bytes. The next hop
/// is the neighbour on that interface; [`NO_IFACE`] has none: no route.
type Slot = (u32, u32);

const NO_IFACE: u32 = u32::MAX;

const NO_ROUTE: Slot = (NO_IFACE, 0);

/// Where a router sits in its network's tables.
#[derive(Clone, Copy, Debug)]
enum Place {
    /// On the core, at this index of it.
    Core(u32),
    /// On an outermost side: a side under half the graph whose cut
    /// vertex, the router's anchor, is on the core.
    Side {
        /// The anchor's core index.
        anchor: u32,
        /// Which outermost side, numbered in preorder.
        side: u32,
        /// The router's index among the side's routers.
        rank: u32,
        /// The anchor's route to the router.
        from_anchor: Slot,
    },
}

/// What every table of a network shares: the routes between core
/// routers, the place of every router, and the host aliases.
///
/// The core is every router on no side under half the graph (without the
/// half rule, the search root's one child subtree would be a side holding
/// everything). Every other router lies on exactly one outermost side `S`
/// hung on a core anchor `a`, and every path from `S` to the rest of the
/// graph passes `a`.
#[derive(Debug, Default)]
struct Net {
    /// Per router, by node id.
    places: Vec<Place>,
    /// Number of core routers.
    cores: usize,
    /// `core[i * cores + j]`: core router `i`'s route to core router `j`.
    core: Vec<Slot>,
    /// Hosts routed like the router they sit behind.
    aliases: HashMap<Addr, NodeId>,
}

impl Net {
    /// Core router `c`'s route to the router at `to`: its own row on the
    /// core, `to`'s own entry on a side of `c`, else `c`'s route to `to`'s
    /// anchor extended by the anchor's metric to `to`.
    fn core_route(&self, c: u32, to: Place) -> Slot {
        let row = |j: u32| self.core[c as usize * self.cores + j as usize];
        match to {
            Place::Core(j) => row(j),
            Place::Side {
                anchor,
                from_anchor,
                ..
            } if anchor == c => from_anchor,
            Place::Side {
                anchor,
                from_anchor: (_, off),
                ..
            } => match row(anchor) {
                (NO_IFACE, _) => NO_ROUTE,
                (hop, metric) => (hop, metric + off),
            },
        }
    }
}

/// A routing table computed from global knowledge. One per router.
///
/// The tables of a network share one part (see
/// [`OracleRib::for_all_with_hosts`]): the core routers' routes to each
/// other, where every other router hangs, and the host aliases. A core
/// router owns no slots; a router off the core owns about as many as its
/// stub side has routers.
#[derive(Clone, Debug)]
pub struct OracleRib {
    local: Addr,
    /// The neighbour's address on each router-router interface.
    neighbors: Vec<Addr>,
    /// This router's place in `net`.
    at: Place,
    /// Off the core: routes to the routers of its outermost side, by
    /// rank, then to its anchor. Empty on the core.
    side: Vec<Slot>,
    /// The network's shared part; an [`OracleRib::empty`] table's has no
    /// routers.
    net: Arc<Net>,
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
    /// The tables are factored along the cut vertices [`Separators`]
    /// finds. The core routers (on no side under half the graph) share
    /// one core × core table, each row one kernel run confined to the
    /// core: a shortest path between two core routers never enters a
    /// side, since it would leave through the cut vertex it came in by.
    /// Every other router lies on one outermost side `S` of a core anchor
    /// `a`; it holds its routes over `S ∪ {a}` from a run confined there,
    /// and reaches everything beyond through `a`, at `d(x, a)` plus `a`'s
    /// metric. The anchor's route into `S`, from one run per side, serves
    /// every router outside `S`. So a lookup takes at most three reads,
    /// and a network's tables hold its core squared plus its sides, not
    /// n² slots. Every answer is the one a full run per router gives.
    ///
    /// # Panics
    /// As [`OracleRib::for_all`], naming the lowest-id router that has a
    /// path too long, as one full run per router in node order would.
    pub fn for_all_with_hosts(
        g: &Graph,
        topo: &Topology,
        host_routers: &[NodeId],
    ) -> Vec<OracleRib> {
        let n = g.node_count();
        let seps = Separators::new(g);
        let small = |s: &Side| 2 * s.len() < n;
        let on_core: Vec<bool> = g
            .nodes()
            .map(|x| !seps.side(x).is_some_and(|s| small(&s)))
            .collect();
        let core_nodes: Vec<NodeId> = g.nodes().filter(|x| on_core[x.index()]).collect();
        let cores = core_nodes.len();
        let mut places = vec![Place::Core(0); n];
        for (i, c) in core_nodes.iter().enumerate() {
            places[c.index()] = Place::Core(i as u32);
        }
        // An outermost side, met at its first router in preorder: the
        // side hung on a core cut vertex.
        let outermost: Vec<Side> = (seps.order().iter())
            .filter_map(|&x| {
                seps.side(x)
                    .filter(|s| small(s) && on_core[s.cut.index()] && seps.nodes(*s)[0] == x)
            })
            .collect();
        for (id, s) in outermost.iter().enumerate() {
            let Place::Core(anchor) = places[s.cut.index()] else {
                unreachable!("an outermost side hangs on the core")
            };
            for (rank, y) in seps.nodes(*s).iter().enumerate() {
                places[y.index()] = Place::Side {
                    anchor,
                    side: id as u32,
                    rank: rank as u32,
                    from_anchor: NO_ROUTE,
                };
            }
        }

        let mut runs = Runs {
            kernel: SpKernel::new(g),
            iface_on: vec![NO_IFACE; g.edge_count()],
        };
        // Each router's largest metric, summed in u64 from the parts it
        // reads; u64::MAX where a confined run met a path too long.
        let mut bound = vec![0u64; n];

        let mut core = vec![NO_ROUTE; cores * cores];
        let core_index = |v: NodeId| match places[v.index()] {
            Place::Core(i) => Some(i as usize),
            Place::Side { .. } => None,
        };
        for (&c, row) in core_nodes.iter().zip(core.chunks_mut(cores.max(1))) {
            bound[c.index()] = runs.fill(topo.plan(c), row, core_index);
        }

        // Per anchor (by core index), its farthest router on its sides.
        let mut reach = vec![0u64; cores];
        let mut sides: Vec<Vec<Slot>> = vec![Vec::new(); n];
        for (id, s) in outermost.iter().enumerate() {
            let (a, members) = (s.cut, seps.nodes(*s));
            let Place::Core(anchor) = places[a.index()] else {
                unreachable!("an outermost side hangs on the core")
            };
            let within = |v: NodeId| match places[v.index()] {
                _ if v == a => Some(members.len()),
                Place::Side { side, rank, .. } if side == id as u32 => Some(rank as usize),
                _ => None,
            };
            for &x in members {
                let mut slots = vec![NO_ROUTE; members.len() + 1];
                bound[x.index()] = runs.fill(topo.plan(x), &mut slots, within);
                sides[x.index()] = slots;
            }
            let mut from_anchor = vec![NO_ROUTE; members.len() + 1];
            let far = runs.fill(topo.plan(a), &mut from_anchor, within);
            reach[anchor as usize] = reach[anchor as usize].max(far);
            for (y, slot) in members.iter().zip(from_anchor) {
                if let Place::Side { from_anchor, .. } = &mut places[y.index()] {
                    *from_anchor = slot;
                }
            }
        }

        // A core router reads its row, then its anchors' sides; a side
        // router its own slots, then everything its anchor reads.
        for (i, (&c, row)) in core_nodes.iter().zip(core.chunks(cores.max(1))).enumerate() {
            let beyond = row.iter().zip(&reach).filter(|(s, _)| s.0 != NO_IFACE);
            let beyond = beyond.map(|(s, &r)| u64::from(s.1).saturating_add(r));
            let b = &mut bound[c.index()];
            *b = beyond.fold((*b).max(reach[i]), u64::max);
        }
        for s in &outermost {
            let beyond = bound[s.cut.index()];
            for x in seps.nodes(*s) {
                let up = u64::from(sides[x.index()].last().expect("the anchor's slot").1);
                bound[x.index()] = bound[x.index()].max(up.saturating_add(beyond));
            }
        }
        // A router whose metric may not fit runs in full; the lowest-id
        // one whose full run meets a path too long is the panic. A build
        // that does not panic has no such path, so every part is exact.
        for x in g.nodes().filter(|x| bound[x.index()] > u64::from(u32::MAX)) {
            if let Err(far) = runs.kernel.run_within(x, |_| true) {
                panic!("{far}");
            }
        }

        let aliases = host_routers.iter().map(|&n| (host_addr(n, 0), n)).collect();
        let net = Arc::new(Net {
            places,
            cores,
            core,
            aliases,
        });
        topo.plans()
            .iter()
            .zip(sides)
            .map(|(plan, side)| OracleRib {
                local: plan.addr,
                neighbors: plan.ifaces.iter().map(|p| p.neighbor_addr).collect(),
                at: net.places[plan.node.index()],
                side,
                net: Arc::clone(&net),
                extra: HashMap::new(),
            })
            .collect()
    }

    /// Create an empty RIB with just a local address (unit-test helper).
    pub fn empty(local: Addr) -> OracleRib {
        OracleRib {
            local,
            neighbors: Vec::new(),
            at: Place::Core(0),
            side: Vec::new(),
            net: Arc::default(),
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

    /// The computed route to `dst`: a router's own, a host's router's.
    fn computed(&self, dst: Addr) -> Option<RouteEntry> {
        let node = node_of_addr(dst).or_else(|| self.net.aliases.get(&dst).copied())?;
        let (iface, metric) = self.slot(node)?;
        let next_hop = *self.neighbors.get(iface as usize)?;
        Some(RouteEntry {
            iface: IfaceId(iface),
            next_hop,
            metric,
        })
    }

    /// The route to router `y`, [`NO_IFACE`] if none; `None` past the
    /// network's routers. A side router reads its own slot inside its
    /// side, else goes through its anchor.
    fn slot(&self, y: NodeId) -> Option<Slot> {
        let to = *self.net.places.get(y.index())?;
        Some(match self.at {
            Place::Core(c) => self.net.core_route(c, to),
            Place::Side { anchor, side, .. } => {
                let (hop, up) = *self.side.last().expect("the anchor's slot");
                match to {
                    Place::Side { side: s, rank, .. } if s == side => self.side[rank as usize],
                    Place::Core(c) if c == anchor => (hop, up),
                    _ => match self.net.core_route(anchor, to) {
                        (NO_IFACE, _) => NO_ROUTE,
                        (_, beyond) => (hop, up + beyond),
                    },
                }
            }
        })
    }
}

/// The kernel and the scratch array every confined run of a build reuses.
struct Runs {
    kernel: SpKernel,
    /// Edge → the root's interface on it. Only the root's own edges are
    /// read, and each run rewrites exactly those from the root's plan.
    iface_on: Vec<u32>,
}

impl Runs {
    /// Run the kernel from `plan`'s router, expanding only the nodes that
    /// `at` gives a slot, and fill node `v`'s route into `slots[at(v)]`.
    /// Returns the largest metric filled, or `u64::MAX` if the run met a
    /// path too long to key.
    ///
    /// A node leaves by its parent's interface, or by the parent edge
    /// itself right below the root; parents settle first, and only nodes
    /// with a slot are expanded, so every parent has one: one pass in
    /// settle order fills every slot.
    fn fill(
        &mut self,
        plan: &NodePlan,
        slots: &mut [Slot],
        at: impl Fn(NodeId) -> Option<usize>,
    ) -> u64 {
        for p in &plan.ifaces {
            self.iface_on[p.edge.index()] = p.iface.0;
        }
        let root = plan.node;
        let fits = self.kernel.run_within(root, |v| at(v).is_some()).is_ok();
        let mut farthest = 0;
        for s in self.kernel.settled() {
            let Some(i) = at(s.node) else {
                continue;
            };
            let iface = if s.parent == root {
                self.iface_on[s.edge.index()]
            } else {
                slots[at(s.parent).expect("a parent was expanded")].0
            };
            slots[i] = (iface, s.dist);
            farthest = farthest.max(u64::from(s.dist));
        }
        if fits {
            farthest
        } else {
            u64::MAX
        }
    }
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
        let routers = (0..self.net.places.len() as u32).map(|d| router_addr(NodeId(d)));
        let computed = routers.chain(self.net.aliases.keys().copied());
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
        // The core's square plus each side router's side of these are
        // nearly all of a network's tables.
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
        // too long, so n1's route through n2 is too, and n1, first in
        // node order, names its own n1 → n3.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(2), 1 << 31);
        g.add_edge(NodeId(0), NodeId(3), 1 << 31);
        g.add_edge(NodeId(2), NodeId(1), 1);
        OracleRib::for_all(&g, &Topology::from_graph(&g));
    }

    #[test]
    #[should_panic(expected = "shortest path from n4 to n6 has metric 4294967297, beyond u32::MAX")]
    fn a_metric_beyond_u32_from_stub_to_stub_through_the_core_is_refused() {
        // Core triangle {0, 1, 2}, every edge 1; the chain 0 – 3 – 4 and
        // the chain 2 – 5 – 6, every link 2³⁰. Each part fits: 4 → 0 and
        // 2 → 6 are 2³¹, 0 → 2 is 1. Only 4 ↔ 6 is too long.
        let mut g = Graph::with_nodes(7);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 1);
        g.add_edge(NodeId(0), NodeId(2), 1);
        g.add_edge(NodeId(0), NodeId(3), 1 << 30);
        g.add_edge(NodeId(3), NodeId(4), 1 << 30);
        g.add_edge(NodeId(2), NodeId(5), 1 << 30);
        g.add_edge(NodeId(5), NodeId(6), 1 << 30);
        OracleRib::for_all(&g, &Topology::from_graph(&g));
    }

    #[test]
    #[should_panic(expected = "shortest path from n0 to n2 has metric 4294967296, beyond u32::MAX")]
    fn a_metric_beyond_u32_inside_the_core_is_refused() {
        // The cycle 0 – 1 – 2 – 3 – 0 at 2³¹ a link, with pendants 4 on 2
        // and 5 on 0 at 1: opposite corners are 2³² apart.
        let mut g = Graph::with_nodes(6);
        for v in 0..4 {
            g.add_edge(NodeId(v), NodeId((v + 1) % 4), 1 << 31);
        }
        g.add_edge(NodeId(2), NodeId(4), 1);
        g.add_edge(NodeId(0), NodeId(5), 1);
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
