//! Building a protocol network a fault schedule can run against.
//!
//! The same topology + rendezvous-point assignment + host placement is
//! instantiated for any of the three protocols and any unicast substrate,
//! so the explorer can hold the schedule fixed and vary only the protocol
//! under test.

use crate::schedule::FaultSchedule;
use cbt::{CbtConfig, CbtEngine, CbtRouter};
use dvmrp::{DvmrpConfig, DvmrpEngine, DvmrpRouter};
use graph::{Graph, NodeId};
use igmp::{Endpoint, HostNode, PopulationNode};
use netsim::build::NodePlan;
use netsim::{
    host_addr, router_addr, Duration, IfaceId, IfaceSet, Node, NodeIdx, SimTime, Topology, World,
};
use pim::{Engine, PimConfig, PimRouter};
use telemetry::SharedSink;
use unicast::dv::{DvConfig, DvEngine};
use unicast::ls::{LsConfig, LsEngine};
use unicast::OracleRib;
use wire::{Addr, Group};

/// The multicast protocol under test.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Protocol {
    /// PIM sparse mode (the paper's architecture).
    #[default]
    Pim,
    /// DVMRP dense mode (broadcast-and-prune baseline).
    Dvmrp,
    /// Core-based trees (shared-tree baseline).
    Cbt,
}

impl Protocol {
    /// All three protocols, in canonical order.
    pub const ALL: [Protocol; 3] = [Protocol::Pim, Protocol::Dvmrp, Protocol::Cbt];

    /// Stable name used in replay artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Pim => "pim",
            Protocol::Dvmrp => "dvmrp",
            Protocol::Cbt => "cbt",
        }
    }

    /// Parse an artifact name back.
    pub fn from_name(s: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// The unicast substrate the routers run underneath the multicast engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Substrate {
    /// Static tables from global knowledge (deterministic, zero chatter —
    /// what the explorer uses for byte-identical trace comparison).
    #[default]
    Oracle,
    /// RIP-like distance vector.
    DistanceVector,
    /// OSPF-like link state.
    LinkState,
}

/// One router-router interface, as the oracles see it.
#[derive(Clone, Copy, Debug)]
pub struct IfacePeer {
    /// The interface id on this router.
    pub iface: IfaceId,
    /// The neighbor router's graph node.
    pub neighbor: NodeId,
    /// The neighbor router's address.
    pub neighbor_addr: Addr,
}

/// A built scenario network: world plus the side tables the oracle layer
/// needs to interpret router state.
pub struct ScenarioNet {
    /// The simulation world.
    pub world: World,
    /// `(world node, address)` of host slot `k`, in `host_routers` order.
    pub hosts: Vec<(NodeIdx, Addr)>,
    /// Which protocol the routers run.
    pub protocol: Protocol,
    /// The group all membership and data traffic targets.
    pub group: Group,
    /// Number of routers (world nodes `0..router_count` are routers).
    pub router_count: usize,
    /// The RP (PIM) / core (CBT) router. DVMRP has no rendezvous point.
    pub rendezvous: NodeId,
    /// The router each host slot sits behind.
    pub host_routers: Vec<NodeId>,
    /// Router-router interface map per router, indexed by graph node.
    pub peers: Vec<Vec<IfacePeer>>,
    /// Aggregate member population behind each host slot, in
    /// `host_routers` order. `1` = an explicit [`HostNode`] (the classic
    /// scenarios); `> 1` = a [`PopulationNode`] holding that many
    /// members behind one LAN.
    pub populations: Vec<u64>,
}

/// Everything the one network builder needs besides the router graph.
/// Every multicast router in the workspace is constructed by
/// [`NetSpec::build`], so all protocols and all harnesses (explorer,
/// benches, integration tests, examples) see the identical topology,
/// host placement, RIB aliasing and RNG streams for the same spec.
/// The default is PIM over oracle routing with the default engine
/// configuration and seed 0; `groups` must be filled in.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetSpec<'a> {
    /// The multicast protocol every router runs.
    pub protocol: Protocol,
    /// The unicast substrate underneath it.
    pub substrate: Substrate,
    /// Every group with its rendezvous routers: the RP list in preference
    /// order for PIM, the core (first entry) for CBT, unused by DVMRP.
    /// The first group is the one [`ScenarioNet`]'s group-less methods
    /// and the oracles target.
    pub groups: &'a [(Group, Vec<NodeId>)],
    /// One host slot behind each of these routers, in world-node order.
    pub host_routers: &'a [NodeId],
    /// Aggregate member population per host slot (see
    /// [`ScenarioNet::populations`]); empty means one explicit host in
    /// every slot.
    pub populations: &'a [u64],
    /// PIM engine configuration (ignored by the baselines).
    pub pim: PimConfig,
    /// World RNG seed.
    pub seed: u64,
}

/// Build a network of `protocol` routers over `g` with a host behind each
/// router in `host_routers`, the rendezvous point (RP or core) at
/// `rendezvous`, and the chosen unicast substrate.
pub fn build_net(
    g: &Graph,
    protocol: Protocol,
    substrate: Substrate,
    group: Group,
    rendezvous: NodeId,
    host_routers: &[NodeId],
    seed: u64,
) -> ScenarioNet {
    build_net_aggregate(
        g,
        protocol,
        substrate,
        group,
        rendezvous,
        host_routers,
        &[],
        seed,
    )
}

/// [`build_net`] with an aggregate member population per host slot:
/// slot `k` gets a [`PopulationNode`] holding `populations[k]` members
/// when that count exceeds one, and the classic explicit [`HostNode`]
/// otherwise — so a million-member scenario still attaches one world
/// node per LAN.
#[allow(clippy::too_many_arguments)]
pub fn build_net_aggregate(
    g: &Graph,
    protocol: Protocol,
    substrate: Substrate,
    group: Group,
    rendezvous: NodeId,
    host_routers: &[NodeId],
    populations: &[u64],
    seed: u64,
) -> ScenarioNet {
    NetSpec {
        protocol,
        substrate,
        groups: &[(group, vec![rendezvous])],
        host_routers,
        populations,
        seed,
        ..NetSpec::default()
    }
    .build(g)
}

impl NetSpec<'_> {
    /// Wire routers over `g` (p2p link `k` of the world is graph edge
    /// `k`), the unicast substrate and the host slots into a world:
    /// routers in graph order, then hosts in `host_routers` order.
    pub fn build(&self, g: &Graph) -> ScenarioNet {
        let &NetSpec {
            protocol,
            substrate,
            host_routers,
            pim,
            seed,
            ..
        } = self;
        let populations = if self.populations.is_empty() {
            vec![1; host_routers.len()]
        } else {
            self.populations.to_vec()
        };
        assert_eq!(
            populations.len(),
            host_routers.len(),
            "one population count per host slot"
        );
        let groups: Vec<(Group, Vec<Addr>)> = self
            .groups
            .iter()
            .map(|(grp, rdv)| (*grp, rdv.iter().map(|&n| router_addr(n)).collect()))
            .collect();
        assert!(
            self.groups.iter().all(|(_, rdv)| !rdv.is_empty()),
            "every group needs a rendezvous router"
        );
        let &(group, ref rdv) = self.groups.first().expect("a network needs a group");
        let rendezvous = rdv[0];
        let topo = Topology::from_graph(g);
        // A control message names its egress as an `IfaceSet`: refuse a
        // router too wide for one here, by name, not at its first send.
        let mut widths: Vec<usize> = topo.plans().iter().map(|p| p.ifaces.len()).collect();
        for n in host_routers {
            widths[n.index()] += 1;
        }
        for (plan, &width) in topo.plans().iter().zip(&widths) {
            IfaceSet::check_width(width).unwrap_or_else(|e| panic!("router {}: {e}", plan.addr));
        }

        // One unicast engine per plan, in plan order. The oracle's tables
        // (one shortest-path run per router) are the expensive part of
        // set-up; only the substrate that serves routes from them pays.
        let plans = topo.plans().iter();
        let unicasts: Vec<Box<dyn unicast::Engine>> = match substrate {
            Substrate::Oracle => OracleRib::for_all_with_hosts(g, &topo, host_routers)
                .into_iter()
                .map(|rib| Box::new(rib) as _)
                .collect(),
            Substrate::DistanceVector => plans
                .map(|plan| Box::new(DvEngine::new(plan, DvConfig::default())) as _)
                .collect(),
            Substrate::LinkState => plans
                .map(|plan| Box::new(LsEngine::new(plan, LsConfig::default())) as _)
                .collect(),
        };
        let make = |(plan, unicast): (&NodePlan, Box<dyn unicast::Engine>)| -> Box<dyn Node> {
            match protocol {
                Protocol::Pim => {
                    let mut r =
                        PimRouter::new(Engine::new(plan.addr, plan.ifaces.len(), pim), unicast);
                    for (grp, rps) in &groups {
                        r.engine_mut().set_rp_mapping(*grp, rps.clone());
                    }
                    Box::new(r)
                }
                Protocol::Dvmrp => Box::new(DvmrpRouter::new(
                    DvmrpEngine::new(plan.addr, plan.ifaces.len(), DvmrpConfig::default()),
                    unicast,
                )),
                Protocol::Cbt => {
                    let mut e = CbtEngine::new(plan.addr, CbtConfig::default());
                    for (grp, cores) in &groups {
                        e.set_core(*grp, cores[0]);
                    }
                    Box::new(CbtRouter::new(e, unicast))
                }
            }
        };
        let routers = topo.plans().iter().zip(unicasts).map(make);
        let (mut world, _links) = topo.build_world_from(g, seed, routers);

        let mut hosts = Vec::new();
        for (&n, &population) in host_routers.iter().zip(&populations) {
            let ha = host_addr(n, 0);
            let hi = if population > 1 {
                world.add_node(Box::new(PopulationNode::new(ha).sized(population)))
            } else {
                world.add_node(Box::new(HostNode::new(ha)))
            };
            let r = NodeIdx(n.index());
            let (_l, ifs) = world.add_lan(&[r, hi], Duration(1));
            match protocol {
                Protocol::Pim => world
                    .node_mut::<PimRouter>(r)
                    .attach_host_lan(ifs[0], &[ha]),
                Protocol::Dvmrp => world
                    .node_mut::<DvmrpRouter>(r)
                    .attach_host_lan(ifs[0], &[ha]),
                Protocol::Cbt => world
                    .node_mut::<CbtRouter>(r)
                    .attach_host_lan(ifs[0], &[ha]),
            }
            hosts.push((hi, ha));
        }

        let peers = topo
            .plans()
            .iter()
            .map(|p| {
                p.ifaces
                    .iter()
                    .map(|i| IfacePeer {
                        iface: i.iface,
                        neighbor: i.neighbor,
                        neighbor_addr: i.neighbor_addr,
                    })
                    .collect()
            })
            .collect();

        ScenarioNet {
            world,
            hosts,
            protocol,
            group,
            router_count: g.node_count(),
            rendezvous,
            host_routers: host_routers.to_vec(),
            peers,
            populations,
        }
    }
}

impl ScenarioNet {
    /// Schedule host slot `slot` to stream `count` data packets to the
    /// first group starting at `start`, `gap` ticks apart. Sequence
    /// numbers are consecutive from the host's own counter.
    pub fn send_at(&mut self, slot: usize, start: u64, count: u64, gap: u64) {
        self.send_group_at(slot, self.group, start, count, gap);
    }

    /// [`ScenarioNet::send_at`] to any of the network's groups.
    pub fn send_group_at(&mut self, slot: usize, group: Group, start: u64, count: u64, gap: u64) {
        let (host, _) = self.hosts[slot];
        for k in 0..count {
            self.world.at(SimTime(start + k * gap), move |w| {
                igmp::with_host(w, host, |h, ctx| h.send_data(ctx, group));
            });
        }
    }

    /// Schedule host slot `slot`'s members to join the first group at
    /// `at`: the slot's whole population for an aggregate slot, the
    /// single host otherwise.
    pub fn join_at(&mut self, slot: usize, at: u64) {
        self.join_group_at(slot, self.group, at);
    }

    /// [`ScenarioNet::join_at`] for any of the network's groups.
    pub fn join_group_at(&mut self, slot: usize, group: Group, at: u64) {
        let (host, _) = self.hosts[slot];
        self.world.at(SimTime(at), move |w| {
            igmp::with_host(w, host, |h, ctx| h.join(ctx, group));
        });
    }

    /// Schedule host slot `slot`'s entire membership to leave the first
    /// group at `at`.
    pub fn leave_at(&mut self, slot: usize, at: u64) {
        let (host, _) = self.hosts[slot];
        let group = self.group;
        self.world.at(SimTime(at), move |w| {
            igmp::with_host(w, host, |h, _ctx| h.leave(group));
        });
    }

    /// The host behind slot `slot`, for post-run inspection.
    pub fn host(&self, slot: usize) -> &dyn Endpoint {
        igmp::host(&self.world, self.hosts[slot].0)
    }

    /// Advance the world on `threads` workers. With `router_regions`
    /// (one region per router, e.g. `HierTopology::region_hints`) that
    /// assignment replaces the auto-partitioner's, every host inheriting
    /// its attachment router's region so no host LAN crosses a cut.
    /// Results are byte-identical for any value of either argument.
    pub fn parallelize(&mut self, threads: usize, router_regions: Option<&[u32]>) {
        self.world.parallelize(threads);
        if let Some(regions) = router_regions.filter(|_| threads > 1) {
            assert_eq!(regions.len(), self.router_count, "one region per router");
            let mut all = regions.to_vec();
            all.extend(self.host_routers.iter().map(|n| regions[n.index()]));
            self.world.set_partition(&all);
        }
    }

    /// The **flash-crowd** workload: `cycles` rounds of synchronized
    /// join/leave churn across every member slot (1..), each round
    /// `period` ticks long with joins staggered `stagger` ticks apart
    /// and the matching leaves half a period later, followed by one
    /// final join wave that stays. The near-simultaneous join waves are
    /// the control-plane overload the congestion oracles watch: every
    /// wave converges on the RP/core as a burst of joins (PIM/CBT) or
    /// grafts (DVMRP). Returns the time of the last scheduled join so
    /// callers can place probe traffic after the crowd has settled.
    pub fn flash_crowd(&mut self, start: u64, cycles: u64, period: u64, stagger: u64) -> u64 {
        let slots = self.hosts.len();
        for c in 0..cycles {
            let base = start + c * period;
            for k in 1..slots {
                let jt = base + (k as u64 - 1) * stagger;
                self.join_at(k, jt);
                self.leave_at(k, jt + period / 2);
            }
        }
        let base = start + cycles * period;
        let mut last = base;
        for k in 1..slots {
            let jt = base + (k as u64 - 1) * stagger;
            self.join_at(k, jt);
            last = last.max(jt);
        }
        last
    }

    /// The **elephant-senders** workload: every slot in `slots` streams
    /// `count` data packets `gap` ticks apart from `start` (staggered by
    /// one tick per sender so the streams interleave deterministically).
    /// Pointed at non-member slots under PIM, every stream's packets
    /// enter the register path and converge on the RP — the data-plane
    /// overload that makes a capped RP-side link queue and shed load.
    pub fn elephants(&mut self, slots: &[usize], start: u64, count: u64, gap: u64) {
        for (i, &s) in slots.iter().enumerate() {
            self.send_at(s, start + i as u64, count, gap);
        }
    }

    /// The sequence numbers host slot `slot` received from `source` on
    /// the first group.
    pub fn seqs(&self, slot: usize, source: Addr) -> Vec<u64> {
        self.host(slot).seqs_from(source, self.group)
    }

    /// Compile `schedule` onto this network's world (see
    /// [`FaultSchedule::install`]): its host slots are this net's, its
    /// membership events target this net's group.
    pub fn install(&mut self, schedule: &FaultSchedule) {
        let host_nodes: Vec<NodeIdx> = self.hosts.iter().map(|&(n, _)| n).collect();
        schedule.install(&mut self.world, &host_nodes, self.group);
    }

    /// Attach one structured-event sink to the whole network: the world's
    /// own telemetry (timers, injected fault markers) plus every node's,
    /// keyed by graph node index and gathered in per-region buffers so the
    /// stream stays canonical under any partition. Telemetry only observes
    /// — the packet trace is identical with or without a sink.
    pub fn attach_telemetry(&mut self, sink: SharedSink) {
        self.world.set_telemetry(sink);
    }

    /// Router `node`'s `show mroute`-style state snapshot at `now`
    /// (see [`telemetry::StateDump`]).
    pub fn state_dump(&self, node: usize, now: SimTime) -> String {
        let idx = NodeIdx(node);
        match self.protocol {
            Protocol::Pim => self.world.node::<PimRouter>(idx).state_dump(now),
            Protocol::Dvmrp => self.world.node::<DvmrpRouter>(idx).state_dump(now),
            Protocol::Cbt => self.world.node::<CbtRouter>(idx).state_dump(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A star whose hub has `spokes` router links.
    fn star(spokes: usize) -> Graph {
        let mut g = Graph::with_nodes(spokes + 1);
        for k in 1..=spokes {
            g.add_edge(NodeId(0), NodeId(k as u32), 1);
        }
        g
    }

    fn build(g: &Graph, host_routers: &[NodeId]) -> ScenarioNet {
        NetSpec {
            protocol: Protocol::Cbt,
            groups: &[(Group::test(1), vec![NodeId(1)])],
            host_routers,
            ..NetSpec::default()
        }
        .build(g)
    }

    /// A protocol's discriminant is its index in `Protocol::ALL`: callers
    /// index per-protocol tables and tag coverage with `protocol as usize`.
    #[test]
    fn protocol_discriminants_are_their_all_index() {
        for (i, p) in Protocol::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i, "{}", p.name());
        }
    }

    /// 63 links and a host LAN fill the interface mask exactly.
    #[test]
    fn a_64_interface_router_builds() {
        build(&star(63), &[NodeId(0)]);
    }

    /// One more is refused while the network is built, naming the router
    /// — for every protocol, not only the one whose engine counts its
    /// interfaces.
    #[test]
    #[should_panic(expected = "router 10.0.0.1: 65 interfaces do not fit an IfaceSet (64 at most)")]
    fn a_wider_router_is_refused_by_name_at_build_time() {
        build(&star(64), &[NodeId(0)]);
    }
}
