//! End-to-end simulation of the full PIM scenario from the paper's
//! Figure 3/4/5 sequence, over the discrete-event simulator with real wire
//! encoding on every hop:
//!
//! 1. a receiver host joins via IGMP; its DR builds the (\*,G) tree to the
//!    RP (§3.1–3.2);
//! 2. a sender host transmits; its DR registers to the RP; the RP joins
//!    toward the source (§3);
//! 3. data reaches the receiver via the RP tree;
//! 4. the receiver's DR switches to the shortest-path tree, which diverges
//!    from the RP path (§3.3), prunes the source off the shared tree, and
//!    latency drops;
//! 5. delivery is continuous through the transition — no loss, no
//!    duplicates (§3.5's design goal).
//!
//! Topology (link delays in parens):
//!
//! ```text
//!   R ─ [n0] ──(1)── [n1] ──(1)── [n2=RP] ──(1)── [n3] ─ S
//!        └──────────────(2)───────────────────────┘
//! ```
//!
//! The direct n0–n3 link (delay 2) gives the SPT (S→n3→n0→R, delay 2+hosts)
//! a shorter path than the RP tree (S→n3→n2→n1→n0→R, delay 3+hosts).

use graph::{Graph, NodeId};
use netsim::{Duration, Node, NodeIdx, SimTime, Topology, World};
use pim::{Engine, HostNode, PimConfig, PimRouter, SptPolicy};
use unicast::OracleRib;
use wire::{Addr, Group};

const GROUP_ID: u32 = 7;

fn group() -> Group {
    Group::test(GROUP_ID)
}

struct Net {
    world: World,
    r_host: NodeIdx,
    s_host: NodeIdx,
    rp_addr: Addr,
    s_addr: Addr,
}

/// Build the 4-router diamond with a receiver behind n0 and a sender
/// behind n3; RP at n2.
fn build(cfg: PimConfig) -> Net {
    let mut g = Graph::with_nodes(4);
    g.add_edge(NodeId(0), NodeId(1), 1);
    g.add_edge(NodeId(1), NodeId(2), 1);
    g.add_edge(NodeId(2), NodeId(3), 1);
    g.add_edge(NodeId(0), NodeId(3), 2);
    let topo = Topology::from_graph(&g);
    let rp_addr = netsim::router_addr(NodeId(2));
    let r_addr = netsim::host_addr(NodeId(0), 0);
    let s_addr = netsim::host_addr(NodeId(3), 0);

    let ribs = OracleRib::for_all_with_hosts(&g, &topo, &[NodeId(0), NodeId(3)]);
    let routers = topo.plans().iter().zip(ribs).map(|(plan, rib)| {
        let engine = Engine::new(plan.addr, plan.ifaces.len(), cfg);
        let mut router = PimRouter::new(engine, Box::new(rib));
        router.engine_mut().set_rp_mapping(group(), vec![rp_addr]);
        Box::new(router) as Box<dyn Node>
    });
    let (mut world, _links) = topo.build_world_from(&g, 42, routers);

    // Attach the hosts on LANs.
    let r_host = world.add_node(Box::new(HostNode::new(r_addr)));
    let (_l, if_r) = world.add_lan(&[NodeIdx(0), r_host], Duration(1));
    world
        .node_mut::<PimRouter>(NodeIdx(0))
        .attach_host_lan(if_r[0], &[r_addr]);

    let s_host = world.add_node(Box::new(HostNode::new(s_addr)));
    let (_l, if_s) = world.add_lan(&[NodeIdx(3), s_host], Duration(1));
    world
        .node_mut::<PimRouter>(NodeIdx(3))
        .attach_host_lan(if_s[0], &[s_addr]);

    Net {
        world,
        r_host,
        s_host,
        rp_addr,
        s_addr,
    }
}

/// Receiver joins at t=20; sender transmits seq 0..n spaced `gap` apart
/// starting at t=200 (tree warm by then).
fn run_scenario(cfg: PimConfig, packets: u64, gap: u64) -> Net {
    let mut net = build(cfg);
    let rh = net.r_host;
    net.world.at(SimTime(20), move |w| {
        igmp::with_host(w, rh, |h, ctx| h.join(ctx, group()));
    });
    let sh = net.s_host;
    for k in 0..packets {
        net.world.at(SimTime(200 + k * gap), move |w| {
            igmp::with_host(w, sh, |h, ctx| h.send_data(ctx, group()));
        });
    }
    net.world.run_until(SimTime(200 + packets * gap + 400));
    net
}

#[test]
fn shared_tree_is_built_from_receiver_to_rp() {
    let mut net = build(PimConfig::default());
    let rh = net.r_host;
    net.world.at(SimTime(20), move |w| {
        igmp::with_host(w, rh, |h, ctx| h.join(ctx, group()));
    });
    net.world.run_until(SimTime(150));

    // (*,G) exists at n0, n1, n2 with the right shapes.
    for i in [0usize, 1, 2] {
        let r: &PimRouter = net.world.node(NodeIdx(i));
        let gs = r
            .engine()
            .group_state(group())
            .unwrap_or_else(|| panic!("router n{i} has no group state"));
        let star = gs.star.as_ref().unwrap_or_else(|| panic!("n{i}: no (*,G)"));
        assert!(star.wildcard && star.rp_bit, "n{i}");
        assert_eq!(star.key, net.rp_addr, "n{i}");
        if i == 2 {
            assert_eq!(star.iif, None, "the RP's iif is null");
        } else {
            assert!(star.iif.is_some(), "n{i}");
            assert!(!star.oifs_empty(), "n{i}");
        }
    }
    // n3 (not on the receiver→RP path) has no (*,G).
    let r3: &PimRouter = net.world.node(NodeIdx(3));
    assert!(
        r3.engine()
            .group_state(group())
            .is_none_or(|gs| gs.star.is_none()),
        "n3 must not hold shared-tree state"
    );
}

#[test]
fn data_flows_and_spt_switchover_happens() {
    let net = run_scenario(PimConfig::default(), 30, 20);
    let host = igmp::host(&net.world, net.r_host);
    let seqs = host.seqs_from(net.s_addr, group());

    // Continuous delivery: every packet exactly once, in order.
    assert!(!seqs.is_empty(), "receiver got nothing");
    let expect: Vec<u64> = (0..30).collect();
    assert_eq!(seqs, expect, "lossless, duplicate-free, ordered delivery");

    // The receiver's DR ended up on the SPT: (S,G) with SPT bit set, iif
    // on the direct n0–n3 link, and the source pruned off the shared tree.
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let gs = r0.engine().group_state(group()).expect("state at DR");
    let sg = gs.sources.get(&net.s_addr).expect("(S,G) at DR");
    assert!(sg.spt_bit, "SPT transition must complete");
    assert!(sg.pruned_from_shared, "source pruned off the RP tree");
    // The SPT iif differs from the shared-tree iif.
    assert_ne!(sg.iif, gs.star.as_ref().unwrap().iif);

    // Intermediate shared-tree routers hold negative caches for S.
    let r1: &PimRouter = net.world.node(NodeIdx(1));
    let neg = r1
        .engine()
        .group_state(group())
        .and_then(|gs| gs.sources.get(&net.s_addr).cloned())
        .expect("negative cache at n1");
    assert!(neg.is_negative());
}

#[test]
fn latency_drops_after_spt_switch() {
    let net = run_scenario(PimConfig::default(), 30, 20);
    let host = igmp::host(&net.world, net.r_host);
    let first = host
        .received()
        .iter()
        .find(|r| r.seq == 0)
        .expect("first packet");
    let last = host
        .received()
        .iter()
        .find(|r| r.seq == 29)
        .expect("last packet");
    // Send times: seq k at 200 + 20k. Latency = arrival - send.
    let lat_first = first.at.ticks() - 200;
    let lat_last = last.at.ticks() - (200 + 29 * 20);
    assert!(
        lat_last < lat_first,
        "SPT must beat the RP path: first={lat_first}t last={lat_last}t"
    );
    // Steady-state SPT latency: host→n3 (1) + n3→n0 (2) + n0→host (1) = 4.
    assert_eq!(lat_last, 4, "exact SPT path delay");
}

#[test]
fn shared_tree_only_policy_never_switches() {
    let net = run_scenario(PimConfig::shared_tree_only(), 20, 20);
    let host = igmp::host(&net.world, net.r_host);
    let seqs = host.seqs_from(net.s_addr, group());
    assert_eq!(seqs, (0..20).collect::<Vec<u64>>());
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let gs = r0.engine().group_state(group()).expect("state");
    assert!(
        gs.sources.is_empty(),
        "policy Never: no (S,G) state at the DR"
    );
    // Steady-state latency stays on the RP path: 1 + (1+1+1) + 1 = 5.
    let last = host.received().iter().find(|r| r.seq == 19).expect("last");
    assert_eq!(last.at.ticks() - (200 + 19 * 20), 5);
}

#[test]
fn after_packets_policy_switches_late() {
    let cfg = PimConfig {
        spt_policy: SptPolicy::AfterPackets {
            packets: 10,
            within: Duration(1000),
        },
        ..PimConfig::default()
    };
    let net = run_scenario(cfg, 30, 20);
    let host = igmp::host(&net.world, net.r_host);
    let seqs = host.seqs_from(net.s_addr, group());
    assert_eq!(
        seqs,
        (0..30).collect::<Vec<u64>>(),
        "no loss through the late switch"
    );
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let gs = r0.engine().group_state(group()).expect("state");
    assert!(
        gs.sources.get(&net.s_addr).is_some_and(|e| e.spt_bit),
        "switch must eventually happen"
    );
    // Early packets ride the RP path (latency 5), late ones the SPT (4).
    let early = host.received().iter().find(|r| r.seq == 0).expect("seq 0");
    let late = host
        .received()
        .iter()
        .find(|r| r.seq == 29)
        .expect("seq 29");
    assert_eq!(early.at.ticks() - 200, 5);
    assert_eq!(late.at.ticks() - (200 + 29 * 20), 4);
}

#[test]
fn sender_side_registers_drop_to_probe_rate() {
    // 30 packets, 20 ticks apart: a 600-tick stream. Once the RP's join
    // arrives, registers are bounded by the probe clock
    // (register_probe_interval = 120), not the packet rate.
    let net = run_scenario(PimConfig::default(), 30, 20);
    let r3: &PimRouter = net.world.node(NodeIdx(3));
    let sent = r3.engine().registers_sent;
    let probe_gap = PimConfig::default().register_probe_interval.ticks();
    let probe_bound = 1 + 600 / probe_gap + 1;
    assert!(sent >= 1, "at least the first packet registers");
    assert!(
        sent <= probe_bound,
        "native forwarding must cut registers to the probe rate \
         (sent {sent}, bound {probe_bound} for 30 packets)"
    );
    let rp: &PimRouter = net.world.node(NodeIdx(2));
    assert_eq!(rp.engine().registers_received, sent);
}

#[test]
fn membership_expires_after_receiver_leaves() {
    let mut net = build(PimConfig::default());
    let rh = net.r_host;
    net.world.at(SimTime(20), move |w| {
        igmp::with_host(w, rh, |h, ctx| h.join(ctx, group()));
    });
    // Leave silently at t=400 (IGMPv1): membership times out at the DR.
    net.world.at(SimTime(400), move |w| {
        igmp::host_mut(w, rh).leave(group());
    });
    net.world.run_until(SimTime(1500));
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let star_alive = r0
        .engine()
        .group_state(group())
        .and_then(|gs| gs.star.as_ref())
        .is_some_and(|s| s.has_local_members());
    assert!(
        !star_alive,
        "membership must lapse after the host stops reporting"
    );
    // Upstream state lapses too (soft state, §3.4).
    let r1: &PimRouter = net.world.node(NodeIdx(1));
    assert!(
        r1.engine()
            .group_state(group())
            .is_none_or(|gs| gs.star.is_none()),
        "n1's (*,G) must expire without refreshes"
    );
}

#[test]
fn no_data_reaches_nonmember_branches() {
    // Only links on the distribution path carry data packets: in sparse
    // mode nothing is broadcast (§3 "sparse mode multicast tries to
    // constrain the data distribution").
    let net = run_scenario(PimConfig::shared_tree_only(), 10, 20);
    // Link 3 is the direct n0–n3 edge: the shared tree never uses it.
    let counters = net.world.counters();
    // Edge order: (0-1)=0, (1-2)=1, (2-3)=2, (0-3)=3.
    let direct = counters.link(netsim::LinkId(3));
    assert_eq!(
        direct.data_pkts, 0,
        "shared-tree-only data must stay off the non-tree link"
    );
}
