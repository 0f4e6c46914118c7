//! §2 "Robustness" and §3.4 soft state: the protocol must "gracefully
//! adapt to routing changes", recover lost control messages at the next
//! periodic refresh, and survive RP failure.

use graph::{Graph, NodeId};
use integration_tests::diamond;
use netsim::{LinkId, NodeIdx, SimTime};
use pim::{PimConfig, PimRouter};
use scenario::{NetSpec, Substrate};
use wire::Group;

fn group() -> Group {
    Group::test(1)
}

/// Control-message loss: with 20% loss on every link, soft-state refresh
/// must still converge the tree and deliver steady-state data. (This is
/// the paper's footnote-4 argument for periodic refresh over explicit
/// acks: "lost packets will be recovered from at the next periodic
/// refresh time", §3.4.)
#[test]
fn soft_state_survives_control_loss() {
    let g = diamond();
    let mut net = NetSpec {
        groups: &[(group(), vec![NodeId(2)])],
        host_routers: &[NodeId(0), NodeId(3)],
        seed: 1234,
        ..NetSpec::default()
    }
    .build(&g);
    // Lossy control plane on the two tree links (router-router links are
    // LinkId 0..4 = graph edges).
    for l in 0..4 {
        net.world.set_link_loss(LinkId(l), 0.2);
    }
    let (_, s_addr) = net.hosts[1];
    net.join_at(0, 50);
    // A long steady stream; early packets may die to loss, but the tree
    // must hold and most packets arrive.
    net.send_at(1, 600, 60, 30);
    net.world.run_until(SimTime(3500));
    let got = net.seqs(0, s_addr);
    assert!(
        got.len() >= 40,
        "soft state must keep the tree alive through 20% loss; got {} of 60",
        got.len()
    );
    // The tree state itself must be intact at the end.
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    assert!(r0
        .engine()
        .group_state(group())
        .and_then(|gs| gs.star.as_ref())
        .is_some());
}

/// §3.8: a link on the distribution tree fails; unicast routing (DV)
/// reconverges; PIM joins on the new path and prunes the old, and data
/// keeps flowing.
#[test]
fn link_failure_reroutes_tree() {
    // 0 -- 1 -- 2(RP) with a backup path 0 -- 3 -- 2.
    let mut g = Graph::with_nodes(4);
    g.add_edge(NodeId(0), NodeId(1), 1); // e0 (primary)
    g.add_edge(NodeId(1), NodeId(2), 1); // e1
    g.add_edge(NodeId(0), NodeId(3), 2); // e2 (backup)
    g.add_edge(NodeId(3), NodeId(2), 2); // e3
    let mut net = NetSpec {
        substrate: Substrate::DistanceVector,
        groups: &[(group(), vec![NodeId(2)])],
        host_routers: &[NodeId(0), NodeId(2)],
        pim: PimConfig::shared_tree_only(),
        seed: 77,
        ..NetSpec::default()
    }
    .build(&g);
    let (_, s_addr) = net.hosts[1]; // sender sits at the RP's site
    net.join_at(0, 400);
    net.send_at(1, 500, 80, 40);
    // Cut the primary path mid-stream.
    net.world
        .at(SimTime(1000), |w| w.set_link_up(LinkId(0), false));
    net.world.run_until(SimTime(4200));

    let got = net.seqs(0, s_addr);
    // Pre-failure packets all arrive; post-reconvergence packets arrive;
    // only the DV detection window (route_timeout = 180) may lose some.
    let first_window: Vec<u64> = got.iter().copied().filter(|&s| s < 12).collect();
    assert_eq!(
        first_window,
        (0..12).collect::<Vec<u64>>(),
        "pre-failure loss"
    );
    let late: Vec<u64> = got.iter().copied().filter(|&s| s >= 40).collect();
    assert_eq!(
        late,
        (40..80).collect::<Vec<u64>>(),
        "post-reconvergence packets must all arrive over the backup path"
    );
    // The DR's (*,G) iif must now point at the backup interface (toward
    // node 3 — iface 1 of node 0).
    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let star_iif = r0
        .engine()
        .group_state(group())
        .and_then(|gs| gs.star.as_ref())
        .and_then(|s| s.iif);
    assert_eq!(
        star_iif,
        Some(netsim::IfaceId(1)),
        "§3.8 rerouting must have happened"
    );
}

/// Membership churn: members come and go; state follows (soft-state
/// expiry upstream), and a rejoining member resumes reception.
#[test]
fn membership_churn() {
    let g = diamond();
    let mut net = NetSpec {
        groups: &[(group(), vec![NodeId(2)])],
        host_routers: &[NodeId(0), NodeId(3)],
        pim: PimConfig::shared_tree_only(),
        seed: 5,
        ..NetSpec::default()
    }
    .build(&g);
    let (receiver, _) = net.hosts[0];
    let (_, s_addr) = net.hosts[1];
    net.join_at(0, 20);
    net.send_at(1, 100, 120, 30); // through t=3670
                                  // Leave at t=900 (silent), rejoin at t=2400.
    net.world.at(SimTime(900), move |w| {
        igmp::host_mut(w, receiver).leave(group());
    });
    net.join_at(0, 2400);
    net.world.run_until(SimTime(4400));

    let got = net.seqs(0, s_addr);
    // Early packets arrive (joined), then a gap (left; membership expires
    // after the IGMP timeout ≈ 280t), then reception resumes after the
    // rejoin.
    assert!(got.contains(&0), "joined phase must deliver");
    let gap_missing = (45u64..70).filter(|s| !got.contains(s)).count();
    assert!(
        gap_missing > 15,
        "after leaving, most packets in t≈[1450,2200] must NOT arrive (missing {gap_missing})"
    );
    let resumed: Vec<u64> = got.iter().copied().filter(|&s| s >= 85).collect();
    assert_eq!(
        resumed,
        (85..120).collect::<Vec<u64>>(),
        "after rejoining, delivery must fully resume"
    );
}

/// RP failure with an alternate (§3.9), driven through the public API
/// (this is the example scenario as a regression test, over DV).
#[test]
fn rp_failover_restores_shared_tree() {
    let mut g = Graph::with_nodes(5);
    g.add_edge(NodeId(0), NodeId(1), 1);
    g.add_edge(NodeId(1), NodeId(2), 1); // to RP#1
    g.add_edge(NodeId(1), NodeId(3), 1); // to RP#2
    g.add_edge(NodeId(3), NodeId(4), 1);
    g.add_edge(NodeId(2), NodeId(4), 1);
    let mut net = NetSpec {
        substrate: Substrate::DistanceVector,
        groups: &[(group(), vec![NodeId(2), NodeId(3)])],
        host_routers: &[NodeId(0), NodeId(4)],
        // Shared-tree only: the receiver must depend on the RP, so the
        // failover is load-bearing (with SPTs the receiver would dodge
        // the dead RP entirely).
        pim: PimConfig::shared_tree_only(),
        seed: 3,
        ..NetSpec::default()
    }
    .build(&g);
    let (_, s_addr) = net.hosts[1];
    net.join_at(0, 400);
    net.send_at(1, 500, 80, 40);
    net.world.at(SimTime(700), |w| {
        w.set_link_up(LinkId(1), false);
        w.set_link_up(LinkId(4), false);
    });
    net.world.run_until(SimTime(4200));

    let r0: &PimRouter = net.world.node(NodeIdx(0));
    let gs = r0.engine().group_state(group()).expect("state");
    assert_eq!(
        gs.star.as_ref().expect("star").key,
        netsim::router_addr(NodeId(3)),
        "must have failed over to RP#2"
    );
    let got = net.seqs(0, s_addr);
    let late: Vec<u64> = got.iter().copied().filter(|&s| s >= 60).collect();
    assert_eq!(
        late,
        (60..80).collect::<Vec<u64>>(),
        "delivery must fully resume through the alternate RP"
    );
}

/// The §3.9 failover is *observable*: a flight recorder attached to the
/// same scenario records the receiver-DR's `rp-failover` transition plus
/// the surrounding entry churn (the EXPERIMENTS.md OBS excerpt is this
/// test's recorder dump).
#[test]
fn rp_failover_appears_in_flight_recorder() {
    use std::sync::{Arc, Mutex};
    use telemetry::{FlightRecorder, SharedSink};

    let mut g = Graph::with_nodes(5);
    g.add_edge(NodeId(0), NodeId(1), 1);
    g.add_edge(NodeId(1), NodeId(2), 1); // to RP#1
    g.add_edge(NodeId(1), NodeId(3), 1); // to RP#2
    g.add_edge(NodeId(3), NodeId(4), 1);
    g.add_edge(NodeId(2), NodeId(4), 1);
    let mut net = NetSpec {
        substrate: Substrate::DistanceVector,
        groups: &[(group(), vec![NodeId(2), NodeId(3)])],
        host_routers: &[NodeId(0), NodeId(4)],
        pim: PimConfig::shared_tree_only(),
        seed: 3,
        ..NetSpec::default()
    }
    .build(&g);
    // Large ring: this run is long, and the excerpt of interest (the
    // failover at t≈1000) must survive 3000 ticks of steady-state
    // chatter that follows it.
    let rec = Arc::new(Mutex::new(FlightRecorder::new(8192)));
    let sink: SharedSink = rec.clone();
    net.world.set_telemetry(sink);
    net.join_at(0, 400);
    net.send_at(1, 500, 80, 40);
    net.world.at(SimTime(700), |w| {
        w.set_link_up(LinkId(1), false);
        w.set_link_up(LinkId(4), false);
    });
    net.world.run_until(SimTime(4200));

    // The receiver's DR (r0) must have recorded the failover from RP#1
    // (10.0.2.1) to RP#2 (10.0.3.1), and its (*,G) entry churn around it.
    let dump = rec.lock().unwrap().dump(0);
    let failover = dump
        .iter()
        .position(|l| l.contains("rp-failover group=239.1.0.1 from=10.0.2.1 to=10.0.3.1"))
        .expect("r0's flight recorder must contain the rp-failover event");
    assert!(
        dump[..failover]
            .iter()
            .any(|l| l.contains("entry-created (*,239.1.0.1)")),
        "the pre-failover (*,G) creation must precede the failover in the ring"
    );
    assert!(
        dump[failover..]
            .iter()
            .any(|l| l.contains("ctrl-send pim-join-prune")),
        "the failover must be followed by a join toward the new RP"
    );
}

/// §2 robustness, taken literally: the RP *router* crashes losing all of
/// its volatile state, then restarts. The source's DR must resume
/// registering (its periodic register probe covers the case where it was
/// already forwarding natively), the receivers' DRs must rebuild the
/// (*,G) shared tree at the restarted RP via their periodic refreshes,
/// and delivery must fully resume — no operator action, pure soft state.
fn rp_crash_and_restart(substrate: Substrate, seed: u64) {
    // 0 — 1 — 2(RP) — 3, receiver behind 0, sender behind 3.
    let mut g = Graph::with_nodes(4);
    g.add_edge(NodeId(0), NodeId(1), 1);
    g.add_edge(NodeId(1), NodeId(2), 1);
    g.add_edge(NodeId(2), NodeId(3), 1);
    let mut net = NetSpec {
        substrate,
        groups: &[(group(), vec![NodeId(2)])],
        host_routers: &[NodeId(0), NodeId(3)],
        // Shared-tree only: delivery genuinely depends on the RP holding
        // (*,G) and (S,G) state, so the rebuild is load-bearing.
        pim: PimConfig::shared_tree_only(),
        seed,
        ..NetSpec::default()
    }
    .build(&g);
    let (_, s_addr) = net.hosts[1];
    net.join_at(0, 50);
    net.send_at(1, 400, 120, 30); // through t=3970

    // Crash the RP mid-stream; its engine, unicast and IGMP state are
    // erased (NVRAM model: only static config survives). Restart shortly
    // after.
    net.world.at(SimTime(900), |w| w.crash_node(NodeIdx(2)));
    net.world.at(SimTime(1100), |w| w.restart_node(NodeIdx(2)));
    // The register counters are observability, not protocol state — they
    // survive the crash — so snapshot just before the restart to count
    // post-restart registers only.
    net.world.run_until(SimTime(1099));
    let regs_before = {
        let rp: &PimRouter = net.world.node(NodeIdx(2));
        rp.engine().registers_received
    };
    net.world.run_until(SimTime(4600));

    let rp: &PimRouter = net.world.node(NodeIdx(2));
    assert!(
        rp.engine().registers_received > regs_before,
        "registers must resume at the restarted RP"
    );
    let gs = rp
        .engine()
        .group_state(group())
        .expect("group state rebuilt");
    let star = gs.star.as_ref().expect("(*,G) rebuilt at the restarted RP");
    assert!(
        !star.oifs_empty(),
        "the rebuilt shared tree must have downstream receivers"
    );
    let got = net.seqs(0, s_addr);
    // Early packets arrive; the crash window loses some; after the RP is
    // back and soft state has refreshed, delivery must fully resume.
    assert!(got.contains(&0), "pre-crash delivery");
    let late: Vec<u64> = got.iter().copied().filter(|&s| s >= 80).collect();
    assert_eq!(
        late,
        (80..120).collect::<Vec<u64>>(),
        "delivery must fully resume after the RP restarts"
    );
}

#[test]
fn rp_crash_and_restart_over_distance_vector() {
    rp_crash_and_restart(Substrate::DistanceVector, 21);
}

#[test]
fn rp_crash_and_restart_over_link_state() {
    rp_crash_and_restart(Substrate::LinkState, 22);
}
