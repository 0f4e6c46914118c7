//! Duplicate-delivery idempotence.
//!
//! The adversarial channel can duplicate any frame, so every control
//! message a router acts on must be safe to process twice. For each
//! protocol we run the same scenario twice — once delivering a set of
//! crafted control frames a single time, once delivering each frame
//! twice at the same instant (exactly what link-level duplication does)
//! — and require the `show mroute`-style state dumps of **every** router
//! to be byte-identical. A zero-copy control run pins down that the
//! frames really do create or refresh state, so the equality is not
//! vacuous.

use netsim::{host_addr, router_addr, IfaceId, NodeIdx, SimTime};
use scenario::{build_net, topologies, FaultEvent, FaultSchedule, Protocol, Substrate};
use wire::ip::{Header, Protocol as IpProto};
use wire::{cbt, dvmrp, igmp, pim, Group, Message};

const DUMP_AT: u64 = 1600;

/// One crafted control frame: deliver to router `r` on `iface` at `at`.
struct Injection {
    at: u64,
    r: usize,
    iface: IfaceId,
    frame: Vec<u8>,
}

/// Protocol-appropriate control frames, built against the diamond
/// topology's address plan: a Join/Prune (PIM), Prune + Graft (DVMRP),
/// Join-Request + Echo (CBT), and an IGMP Report for every protocol.
fn injections(net: &scenario::ScenarioNet, group: Group) -> Vec<Injection> {
    let topo = &topologies()[0];
    let rdv = topo.rendezvous.index();
    let encap = |src, dst, msg: Message| {
        Header {
            proto: IpProto::Igmp,
            ttl: 8,
            src,
            dst,
        }
        .encap(&msg.encode())
    };
    let mut out = Vec::new();

    match net.protocol {
        Protocol::Pim => {
            // A (*,G) join from the rendezvous point's first neighbor —
            // adds (or refreshes) a joined oif on the RP.
            let peer = net.peers[rdv][0];
            out.push(Injection {
                at: 1500,
                r: rdv,
                iface: peer.iface,
                frame: encap(
                    peer.neighbor_addr,
                    router_addr(topo.rendezvous),
                    Message::PimJoinPrune(pim::JoinPrune {
                        upstream_neighbor: router_addr(topo.rendezvous),
                        holdtime: 900,
                        groups: vec![pim::GroupEntry {
                            group,
                            joins: vec![pim::SourceEntry {
                                addr: router_addr(topo.rendezvous),
                                wildcard: true,
                                rp_bit: true,
                            }],
                            prunes: vec![],
                        }],
                    }),
                ),
            });
            // A Register for a new source at the RP — creates (S,G) state
            // and a triggered join toward the source.
            out.push(Injection {
                at: 1500,
                r: rdv,
                iface: net.peers[rdv][0].iface,
                frame: encap(
                    host_addr(topo.host_routers[1], 0),
                    router_addr(topo.rendezvous),
                    Message::PimRegister(pim::Register {
                        group,
                        source: host_addr(topo.host_routers[1], 0),
                        payload: 9999u64.to_be_bytes().to_vec(),
                    }),
                ),
            });
        }
        Protocol::Dvmrp => {
            // A prune for the live source from router 0's first neighbor —
            // re-creates the (S,G) entry and marks the iface pruned until
            // t2100 (visible at the dump instant).
            let peer = net.peers[0][0];
            out.push(Injection {
                at: 1500,
                r: 0,
                iface: peer.iface,
                frame: encap(
                    peer.neighbor_addr,
                    router_addr(topo.host_routers[0]),
                    Message::DvmrpPrune(dvmrp::Prune {
                        source: host_addr(topo.host_routers[0], 0),
                        group,
                        lifetime: 600,
                    }),
                ),
            });
            // A graft for an entry that does not exist: acked (twice, in
            // the duplicated run) but must leave no state behind.
            out.push(Injection {
                at: 1550,
                r: 0,
                iface: peer.iface,
                frame: encap(
                    peer.neighbor_addr,
                    router_addr(topo.host_routers[0]),
                    Message::DvmrpGraft(dvmrp::Graft {
                        source: host_addr(topo.host_routers[1], 0),
                        group,
                    }),
                ),
            });
        }
        Protocol::Cbt => {
            // A join-request at the core — adds a child edge and acks it;
            // the echo refreshes the child's liveness so it is still
            // present at the dump instant. Children are keyed by
            // (iface, source address), and the core's router neighbors are
            // already real children, so the forged child uses a host
            // address to actually create state rather than refresh it.
            let peer = net.peers[rdv][0];
            let forged = host_addr(topo.host_routers[0], 0);
            out.push(Injection {
                at: 1500,
                r: rdv,
                iface: peer.iface,
                frame: encap(
                    forged,
                    router_addr(topo.rendezvous),
                    Message::CbtJoinRequest(cbt::JoinRequest {
                        group,
                        core: router_addr(topo.rendezvous),
                        originator: forged,
                    }),
                ),
            });
            out.push(Injection {
                at: 1550,
                r: rdv,
                iface: peer.iface,
                frame: encap(
                    forged,
                    router_addr(topo.rendezvous),
                    Message::CbtEcho(cbt::Echo {
                        groups: vec![group],
                    }),
                ),
            });
        }
    }

    // Every protocol: an IGMP membership report on the host LAN behind
    // member router 1 (host-LAN iface follows the router-router ifaces).
    let r = topo.host_routers[1].index();
    out.push(Injection {
        at: 1500,
        r,
        iface: IfaceId(net.peers[r].len() as u32),
        frame: encap(
            host_addr(topo.host_routers[1], 0),
            group.addr(),
            Message::HostReport(igmp::HostReport { group }),
        ),
    });
    out
}

/// Run the diamond scenario delivering each crafted frame `copies`
/// times, and return every router's state dump at [`DUMP_AT`].
fn run(protocol: Protocol, copies: usize) -> Vec<String> {
    let topo = &topologies()[0];
    let group = Group::test(1);
    let mut net = build_net(
        &topo.graph,
        protocol,
        Substrate::Oracle,
        group,
        topo.rendezvous,
        &topo.host_routers,
        7,
    );
    let mut schedule = FaultSchedule::default();
    schedule.push(30, FaultEvent::Join(1));
    schedule.push(60, FaultEvent::Join(2));
    net.install(&schedule);
    net.send_at(0, 100, 10, 40);
    if protocol == Protocol::Pim {
        // Native data from the register's source, after the register: the
        // second register copy is indistinguishable from shortest-path
        // data on routers where the shared tree and the SPT share an
        // interface, so it can set the SPT bit one packet early. Real
        // data makes both runs converge to the same SPT state — the
        // duplicate may only accelerate convergence, never corrupt it.
        net.send_at(1, 1520, 2, 10);
    }

    for inj in injections(&net, group) {
        for _ in 0..copies {
            let (r, iface, frame) = (inj.r, inj.iface, inj.frame.clone());
            net.world.at(SimTime(inj.at), move |w| {
                w.call_node(NodeIdx(r), |n, ctx| n.on_packet(ctx, iface, &frame));
            });
        }
    }

    net.world.run_until(SimTime(DUMP_AT));
    (0..net.router_count)
        .map(|n| net.state_dump(n, SimTime(DUMP_AT)))
        .collect()
}

fn assert_idempotent(protocol: Protocol) {
    let baseline = run(protocol, 0);
    let once = run(protocol, 1);
    let twice = run(protocol, 2);
    assert_ne!(
        baseline,
        once,
        "{}: crafted control frames changed no state — the idempotence \
         check would be vacuous",
        protocol.name()
    );
    for (n, (a, b)) in once.iter().zip(&twice).enumerate() {
        assert_eq!(
            a,
            b,
            "{}: router {n} state diverged between single and duplicate \
             delivery",
            protocol.name()
        );
    }
}

#[test]
fn pim_duplicate_control_delivery_is_idempotent() {
    assert_idempotent(Protocol::Pim);
}

#[test]
fn dvmrp_duplicate_control_delivery_is_idempotent() {
    assert_idempotent(Protocol::Dvmrp);
}

#[test]
fn cbt_duplicate_control_delivery_is_idempotent() {
    assert_idempotent(Protocol::Cbt);
}
