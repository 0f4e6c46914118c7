//! Human-readable packet tracing — the simulator's `tcpdump`.
//!
//! [`describe_packet`] renders any serialized packet (network header +
//! IGMP-family payload) as a one-line summary, decoding PIM/IGMP/DVMRP/CBT
//! semantics. Example scenarios and debugging sessions use it to narrate
//! what crossed a link ([`write_packet`] is the same renderer appending to
//! a line the caller has already started):
//!
//! ```
//! use netsim::trace::describe_packet;
//! use wire::ip::{Header, Protocol};
//! use wire::pim::{GroupEntry, JoinPrune, SourceEntry};
//! use wire::{Addr, Group, Message};
//!
//! let msg = Message::PimJoinPrune(JoinPrune {
//!     upstream_neighbor: Addr::new(10, 0, 0, 2),
//!     holdtime: 180,
//!     groups: vec![GroupEntry::join(
//!         Group::test(1),
//!         SourceEntry::shared_tree(Addr::new(10, 0, 0, 9)),
//!     )],
//! });
//! let pkt = Header {
//!     proto: Protocol::Igmp,
//!     ttl: 1,
//!     src: Addr::new(10, 0, 0, 1),
//!     dst: Addr::ALL_PIM_ROUTERS,
//! }
//! .encap(&msg.encode());
//! let line = describe_packet(&pkt);
//! assert!(line.contains("Join/Prune"));
//! assert!(line.contains("join={*,239.1.0.1}"));
//! ```

use std::fmt::{self, Write};
use wire::ip::{Header, Protocol};
use wire::pim::{GroupEntry, SourceEntry};
use wire::Message;

/// `join=` / `prune=` value: the picked entries of every group, comma
/// separated, `-` when there are none.
fn write_entries<W: Write>(
    out: &mut W,
    groups: &[GroupEntry],
    pick: impl Fn(&GroupEntry) -> &[SourceEntry],
) -> fmt::Result {
    let mut sep = "";
    for ge in groups {
        for e in pick(ge) {
            out.write_str(sep)?;
            sep = ",";
            if e.wildcard {
                write!(out, "{{*,{}}}", ge.group)?;
            } else if e.rp_bit {
                write!(out, "{{{},{}}}rpt", e.addr, ge.group)?;
            } else {
                write!(out, "{{{},{}}}", e.addr, ge.group)?;
            }
        }
    }
    if sep.is_empty() {
        out.write_str("-")?;
    }
    Ok(())
}

/// Render a serialized packet as a one-line human-readable summary.
/// Never panics: malformed packets render as `corrupt(...)`.
pub fn describe_packet(packet: &[u8]) -> String {
    let mut s = String::new();
    let _ = write_packet(&mut s, packet);
    s
}

/// [`describe_packet`], appended to `out`: the caller's line prefix and
/// the summary share one buffer. Fails only if `out` does.
pub fn write_packet<W: Write>(out: &mut W, packet: &[u8]) -> fmt::Result {
    let Ok((h, payload)) = Header::decap(packet) else {
        return write!(out, "corrupt({} bytes)", packet.len());
    };
    write!(out, "{} > {} ttl={} ", h.src, h.dst, h.ttl)?;
    let msg = match h.proto {
        Protocol::Data => return write!(out, "DATA {} bytes", payload.len()),
        Protocol::Igmp => match Message::decode(payload) {
            Err(e) => return write!(out, "IGMP-family corrupt: {e}"),
            Ok(msg) => msg,
        },
    };
    match msg {
        Message::HostQuery(q) => write!(out, "IGMP Query max_resp={}", q.max_resp_time),
        Message::HostReport(r) => write!(out, "IGMP Report group={}", r.group),
        Message::RpMapping(m) => {
            write!(out, "IGMP RP-Mapping group={}", m.group)?;
            write!(out, " rps={:?}", m.rps)
        }
        Message::PimQuery(q) => write!(out, "PIM Query holdtime={}", q.holdtime),
        Message::PimRegister(r) => write!(
            out,
            "PIM Register group={} source={} ({} data bytes)",
            r.group,
            r.source,
            r.payload.len()
        ),
        Message::PimJoinPrune(jp) => {
            write!(out, "PIM Join/Prune to={} join=", jp.upstream_neighbor)?;
            write_entries(out, &jp.groups, |ge| &ge.joins)?;
            out.write_str(" prune=")?;
            write_entries(out, &jp.groups, |ge| &ge.prunes)?;
            write!(out, " holdtime={}", jp.holdtime)
        }
        Message::PimRpReachability(r) => write!(
            out,
            "PIM RP-Reachability group={} rp={} holdtime={}",
            r.group, r.rp, r.holdtime
        ),
        Message::DvmrpProbe(p) => write!(out, "DVMRP Probe neighbors={}", p.neighbors.len()),
        Message::DvmrpPrune(p) => write!(
            out,
            "DVMRP Prune ({},{}) lifetime={}",
            p.source, p.group, p.lifetime
        ),
        Message::DvmrpGraft(g) => write!(out, "DVMRP Graft ({},{})", g.source, g.group),
        Message::DvmrpGraftAck(g) => {
            write!(out, "DVMRP Graft-Ack ({},{})", g.source, g.group)
        }
        Message::CbtJoinRequest(j) => write!(
            out,
            "CBT Join-Request group={} core={} origin={}",
            j.group, j.core, j.originator
        ),
        Message::CbtJoinAck(j) => write!(out, "CBT Join-Ack group={} core={}", j.group, j.core),
        Message::CbtEcho(e) => write!(out, "CBT Echo groups={}", e.groups.len()),
        Message::CbtEchoReply(e) => write!(out, "CBT Echo-Reply groups={}", e.groups.len()),
        Message::CbtQuit(q) => write!(out, "CBT Quit group={}", q.group),
        Message::CbtFlushTree(f) => write!(out, "CBT Flush-Tree group={}", f.group),
        Message::DvUpdate(u) => write!(out, "DV Update routes={}", u.routes.len()),
        Message::Lsa(l) => write!(
            out,
            "LSA origin={} seq={} links={}",
            l.origin,
            l.seq,
            l.links.len()
        ),
        Message::Hello(hh) => write!(out, "Hello holdtime={}", hh.holdtime),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::pim::{GroupEntry, JoinPrune, Register, SourceEntry};
    use wire::{Addr, Group};

    fn wrap(msg: &Message) -> Vec<u8> {
        Header {
            proto: Protocol::Igmp,
            ttl: 1,
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::ALL_PIM_ROUTERS,
        }
        .encap(&msg.encode())
    }

    /// Every [`Message`] variant has a render path here; this table
    /// pins each one (the compiler's exhaustiveness check on
    /// `all_variants` keeps the table honest when variants are added).
    #[test]
    fn every_message_variant_renders() {
        use wire::{cbt, dvmrp, igmp, pim, unicast};

        let g = Group::test(3);
        let a = Addr::new(10, 0, 0, 7);
        let b = Addr::new(10, 0, 0, 9);
        let all_variants: Vec<(Message, &[&str])> = vec![
            (
                Message::HostQuery(igmp::HostQuery { max_resp_time: 10 }),
                &["IGMP Query max_resp=10"],
            ),
            (
                Message::HostReport(igmp::HostReport { group: g }),
                &["IGMP Report group=239.1.0.3"],
            ),
            (
                Message::RpMapping(igmp::RpMapping {
                    group: g,
                    rps: vec![a, b],
                }),
                &[
                    "IGMP RP-Mapping group=239.1.0.3",
                    "rps=[10.0.0.7, 10.0.0.9]",
                ],
            ),
            (
                Message::PimQuery(pim::Query { holdtime: 105 }),
                &["PIM Query holdtime=105"],
            ),
            (
                Message::PimRegister(pim::Register {
                    group: g,
                    source: a,
                    payload: vec![0; 32],
                }),
                &[
                    "PIM Register group=239.1.0.3 source=10.0.0.7",
                    "32 data bytes",
                ],
            ),
            (
                Message::PimJoinPrune(pim::JoinPrune {
                    upstream_neighbor: b,
                    holdtime: 180,
                    groups: vec![pim::GroupEntry {
                        group: g,
                        joins: vec![pim::SourceEntry::shared_tree(a)],
                        prunes: vec![pim::SourceEntry::source_on_rp_tree(a)],
                    }],
                }),
                &[
                    "PIM Join/Prune to=10.0.0.9",
                    "join={*,239.1.0.3}",
                    "prune={10.0.0.7,239.1.0.3}rpt",
                    "holdtime=180",
                ],
            ),
            (
                Message::PimRpReachability(pim::RpReachability {
                    group: g,
                    rp: b,
                    holdtime: 210,
                }),
                &["PIM RP-Reachability group=239.1.0.3 rp=10.0.0.9 holdtime=210"],
            ),
            (
                Message::DvmrpProbe(dvmrp::Probe {
                    neighbors: vec![a, b],
                }),
                &["DVMRP Probe neighbors=2"],
            ),
            (
                Message::DvmrpPrune(dvmrp::Prune {
                    source: a,
                    group: g,
                    lifetime: 200,
                }),
                &["DVMRP Prune (10.0.0.7,239.1.0.3) lifetime=200"],
            ),
            (
                Message::DvmrpGraft(dvmrp::Graft {
                    source: a,
                    group: g,
                }),
                &["DVMRP Graft (10.0.0.7,239.1.0.3)"],
            ),
            (
                Message::DvmrpGraftAck(dvmrp::GraftAck {
                    source: a,
                    group: g,
                }),
                &["DVMRP Graft-Ack (10.0.0.7,239.1.0.3)"],
            ),
            (
                Message::CbtJoinRequest(cbt::JoinRequest {
                    group: g,
                    core: b,
                    originator: a,
                }),
                &["CBT Join-Request group=239.1.0.3 core=10.0.0.9 origin=10.0.0.7"],
            ),
            (
                Message::CbtJoinAck(cbt::JoinAck {
                    group: g,
                    core: b,
                    originator: a,
                }),
                &["CBT Join-Ack group=239.1.0.3 core=10.0.0.9"],
            ),
            (
                Message::CbtEcho(cbt::Echo {
                    groups: vec![g, Group::test(4)],
                }),
                &["CBT Echo groups=2"],
            ),
            (
                Message::CbtEchoReply(cbt::EchoReply { groups: vec![g] }),
                &["CBT Echo-Reply groups=1"],
            ),
            (
                Message::CbtQuit(cbt::Quit { group: g }),
                &["CBT Quit group=239.1.0.3"],
            ),
            (
                Message::CbtFlushTree(cbt::FlushTree { group: g }),
                &["CBT Flush-Tree group=239.1.0.3"],
            ),
            (
                Message::DvUpdate(unicast::DvUpdate {
                    routes: vec![unicast::DvRoute { dst: a, metric: 3 }],
                }),
                &["DV Update routes=1"],
            ),
            (
                Message::Lsa(unicast::Lsa {
                    origin: a,
                    seq: 12,
                    links: vec![unicast::LsaLink {
                        neighbor: b,
                        cost: 1,
                    }],
                }),
                &["LSA origin=10.0.0.7 seq=12 links=1"],
            ),
            (
                Message::Hello(unicast::Hello { holdtime: 30 }),
                &["Hello holdtime=30"],
            ),
        ];

        // Exhaustiveness: a new Message variant must be added to the table.
        let covered = |m: &Message| {
            all_variants
                .iter()
                .any(|(t, _)| std::mem::discriminant(t) == std::mem::discriminant(m))
        };
        for (msg, _) in &all_variants {
            match msg {
                Message::HostQuery(_)
                | Message::HostReport(_)
                | Message::RpMapping(_)
                | Message::PimQuery(_)
                | Message::PimRegister(_)
                | Message::PimJoinPrune(_)
                | Message::PimRpReachability(_)
                | Message::DvmrpProbe(_)
                | Message::DvmrpPrune(_)
                | Message::DvmrpGraft(_)
                | Message::DvmrpGraftAck(_)
                | Message::CbtJoinRequest(_)
                | Message::CbtJoinAck(_)
                | Message::CbtEcho(_)
                | Message::CbtEchoReply(_)
                | Message::CbtQuit(_)
                | Message::CbtFlushTree(_)
                | Message::DvUpdate(_)
                | Message::Lsa(_)
                | Message::Hello(_) => assert!(covered(msg)),
            }
        }

        for (msg, wants) in &all_variants {
            let line = describe_packet(&wrap(msg));
            assert!(
                line.starts_with("10.0.0.1 > 224.0.0.2 ttl=1 "),
                "missing header prefix: {line}"
            );
            for want in *wants {
                assert!(line.contains(want), "{msg:?}: want {want:?} in {line:?}");
            }
        }
    }

    #[test]
    fn join_prune_renders_entries() {
        let msg = Message::PimJoinPrune(JoinPrune {
            upstream_neighbor: Addr::new(10, 0, 0, 2),
            holdtime: 180,
            groups: vec![GroupEntry {
                group: Group::test(1),
                joins: vec![SourceEntry::shared_tree(Addr::new(10, 0, 0, 9))],
                prunes: vec![SourceEntry::source_on_rp_tree(Addr::new(10, 0, 7, 10))],
            }],
        });
        let line = describe_packet(&wrap(&msg));
        assert!(line.contains("PIM Join/Prune"), "{line}");
        assert!(line.contains("join={*,239.1.0.1}"), "{line}");
        assert!(line.contains("prune={10.0.7.10,239.1.0.1}rpt"), "{line}");
    }

    #[test]
    fn register_renders_payload_size() {
        let msg = Message::PimRegister(Register {
            group: Group::test(2),
            source: Addr::new(10, 0, 1, 10),
            payload: vec![0; 48],
        });
        let line = describe_packet(&wrap(&msg));
        assert!(line.contains("PIM Register"), "{line}");
        assert!(line.contains("48 data bytes"), "{line}");
    }

    #[test]
    fn data_packets_render() {
        let pkt = Header {
            proto: Protocol::Data,
            ttl: 30,
            src: Addr::new(10, 0, 1, 10),
            dst: Group::test(1).addr(),
        }
        .encap(&[1, 2, 3]);
        let line = describe_packet(&pkt);
        assert!(line.contains("DATA 3 bytes"), "{line}");
        assert!(line.contains("ttl=30"), "{line}");
    }

    #[test]
    fn corrupt_packets_never_panic() {
        assert!(describe_packet(&[]).starts_with("corrupt"));
        assert!(describe_packet(&[1, 2, 3]).starts_with("corrupt"));
        // Valid header, garbage payload.
        let pkt = Header {
            proto: Protocol::Igmp,
            ttl: 1,
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::ALL_PIM_ROUTERS,
        }
        .encap(&[0xFF; 9]);
        let line = describe_packet(&pkt);
        assert!(line.contains("corrupt"), "{line}");
    }
}
