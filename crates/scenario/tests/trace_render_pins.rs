//! The text of a trace line, pinned against the renderer it had when the
//! capture ring still kept strings: every exemplar message in an IP
//! header, every truncation of it, seeded bit flips, a data datagram, an
//! empty frame — `describe_packet` must say what [`reference_describe`]
//! says, byte for byte — and one small world sends the same frames so
//! that `World::captured()` → `trace_lines` is held end to end. `Addr`'s
//! dotted quad is pinned here too: every corpus fingerprint contains it.

use netsim::trace::{describe_packet, write_packet};
use netsim::{host_addr, router_addr, Ctx, Duration, IfaceId, Node, SimTime, World};
use scenario::explore::trace_lines;
use scenario::fuzz::{corpus, SeedStream};
use std::any::Any;
use std::fmt::Write as _;
use wire::ip::{Header, Protocol};
use wire::pim::SourceEntry;
use wire::{Addr, Group, Message};

fn entry_str(group: wire::Group, e: &SourceEntry) -> String {
    if e.wildcard {
        format!("{{*,{group}}}")
    } else if e.rp_bit {
        format!("{{{},{group}}}rpt", e.addr)
    } else {
        format!("{{{},{group}}}", e.addr)
    }
}

/// `netsim::trace::describe_packet` as it stood before PR 21, verbatim.
/// The reference the one-pass writer is compared against; never edit it
/// to make a test pass.
fn reference_describe(packet: &[u8]) -> String {
    let Ok((h, payload)) = Header::decap(packet) else {
        return format!("corrupt({} bytes)", packet.len());
    };
    let mut s = format!("{} > {} ttl={} ", h.src, h.dst, h.ttl);
    match h.proto {
        Protocol::Data => {
            let _ = write!(s, "DATA {} bytes", payload.len());
        }
        Protocol::Igmp => match Message::decode(payload) {
            Err(e) => {
                let _ = write!(s, "IGMP-family corrupt: {e}");
            }
            Ok(msg) => match msg {
                Message::HostQuery(q) => {
                    let _ = write!(s, "IGMP Query max_resp={}", q.max_resp_time);
                }
                Message::HostReport(r) => {
                    let _ = write!(s, "IGMP Report group={}", r.group);
                }
                Message::RpMapping(m) => {
                    let _ = write!(s, "IGMP RP-Mapping group={} rps={:?}", m.group, m.rps);
                }
                Message::PimQuery(q) => {
                    let _ = write!(s, "PIM Query holdtime={}", q.holdtime);
                }
                Message::PimRegister(r) => {
                    let _ = write!(
                        s,
                        "PIM Register group={} source={} ({} data bytes)",
                        r.group,
                        r.source,
                        r.payload.len()
                    );
                }
                Message::PimJoinPrune(jp) => {
                    let _ = write!(s, "PIM Join/Prune to={} ", jp.upstream_neighbor);
                    let mut joins = Vec::new();
                    let mut prunes = Vec::new();
                    for ge in &jp.groups {
                        joins.extend(ge.joins.iter().map(|e| entry_str(ge.group, e)));
                        prunes.extend(ge.prunes.iter().map(|e| entry_str(ge.group, e)));
                    }
                    let _ = write!(
                        s,
                        "join={} prune={} holdtime={}",
                        if joins.is_empty() {
                            "-".into()
                        } else {
                            joins.join(",")
                        },
                        if prunes.is_empty() {
                            "-".into()
                        } else {
                            prunes.join(",")
                        },
                        jp.holdtime
                    );
                }
                Message::PimRpReachability(r) => {
                    let _ = write!(
                        s,
                        "PIM RP-Reachability group={} rp={} holdtime={}",
                        r.group, r.rp, r.holdtime
                    );
                }
                Message::DvmrpProbe(p) => {
                    let _ = write!(s, "DVMRP Probe neighbors={}", p.neighbors.len());
                }
                Message::DvmrpPrune(p) => {
                    let _ = write!(
                        s,
                        "DVMRP Prune ({},{}) lifetime={}",
                        p.source, p.group, p.lifetime
                    );
                }
                Message::DvmrpGraft(g) => {
                    let _ = write!(s, "DVMRP Graft ({},{})", g.source, g.group);
                }
                Message::DvmrpGraftAck(g) => {
                    let _ = write!(s, "DVMRP Graft-Ack ({},{})", g.source, g.group);
                }
                Message::CbtJoinRequest(j) => {
                    let _ = write!(
                        s,
                        "CBT Join-Request group={} core={} origin={}",
                        j.group, j.core, j.originator
                    );
                }
                Message::CbtJoinAck(j) => {
                    let _ = write!(s, "CBT Join-Ack group={} core={}", j.group, j.core);
                }
                Message::CbtEcho(e) => {
                    let _ = write!(s, "CBT Echo groups={}", e.groups.len());
                }
                Message::CbtEchoReply(e) => {
                    let _ = write!(s, "CBT Echo-Reply groups={}", e.groups.len());
                }
                Message::CbtQuit(q) => {
                    let _ = write!(s, "CBT Quit group={}", q.group);
                }
                Message::CbtFlushTree(f) => {
                    let _ = write!(s, "CBT Flush-Tree group={}", f.group);
                }
                Message::DvUpdate(u) => {
                    let _ = write!(s, "DV Update routes={}", u.routes.len());
                }
                Message::Lsa(l) => {
                    let _ = write!(
                        s,
                        "LSA origin={} seq={} links={}",
                        l.origin,
                        l.seq,
                        l.links.len()
                    );
                }
                Message::Hello(hh) => {
                    let _ = write!(s, "Hello holdtime={}", hh.holdtime);
                }
            },
        },
    }
    s
}

/// Every corpus message as a router→group and as a host→router packet,
/// at ttl 1 and 64; one data datagram; frames no header fits in.
fn frames() -> Vec<Vec<u8>> {
    let router = router_addr(graph::NodeId(3));
    let host = host_addr(graph::NodeId(258), 2);
    let mut out = Vec::new();
    for msg in corpus() {
        let payload = msg.encode();
        for (src, dst) in [(router, Group::test(1).addr()), (host, router)] {
            for ttl in [1, 64] {
                let h = Header {
                    proto: Protocol::Igmp,
                    ttl,
                    src,
                    dst,
                };
                out.push(h.encap(&payload));
            }
        }
    }
    let data = Header {
        proto: Protocol::Data,
        ttl: 30,
        src: host,
        dst: Group::test(1).addr(),
    };
    out.push(data.encap(&[7; 40]));
    out.push(Vec::new());
    out.push(vec![1, 2, 3]);
    out
}

/// Both forms: the `String` one, and the writer appending after a prefix
/// (which it must leave alone).
fn assert_pinned(bytes: &[u8]) {
    let want = reference_describe(bytes);
    assert_eq!(describe_packet(bytes), want, "{bytes:02x?}");
    let mut line = String::from("12 link3 r4 ");
    write_packet(&mut line, bytes).expect("a String takes any write");
    assert_eq!(line, format!("12 link3 r4 {want}"), "{bytes:02x?}");
}

#[test]
fn every_frame_truncation_and_bit_flip_renders_as_the_reference() {
    let frames = frames();
    let mut seen = std::collections::BTreeSet::new();
    for (i, frame) in frames.iter().enumerate() {
        assert_pinned(frame);
        seen.insert(reference_describe(frame));
        for len in 0..frame.len() {
            assert_pinned(&frame[..len]);
        }
        let mut rng = SeedStream::new(0x7ace, i as u64);
        for _ in 0..if frame.is_empty() { 0 } else { 256 } {
            let mut flipped = frame.clone();
            let bit = rng.below(frame.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_pinned(&flipped);
        }
    }
    // The corpus is not rendering as one line: 20 variants × 4 headers,
    // one datagram, two corrupt frames.
    assert_eq!(seen.len(), corpus().len() * 4 + 3);
}

/// Sends `frames` out of its one interface, one per tick.
struct Sender {
    frames: Vec<Vec<u8>>,
    next: usize,
}

impl Node for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration(1), 0);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _packet: &[u8]) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let Some(frame) = self.frames.get(self.next) {
            ctx.send(IfaceId(0), frame.clone());
            self.next += 1;
            ctx.set_timer(Duration(1), 0);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn captured_frames_become_trace_lines_end_to_end() {
    // Every frame twice: `trace_lines` decodes a packet once and renders
    // its repeats from that text, which must be the reference's too.
    let frames = [frames(), frames()].concat();
    let mut w = World::new(21);
    let quiet = w.add_node(Box::new(Sender {
        frames: Vec::new(),
        next: 0,
    }));
    let sender = w.add_node(Box::new(Sender {
        frames: frames.clone(),
        next: 0,
    }));
    let (link, ..) = w.add_p2p(quiet, sender, Duration(2));
    w.enable_capture(frames.len() + 1);
    w.run_until(SimTime(frames.len() as u64 + 5));

    let want: Vec<String> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "{} link{} r{} {}",
                i + 1,
                link.0,
                sender.0,
                reference_describe(f)
            )
        })
        .collect();
    assert_eq!(trace_lines(&w), want);
    assert!(want[want.len() - 2].ends_with(" r1 corrupt(0 bytes)"));
    assert!(want[0].starts_with("1 link0 r1 10.0.3.1 > 239.1.0.1 ttl=1 IGMP Query"));
}

#[test]
fn addr_prints_every_octet_value_and_ignores_width() {
    for v in 0..=255u8 {
        for pos in 0..4 {
            let mut o = [9, 87, 210, 0];
            o[pos] = v;
            let [a, b, c, d] = o;
            let addr = Addr::new(a, b, c, d);
            assert_eq!(addr.to_string(), format!("{a}.{b}.{c}.{d}"));
            assert_eq!(format!("{addr:?}"), format!("{a}.{b}.{c}.{d}"));
        }
    }
    assert_eq!(Addr::new(0, 0, 0, 0).to_string(), "0.0.0.0");
    assert_eq!(Addr::new(255, 255, 255, 255).to_string(), "255.255.255.255");
    // Width, fill and alignment have never applied to an address; pinned
    // tables and fingerprints depend on that staying so.
    let addr = Addr::new(10, 0, 7, 1);
    assert_eq!(format!("{:>20}|{:<3}", addr, addr), "10.0.7.1|10.0.7.1");
    assert_eq!(format!("{:>20?}", Group::test(1)), "239.1.0.1");
}
