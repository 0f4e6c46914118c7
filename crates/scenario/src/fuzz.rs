//! Deterministic, offline fuzzing of the decode path and the engines.
//!
//! No external fuzzer: frames are derived from a seeded splitmix stream
//! ([`par::mix`]), so every run is reproducible from its seed alone and
//! a failure seed can be replayed forever. Two stages:
//!
//! 1. **Wire stage** ([`fuzz_wire`]) — mutate exemplar encodings of
//!    every [`wire::Message`] variant (bit flips, truncation, extension,
//!    splicing) and mix in pure-random buffers, then assert the decoders
//!    are total: [`wire::Message::decode`] and [`wire::ip::Header::decap`]
//!    never panic on any input, and any *accepted* frame re-encodes to a
//!    buffer that decodes back to the identical message.
//! 2. **Engine stage** ([`fuzz_engine`]) — run the explorer's timeline
//!    per protocol and inject malformed control frames directly into
//!    routers mid-run. The engines must absorb the garbage: no panic,
//!    state bounded to the scenario's group, every injected frame
//!    counted exactly once as a malformed drop, and the post-heal probe
//!    train still delivered to every member (soft-state refresh heals
//!    whatever the garbage grazed).

use crate::explore::{
    panic_message, run_to_check, set_up_timeline, topologies, JOIN_MAX, PROBE_SEQS,
};
use crate::net::Protocol;
use crate::oracle::{
    check_bounded_state, check_cbt_ack_ledger, check_delivery, check_loop_freedom, check_rpf,
    Violation,
};
use crate::schedule::{FaultEvent, FaultSchedule};
use netsim::{host_addr, router_addr, NodeIdx, SimTime};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wire::ip::{Header, Protocol as IpProto, HEADER_LEN};
use wire::{
    cbt as wcbt, dvmrp as wdvmrp, igmp as wigmp, pim as wpim, unicast as wuni, Addr, Group, Message,
};

/// Counter-mode splitmix stream: the `n`-th draw is `mix(seed, stream, n)`,
/// so a stream is random-access and two streams never correlate.
pub struct SeedStream {
    seed: u64,
    stream: u64,
    n: u64,
}

impl SeedStream {
    /// Stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> SeedStream {
        SeedStream { seed, stream, n: 0 }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.n += 1;
        par::mix(self.seed, self.stream, self.n)
    }

    /// Uniform draw in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One exemplar of every [`Message`] variant, fields populated so every
/// length-prefixed list and nested payload path is exercised.
pub fn corpus() -> Vec<Message> {
    let g = Group::test(1);
    let a1 = Addr::new(10, 0, 0, 1);
    let a2 = Addr::new(10, 0, 0, 2);
    vec![
        Message::HostQuery(wigmp::HostQuery { max_resp_time: 10 }),
        Message::HostReport(wigmp::HostReport { group: g }),
        Message::RpMapping(wigmp::RpMapping {
            group: g,
            rps: vec![a1, a2],
        }),
        Message::PimQuery(wpim::Query { holdtime: 105 }),
        Message::PimRegister(wpim::Register {
            group: g,
            source: a1,
            payload: vec![1, 2, 3, 4],
        }),
        Message::PimJoinPrune(wpim::JoinPrune {
            upstream_neighbor: a1,
            holdtime: 210,
            groups: vec![wpim::GroupEntry {
                group: g,
                joins: vec![wpim::SourceEntry::source(a2)],
                prunes: vec![wpim::SourceEntry::source(a1)],
            }],
        }),
        Message::PimRpReachability(wpim::RpReachability {
            group: g,
            rp: a1,
            holdtime: 90,
        }),
        Message::DvmrpProbe(wdvmrp::Probe {
            neighbors: vec![a1, a2],
        }),
        Message::DvmrpPrune(wdvmrp::Prune {
            source: a1,
            group: g,
            lifetime: 100,
        }),
        Message::DvmrpGraft(wdvmrp::Graft {
            source: a1,
            group: g,
        }),
        Message::DvmrpGraftAck(wdvmrp::GraftAck {
            source: a1,
            group: g,
        }),
        Message::CbtJoinRequest(wcbt::JoinRequest {
            group: g,
            core: a1,
            originator: a2,
        }),
        Message::CbtJoinAck(wcbt::JoinAck {
            group: g,
            core: a1,
            originator: a2,
        }),
        Message::CbtEcho(wcbt::Echo { groups: vec![g] }),
        Message::CbtEchoReply(wcbt::EchoReply { groups: vec![g] }),
        Message::CbtQuit(wcbt::Quit { group: g }),
        Message::CbtFlushTree(wcbt::FlushTree { group: g }),
        Message::DvUpdate(wuni::DvUpdate {
            routes: vec![wuni::DvRoute { dst: a1, metric: 3 }],
        }),
        Message::Lsa(wuni::Lsa {
            origin: a1,
            seq: 7,
            links: vec![wuni::LsaLink {
                neighbor: a2,
                cost: 1,
            }],
        }),
        Message::Hello(wuni::Hello { holdtime: 30 }),
    ]
}

/// Mutate `base` with one seeded strategy: bit flips, truncation,
/// extension with random bytes, a spliced tail from `other`, or full
/// replacement with random bytes.
pub fn mutate(base: &[u8], other: &[u8], rng: &mut SeedStream) -> Vec<u8> {
    let mut out = base.to_vec();
    match rng.below(5) {
        // Flip 1..=4 random bits.
        0 => {
            for _ in 0..1 + rng.below(4) {
                if out.is_empty() {
                    break;
                }
                let i = rng.below(out.len());
                out[i] ^= 1 << rng.below(8);
            }
        }
        // Truncate at a random point (possibly to empty).
        1 => {
            let keep = rng.below(out.len() + 1);
            out.truncate(keep);
        }
        // Extend with 1..=16 random bytes.
        2 => {
            for _ in 0..1 + rng.below(16) {
                out.push(rng.next_u64() as u8);
            }
        }
        // Splice: keep a random prefix, then append a random suffix of
        // the other frame (crossover of two valid encodings).
        3 => {
            let keep = rng.below(out.len() + 1);
            out.truncate(keep);
            if !other.is_empty() {
                let from = rng.below(other.len());
                out.extend_from_slice(&other[from..]);
            }
        }
        // Replace wholesale with 0..64 random bytes.
        _ => {
            out.clear();
            for _ in 0..rng.below(64) {
                out.push(rng.next_u64() as u8);
            }
        }
    }
    out
}

/// Outcome of the wire-level stage.
#[derive(Debug, Default)]
pub struct WireFuzzReport {
    /// Frames generated and fed to the decoders.
    pub frames: u64,
    /// Frames [`Message::decode`] accepted (and round-tripped).
    pub accepted: u64,
    /// Rejections by [`wire::DecodeError::kind`] label.
    pub rejects: BTreeMap<&'static str, u64>,
    /// Decoder panics (must be zero — the headline invariant).
    pub panics: u64,
    /// Accepted frames whose re-encode did not decode back to the same
    /// message (must be zero).
    pub roundtrip_failures: u64,
}

/// Stage 1: seeded mutation of valid encodings plus pure-random buffers,
/// pushed through both [`Message::decode`] and [`Header::decap`].
pub fn fuzz_wire(seed: u64, frames: u64) -> WireFuzzReport {
    let corpus: Vec<Vec<u8>> = corpus().iter().map(Message::encode).collect();
    let hdr = Header {
        proto: IpProto::Igmp,
        ttl: 8,
        src: Addr::new(10, 0, 0, 1),
        dst: Addr::new(10, 0, 0, 2),
    };
    let mut rng = SeedStream::new(seed, 0x77_17e);
    let mut report = WireFuzzReport::default();
    for _ in 0..frames {
        let base = &corpus[rng.below(corpus.len())];
        let other = &corpus[rng.below(corpus.len())];
        // Half bare message frames, half IP-encapsulated ones, so both
        // the message decoder and the decap path see every mutation.
        let frame = if rng.below(2) == 0 {
            mutate(base, other, &mut rng)
        } else {
            mutate(&hdr.encap(base), &hdr.encap(other), &mut rng)
        };
        report.frames += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut accepted = None;
            let mut reject = None;
            match Message::decode(&frame) {
                Ok(m) => accepted = Some(m),
                Err(e) => reject = Some(e.kind()),
            }
            // Decap too; a decapped IGMP payload goes through decode as
            // it would on a router's receive path.
            if let Ok((h, payload)) = Header::decap(&frame) {
                if h.proto == IpProto::Igmp {
                    if let Ok(m) = Message::decode(payload) {
                        accepted.get_or_insert(m);
                    }
                }
            }
            (accepted, reject)
        }));
        match outcome {
            Err(_) => report.panics += 1,
            Ok((accepted, reject)) => {
                if let Some(m) = accepted {
                    report.accepted += 1;
                    let re = m.encode();
                    if Message::decode(&re).ok() != Some(m) {
                        report.roundtrip_failures += 1;
                    }
                } else if let Some(kind) = reject {
                    *report.rejects.entry(kind).or_insert(0) += 1;
                }
            }
        }
    }
    report
}

/// Outcome of one protocol's engine-level stage.
#[derive(Debug)]
pub struct EngineFuzzOutcome {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Malformed frames injected into routers mid-run.
    pub injected: u64,
    /// Decode failures the world's ledger recorded.
    pub decode_failures: u64,
    /// Sum of the routers' own malformed-drop counters.
    pub malformed_drops: u64,
    /// Oracle violations (empty on success), rendered.
    pub violations: Vec<String>,
}

/// Pre-screen for the engine stage: only frames that a router will
/// *reject* may be injected. A mutated frame that still decodes cleanly
/// is legitimate protocol input (it could legally create state), which
/// would invalidate the bounded-state oracle; channel corruption of
/// valid traffic is the explorer's job, not the fuzzer's.
fn is_malformed(frame: &[u8]) -> bool {
    match Header::decap(frame) {
        Err(_) => true,
        Ok((h, payload)) => h.proto == IpProto::Igmp && Message::decode(payload).is_err(),
    }
}

/// Stage 2: the explorer's timeline on the diamond topology, two members
/// joining and no faults, with `frames` malformed control frames injected
/// into random router interfaces during the fault window. Checks the
/// no-panic, structural, bounded-state, accounting, and delivery
/// invariants.
pub fn fuzz_engine(protocol: Protocol, seed: u64, frames: u64) -> EngineFuzzOutcome {
    /// When the first injected frame arrives.
    const INJECT_FROM: u64 = 150;

    let topo = &topologies()[0]; // diamond: 4 routers, hosts at 0, 1, 3
    let corpus: Vec<Vec<u8>> = corpus().iter().map(Message::encode).collect();
    let mut rng = SeedStream::new(seed, 0xe9_14e ^ protocol as u64);

    let run = AssertUnwindSafe(|| {
        let mut schedule = FaultSchedule::default();
        schedule.push(30, FaultEvent::Join(1));
        schedule.push(60, FaultEvent::Join(2));
        let mut net = set_up_timeline(topo, protocol, &schedule, seed, None);

        // Inject malformed frames spread over INJECT_FROM..JOIN_MAX, the
        // window a schedule may act in — garbage stops well before the
        // probe train, mirroring the explorer's heal discipline, so
        // delivery measures recovery, not luck.
        let hdr = Header {
            proto: IpProto::Igmp,
            ttl: 8,
            src: host_addr(topo.host_routers[0], 0),
            dst: router_addr(topo.rendezvous),
        };
        let mut injected = 0u64;
        for i in 0..frames {
            let at = INJECT_FROM + i * (JOIN_MAX - INJECT_FROM) / frames.max(1);
            let r = rng.below(net.router_count);
            let peers = &net.peers[r];
            if peers.is_empty() {
                continue;
            }
            let iface = peers[rng.below(peers.len())].iface;
            let base = hdr.encap(&corpus[rng.below(corpus.len())]);
            let other = hdr.encap(&corpus[rng.below(corpus.len())]);
            let mut frame = mutate(&base, &other, &mut rng);
            if !is_malformed(&frame) {
                // Rare: the mutation kept both checksums valid. Force a
                // reject with a bad version byte instead of skipping, so
                // the injected count stays exactly `frames`-paced.
                frame = vec![0xFF; HEADER_LEN];
            }
            injected += 1;
            net.world.at(SimTime(at), move |w| {
                w.call_node(NodeIdx(r), |n, ctx| n.on_packet(ctx, iface, &frame));
            });
        }

        run_to_check(&mut net, 1);

        let mut violations = check_rpf(&net);
        violations.extend(check_loop_freedom(&net));
        violations.extend(check_cbt_ack_ledger(&net));
        violations.extend(check_bounded_state(&net));
        let members = schedule.final_members(topo.host_routers.len());
        let source = host_addr(topo.host_routers[0], 0);
        let expected: Vec<u64> = PROBE_SEQS.collect();
        violations.extend(check_delivery(&net, &members, source, &expected));

        let decode_failures = net.world.counters().total_decode_failures();
        let malformed_drops: u64 = (0..net.router_count)
            .map(|n| net.router(n).malformed_drops)
            .sum();
        if decode_failures != injected {
            violations.push(Violation {
                oracle: "fuzz-accounting",
                node: 0,
                detail: format!(
                    "injected {injected} malformed frame(s) but the ledger \
                     recorded {decode_failures} decode failure(s)"
                ),
            });
        }
        (injected, decode_failures, malformed_drops, violations)
    });

    match catch_unwind(run) {
        Ok((injected, decode_failures, malformed_drops, violations)) => EngineFuzzOutcome {
            protocol,
            injected,
            decode_failures,
            malformed_drops,
            violations: violations.iter().map(Violation::to_string).collect(),
        },
        Err(payload) => EngineFuzzOutcome {
            protocol,
            injected: 0,
            decode_failures: 0,
            malformed_drops: 0,
            violations: vec![format!(
                "no-panic @ r0: engine fuzz panicked: {}",
                panic_message(payload.as_ref())
            )],
        },
    }
}

/// Run the engine stage for all three protocols.
pub fn fuzz_engines(seed: u64, frames_per_protocol: u64) -> Vec<EngineFuzzOutcome> {
    Protocol::ALL
        .into_iter()
        .map(|p| fuzz_engine(p, seed, frames_per_protocol))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_fuzz_smoke_no_panics() {
        let r = fuzz_wire(7, 2_000);
        assert_eq!(r.frames, 2_000);
        assert_eq!(r.panics, 0, "decoder panicked");
        assert_eq!(r.roundtrip_failures, 0, "encode∘decode not idempotent");
        // Mutations overwhelmingly break a checksum or a length field —
        // the taxonomy should show real variety.
        assert!(r.rejects.len() >= 3, "reject kinds: {:?}", r.rejects);
    }

    #[test]
    fn engine_fuzz_smoke_all_protocols_absorb_garbage() {
        for outcome in fuzz_engines(11, 120) {
            assert!(
                outcome.violations.is_empty(),
                "{:?}: {:?}",
                outcome.protocol,
                outcome.violations
            );
            assert_eq!(outcome.injected, 120);
            assert_eq!(outcome.decode_failures, outcome.injected);
            assert_eq!(outcome.malformed_drops, outcome.injected);
        }
    }
}
