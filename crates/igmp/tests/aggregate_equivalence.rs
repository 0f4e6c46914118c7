//! The aggregate-site contract: for small N, one [`HostNode`] of N
//! members is indistinguishable from N single-member [`HostNode`]s as far
//! as the *router* on the LAN can tell, modulo host-local detail.
//!
//! Two worlds are built around the same scripted membership lifecycle —
//! staggered joins, a data burst, a mass leave — one with N single-member
//! hosts, one with a single host counting N members. The reference is the
//! N single-member hosts: each still draws its own response delay and
//! suppresses on the others' reports, which is the behaviour the counted
//! site's one min-of-N report stands in for. The router-side observables
//! compared:
//!
//! * the membership lifecycle (`MemberJoined` at identical ticks, no
//!   spurious expiry while members exist, one expiry after the leave with
//!   latencies within the IGMP response-time jitter of each other);
//! * report traffic (the aggregate answers each query with *exactly one*
//!   report, per the sampling argument; explicit hosts emit at least one
//!   and at most N, so the aggregate never exceeds the explicit world);
//! * delivery counts (member-weighted receptions equal to N × packets in
//!   both worlds, exactly).
//!
//! Report *timing* inside the response window is where the two worlds
//! legitimately differ (different RNG draw sequences; explicit stragglers
//! can slip a second report before suppression arrives) — that is the
//! "host-local detail" the equivalence is modulo of.

use igmp::{HostNode, Querier, QuerierOutput, MAX_RESP_TIME};
use netsim::{Ctx, Duration, IfaceId, Node, NodeIdx, SimTime, World};
use proptest::prelude::*;
use std::any::Any;
use wire::ip::{Header, Protocol};
use wire::{Addr, Group, Message};

const JOIN_BASE: u64 = 10;
const JOIN_GAP: u64 = 7;
const SEND_BASE: u64 = 320;
const SEND_GAP: u64 = 5;
const LEAVE_AT: u64 = 600;
const END_AT: u64 = 1100;

/// A minimal router: one LAN interface running an IGMP [`Querier`],
/// logging what the membership protocol shows it. Ticks its querier every
/// simulated tick so periodic queries and expiry sweeps land on exact
/// deadlines in both worlds.
struct QuerierRouter {
    addr: Addr,
    querier: Querier,
    joined: Vec<(u64, Group)>,
    expired: Vec<(u64, Group)>,
    reports_heard: u64,
    queries_sent: u64,
}

impl QuerierRouter {
    fn new(addr: Addr) -> QuerierRouter {
        QuerierRouter {
            addr,
            querier: Querier::new(addr),
            joined: Vec::new(),
            expired: Vec::new(),
            reports_heard: 0,
            queries_sent: 0,
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, outs: Vec<QuerierOutput>) {
        let now = ctx.now();
        for o in outs {
            match o {
                QuerierOutput::Send { dst, msg } => {
                    if matches!(msg, Message::HostQuery(_)) {
                        self.queries_sent += 1;
                    }
                    let header = Header {
                        proto: Protocol::Igmp,
                        ttl: 1,
                        src: self.addr,
                        dst,
                    };
                    ctx.send(IfaceId(0), header.encap(&msg.encode()));
                }
                QuerierOutput::MemberJoined(g) => self.joined.push((now.ticks(), g)),
                QuerierOutput::MemberExpired(g) => self.expired.push((now.ticks(), g)),
                QuerierOutput::RpMappingLearned(..) => {}
            }
        }
    }
}

impl Node for QuerierRouter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(Duration(1), 0);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, packet: &[u8]) {
        let Ok((header, payload)) = Header::decap(packet) else {
            return;
        };
        if header.proto != Protocol::Igmp {
            return;
        }
        let Ok(msg) = Message::decode(payload) else {
            return;
        };
        if matches!(msg, Message::HostReport(_)) {
            self.reports_heard += 1;
        }
        let now = ctx.now();
        let outs = self.querier.on_message(now, header.src, &msg);
        self.handle(ctx, outs);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let now = ctx.now();
        let outs = self.querier.tick(now);
        self.handle(ctx, outs);
        ctx.set_timer(Duration(1), 0);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Router-observable outcome of one world.
#[derive(Debug)]
struct Observed {
    joined: Vec<(u64, Group)>,
    expired: Vec<(u64, Group)>,
    reports_heard: u64,
    queries_sent: u64,
    member_receptions: u64,
}

fn router_addr() -> Addr {
    Addr::new(10, 0, 0, 1)
}

fn sender_addr() -> Addr {
    Addr::new(10, 0, 0, 200)
}

/// Shared script: the sender transmits `packets` data packets after every
/// member has joined, and the whole membership leaves at `LEAVE_AT`.
fn schedule_sends(world: &mut World, sender: NodeIdx, group: Group, packets: u64) {
    for k in 0..packets {
        world.at(SimTime(SEND_BASE + k * SEND_GAP), move |w| {
            igmp::with_host(w, sender, |h, ctx| h.send_data(ctx, group));
        });
    }
}

fn run_explicit(seed: u64, n: u64, group: Group, packets: u64) -> Observed {
    let mut world = World::new(seed);
    let router = world.add_node(Box::new(QuerierRouter::new(router_addr())));
    let hosts: Vec<NodeIdx> = (0..n)
        .map(|i| world.add_node(Box::new(HostNode::new(Addr::new(10, 0, 0, 10 + i as u8)))))
        .collect();
    let sender = world.add_node(Box::new(HostNode::new(sender_addr())));
    let mut all = vec![router];
    all.extend(&hosts);
    all.push(sender);
    world.add_lan(&all, Duration(1));

    for (i, &h) in hosts.iter().enumerate() {
        world.at(SimTime(JOIN_BASE + JOIN_GAP * i as u64), move |w| {
            igmp::with_host(w, h, |h, ctx| h.join(ctx, group));
        });
    }
    schedule_sends(&mut world, sender, group, packets);
    let leave_hosts = hosts.clone();
    world.at(SimTime(LEAVE_AT), move |w| {
        for &h in &leave_hosts {
            w.node_mut::<HostNode>(h).leave(group);
        }
    });
    world.run_until(SimTime(END_AT));

    let member_receptions = hosts
        .iter()
        .map(|&h| world.node::<HostNode>(h).received.len() as u64)
        .sum();
    let r: &QuerierRouter = world.node(router);
    Observed {
        joined: r.joined.clone(),
        expired: r.expired.clone(),
        reports_heard: r.reports_heard,
        queries_sent: r.queries_sent,
        member_receptions,
    }
}

fn run_aggregate(seed: u64, n: u64, group: Group, packets: u64) -> Observed {
    let mut world = World::new(seed);
    let router = world.add_node(Box::new(QuerierRouter::new(router_addr())));
    let pop = world.add_node(Box::new(HostNode::new(Addr::new(10, 0, 0, 10))));
    let sender = world.add_node(Box::new(HostNode::new(sender_addr())));
    world.add_lan(&[router, pop, sender], Duration(1));

    // Same join instants as the explicit world, one member at a time, so
    // the unsolicited-report refreshes line up tick for tick.
    for i in 0..n {
        world.at(SimTime(JOIN_BASE + JOIN_GAP * i), move |w| {
            igmp::with_host(w, pop, |h, ctx| h.join_members(ctx, group, 1));
        });
    }
    schedule_sends(&mut world, sender, group, packets);
    world.at(SimTime(LEAVE_AT), move |w| {
        w.node_mut::<HostNode>(pop).leave_members(group, n);
    });
    world.run_until(SimTime(END_AT));

    let member_receptions = world.node::<HostNode>(pop).member_receptions();
    let r: &QuerierRouter = world.node(router);
    Observed {
        joined: r.joined.clone(),
        expired: r.expired.clone(),
        reports_heard: r.reports_heard,
        queries_sent: r.queries_sent,
        member_receptions,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn aggregate_matches_explicit(
        seed in any::<u64>(),
        n in 1u64..7,
        packets in 1u64..12,
    ) {
        let group = Group::test(1);
        let explicit = run_explicit(seed, n, group, packets);
        let aggregate = run_aggregate(seed.wrapping_add(1), n, group, packets);

        // Periodic queries are deterministic and member-independent.
        prop_assert_eq!(explicit.queries_sent, aggregate.queries_sent);

        // Membership appears at the same instant in both worlds: the
        // first unsolicited report creates it, later joins only refresh.
        prop_assert_eq!(&explicit.joined, &aggregate.joined);
        prop_assert_eq!(explicit.joined.len(), 1);
        prop_assert_eq!(explicit.joined[0].1, group);

        // No spurious expiry while members exist, one real expiry after
        // the leave, and the leave latencies match within the response
        // window (report timing inside it is the host-local detail).
        prop_assert_eq!(explicit.expired.len(), 1);
        prop_assert_eq!(aggregate.expired.len(), 1);
        let (te, ge) = explicit.expired[0];
        let (ta, ga) = aggregate.expired[0];
        prop_assert_eq!(ge, group);
        prop_assert_eq!(ga, group);
        prop_assert!(te > LEAVE_AT && ta > LEAVE_AT);
        let max_resp = MAX_RESP_TIME.ticks();
        prop_assert!(
            te.abs_diff(ta) <= max_resp + 2,
            "leave latency diverged: explicit {te} vs aggregate {ta}"
        );

        // Suppression: the aggregate answers each query with exactly one
        // report, so it can never out-chatter the explicit hosts; with a
        // single member the two worlds emit identical report counts.
        prop_assert!(aggregate.reports_heard <= explicit.reports_heard);
        if n == 1 {
            prop_assert_eq!(aggregate.reports_heard, explicit.reports_heard);
        }

        // Delivery: every member receives every packet, exactly, in both
        // accountings (per-host logs vs member-weighted count).
        prop_assert_eq!(explicit.member_receptions, n * packets);
        prop_assert_eq!(aggregate.member_receptions, n * packets);
    }
}

/// A slot-level join sets the site's count to its population, however
/// often it repeats: join, join, leave on a site of 50 leaves nobody
/// joined, and each join is one unsolicited report.
#[test]
fn repeated_slot_join_then_leave_empties_the_site() {
    let group = Group::test(1);
    let mut world = World::new(3);
    let router = world.add_node(Box::new(QuerierRouter::new(router_addr())));
    let site = world.add_node(Box::new(HostNode::new(Addr::new(10, 0, 0, 10)).sized(50)));
    world.add_lan(&[router, site], Duration(1));
    for at in [JOIN_BASE, JOIN_BASE + JOIN_GAP] {
        world.at(SimTime(at), move |w| {
            igmp::with_host(w, site, |h, ctx| h.join(ctx, group));
        });
    }
    // All before the second query (t = 126), so only the joins report.
    world.at(SimTime(30), move |w| {
        w.node_mut::<HostNode>(site).leave(group)
    });
    world.run_until(SimTime(40));
    let host: &HostNode = world.node(site);
    assert_eq!(host.members(group), 0, "a second join must not add 50 more");
    let r: &QuerierRouter = world.node(router);
    assert_eq!(r.reports_heard, 2);
}
