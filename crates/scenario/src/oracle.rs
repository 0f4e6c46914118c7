//! Protocol-invariant oracles.
//!
//! After a fault schedule has fully healed and the network has quiesced,
//! these walk router state across the whole world and assert cross-node
//! invariants, reporting the offending node and entry on failure:
//!
//! * **RPF consistency** (PIM) — every tree entry's incoming interface and
//!   upstream neighbor agree with the router's own unicast RIB: (*,G) and
//!   RP-bit entries point along the unicast path toward the RP, (S,G)
//!   entries along the path toward the source.
//! * **Loop freedom** — upstream pointers (PIM) / parent pointers (CBT)
//!   form forests, never cycles, walking chains of a single destination
//!   class (toward-RP, toward-source, toward-core) across routers.
//! * **Delivery** — every host whose last membership event was a join
//!   received every probe packet sent after the heal.
//! * **No orphans** — once every member has left and all holdtimes have
//!   run out, no router retains (*,G)/(S,G)/tree state (the CBT core's
//!   own bare tree anchor is exempt: a core never quits its tree).
//! * **CBT ack ledger** — an on-tree router's parent link is mirrored by a
//!   child entry at the parent: hop-by-hop explicit acks must leave the
//!   two ends of every tree edge in agreement.
//! * **Hardening** — adversarial channel traffic never implants state:
//!   router state is bounded to the scenario's group, malformed-drop
//!   counters agree with the world's decode-failure ledger, and a clean
//!   channel produces zero decode failures.
//! * **Bounded queues** — no transmit queue's recorded peak ever exceeds
//!   the capacity bound a `bandwidth` fault configured for its link.
//! * **No control starvation** — with the control-priority class enabled
//!   (the DSL default), congestion may tail-drop data but must never
//!   tail-drop a control packet: the protocols' graceful degradation
//!   depends on joins, prunes, and acks surviving overload.
//! * **Congestion recovery** — if congestion occurred at all (any queue
//!   drop or nonzero queue peak), the post-heal probe train must still
//!   be fully delivered: overload may degrade service while it lasts,
//!   never after it clears.

use crate::net::{Protocol, ScenarioNet};
use cbt::CbtRouter;
use dvmrp::DvmrpRouter;
use netsim::{node_of_addr, NodeIdx};
use pim::PimRouter;
use std::collections::BTreeSet;
use std::fmt;
use wire::Addr;

/// One invariant violation, pinned to the router it was observed at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired.
    pub oracle: &'static str,
    /// The offending router (graph node index).
    pub node: usize,
    /// The offending entry / expectation, human-readable.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ r{}: {}", self.oracle, self.node, self.detail)
    }
}

fn violation(oracle: &'static str, node: usize, detail: String) -> Violation {
    Violation {
        oracle,
        node,
        detail,
    }
}

/// Routers that are up (crashed-and-never-restarted routers hold no
/// checkable state and take no part in the invariants).
fn up_routers(net: &ScenarioNet) -> Vec<usize> {
    (0..net.router_count)
        .filter(|&n| net.world.is_node_up(NodeIdx(n)))
        .collect()
}

// ---------------------------------------------------------------------
// RPF consistency (PIM)
// ---------------------------------------------------------------------

/// Every PIM entry's (iif, upstream) pair must match the router's current
/// RIB: toward the RP for (*,G) and RP-bit entries, toward the source for
/// SPT entries. DVMRP and CBT are exempt by construction — DVMRP computes
/// RPF per packet from the RIB and stores no iif, and CBT trees legally
/// diverge from the current unicast paths between join events.
pub fn check_rpf(net: &ScenarioNet) -> Vec<Violation> {
    let mut out = Vec::new();
    if net.protocol != Protocol::Pim {
        return out;
    }
    for n in up_routers(net) {
        let r = net.world.node::<PimRouter>(NodeIdx(n));
        let (engine, rib) = (r.engine(), r.rib());
        let my_addr = engine.addr();
        for (group, gs) in engine.groups() {
            let rp = gs.rp();
            let expect_toward = |dst: Addr| match rib.route(dst) {
                Some(e) => (Some(e.iface), Some(e.next_hop)),
                None => (None, None),
            };
            let mut check = |kind: &str, key: Addr, got: (Option<_>, Option<Addr>), dst: Addr| {
                let want = if dst == my_addr {
                    (None, None)
                } else {
                    expect_toward(dst)
                };
                if got != want {
                    out.push(violation(
                        "rpf-consistency",
                        n,
                        format!(
                            "{kind} entry ({key}, {group:?}): iif/upstream {got:?} \
                             disagree with rib {want:?} toward {dst}"
                        ),
                    ));
                }
            };
            if let Some(star) = &gs.star {
                if let Some(rp) = rp {
                    check("(*,G)", star.key, (star.iif, star.upstream), rp);
                }
            }
            for (&s, e) in &gs.sources {
                if e.local_source {
                    continue; // iif is the host LAN; not a RIB-visible path
                }
                if e.rp_bit {
                    if let Some(rp) = rp {
                        check("(S,G)RP-bit", s, (e.iif, e.upstream), rp);
                    }
                } else {
                    check("(S,G)", s, (e.iif, e.upstream), s);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Loop freedom
// ---------------------------------------------------------------------

/// Follow a chain of upstream/parent pointers from `start`, resolving each
/// hop with `next`, and report a violation if any router repeats.
fn walk_chain(
    oracle: &'static str,
    what: &str,
    start: usize,
    router_count: usize,
    next: impl Fn(usize) -> Option<Addr>,
    out: &mut Vec<Violation>,
) {
    let mut seen = BTreeSet::new();
    let mut at = start;
    seen.insert(at);
    while let Some(up) = next(at) {
        let Some(node) = node_of_addr(up) else { break };
        let nx = node.index();
        if nx >= router_count {
            break;
        }
        if !seen.insert(nx) {
            out.push(violation(
                oracle,
                start,
                format!("{what}: upstream chain revisits r{nx}"),
            ));
            return;
        }
        at = nx;
    }
}

/// No cycle in the upstream-pointer graph of any destination class:
/// PIM's toward-RP chain ((*,G) and RP-bit entries) and per-source SPT
/// chain, and CBT's parent chain toward the core. Each chain follows
/// pointers of its own class only, so a cycle is a genuine routing-state
/// inconsistency rather than an artifact of mixing tree types.
pub fn check_loop_freedom(net: &ScenarioNet) -> Vec<Violation> {
    let mut out = Vec::new();
    let up = up_routers(net);
    let is_up = |n: usize| net.world.is_node_up(NodeIdx(n));
    match net.protocol {
        Protocol::Pim => {
            let star_up = |n: usize| -> Option<Addr> {
                if !is_up(n) {
                    return None;
                }
                let e = net.world.node::<PimRouter>(NodeIdx(n)).engine();
                e.group_state(net.group)?.star.as_ref()?.upstream
            };
            let mut sources = BTreeSet::new();
            for &n in &up {
                let e = net.world.node::<PimRouter>(NodeIdx(n)).engine();
                if let Some(gs) = e.group_state(net.group) {
                    sources.extend(gs.sources.keys().copied());
                }
            }
            for &n in &up {
                walk_chain(
                    "loop-freedom",
                    "(*,G)",
                    n,
                    net.router_count,
                    star_up,
                    &mut out,
                );
                for &s in &sources {
                    let spt_up = |m: usize| -> Option<Addr> {
                        if !is_up(m) {
                            return None;
                        }
                        let e = net.world.node::<PimRouter>(NodeIdx(m)).engine();
                        let entry = e.group_state(net.group)?.sources.get(&s)?;
                        if entry.rp_bit || entry.local_source {
                            return None; // different class / chain terminus
                        }
                        entry.upstream
                    };
                    walk_chain(
                        "loop-freedom",
                        &format!("(S={s},G)"),
                        n,
                        net.router_count,
                        spt_up,
                        &mut out,
                    );
                }
            }
        }
        Protocol::Cbt => {
            let parent_of = |n: usize| -> Option<Addr> {
                if !is_up(n) {
                    return None;
                }
                let e = net.world.node::<CbtRouter>(NodeIdx(n)).engine();
                e.tree(net.group)?.parent().map(|(_, a)| a)
            };
            for &n in &up {
                walk_chain(
                    "loop-freedom",
                    "tree parent",
                    n,
                    net.router_count,
                    parent_of,
                    &mut out,
                );
            }
        }
        // DVMRP holds no upstream pointers: RPF is recomputed from the RIB
        // per packet, so the RIB's own loop freedom is the invariant.
        Protocol::Dvmrp => {}
    }
    out
}

// ---------------------------------------------------------------------
// Delivery
// ---------------------------------------------------------------------

/// Every member host (by slot) received every expected probe sequence
/// number from `source`. Duplicates are allowed — an SPT switchover
/// legitimately double-delivers during the transition — but gaps are not.
pub fn check_delivery(
    net: &ScenarioNet,
    members: &[u32],
    source: Addr,
    expected: &[u64],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for &slot in members {
        let got: BTreeSet<u64> = net.seqs(slot as usize, source).into_iter().collect();
        let missing: Vec<u64> = expected
            .iter()
            .copied()
            .filter(|s| !got.contains(s))
            .collect();
        if !missing.is_empty() {
            let router = net.host_routers[slot as usize].index();
            out.push(violation(
                "delivery",
                router,
                format!(
                    "member slot {slot} missing seqs {missing:?} from {source} \
                     (got {} of {})",
                    expected.len() - missing.len(),
                    expected.len()
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// No orphaned state
// ---------------------------------------------------------------------

/// After every member has left and all holdtimes/lingers have expired, no
/// router may retain forwarding state. The CBT core's own bare tree
/// anchor (no parent, no children, no members) is exempt — a core never
/// quits its tree by design.
pub fn check_no_orphans(net: &ScenarioNet) -> Vec<Violation> {
    let mut out = Vec::new();
    for n in up_routers(net) {
        match net.protocol {
            Protocol::Pim => {
                let e = net.world.node::<PimRouter>(NodeIdx(n)).engine();
                for (group, gs) in e.groups() {
                    if let Some(star) = &gs.star {
                        out.push(violation(
                            "no-orphans",
                            n,
                            format!("(*,{group:?}) survives teardown: {:?}", star.oifs().keys()),
                        ));
                    }
                    for &s in gs.sources.keys() {
                        out.push(violation(
                            "no-orphans",
                            n,
                            format!("({s}, {group:?}) survives teardown"),
                        ));
                    }
                }
            }
            Protocol::Dvmrp => {
                let e = net.world.node::<DvmrpRouter>(NodeIdx(n)).engine();
                for (s, g) in e.entry_keys() {
                    out.push(violation(
                        "no-orphans",
                        n,
                        format!("({s}, {g:?}) survives its entry timeout"),
                    ));
                }
            }
            Protocol::Cbt => {
                let my_addr = net.world.node::<CbtRouter>(NodeIdx(n)).engine().addr();
                let e = net.world.node::<CbtRouter>(NodeIdx(n)).engine();
                for (g, t) in e.trees() {
                    let bare_core_anchor = t.core == my_addr
                        && t.parent().is_none()
                        && t.children().is_empty()
                        && t.member_ifaces.is_empty();
                    if !bare_core_anchor {
                        out.push(violation(
                            "no-orphans",
                            n,
                            format!(
                                "tree for {g:?} survives teardown (parent {:?}, \
                                 {} children, {} member ifaces)",
                                t.parent(),
                                t.children().len(),
                                t.member_ifaces.len()
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// CBT ack ledger
// ---------------------------------------------------------------------

/// Hop-by-hop explicit acks must leave both ends of every CBT tree edge
/// in agreement: if an on-tree router records `(iface, parent)` as its
/// parent link, then `parent` must be the direct neighbor on that iface,
/// and the parent router must hold a matching child entry for this router
/// on its own side of the same link. Routers with a join still pending
/// are exempt — their edge is not yet acknowledged.
pub fn check_cbt_ack_ledger(net: &ScenarioNet) -> Vec<Violation> {
    let mut out = Vec::new();
    if net.protocol != Protocol::Cbt {
        return out;
    }
    for n in up_routers(net) {
        let e = net.world.node::<CbtRouter>(NodeIdx(n)).engine();
        let my_addr = e.addr();
        for (group, tree) in e.trees() {
            if !tree.on_tree() || e.join_pending(group) {
                continue;
            }
            let Some((p_iface, p_addr)) = tree.parent() else {
                continue; // the core: no parent by definition
            };
            let Some(peer) = net.peers[n].iter().find(|p| p.iface == p_iface) else {
                out.push(violation(
                    "cbt-ack-ledger",
                    n,
                    format!("parent iface {p_iface:?} is not a router-router link"),
                ));
                continue;
            };
            if peer.neighbor_addr != p_addr {
                out.push(violation(
                    "cbt-ack-ledger",
                    n,
                    format!(
                        "parent {p_addr} recorded on iface {p_iface:?}, but that \
                         link's neighbor is {}",
                        peer.neighbor_addr
                    ),
                ));
                continue;
            }
            let pn = peer.neighbor.index();
            if !net.world.is_node_up(NodeIdx(pn)) {
                continue; // parent crashed; echo timeout will flush us
            }
            let Some(back) = net.peers[pn].iter().find(|p| p.neighbor.index() == n) else {
                continue;
            };
            let pe = net.world.node::<CbtRouter>(NodeIdx(pn)).engine();
            let ledger_ok = pe
                .tree(group)
                .is_some_and(|pt| pt.children().contains_key(&(back.iface, my_addr)));
            if !ledger_ok {
                out.push(violation(
                    "cbt-ack-ledger",
                    n,
                    format!(
                        "on-tree with parent r{pn} for {group:?}, but r{pn} holds \
                         no child entry for {my_addr} on iface {:?}",
                        back.iface
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Hardening: bounded malformed state
// ---------------------------------------------------------------------

/// Adversarial traffic must never implant state. Two clauses, valid even
/// when malformed frames are injected directly into routers (the fuzz
/// harness) rather than arriving via a corrupting channel:
///
/// * **Bounded state** — every up router's multicast state refers only to
///   the scenario's own group: a corrupted or malformed control frame
///   must not conjure entries for groups nobody joined.
/// * **Drop bookkeeping** — each router's own `malformed_drops`
///   counter agrees with the world's per-node decode-failure ledger;
///   every undecodable frame is counted exactly once on both sides.
///
/// Aggregate scenarios (any host slot with population > 1) add a third
/// clause: **site-scaled state** — a router's entry count for the
/// scenario group is bounded by the number of host *sites* (one possible
/// source plus one tree entry per site, plus the shared tree), never by
/// the member population behind them. This is the paper's aggregation
/// argument made checkable: a million members behind fifty LANs must
/// cost the routers no more state than fifty explicit hosts. Explicit
/// scenarios skip the clause (adversarial schedules may legally implant
/// same-group source entries the fuzz corpus pins down separately), so
/// the classic checks are unchanged.
pub fn check_bounded_state(net: &ScenarioNet) -> Vec<Violation> {
    let mut out = Vec::new();
    let counters = net.world.counters();
    let aggregate = net.populations.iter().any(|&p| p > 1);
    // Worst-case entries per router for the scenario's single group:
    // every site a source (one (S,G) each) plus the shared (*,G) tree.
    let site_bound = net.hosts.len() + 1;
    for n in up_routers(net) {
        let idx = NodeIdx(n);
        let mut bad_groups: Vec<String> = Vec::new();
        let mut group_entries = 0usize;
        let malformed_drops = match net.protocol {
            Protocol::Pim => {
                let r = net.world.node::<PimRouter>(idx);
                for (g, gs) in r.engine().groups() {
                    if g != net.group {
                        bad_groups.push(format!("{g:?}"));
                    } else {
                        group_entries += usize::from(gs.star.is_some()) + gs.sources.len();
                    }
                }
                r.malformed_drops
            }
            Protocol::Dvmrp => {
                let r = net.world.node::<DvmrpRouter>(idx);
                for (s, g) in r.engine().entry_keys() {
                    if g != net.group {
                        bad_groups.push(format!("({s}, {g:?})"));
                    } else {
                        group_entries += 1;
                    }
                }
                r.malformed_drops
            }
            Protocol::Cbt => {
                let r = net.world.node::<CbtRouter>(idx);
                for (g, _) in r.engine().trees() {
                    if g != net.group {
                        bad_groups.push(format!("{g:?}"));
                    } else {
                        group_entries += 1;
                    }
                }
                r.malformed_drops
            }
        };
        if aggregate && group_entries > site_bound {
            out.push(violation(
                "hardening",
                n,
                format!(
                    "{group_entries} entries for the scenario group exceed the \
                     site-scaled bound {site_bound} ({} sites): state is scaling \
                     with members, not sites",
                    net.hosts.len()
                ),
            ));
        }
        if !bad_groups.is_empty() {
            out.push(violation(
                "hardening",
                n,
                format!(
                    "state for group(s) outside the scenario: {}",
                    bad_groups.join(", ")
                ),
            ));
        }
        let ledger = counters.decode_failures(idx);
        if malformed_drops != ledger {
            out.push(violation(
                "hardening",
                n,
                format!(
                    "malformed-drop counter {malformed_drops} disagrees with \
                     the world's decode-failure ledger {ledger}"
                ),
            ));
        }
    }
    out
}

/// The full decode-hardening oracle the explorer runs:
/// [`check_bounded_state`] plus **clean-channel silence** — if no
/// transmission was ever corrupted, no router may report a decode
/// failure, because decode failures may only originate from channel
/// corruption, never from well-formed peers. (The fuzz harness, which
/// injects malformed frames without a corrupting channel, checks
/// [`check_bounded_state`] alone.)
pub fn check_hardening(net: &ScenarioNet) -> Vec<Violation> {
    let mut out = check_bounded_state(net);
    let counters = net.world.counters();
    if counters.pkts_corrupted() == 0 && counters.total_decode_failures() > 0 {
        out.push(violation(
            "hardening",
            0,
            format!(
                "{} decode failure(s) on a channel that never corrupted a frame",
                counters.total_decode_failures()
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Congestion: bounded queues, no starvation, recovery
// ---------------------------------------------------------------------

/// No transmit queue's peak may exceed the capacity bound configured for
/// its link. The counters track the high-water mark of both the backlog
/// and the configured bound, so the check is valid even after the
/// schedule has healed the cap away: a link that was ever capped keeps
/// its `queue_cap_bytes` ledger. Violations here mean the capacity model
/// itself leaked — admission control let a packet through past the bound.
pub fn check_bounded_queues(net: &ScenarioNet) -> Vec<Violation> {
    let mut out = Vec::new();
    for (link, stats) in net.world.counters().links() {
        if stats.queue_cap_bytes > 0 && stats.peak_queue_bytes > stats.queue_cap_bytes {
            out.push(violation(
                "bounded-queues",
                0,
                format!(
                    "link {} queue peaked at {} bytes, above its configured \
                     bound {}",
                    link.0, stats.peak_queue_bytes, stats.queue_cap_bytes
                ),
            ));
        }
    }
    out
}

/// Congestion must never starve the control plane: with the DSL's
/// control-priority class (the `bandwidth` fault's default), every
/// tail-drop charged to the control class is a violation. Joins, prunes,
/// registers, and acks are what let the protocols degrade gracefully —
/// losing them converts transient overload into persistent tree damage.
pub fn check_no_starvation(net: &ScenarioNet) -> Vec<Violation> {
    let mut out = Vec::new();
    for (link, stats) in net.world.counters().links() {
        if stats.queue_drops_ctrl > 0 {
            out.push(violation(
                "no-starvation",
                0,
                format!(
                    "link {} tail-dropped {} control packet(s) under congestion \
                     ({} data drops alongside)",
                    link.0, stats.queue_drops_ctrl, stats.queue_drops_data
                ),
            ));
        }
    }
    out
}

/// Did any transmit queue back up during the run (a tail drop or a
/// nonzero queue peak)?
pub fn congested(net: &ScenarioNet) -> bool {
    let c = net.world.counters();
    c.queue_drops_data() > 0 || c.queue_drops_ctrl() > 0 || c.peak_queue_bytes() > 0
}

/// Graceful degradation's other half: once congestion clears, service
/// must come back. If the run congested at all (any queue drop or a
/// nonzero queue peak), every member must still have received the full
/// post-heal probe train — reported as `congestion-recovery` rather than
/// plain `delivery` so triage can tell "the tree never recovered from
/// overload" apart from ordinary fault-induced loss. Runs that never
/// congested return no violations (plain [`check_delivery`] already
/// covers them).
pub fn check_congestion_recovery(
    net: &ScenarioNet,
    members: &[u32],
    source: Addr,
    expected: &[u64],
) -> Vec<Violation> {
    if !congested(net) {
        return Vec::new();
    }
    check_delivery(net, members, source, expected)
        .into_iter()
        .map(|mut v| {
            v.oracle = "congestion-recovery";
            v
        })
        .collect()
}

// ---------------------------------------------------------------------
// Composites
// ---------------------------------------------------------------------

/// The structural invariants that must hold after any healed schedule,
/// regardless of final membership: RPF consistency, loop freedom, the
/// CBT ack ledger, the decode-hardening invariants, and the congestion
/// invariants (bounded queues, no control starvation) — the latter two
/// are free on uncongested runs, where every counter they read is zero.
pub fn check_structure(net: &ScenarioNet) -> Vec<Violation> {
    let mut out = check_rpf(net);
    out.extend(check_loop_freedom(net));
    out.extend(check_cbt_ack_ledger(net));
    out.extend(check_hardening(net));
    out.extend(check_bounded_queues(net));
    out.extend(check_no_starvation(net));
    out
}

/// The post-run battery every harness applies to a healed, quiesced
/// network: [`check_structure`] always; then [`check_no_orphans`] when no
/// member is left, otherwise eventual delivery of `expected` from
/// `source` to every slot in `members` — labeled `congestion-recovery`
/// ([`check_congestion_recovery`]) when the run congested, so triage can
/// tell "the tree never recovered from overload" apart from ordinary
/// fault loss, and plain [`check_delivery`] when it did not.
pub fn check_battery(
    net: &ScenarioNet,
    members: &[u32],
    source: Addr,
    expected: &[u64],
) -> Vec<Violation> {
    let mut out = check_structure(net);
    out.extend(if members.is_empty() {
        check_no_orphans(net)
    } else if congested(net) {
        check_congestion_recovery(net, members, source, expected)
    } else {
        check_delivery(net, members, source, expected)
    });
    out
}
