//! Aggregate host populations: counts and timers instead of N `HostNode`s.
//!
//! The paper's scaling argument is about *millions* of group members, and
//! simulating each one as a [`crate::HostNode`] puts a node, an RNG
//! stream, and a timer slot behind every single member. A
//! [`PopulationNode`] collapses an entire LAN's membership into one node
//! holding a member *count* per group. What the router on the LAN
//! observes is the same:
//!
//! * **Query responses follow the IGMP sampling argument exactly.** N
//!   members would each draw an integer delay uniformly from
//!   `0..max_resp_time` and the first to fire suppresses the rest, so the
//!   router sees one report at `min(d_1..d_N)`. The population samples
//!   that minimum directly through its inverse CDF
//!   (`P(min >= k) = ((max-k)/max)^N`) and emits exactly one report —
//!   the same distribution without N draws or N timers.
//! * **Joins refresh like a batch of unsolicited reports.** A join batch
//!   emits one unsolicited report: N same-tick reports are idempotent at
//!   the router (each would refresh the same membership timer), so only
//!   the first is observable.
//! * **Leaves are silent** (IGMPv1), so leave latency is the router's
//!   membership timeout from the last refresh — identical to explicit
//!   hosts.
//!
//! Delivery is accounted per population: each data packet received while
//! the group has M members counts as M member-receptions (one log entry,
//! weight M), which is what the delivery oracle checks against.

use crate::Received;
use netsim::{Ctx, Duration, IfaceId, Node, SimTime, TimerId};
use rand::Rng;
use std::any::Any;
use std::collections::BTreeMap;
use wire::igmp::{HostQuery, HostReport, RpMapping};
use wire::ip::{Header, Protocol};
use wire::{Addr, Group, Message};

const TOKEN_WAKE: u64 = 1;
const DATA_TTL: u8 = 32;

/// Per-group aggregate membership state.
#[derive(Debug)]
struct Membership {
    members: u64,
    /// Sampled min-of-N report delay for an outstanding query, if any.
    pending_report: Option<SimTime>,
}

/// Sample `min(d_1..d_n)` where each `d_i` is uniform on `0..max`,
/// inverting the survival function `P(min >= k) = ((max-k)/max)^n` with a
/// single uniform draw. `max` is a handful of ticks (the IGMP max
/// response time), so the loop is short.
fn min_of_n_uniform(max: u64, n: u64, rng: &mut impl Rng) -> u64 {
    debug_assert!(max >= 1 && n >= 1);
    let u: f64 = rng.gen();
    let mut k = 0;
    while k + 1 < max {
        let survival = (((max - (k + 1)) as f64) / max as f64).powi(n.min(i32::MAX as u64) as i32);
        if u < survival {
            k += 1;
        } else {
            break;
        }
    }
    k
}

/// An aggregate host population on one LAN. Like [`crate::HostNode`] it
/// has exactly one interface (0); unlike it, `members` per group is a
/// count, not a node set.
pub struct PopulationNode {
    addr: Addr,
    memberships: BTreeMap<Group, Membership>,
    rp_mappings: BTreeMap<Group, Vec<Addr>>,
    /// How many members "the whole slot" is, for [`crate::Endpoint`].
    pub(crate) population: u64,
    /// Data packets received for joined groups, one entry per packet
    /// (weight = member count at arrival, accumulated in
    /// [`PopulationNode::member_receptions`]).
    pub received: Vec<Received>,
    member_receptions: u64,
    reports_sent: u64,
    next_seq: u64,
    wakeup: Option<(SimTime, TimerId)>,
}

impl PopulationNode {
    /// New, empty population answering from `addr`.
    pub fn new(addr: Addr) -> PopulationNode {
        PopulationNode {
            addr,
            memberships: BTreeMap::new(),
            rp_mappings: BTreeMap::new(),
            population: 1,
            received: Vec::new(),
            member_receptions: 0,
            reports_sent: 0,
            next_seq: 0,
            wakeup: None,
        }
    }

    /// Size the slot: [`crate::Endpoint::join`] and
    /// [`crate::Endpoint::leave`] move this many members at once
    /// (default 1). Partial churn stays with
    /// [`PopulationNode::join_members`] / [`PopulationNode::leave_members`].
    pub fn sized(mut self, population: u64) -> PopulationNode {
        self.population = population;
        self
    }

    /// The population's spokesman address (source of its reports/data).
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Current member count for `group`.
    pub fn members(&self, group: Group) -> u64 {
        self.memberships.get(&group).map_or(0, |m| m.members)
    }

    /// Total member-weighted data receptions (Σ over packets of the member
    /// count at arrival) — the aggregate analogue of "every member's
    /// reception log length" summed.
    pub fn member_receptions(&self) -> u64 {
        self.member_receptions
    }

    /// IGMP reports this population has transmitted.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// Configure the RP mapping advertised when `group` gains members.
    pub fn set_rp_mapping(&mut self, group: Group, rps: Vec<Addr>) {
        self.rp_mappings.insert(group, rps);
    }

    /// Admit `n` members to `group`. A batch going 0 → positive (or any
    /// nonempty batch) emits one unsolicited report — the only
    /// router-observable part of N simultaneous unsolicited reports.
    /// Call via `World::call_node` so the report is transmitted.
    pub fn join_members(&mut self, ctx: &mut Ctx<'_>, group: Group, n: u64) {
        if n == 0 {
            return;
        }
        let m = self.memberships.entry(group).or_insert(Membership {
            members: 0,
            pending_report: None,
        });
        m.members += n;
        self.send_report(ctx, group);
    }

    /// Remove `n` members from `group` (saturating). Silent, as IGMPv1
    /// leaves are: the router's membership timer lapses on its own.
    pub fn leave_members(&mut self, group: Group, n: u64) {
        if let Some(m) = self.memberships.get_mut(&group) {
            m.members = m.members.saturating_sub(n);
            if m.members == 0 {
                m.pending_report = None;
            }
        }
    }

    /// Send one data packet to `group` from the population's address;
    /// returns the sequence number used (shared counter across groups,
    /// like [`crate::HostNode::send_data`]).
    pub fn send_data(&mut self, ctx: &mut Ctx<'_>, group: Group) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let header = Header {
            proto: Protocol::Data,
            ttl: DATA_TTL,
            src: self.addr,
            dst: group.addr(),
        };
        ctx.send(IfaceId(0), header.encap(&seq.to_be_bytes()));
        seq
    }

    /// Drain the reception log without copying.
    pub fn take_received(&mut self) -> Vec<Received> {
        std::mem::take(&mut self.received)
    }

    fn send_report(&mut self, ctx: &mut Ctx<'_>, group: Group) {
        self.reports_sent += 1;
        let header = Header {
            proto: Protocol::Igmp,
            ttl: 1,
            src: self.addr,
            dst: group.addr(),
        };
        let msg = Message::HostReport(HostReport { group });
        ctx.send(IfaceId(0), header.encap(&msg.encode()));
        if let Some(rps) = self.rp_mappings.get(&group) {
            let header = Header {
                proto: Protocol::Igmp,
                ttl: 1,
                src: self.addr,
                dst: Addr::ALL_PIM_ROUTERS,
            };
            let msg = Message::RpMapping(RpMapping {
                group,
                rps: rps.clone(),
            });
            ctx.send(IfaceId(0), header.encap(&msg.encode()));
        }
    }

    /// Arm one wakeup at the earliest pending report.
    fn reschedule(&mut self, ctx: &mut Ctx<'_>, floor: SimTime) {
        let next = self
            .memberships
            .values()
            .filter_map(|m| m.pending_report)
            .min();
        let Some(d) = next else {
            if let Some((_, id)) = self.wakeup.take() {
                ctx.cancel_timer(id);
            }
            return;
        };
        let at = d.max(floor);
        if let Some((t, id)) = self.wakeup {
            if t == at {
                return;
            }
            ctx.cancel_timer(id);
        }
        let id = ctx.set_timer_at(at, TOKEN_WAKE);
        self.wakeup = Some((at, id));
    }
}

impl Node for PopulationNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, packet: &[u8]) {
        let Ok((header, payload)) = Header::decap(packet) else {
            return;
        };
        match header.proto {
            Protocol::Igmp => {
                let Ok(msg) = Message::decode(payload) else {
                    return;
                };
                let now = ctx.now();
                match msg {
                    Message::HostQuery(HostQuery { max_resp_time }) => {
                        let max = (max_resp_time as u64).max(1);
                        for m in self.memberships.values_mut() {
                            if m.members > 0 && m.pending_report.is_none() {
                                let d = min_of_n_uniform(max, m.members, ctx.rng());
                                m.pending_report = Some(now + Duration(d));
                            }
                        }
                    }
                    Message::HostReport(HostReport { group }) => {
                        // Another responder on the LAN beat our sampled
                        // minimum: every member here is suppressed.
                        if let Some(m) = self.memberships.get_mut(&group) {
                            m.pending_report = None;
                        }
                    }
                    _ => {}
                }
                self.reschedule(ctx, now);
            }
            Protocol::Data => {
                let Some(group) = Group::new(header.dst) else {
                    return;
                };
                if header.src == self.addr {
                    return; // our own transmission echoed on the LAN
                }
                let members = self.members(group);
                if members == 0 {
                    return;
                }
                let seq = payload
                    .get(..8)
                    .map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
                    .unwrap_or(u64::MAX);
                self.received.push(Received {
                    at: ctx.now(),
                    source: header.src,
                    group,
                    seq,
                });
                self.member_receptions += members;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_WAKE {
            return;
        }
        self.wakeup = None;
        let now = ctx.now();
        // Due query responses: one report per group, per the sampling
        // argument.
        let due_reports: Vec<Group> = self
            .memberships
            .iter()
            .filter(|(_, m)| m.pending_report.is_some_and(|at| now >= at))
            .map(|(&g, _)| g)
            .collect();
        for g in due_reports {
            if let Some(m) = self.memberships.get_mut(&g) {
                m.pending_report = None;
            }
            self.send_report(ctx, g);
        }
        self.reschedule(ctx, now + Duration(1));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The inverse-CDF sampler must match the empirical distribution of
    /// an actual min over N uniform draws.
    #[test]
    fn min_of_n_matches_explicit_minimum() {
        let max = 10u64;
        for n in [1u64, 2, 5, 20] {
            let mut direct = StdRng::seed_from_u64(100 + n);
            let mut inverse = StdRng::seed_from_u64(200 + n);
            let trials = 20_000;
            let mut hist_direct = vec![0u64; max as usize];
            let mut hist_inverse = vec![0u64; max as usize];
            for _ in 0..trials {
                let m = (0..n).map(|_| direct.gen_range(0..max)).min().unwrap();
                hist_direct[m as usize] += 1;
                let s = min_of_n_uniform(max, n, &mut inverse);
                hist_inverse[s as usize] += 1;
            }
            for k in 0..max as usize {
                let a = hist_direct[k] as f64 / trials as f64;
                let b = hist_inverse[k] as f64 / trials as f64;
                assert!(
                    (a - b).abs() < 0.02,
                    "n={n} k={k}: direct {a:.3} vs inverse {b:.3}"
                );
            }
        }
    }

    #[test]
    fn min_of_one_is_uniform_and_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let s = min_of_n_uniform(10, 1, &mut rng);
            assert!(s < 10);
        }
        // Degenerate max: the only possible delay is zero.
        for _ in 0..10 {
            assert_eq!(min_of_n_uniform(1, 5, &mut rng), 0);
        }
        // Huge populations answer almost immediately and never panic.
        for _ in 0..100 {
            assert!(min_of_n_uniform(10, 1_000_000, &mut rng) <= 1);
        }
    }
}
