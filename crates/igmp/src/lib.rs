//! The host group-membership protocol (IGMP, RFC 1112 flavor).
//!
//! "A group membership protocol is used for routers to learn the existence
//! of members on their directly attached subnetworks" (paper §1.1). This
//! crate provides both halves, as sans-IO state machines, and the one
//! simulator node that puts hosts on a LAN:
//!
//! * [`Host`] — every member behind one subnetwork attachment, counted
//!   per group: joins/leaves groups, answers membership queries with one
//!   randomized-delay report per group (the minimum of its members'
//!   delays), suppresses it when another member of the same group answers
//!   first (classic IGMPv1 suppression), and can advertise G → RP(s)
//!   mappings to its local routers (the paper's proposed new host
//!   message, §3.1 footnote 9);
//! * [`HostNode`] — a [`Host`] of one member or of a whole aggregate site
//!   on its LAN, sending data and logging what it receives;
//! * [`Querier`] — one per router interface: participates in querier
//!   election (lowest address queries), sends periodic queries, tracks
//!   per-group membership with soft-state timers, and surfaces
//!   joined/expired/RP-mapping events to the multicast routing protocol
//!   above it.

#![warn(missing_docs)]

pub mod host;

pub use host::{with_host, HostNode, Received};

/// The aggregate site's old name. A [`HostNode`] of N members is the
/// aggregate site; the name stays only because the frozen `benchmark/`
/// package still spells it, and goes with the other wrappers that
/// package keeps alive (ROADMAP item 3(f)).
pub type PopulationNode = HostNode;

use netsim::{Deadlines, Duration, SimTime};
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use wire::igmp::{HostQuery, HostReport, RpMapping};
use wire::{Addr, Group, Message};

/// Interval between general queries sent by the elected querier.
pub const QUERY_INTERVAL: Duration = Duration(125);

/// Maximum randomized delay before a host answers a query.
pub const MAX_RESP_TIME: Duration = Duration(10);

/// How long a router keeps a group alive with no reports. Must exceed
/// `QUERY_INTERVAL + MAX_RESP_TIME` (two missed queries).
pub const MEMBERSHIP_TIMEOUT: Duration = Duration(280);

const _: () = assert!(MEMBERSHIP_TIMEOUT.ticks() > QUERY_INTERVAL.ticks() + MAX_RESP_TIME.ticks());

/// If we hear no query from a lower-addressed router for this long,
/// (re)assume the querier role.
pub const OTHER_QUERIER_TIMEOUT: Duration = Duration(300);

/// An action requested by a [`Host`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostOutput {
    /// Transmit `msg` with destination `dst` on the host's subnetwork.
    Send {
        /// Destination address (reports go *to the group itself* so other
        /// members can suppress; RP mappings go to all PIM routers).
        dst: Addr,
        /// The message.
        msg: Message,
    },
}

/// One joined group's members as the host side counts them.
#[derive(Debug)]
struct Membership {
    /// At least one: a group with no members has no entry.
    members: u64,
    /// When the members' one answer to an outstanding query goes out.
    pending_report: Option<SimTime>,
}

/// The host side of IGMP for one subnetwork attachment: every member
/// behind it, counted per group. The router on the subnetwork learns only
/// *whether* a group has members here, so one host and a million are the
/// same state machine:
///
/// * a query draws one report per group, at the minimum of the members'
///   response delays, sampled in one draw: the first to fire suppresses
///   the rest, so that is the only report the router would hear;
/// * a join sends one unsolicited report, however many members join: N
///   same-tick reports refresh the same router timer;
/// * a leave is silent (IGMPv1): the router's membership timer lapses.
#[derive(Debug, Default)]
pub struct Host {
    /// Joined groups. Ordered: a query draws one random delay per group
    /// and a tick sends the matured reports in this map's order, so the
    /// order reaches the wire.
    joined: BTreeMap<Group, Membership>,
    /// G → RPs mappings this host advertises (the paper's host RP-mapping
    /// message).
    rp_mappings: HashMap<Group, Vec<Addr>>,
}

/// Sample `min(d_1..d_n)` where each `d_i` is uniform on `0..max`. One
/// member's delay is its own draw, `rng.gen_range(0..max)`; more invert
/// the survival function `P(min >= k) = ((max-k)/max)^n` with a single
/// uniform draw. `max` is a handful of ticks (the IGMP max response
/// time), so the loop is short.
fn min_of_n_uniform(max: u64, n: u64, rng: &mut impl Rng) -> u64 {
    debug_assert!(max >= 1 && n >= 1);
    if n == 1 {
        return rng.gen_range(0..max);
    }
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

impl Host {
    /// New host with no memberships. (Hosts take all their timing from
    /// the querier's messages.)
    pub fn new() -> Host {
        Host::default()
    }

    /// The groups currently joined.
    pub fn groups(&self) -> impl Iterator<Item = Group> + '_ {
        self.joined.keys().copied()
    }

    /// Is any member here in `g`?
    pub fn is_member(&self, g: Group) -> bool {
        self.joined.contains_key(&g)
    }

    /// How many members here are in `g`.
    pub fn members(&self, g: Group) -> u64 {
        self.joined.get(&g).map_or(0, |m| m.members)
    }

    /// Configure the RP set this host will advertise for `g` alongside its
    /// reports.
    pub fn set_rp_mapping(&mut self, g: Group, rps: Vec<Addr>) {
        self.rp_mappings.insert(g, rps);
    }

    /// `g` now has `members` members (at least one): sends an unsolicited
    /// report immediately (and the RP mapping, if configured), which
    /// answers any query outstanding for `g`.
    pub fn join(&mut self, g: Group, members: u64) -> Vec<HostOutput> {
        debug_assert!(members >= 1);
        self.joined.insert(
            g,
            Membership {
                members,
                pending_report: None,
            },
        );
        let mut out = Vec::new();
        report(&self.rp_mappings, g, &mut out);
        out
    }

    /// `members` of `g`'s members leave (all of them, at most). IGMPv1
    /// leaves are silent: the router's membership timer expires on its
    /// own.
    pub fn leave(&mut self, g: Group, members: u64) {
        if let Some(m) = self.joined.get_mut(&g) {
            m.members = m.members.saturating_sub(members);
            if m.members == 0 {
                self.joined.remove(&g);
            }
        }
    }

    /// A message arrived on the subnetwork.
    pub fn on_message(
        &mut self,
        now: SimTime,
        msg: &Message,
        rng: &mut impl Rng,
    ) -> Vec<HostOutput> {
        match msg {
            Message::HostQuery(HostQuery { max_resp_time }) => {
                let max = (*max_resp_time as u64).max(1);
                for m in self.joined.values_mut() {
                    if m.pending_report.is_none() {
                        let d = min_of_n_uniform(max, m.members, rng);
                        m.pending_report = Some(now + Duration(d));
                    }
                }
                Vec::new()
            }
            Message::HostReport(HostReport { group }) => {
                // Another member answered: suppress our own pending report.
                if let Some(m) = self.joined.get_mut(group) {
                    m.pending_report = None;
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// When the next pending report fires, if any. `None` means the host is
    /// fully idle: no timer needs to be armed until a query arrives.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.joined.values().filter_map(|m| m.pending_report).min()
    }

    /// Emit any reports whose randomized delay has elapsed. Call at least
    /// once per tick of the subnetwork's owner.
    pub fn tick(&mut self, now: SimTime) -> Vec<HostOutput> {
        let mut out = Vec::new();
        for (&g, m) in self.joined.iter_mut() {
            if m.pending_report.is_some_and(|at| now >= at) {
                m.pending_report = None;
                report(&self.rp_mappings, g, &mut out);
            }
        }
        out
    }
}

/// Push a report for `g` onto `out`, and the RP mapping if `rp_mappings`
/// holds one.
fn report(rp_mappings: &HashMap<Group, Vec<Addr>>, g: Group, out: &mut Vec<HostOutput>) {
    out.push(HostOutput::Send {
        dst: g.addr(),
        msg: Message::HostReport(HostReport { group: g }),
    });
    if let Some(rps) = rp_mappings.get(&g) {
        out.push(HostOutput::Send {
            dst: Addr::ALL_PIM_ROUTERS,
            msg: Message::RpMapping(RpMapping {
                group: g,
                rps: rps.clone(),
            }),
        });
    }
}

/// An event surfaced by a [`Querier`] to the multicast routing protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuerierOutput {
    /// Transmit `msg` with destination `dst` on this interface's
    /// subnetwork.
    Send {
        /// Destination address.
        dst: Addr,
        /// The message.
        msg: Message,
    },
    /// A first report for `0` arrived: a member now exists on this
    /// subnetwork. PIM reacts per §3.1.
    MemberJoined(Group),
    /// The last member of `0` timed out (IGMPv1 silent leave).
    MemberExpired(Group),
    /// A host advertised the RPs for `0` (§3.1 footnote 9).
    RpMappingLearned(Group, Vec<Addr>),
}

/// The router side of IGMP for one interface.
#[derive(Debug)]
pub struct Querier {
    my_addr: Addr,
    /// Are we the elected querier on this subnetwork?
    is_querier: bool,
    /// When the current other-querier claim lapses.
    other_querier_until: Option<SimTime>,
    next_query: SimTime,
    /// Live groups → membership expiry. Ordered: simultaneous expiries
    /// are surfaced, and acted on by the routing protocol, in this order.
    members: BTreeMap<Group, SimTime>,
    /// Every membership expiry in `members`, kept current where one is
    /// written; with the role deadline, its front is the next wakeup.
    member_timers: Deadlines,
}

impl Querier {
    /// New querier state for an interface of the router at `my_addr`.
    /// Starts assuming the querier role until a lower address is heard.
    pub fn new(my_addr: Addr) -> Querier {
        Querier {
            my_addr,
            is_querier: true,
            other_querier_until: None,
            next_query: SimTime::ZERO,
            members: BTreeMap::new(),
            member_timers: Deadlines::new(),
        }
    }

    /// Are we currently the elected querier?
    pub fn is_querier(&self) -> bool {
        self.is_querier
    }

    /// Groups with live local members.
    pub fn groups(&self) -> impl Iterator<Item = Group> + '_ {
        self.members.keys().copied()
    }

    /// Is there a live local member of `g`?
    pub fn has_member(&self, g: Group) -> bool {
        self.members.contains_key(&g)
    }

    /// A message arrived on this interface from `src`.
    pub fn on_message(&mut self, now: SimTime, src: Addr, msg: &Message) -> Vec<QuerierOutput> {
        match msg {
            Message::HostQuery(_) => {
                // Querier election: lowest address wins.
                if src < self.my_addr {
                    self.is_querier = false;
                    self.other_querier_until = Some(now + OTHER_QUERIER_TIMEOUT);
                }
                Vec::new()
            }
            Message::HostReport(HostReport { group }) => {
                let expiry = now + MEMBERSHIP_TIMEOUT;
                // A lapsed entry that merely hasn't been swept by tick()
                // yet counts as a fresh join, so the routing protocol is
                // re-notified.
                let before = self.members.insert(*group, expiry);
                self.member_timers.rearm(before, Some(expiry));
                let was_live = before.is_some_and(|old| now < old);
                if was_live {
                    Vec::new()
                } else {
                    vec![QuerierOutput::MemberJoined(*group)]
                }
            }
            Message::RpMapping(RpMapping { group, rps }) => {
                vec![QuerierOutput::RpMappingLearned(*group, rps.clone())]
            }
            _ => Vec::new(),
        }
    }

    /// The next scheduled query, or the querier-role reclaim when standing
    /// down.
    fn role_deadline(&self) -> Option<SimTime> {
        if self.is_querier {
            Some(self.next_query)
        } else {
            self.other_querier_until
        }
    }

    /// When this querier next needs a `tick` call: the role deadline or
    /// the earliest membership expiry — a read of the expiry index,
    /// checked against the walk over `members` in debug builds.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let next = netsim::earliest(self.role_deadline(), self.member_timers.first());
        #[cfg(debug_assertions)]
        assert_eq!(
            next,
            self.scan_deadline(),
            "a membership expiry was written past the deadline index"
        );
        next
    }

    /// The earliest pending timer, found by walking all of them: the
    /// reference the index is checked against.
    #[cfg(any(test, debug_assertions))]
    fn scan_deadline(&self) -> Option<SimTime> {
        netsim::earliest(self.role_deadline(), self.members.values().copied().min())
    }

    /// Periodic maintenance: query on schedule (if querier), reclaim the
    /// querier role if the incumbent went silent, expire members.
    pub fn tick(&mut self, now: SimTime) -> Vec<QuerierOutput> {
        let mut out = Vec::new();
        if let Some(until) = self.other_querier_until {
            if now >= until {
                self.is_querier = true;
                self.other_querier_until = None;
            }
        }
        if self.is_querier && now >= self.next_query {
            out.push(QuerierOutput::Send {
                dst: Addr::ALL_HOSTS,
                msg: Message::HostQuery(HostQuery {
                    max_resp_time: MAX_RESP_TIME.ticks().min(255) as u8,
                }),
            });
            self.next_query = now + QUERY_INTERVAL;
        }
        if self.member_timers.due(now) {
            self.members.retain(|&g, &mut at| {
                let live = now < at;
                if !live {
                    self.member_timers.disarm(at);
                    out.push(QuerierOutput::MemberExpired(g));
                }
                live
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn g(i: u32) -> Group {
        Group::test(i)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn join_sends_unsolicited_report() {
        let mut h = Host::new();
        let out = h.join(g(1), 1);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            HostOutput::Send { dst, msg: Message::HostReport(r) }
                if *dst == g(1).addr() && r.group == g(1)
        ));
        assert!(h.is_member(g(1)));
    }

    #[test]
    fn join_with_rp_mapping_advertises_it() {
        let mut h = Host::new();
        let rp = Addr::new(10, 0, 0, 9);
        h.set_rp_mapping(g(1), vec![rp]);
        let out = h.join(g(1), 1);
        assert_eq!(out.len(), 2);
        assert!(matches!(
            &out[1],
            HostOutput::Send { dst, msg: Message::RpMapping(m) }
                if *dst == Addr::ALL_PIM_ROUTERS && m.rps == vec![rp]
        ));
    }

    #[test]
    fn query_schedules_delayed_report() {
        let mut h = Host::new();
        h.join(g(1), 1);
        let mut r = rng();
        h.on_message(
            SimTime(100),
            &Message::HostQuery(HostQuery { max_resp_time: 10 }),
            &mut r,
        );
        // The report fires somewhere within max_resp_time.
        let mut total = h.tick(SimTime(100));
        total.extend(h.tick(SimTime(110)));
        assert!(
            total.iter().any(|o| matches!(
                o,
                HostOutput::Send { msg: Message::HostReport(r), .. } if r.group == g(1)
            )),
            "report must fire within max response time"
        );
    }

    #[test]
    fn anothers_report_suppresses_ours() {
        let mut h = Host::new();
        h.join(g(1), 1);
        let mut r = rng();
        h.on_message(
            SimTime(100),
            &Message::HostQuery(HostQuery { max_resp_time: 10 }),
            &mut r,
        );
        h.on_message(
            SimTime(101),
            &Message::HostReport(HostReport { group: g(1) }),
            &mut r,
        );
        assert!(h.tick(SimTime(200)).is_empty(), "report must be suppressed");
    }

    #[test]
    fn leave_is_silent() {
        let mut h = Host::new();
        h.join(g(1), 1);
        h.leave(g(1), 1);
        assert!(!h.is_member(g(1)));
        let mut r = rng();
        h.on_message(
            SimTime(100),
            &Message::HostQuery(HostQuery { max_resp_time: 10 }),
            &mut r,
        );
        assert!(h.tick(SimTime(200)).is_empty());
    }

    /// One member's response delay is its own draw: the sampler consumes
    /// the RNG exactly as `gen_range(0..max)` does, draw for draw.
    #[test]
    fn min_of_one_is_the_members_own_draw() {
        for max in [1u64, 2, 10, 255] {
            let mut sampled = StdRng::seed_from_u64(max);
            let mut direct = StdRng::seed_from_u64(max);
            for _ in 0..1000 {
                assert_eq!(
                    min_of_n_uniform(max, 1, &mut sampled),
                    direct.gen_range(0..max)
                );
            }
        }
    }

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

    #[test]
    fn querier_emits_periodic_queries() {
        let mut q = Querier::new(Addr::new(10, 0, 0, 1));
        let out = q.tick(SimTime(0));
        assert!(matches!(
            &out[0],
            QuerierOutput::Send { dst, msg: Message::HostQuery(_) } if *dst == Addr::ALL_HOSTS
        ));
        assert!(q.tick(SimTime(50)).is_empty());
        assert!(!q.tick(SimTime(125)).is_empty());
    }

    #[test]
    fn querier_election_lowest_wins() {
        let mut q = Querier::new(Addr::new(10, 0, 0, 5));
        q.tick(SimTime(0));
        // Hear a query from a lower address: stand down.
        q.on_message(
            SimTime(1),
            Addr::new(10, 0, 0, 1),
            &Message::HostQuery(HostQuery { max_resp_time: 10 }),
        );
        assert!(!q.is_querier());
        assert!(
            q.tick(SimTime(125)).is_empty(),
            "non-querier must not query"
        );
        // Higher address does not preempt us once the incumbent lapses.
        let out = q.tick(SimTime(1 + 300));
        assert!(q.is_querier());
        assert!(!out.is_empty());
    }

    #[test]
    fn higher_addressed_querier_does_not_preempt() {
        let mut q = Querier::new(Addr::new(10, 0, 0, 5));
        q.on_message(
            SimTime(1),
            Addr::new(10, 0, 0, 9),
            &Message::HostQuery(HostQuery { max_resp_time: 10 }),
        );
        assert!(q.is_querier());
    }

    #[test]
    fn membership_lifecycle() {
        let mut q = Querier::new(Addr::new(10, 0, 0, 1));
        let out = q.on_message(
            SimTime(0),
            Addr::new(10, 0, 0, 20),
            &Message::HostReport(HostReport { group: g(3) }),
        );
        assert_eq!(out, vec![QuerierOutput::MemberJoined(g(3))]);
        assert!(q.has_member(g(3)));
        // A second report for the same group is not a new join.
        let out = q.on_message(
            SimTime(10),
            Addr::new(10, 0, 0, 21),
            &Message::HostReport(HostReport { group: g(3) }),
        );
        assert!(out.is_empty());
        // Refreshed at t=10, so alive at t=285 (10+280 > 285)...
        let out = q.tick(SimTime(285));
        assert!(!out.contains(&QuerierOutput::MemberExpired(g(3))));
        // ...but expired at t=290.
        let out = q.tick(SimTime(290));
        assert!(out.contains(&QuerierOutput::MemberExpired(g(3))));
        assert!(!q.has_member(g(3)));
    }

    #[test]
    fn host_deadline_tracks_pending_reports() {
        let mut h = Host::new();
        assert_eq!(h.next_deadline(), None);
        h.join(g(1), 1);
        // An unsolicited report fires immediately from join(); nothing pends.
        assert_eq!(h.next_deadline(), None);
        let mut r = rng();
        h.on_message(
            SimTime(100),
            &Message::HostQuery(HostQuery { max_resp_time: 10 }),
            &mut r,
        );
        let d = h.next_deadline().expect("query must schedule a report");
        assert!((SimTime(100)..SimTime(110)).contains(&d));
        h.tick(d);
        assert_eq!(h.next_deadline(), None, "fired report clears the deadline");
    }

    #[test]
    fn querier_deadline_covers_query_election_and_expiry() {
        let mut q = Querier::new(Addr::new(10, 0, 0, 5));
        // Fresh querier: first query is due immediately.
        assert_eq!(q.next_deadline(), Some(SimTime::ZERO));
        q.tick(SimTime(0));
        assert_eq!(q.next_deadline(), Some(SimTime(125)));
        // A member expiry earlier than the next query wins... (report at t=0
        // expires at t=280, next query at t=125, so the query still wins; a
        // stand-down pushes the deadline to the reclaim time instead.)
        q.on_message(
            SimTime(0),
            Addr::new(10, 0, 0, 20),
            &Message::HostReport(HostReport { group: g(3) }),
        );
        assert_eq!(q.next_deadline(), Some(SimTime(125)));
        q.on_message(
            SimTime(1),
            Addr::new(10, 0, 0, 1),
            &Message::HostQuery(HostQuery { max_resp_time: 10 }),
        );
        assert!(!q.is_querier());
        // Now the deadline is min(member expiry 280, reclaim-at 301).
        assert_eq!(q.next_deadline(), Some(SimTime(280)));
        q.tick(SimTime(280));
        assert_eq!(q.next_deadline(), Some(SimTime(301)));
    }

    #[test]
    fn rp_mapping_surfaces() {
        let mut q = Querier::new(Addr::new(10, 0, 0, 1));
        let rp = Addr::new(10, 0, 0, 9);
        let out = q.on_message(
            SimTime(0),
            Addr::new(10, 0, 0, 20),
            &Message::RpMapping(RpMapping {
                group: g(3),
                rps: vec![rp],
            }),
        );
        assert_eq!(out, vec![QuerierOutput::RpMappingLearned(g(3), vec![rp])]);
    }

    #[test]
    fn report_refresh_keeps_member_alive_indefinitely() {
        let mut q = Querier::new(Addr::new(10, 0, 0, 1));
        for t in (0..1000).step_by(100) {
            q.on_message(
                SimTime(t),
                Addr::new(10, 0, 0, 20),
                &Message::HostReport(HostReport { group: g(3) }),
            );
            let out = q.tick(SimTime(t + 50));
            assert!(!out.contains(&QuerierOutput::MemberExpired(g(3))));
        }
        assert!(q.has_member(g(3)));
    }

    proptest::proptest! {
        /// Whatever arrives, in whatever order, the querier's deadline
        /// read off the expiry index is the one a walk over its members
        /// finds — and the index holds exactly the live expiries, so an
        /// expired member leaves nothing behind — and simultaneous
        /// expiries surface in group order. Spelled out here because
        /// `next_deadline`'s own check is compiled out of release-profile
        /// test runs.
        #[test]
        fn indexed_deadline_is_the_scanned_deadline(
            steps in proptest::prop::collection::vec((0u8..6, 0u32..4, 0usize..6), 1..80),
        ) {
            let mut q = Querier::new(Addr::new(10, 0, 0, 5));
            let mut now = 0;
            for (op, k, dt) in steps {
                now += [0, 1, 10, 125, 280, 300][dt];
                let at = SimTime(now);
                match op {
                    0 | 1 => {
                        let report = Message::HostReport(HostReport { group: g(k) });
                        q.on_message(at, Addr::new(10, 0, 0, 20), &report);
                    }
                    2 => {
                        // A query from a lower (k = 0) or a higher address.
                        let from = Addr::new(10, 0, 0, [1, 9, 9, 9][k as usize]);
                        let query = Message::HostQuery(HostQuery { max_resp_time: 10 });
                        q.on_message(at, from, &query);
                    }
                    _ => {
                        let expired: Vec<Group> = q
                            .tick(at)
                            .into_iter()
                            .filter_map(|o| match o {
                                QuerierOutput::MemberExpired(g) => Some(g),
                                _ => None,
                            })
                            .collect();
                        assert!(expired.windows(2).all(|w| w[0] < w[1]), "{expired:?}");
                    }
                }
                assert_eq!(q.next_deadline(), q.scan_deadline(), "after op {op} at {now}");
                let mut walked: Vec<SimTime> = q.members.values().copied().collect();
                walked.sort();
                assert_eq!(q.member_timers.as_slice(), walked, "after op {op} at {now}");
            }
        }
    }
}
