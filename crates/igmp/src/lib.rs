//! The host group-membership protocol (IGMP, RFC 1112 flavor).
//!
//! "A group membership protocol is used for routers to learn the existence
//! of members on their directly attached subnetworks" (paper §1.1). This
//! crate provides both halves, as sans-IO state machines:
//!
//! * [`Host`] — joins/leaves groups, answers membership queries with
//!   randomized-delay reports, suppresses its report when another member of
//!   the same group answers first (classic IGMPv1 suppression), and can
//!   advertise G → RP(s) mappings to its local routers (the paper's
//!   proposed new host message, §3.1 footnote 9);
//! * [`Querier`] — one per router interface: participates in querier
//!   election (lowest address queries), sends periodic queries, tracks
//!   per-group membership with soft-state timers, and surfaces
//!   joined/expired/RP-mapping events to the multicast routing protocol
//!   above it.

#![warn(missing_docs)]

pub mod endpoint;
pub mod host;
pub mod population;

pub use endpoint::{host, host_mut, with_host, Endpoint};
pub use host::{HostNode, Received};
pub use population::PopulationNode;

use netsim::{Deadlines, Duration, SimTime};
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use wire::igmp::{HostQuery, HostReport, RpMapping};
use wire::{Addr, Group, Message};

/// Timing constants shared by hosts and queriers.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Interval between general queries sent by the elected querier.
    pub query_interval: Duration,
    /// Maximum randomized delay before a host answers a query.
    pub max_resp_time: Duration,
    /// How long a router keeps a group alive with no reports. Must exceed
    /// `query_interval + max_resp_time` (two missed queries by default).
    pub membership_timeout: Duration,
    /// If we hear no query from a lower-addressed router for this long,
    /// (re)assume the querier role.
    pub other_querier_timeout: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            query_interval: Duration(125),
            max_resp_time: Duration(10),
            membership_timeout: Duration(280),
            other_querier_timeout: Duration(300),
        }
    }
}

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

/// The host side of IGMP for one subnetwork attachment.
#[derive(Debug)]
pub struct Host {
    /// Joined groups → pending randomized report time, if a query is
    /// outstanding. Ordered: a query draws one random delay per group and
    /// a tick sends the matured reports in this map's order, so the order
    /// reaches the wire.
    joined: BTreeMap<Group, Option<SimTime>>,
    /// G → RPs mappings this host advertises (the paper's host RP-mapping
    /// message).
    rp_mappings: HashMap<Group, Vec<Addr>>,
}

impl Host {
    /// New host with no memberships. (Hosts take all their timing from
    /// the querier's messages; `_cfg` is accepted for symmetry.)
    pub fn new(_cfg: Config) -> Host {
        Host {
            joined: BTreeMap::new(),
            rp_mappings: HashMap::new(),
        }
    }

    /// The groups currently joined.
    pub fn groups(&self) -> impl Iterator<Item = Group> + '_ {
        self.joined.keys().copied()
    }

    /// Is this host currently a member of `g`?
    pub fn is_member(&self, g: Group) -> bool {
        self.joined.contains_key(&g)
    }

    /// Configure the RP set this host will advertise for `g` alongside its
    /// reports.
    pub fn set_rp_mapping(&mut self, g: Group, rps: Vec<Addr>) {
        self.rp_mappings.insert(g, rps);
    }

    /// Join `g`: sends an unsolicited report immediately (and the RP
    /// mapping, if configured).
    pub fn join(&mut self, g: Group) -> Vec<HostOutput> {
        self.joined.insert(g, None);
        let mut out = vec![HostOutput::Send {
            dst: g.addr(),
            msg: Message::HostReport(HostReport { group: g }),
        }];
        if let Some(rps) = self.rp_mappings.get(&g) {
            out.push(HostOutput::Send {
                dst: Addr::ALL_PIM_ROUTERS,
                msg: Message::RpMapping(RpMapping {
                    group: g,
                    rps: rps.clone(),
                }),
            });
        }
        out
    }

    /// Leave `g`. IGMPv1 leaves are silent: the router's membership timer
    /// expires on its own.
    pub fn leave(&mut self, g: Group) {
        self.joined.remove(&g);
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
                for pending in self.joined.values_mut() {
                    if pending.is_none() {
                        *pending = Some(now + Duration(rng.gen_range(0..max)));
                    }
                }
                Vec::new()
            }
            Message::HostReport(HostReport { group }) => {
                // Another member answered: suppress our own pending report.
                if let Some(pending) = self.joined.get_mut(group) {
                    *pending = None;
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// When the next pending report fires, if any. `None` means the host is
    /// fully idle: no timer needs to be armed until a query arrives.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.joined.values().filter_map(|p| *p).min()
    }

    /// Emit any reports whose randomized delay has elapsed. Call at least
    /// once per tick of the subnetwork's owner.
    pub fn tick(&mut self, now: SimTime) -> Vec<HostOutput> {
        let mut out = Vec::new();
        for (&g, pending) in self.joined.iter_mut() {
            if let Some(at) = *pending {
                if now >= at {
                    *pending = None;
                    out.push(HostOutput::Send {
                        dst: g.addr(),
                        msg: Message::HostReport(HostReport { group: g }),
                    });
                    if let Some(rps) = self.rp_mappings.get(&g) {
                        out.push(HostOutput::Send {
                            dst: Addr::ALL_PIM_ROUTERS,
                            msg: Message::RpMapping(RpMapping {
                                group: g,
                                rps: rps.clone(),
                            }),
                        });
                    }
                }
            }
        }
        out
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
    cfg: Config,
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
    pub fn new(my_addr: Addr, cfg: Config) -> Querier {
        Querier {
            cfg,
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
                    self.other_querier_until = Some(now + self.cfg.other_querier_timeout);
                }
                Vec::new()
            }
            Message::HostReport(HostReport { group }) => {
                let expiry = now + self.cfg.membership_timeout;
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
                    max_resp_time: self.cfg.max_resp_time.ticks().min(255) as u8,
                }),
            });
            self.next_query = now + self.cfg.query_interval;
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
        let mut h = Host::new(Config::default());
        let out = h.join(g(1));
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
        let mut h = Host::new(Config::default());
        let rp = Addr::new(10, 0, 0, 9);
        h.set_rp_mapping(g(1), vec![rp]);
        let out = h.join(g(1));
        assert_eq!(out.len(), 2);
        assert!(matches!(
            &out[1],
            HostOutput::Send { dst, msg: Message::RpMapping(m) }
                if *dst == Addr::ALL_PIM_ROUTERS && m.rps == vec![rp]
        ));
    }

    #[test]
    fn query_schedules_delayed_report() {
        let mut h = Host::new(Config::default());
        h.join(g(1));
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
        let mut h = Host::new(Config::default());
        h.join(g(1));
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
        let mut h = Host::new(Config::default());
        h.join(g(1));
        h.leave(g(1));
        assert!(!h.is_member(g(1)));
        let mut r = rng();
        h.on_message(
            SimTime(100),
            &Message::HostQuery(HostQuery { max_resp_time: 10 }),
            &mut r,
        );
        assert!(h.tick(SimTime(200)).is_empty());
    }

    #[test]
    fn querier_emits_periodic_queries() {
        let mut q = Querier::new(Addr::new(10, 0, 0, 1), Config::default());
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
        let mut q = Querier::new(Addr::new(10, 0, 0, 5), Config::default());
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
        let mut q = Querier::new(Addr::new(10, 0, 0, 5), Config::default());
        q.on_message(
            SimTime(1),
            Addr::new(10, 0, 0, 9),
            &Message::HostQuery(HostQuery { max_resp_time: 10 }),
        );
        assert!(q.is_querier());
    }

    #[test]
    fn membership_lifecycle() {
        let mut q = Querier::new(Addr::new(10, 0, 0, 1), Config::default());
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
        let mut h = Host::new(Config::default());
        assert_eq!(h.next_deadline(), None);
        h.join(g(1));
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
        let mut q = Querier::new(Addr::new(10, 0, 0, 5), Config::default());
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
        let mut q = Querier::new(Addr::new(10, 0, 0, 1), Config::default());
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
        let mut q = Querier::new(Addr::new(10, 0, 0, 1), Config::default());
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
            let mut q = Querier::new(Addr::new(10, 0, 0, 5), Config::default());
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
