//! The PIM sparse-mode protocol engine — one instance per router.
//!
//! The engine is sans-IO: every handler takes the current time, the parsed
//! input, and a read-only view of the unicast routing table ([`Rib`] — the
//! *only* thing PIM may know about unicast routing, which is what makes it
//! protocol independent), and returns a list of [`Action`]s for the
//! surrounding router to carry out.
//!
//! Handler ↔ paper map:
//!
//! | handler | paper |
//! |---|---|
//! | [`Engine::local_member_joined`] | §3.1 local hosts joining |
//! | [`Engine::on_join_prune`] | §3.2 shared tree, §3.3 SPT, §3.7 LAN rules |
//! | [`Engine::on_local_data`] / [`Engine::on_register`] | §3 register path |
//! | [`Engine::on_data`] | §3.5 data packet processing |
//! | [`Engine::on_rp_reachability`] | §3.2/§3.9 RP liveness & failover |
//! | [`Engine::on_query`] | §3.7 DR election |
//! | [`Engine::on_route_change`] | §3.8 unicast routing changes |
//! | [`Engine::tick`] | §3.4 periodic refresh, §3.6 timers |

use crate::config::{
    PimConfig, SptPolicy, NEIGHBOR_HOLDTIME, PRUNE_OVERRIDE_DELAY, REGISTER_PROBE_INTERVAL,
    UNICAST_TTL,
};
use crate::entry::{Entry, GroupState, OifKind};
use netsim::{Deadlines, Duration, IfaceId, IfaceSet, SimTime};
use node::Action;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use telemetry::{flags, EntryKey, Event, StateDump, Telem};
use unicast::Rib;
use wire::pim::{GroupEntry, JoinPrune, Query, Register, RpReachability, SourceEntry};
use wire::{Addr, Group, Message};

/// A prune received on a multi-access subnetwork, held for the §3.7
/// override window before taking effect.
#[derive(Clone, Debug)]
struct PendingPrune {
    group: Group,
    entry: SourceEntry,
    iface: IfaceId,
    holdtime: Duration,
    execute_at: SimTime,
}

/// Which deadline index a soft-state timer belongs to.
#[cfg(any(test, debug_assertions))]
#[derive(Clone, Copy, Debug)]
enum TimerClass {
    Neighbor,
    Entry,
    Prune,
}

/// Per-interface PIM neighbor and DR-election state (§3.7).
#[derive(Clone, Debug, Default)]
struct IfaceState {
    /// Live PIM neighbors and their expiry times.
    neighbors: BTreeMap<Addr, SimTime>,
    /// Multi-access subnetwork? (prune override + join suppression apply).
    is_lan: bool,
    /// Host-facing (a leaf subnetwork with IGMP members, no PIM
    /// neighbors expected).
    is_host_lan: bool,
}

/// The PIM sparse-mode engine.
pub struct Engine {
    cfg: PimConfig,
    my_addr: Addr,
    groups: BTreeMap<Group, GroupState>,
    ifaces: Vec<IfaceState>,
    /// Directly attached hosts → the interface they live on.
    local_hosts: HashMap<Addr, IfaceId>,
    /// (group, source) → packet count & window start, for the
    /// [`SptPolicy::AfterPackets`] switchover policy.
    spt_counters: HashMap<(Group, Addr), (u32, SimTime)>,
    pending_prunes: Vec<PendingPrune>,
    next_refresh: SimTime,
    next_query: SimTime,
    next_reach: SimTime,
    /// The armed soft-state deadlines by class, each kept equal to what a
    /// walk of its class finds ([`Engine::for_each_deadline`], checked by
    /// `debug_assert` on every read and by the `indexed_deadline_*`
    /// proptests): every neighbor's holdtime expiry…
    neighbor_timers: Deadlines,
    /// …every entry's oif expiries, pruned-oif leases, RP-timer and
    /// deletion deadline ([`Entry::deadlines`])…
    entry_timers: Deadlines,
    /// …and every pending LAN prune's execution time. With the three
    /// periodic schedules above, their fronts are the next wakeup, and a
    /// class whose front has not matured is not swept.
    prune_timers: Deadlines,
    /// Registers sent (sender-side overhead metric).
    pub registers_sent: u64,
    /// Registers received and decapsulated (RP-side metric).
    pub registers_received: u64,
    /// Telemetry outbox the node adapter drains (off by default).
    pub(crate) telem: Telem,
}

/// The telemetry flag bits an entry currently carries.
fn entry_flags(e: &Entry) -> u8 {
    let mut f = 0;
    if e.wildcard {
        f |= flags::WC;
    }
    if e.rp_bit {
        f |= flags::RP;
    }
    if e.spt_bit {
        f |= flags::SPT;
    }
    f
}

impl Engine {
    /// New engine for a router with address `my_addr` and `iface_count`
    /// interfaces.
    pub fn new(my_addr: Addr, iface_count: usize, cfg: PimConfig) -> Engine {
        IfaceSet::check_width(iface_count).unwrap_or_else(|e| panic!("router {my_addr}: {e}"));
        Engine {
            cfg,
            my_addr,
            groups: BTreeMap::new(),
            ifaces: vec![IfaceState::default(); iface_count],
            local_hosts: HashMap::new(),
            spt_counters: HashMap::new(),
            pending_prunes: Vec::new(),
            next_refresh: SimTime::ZERO,
            next_query: SimTime::ZERO,
            next_reach: SimTime::ZERO,
            neighbor_timers: Deadlines::new(),
            entry_timers: Deadlines::new(),
            prune_timers: Deadlines::new(),
            registers_sent: 0,
            registers_received: 0,
            telem: Telem::default(),
        }
    }

    /// This router's address.
    pub fn addr(&self) -> Addr {
        self.my_addr
    }

    /// Number of interfaces the engine knows about.
    pub fn iface_count(&self) -> usize {
        self.ifaces.len()
    }

    /// Grow the interface table (host LANs attached after construction).
    pub fn add_iface(&mut self) -> IfaceId {
        self.ifaces.push(IfaceState::default());
        IfaceId(self.ifaces.len() as u32 - 1)
    }

    /// Mark `iface` as a multi-access subnetwork with other PIM routers:
    /// §3.7 prune-override and join-suppression rules apply there.
    pub fn set_lan(&mut self, iface: IfaceId) {
        self.ifaces[iface.index()].is_lan = true;
    }

    /// Mark `iface` as a host-facing leaf subnetwork.
    pub fn set_host_lan(&mut self, iface: IfaceId) {
        self.ifaces[iface.index()].is_host_lan = true;
    }

    /// Register a directly attached host (potential source) on `iface`.
    pub fn register_local_host(&mut self, host: Addr, iface: IfaceId) {
        self.local_hosts.insert(host, iface);
    }

    /// Configure (or learn, via the host RP-mapping message) the RP set
    /// for `group` (§3.1: "a sparse mode group is identified by the
    /// presence of RP address(es) associated with the group").
    pub fn set_rp_mapping(&mut self, group: Group, rps: Vec<Addr>) {
        let gs = self.groups.entry(group).or_default();
        if gs.rps != rps {
            gs.rps = rps;
            gs.current_rp = 0;
        }
    }

    /// The RPs configured for `group`.
    pub fn rp_mapping(&self, group: Group) -> &[Addr] {
        self.groups
            .get(&group)
            .map(|g| g.rps.as_slice())
            .unwrap_or(&[])
    }

    /// Is this router one of the RPs for `group`?
    pub fn is_rp_for(&self, group: Group) -> bool {
        self.rp_mapping(group).contains(&self.my_addr)
    }

    /// Is this router the designated router on `iface`? (Highest address
    /// among live PIM neighbors wins; a router is trivially DR on an
    /// interface with no neighbors.)
    pub fn is_dr(&self, iface: IfaceId) -> bool {
        self.ifaces[iface.index()]
            .neighbors
            .last_key_value()
            .is_none_or(|(&highest, _)| highest < self.my_addr)
    }

    /// Read-only view of the state for `group` (tests and experiments).
    pub fn group_state(&self, group: Group) -> Option<&GroupState> {
        self.groups.get(&group)
    }

    /// Total forwarding entries (the paper's state-overhead metric).
    pub fn entry_count(&self) -> usize {
        self.groups.values().map(|g| g.entry_count()).sum()
    }

    /// Iterate over all groups with any state.
    pub fn groups(&self) -> impl Iterator<Item = (Group, &GroupState)> + '_ {
        self.groups.iter().map(|(&g, s)| (g, s))
    }

    /// Crash with total state loss (§2 robustness). Tree state, neighbor
    /// adjacencies, and pending work are erased; configuration — address,
    /// interface roles, attached hosts, and the administratively scoped RP
    /// mappings (§3.1 footnote 9) — survives, as do the overhead counters
    /// (they are observability, not protocol state).
    pub fn reset(&mut self) {
        self.neighbor_timers.clear();
        self.entry_timers.clear();
        self.prune_timers.clear();
        self.groups.retain(|_, gs| {
            if gs.rps.is_empty() {
                return false; // purely dynamic state: forget the group
            }
            gs.star = None;
            gs.sources.clear();
            gs.current_rp = 0;
            true
        });
        for ifs in self.ifaces.iter_mut() {
            ifs.neighbors.clear();
        }
        self.spt_counters.clear();
        self.pending_prunes.clear();
        self.next_refresh = SimTime::ZERO;
        self.next_query = SimTime::ZERO;
        self.next_reach = SimTime::ZERO;
    }

    // ------------------------------------------------------------------
    // §3.1 — local hosts joining a group
    // ------------------------------------------------------------------

    /// IGMP reported a first member of `group` on `iface`.
    ///
    /// Creates the (\*,G) entry with the iif set toward the RP and the
    /// member subnetwork in the oif list, and triggers a join toward the
    /// RP (§3.1–3.2). If no RP mapping exists the group is "not to be
    /// supported with PIM sparse mode" and nothing happens.
    pub fn local_member_joined(
        &mut self,
        now: SimTime,
        group: Group,
        iface: IfaceId,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        let Some(gs) = self.groups.get(&group) else {
            return Vec::new(); // no RP mapping → not sparse mode (§3.1)
        };
        let Some(rp) = gs.rp() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let created = self.ensure_star(group, rp, rib);
        let timers = &mut self.entry_timers;
        let gs = self.groups.get_mut(&group).expect("ensured above");
        let star = gs.star.as_mut().expect("ensured above");
        star.add_oif(timers, iface, OifKind::LocalMembers, SimTime(u64::MAX));
        // "The DR sets an RP-timer for this entry" (§3.1).
        if star.rp_timer().is_none() {
            star.set_rp_timer(timers, Some(now + self.cfg.rp_timeout));
        }
        // Local members receive from every source: mirror into existing
        // (S,G) entries, per the §3.3 copy semantics.
        for e in gs.sources.values_mut() {
            if !e.pruned_oifs().contains_key(&iface) {
                e.add_oif(timers, iface, OifKind::LocalMembers, SimTime(u64::MAX));
            }
        }
        if created {
            out.extend(self.triggered_star_join(group));
        }
        out
    }

    /// The last IGMP member of `group` on `iface` expired.
    pub fn local_member_left(&mut self, now: SimTime, group: Group, iface: IfaceId) -> Vec<Action> {
        let Some(gs) = self.groups.get_mut(&group) else {
            return Vec::new();
        };
        let timers = &mut self.entry_timers;
        let mut affected = false;
        if let Some(star) = gs.star.as_mut() {
            if star.remove_oif(timers, iface) {
                affected = true;
            }
            if !star.has_local_members() {
                star.set_rp_timer(timers, None);
            }
        }
        for e in gs.sources.values_mut() {
            e.remove_oif(timers, iface);
        }
        if affected {
            self.after_oif_removal(now, group)
        } else {
            Vec::new()
        }
    }

    /// Create the (\*,G) entry if absent. Returns true if created.
    fn ensure_star(&mut self, group: Group, rp: Addr, rib: &dyn Rib) -> bool {
        let my_addr = self.my_addr;
        let gs = self.groups.entry(group).or_default();
        if gs.star.is_some() {
            return false;
        }
        let (iif, upstream) = if rp == my_addr {
            // "The RP recognizes its own address ... the incoming interface
            // in the RP's (*,G) entry is set to null" (§3.2).
            (None, None)
        } else {
            match rib.route(rp) {
                Some(r) => (Some(r.iface), Some(r.next_hop)),
                None => (None, None), // RP currently unreachable; join when routing recovers
            }
        };
        gs.star = Some(Entry::new_star(group, rp, iif, upstream));
        self.telem.emit(|| Event::EntryCreated {
            group,
            key: EntryKey::Star,
            flags: flags::WC | flags::RP,
        });
        true
    }

    // ------------------------------------------------------------------
    // §3.2/§3.3/§3.7 — join/prune processing
    // ------------------------------------------------------------------

    /// A PIM Join/Prune message arrived on `iface` from neighbor `src`.
    pub fn on_join_prune(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        msg: &JoinPrune,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        let addressed_to_me = msg.upstream_neighbor == self.my_addr;
        let holdtime = Duration(msg.holdtime as u64);
        for ge in &msg.groups {
            if addressed_to_me {
                for j in &ge.joins {
                    out.extend(self.apply_join(now, iface, ge.group, j, holdtime, rib));
                }
                for p in &ge.prunes {
                    out.extend(self.apply_prune(now, iface, ge.group, p, holdtime));
                }
            } else if self.ifaces[iface.index()].is_lan {
                // Overheard on a multi-access subnetwork (§3.7).
                for j in &ge.joins {
                    self.overhear_join(now, iface, ge.group, j, &msg.upstream_neighbor);
                }
                for p in &ge.prunes {
                    out.extend(self.overhear_prune(iface, ge.group, p, msg.upstream_neighbor));
                }
            }
        }
        let _ = src;
        out
    }

    fn apply_join(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        group: Group,
        j: &SourceEntry,
        holdtime: Duration,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        let expires = now + holdtime;
        self.cancel_pending_prune(group, j, iface);
        if j.wildcard {
            // Shared-tree join {RP, RPbit, WCbit}: instantiate/extend (*,G).
            let rp = j.addr;
            // Adopt the RP carried in the join if we had no mapping ("the
            // RP address is included ... so that it will be included in
            // upstream join messages", §3.1).
            {
                let gs = self.groups.entry(group).or_default();
                if gs.rps.is_empty() {
                    gs.rps = vec![rp];
                }
            }
            let mut created = self.ensure_star(group, rp, rib);
            let my_addr = self.my_addr;
            let timers = &mut self.entry_timers;
            let gs = self.groups.get_mut(&group).expect("ensured");
            {
                let star = gs.star.as_mut().expect("ensured");
                if star.key != rp {
                    // §3.9 failover propagation: the downstream receivers
                    // have moved to an alternate RP; re-root the shared
                    // tree toward it. The join carries the RP address for
                    // exactly this purpose (§3.1: "the RP address is
                    // included in a special record in the forwarding
                    // entry, so that it will be included in upstream join
                    // messages").
                    let (iif, upstream) = if rp == my_addr {
                        (None, None)
                    } else {
                        match rib.route(rp) {
                            Some(r) => (Some(r.iface), Some(r.next_hop)),
                            None => (None, None),
                        }
                    };
                    star.key = rp;
                    if let Some(i) = iif {
                        star.remove_oif(timers, i);
                    }
                    star.iif = iif;
                    star.upstream = upstream;
                    if let Some(pos) = gs.rps.iter().position(|&r| r == rp) {
                        gs.current_rp = pos;
                    }
                    // Negative caches ride the shared tree; SPT entries
                    // whose iif now coincides with the re-rooted tree no
                    // longer diverge from it.
                    for e in gs.sources.values_mut() {
                        if e.is_negative() {
                            e.iif = iif;
                            e.upstream = upstream;
                        } else if e.iif == iif {
                            e.pruned_from_shared = false;
                        }
                    }
                    created = true; // trigger a join toward the new RP
                }
            }
            let star = gs.star.as_mut().expect("ensured");
            // A join arriving on our own upstream interface would create a
            // forwarding loop; ignore it.
            if star.iif == Some(iface) {
                return out;
            }
            star.add_oif(timers, iface, OifKind::Joined, expires);
            // Footnote 12: resetting a (*,G) oif also resets the copied
            // (S,G) oifs; and a new shared-tree branch must receive
            // existing sources' SPT traffic too.
            for e in gs.sources.values_mut() {
                if e.pruned_oifs().contains_key(&iface) {
                    continue; // an active negative-cache prune wins
                }
                if e.is_negative() || e.iif != Some(iface) {
                    e.add_oif(timers, iface, OifKind::CopiedFromStar, expires);
                }
            }
            if created {
                out.extend(self.triggered_star_join(group));
            }
        } else if !j.rp_bit {
            // Source-specific join {S}: instantiate/extend (S,G) SPT state.
            let source = j.addr;
            let created = self.ensure_source(group, source, rib);
            let gs = self.groups.get_mut(&group).expect("ensured");
            let e = gs.sources.get_mut(&source).expect("ensured");
            if e.iif == Some(iface) {
                return out;
            }
            e.add_oif(&mut self.entry_timers, iface, OifKind::Joined, expires);
            if created && !e.local_source {
                out.extend(self.triggered_source_join(group, source));
            }
        } else {
            // Join {S, RPbit}: re-join of a source on the shared tree —
            // cancels a negative cache for this interface (LAN override,
            // §3.7, and unicast-change repair, §3.8).
            let source = j.addr;
            if let Some(gs) = self.groups.get_mut(&group) {
                let timers = &mut self.entry_timers;
                let mut drop_neg = false;
                if let Some(e) = gs.sources.get_mut(&source) {
                    if e.iif == Some(iface) {
                        // A join arriving on the entry's own upstream
                        // interface would loop; ignore it.
                    } else if e.is_negative() {
                        e.unprune_oif(timers, iface);
                        e.add_oif(timers, iface, OifKind::CopiedFromStar, expires);
                        // With nothing pruned anywhere the negative cache
                        // is pure overhead; drop it and fall back to (*,G).
                        drop_neg = e.pruned_oifs().is_empty();
                    } else if e.iif != Some(iface) {
                        // A real (S,G) whose shared-tree oif was pruned
                        // earlier (footnote 11): restore the branch.
                        e.unprune_oif(timers, iface);
                        e.add_oif(timers, iface, OifKind::CopiedFromStar, expires);
                    }
                }
                if drop_neg {
                    if let Some(e) = gs.sources.remove(&source) {
                        e.disarm(timers);
                    }
                }
            }
        }
        out
    }

    /// Create an (S,G) SPT entry if absent, copying the (\*,G) oif list
    /// (§3.3). Returns true if created.
    fn ensure_source(&mut self, group: Group, source: Addr, rib: &dyn Rib) -> bool {
        let local = self.local_hosts.get(&source).copied();
        let timers = &mut self.entry_timers;
        let gs = self.groups.entry(group).or_default();
        if let Some(e) = gs.sources.get(&source) {
            if !e.is_negative() {
                return false;
            }
            // A real SPT join supersedes a negative cache.
            e.disarm(timers);
            gs.sources.remove(&source);
        }
        let (iif, upstream, local_source) = match local {
            Some(host_iface) => (Some(host_iface), None, true),
            None => match rib.route(source) {
                Some(r) => (Some(r.iface), Some(r.next_hop), false),
                None => (None, None, false),
            },
        };
        let mut e = Entry::new_source(group, source, iif, upstream);
        e.local_source = local_source;
        // "When the (Sn,G) entry is created, the outgoing interface list is
        // copied from (*,G)" (§3.3).
        if let Some(star) = &gs.star {
            for (&i, oif) in star.oifs() {
                if Some(i) != iif {
                    let kind = if oif.kind == OifKind::LocalMembers {
                        OifKind::LocalMembers
                    } else {
                        OifKind::CopiedFromStar
                    };
                    e.add_oif(timers, i, kind, oif.expires_at);
                }
            }
        }
        gs.sources.insert(source, e);
        self.telem.emit(|| Event::EntryCreated {
            group,
            key: EntryKey::Source(source),
            flags: 0,
        });
        true
    }

    fn apply_prune(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        group: Group,
        p: &SourceEntry,
        holdtime: Duration,
    ) -> Vec<Action> {
        if self.ifaces[iface.index()].is_lan {
            // §3.7: hold the prune so another router on the subnetwork can
            // override it with a join.
            let execute_at = now + PRUNE_OVERRIDE_DELAY;
            self.prune_timers.arm(execute_at);
            self.pending_prunes.push(PendingPrune {
                group,
                entry: *p,
                iface,
                holdtime,
                execute_at,
            });
            Vec::new()
        } else {
            self.execute_prune(now, iface, group, p, holdtime)
        }
    }

    fn execute_prune(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        group: Group,
        p: &SourceEntry,
        holdtime: Duration,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        let Some(gs) = self.groups.get_mut(&group) else {
            return out;
        };
        let timers = &mut self.entry_timers;
        if p.wildcard {
            // Leave the shared tree entirely on this interface.
            let mut removed = false;
            if let Some(star) = gs.star.as_mut() {
                removed |= star.remove_oif(timers, iface);
            }
            for e in gs.sources.values_mut() {
                // Copied oifs followed the shared tree; explicit SPT joins
                // (Joined) survive a shared-tree prune.
                if e.oifs().get(&iface).map(|o| o.kind) == Some(OifKind::CopiedFromStar) {
                    e.remove_oif(timers, iface);
                }
            }
            if removed {
                out.extend(self.after_oif_removal(now, group));
            }
        } else if !p.rp_bit {
            // Source-specific prune {S}.
            let mut removed = false;
            if let Some(e) = gs.sources.get_mut(&p.addr) {
                if !e.is_negative() {
                    removed = e.remove_oif(timers, iface);
                }
            }
            if removed {
                out.extend(self.after_oif_removal(now, group));
            }
        } else {
            // Prune {S, RPbit}: set up a negative cache on the RP tree
            // (§3.3, footnote 11).
            let Some(star) = gs.star.as_ref() else {
                return out; // no shared tree here: nothing to prune from
            };
            let (star_iif, star_upstream) = (star.iif, star.upstream);
            let star_oifs: Vec<(IfaceId, OifKind, SimTime)> = star
                .oifs()
                .iter()
                .map(|(&i, o)| (i, o.kind, o.expires_at))
                .collect();
            if !gs.sources.contains_key(&p.addr) {
                self.telem.emit(|| Event::EntryCreated {
                    group,
                    key: EntryKey::Source(p.addr),
                    flags: flags::RP,
                });
            }
            let e = gs.sources.entry(p.addr).or_insert_with(|| {
                let mut neg = Entry::new_negative(group, p.addr, star_iif, star_upstream);
                for (i, kind, exp) in star_oifs {
                    let k = if kind == OifKind::LocalMembers {
                        OifKind::LocalMembers
                    } else {
                        OifKind::CopiedFromStar
                    };
                    neg.add_oif(timers, i, k, exp);
                }
                neg
            });
            if e.is_negative() {
                e.remove_oif(timers, iface);
                e.prune_oif(timers, iface, now + holdtime);
                // "Negative cache entries on the RP tree must be kept alive
                // by receipt of prunes" (footnote 13).
                e.set_delete_at(timers, Some(now + holdtime));
                if e.oifs_empty() {
                    // Every shared-tree branch below us has pruned S:
                    // propagate toward the RP.
                    out.extend(self.triggered_negative_prune(group, p.addr));
                }
            } else {
                // A real (S,G) entry (e.g. at the RP itself): footnote 11
                // still applies — "the outgoing interface from which it
                // receives a PIM prune message with (S,G) and the RP bit
                // in the prune list, is deleted from the outgoing
                // interface list."
                let removed = e.remove_oif(timers, iface);
                e.prune_oif(timers, iface, now + holdtime);
                if removed {
                    out.extend(self.after_oif_removal(now, group));
                }
            }
        }
        out
    }

    /// §3.6: a prune (or expiry) may have emptied an oif list — prune
    /// upstream and schedule deletion.
    fn after_oif_removal(&mut self, now: SimTime, group: Group) -> Vec<Action> {
        let mut out = Vec::new();
        let linger = self.cfg.entry_linger;
        let Some(gs) = self.groups.get_mut(&group) else {
            return out;
        };
        let timers = &mut self.entry_timers;
        let mut sends: Vec<(IfaceId, Addr, GroupEntry)> = Vec::new();
        if let Some(star) = gs.star.as_mut() {
            if star.oifs_empty() && star.delete_at().is_none() {
                star.set_delete_at(timers, Some(now + linger));
                if let (Some(iif), Some(up)) = (star.iif, star.upstream) {
                    sends.push((
                        iif,
                        up,
                        GroupEntry::prune(group, SourceEntry::shared_tree(star.key)),
                    ));
                }
            }
        }
        for e in gs.sources.values_mut() {
            if e.is_negative() || e.local_source {
                continue;
            }
            if e.oifs_empty() && e.delete_at().is_none() {
                e.set_delete_at(timers, Some(now + linger));
                if let (Some(iif), Some(up)) = (e.iif, e.upstream) {
                    sends.push((
                        iif,
                        up,
                        GroupEntry::prune(group, SourceEntry::source(e.key)),
                    ));
                }
            }
        }
        for (iface, upstream, ge) in sends {
            out.push(self.join_prune_to(iface, upstream, vec![ge]));
        }
        out
    }

    // §3.7 — overheard messages on multi-access subnetworks.

    fn overhear_join(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        group: Group,
        j: &SourceEntry,
        addressed_to: &Addr,
    ) {
        // Join suppression: if we would send the identical periodic join to
        // the same upstream over this subnetwork, stay quiet for a while.
        let suppress_until = now + self.cfg.refresh_period;
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        if j.wildcard {
            if let Some(star) = gs.star.as_mut() {
                if star.iif == Some(iface)
                    && star.upstream == Some(*addressed_to)
                    && star.key == j.addr
                {
                    star.suppressed_until = Some(suppress_until);
                }
            }
        } else if let Some(e) = gs.sources.get_mut(&j.addr) {
            if !e.is_negative() && e.iif == Some(iface) && e.upstream == Some(*addressed_to) {
                e.suppressed_until = Some(suppress_until);
            }
        }
        // An overheard join also cancels our own pending override: someone
        // else already overrode the prune.
        self.cancel_pending_prune(group, j, iface);
    }

    fn overhear_prune(
        &mut self,
        iface: IfaceId,
        group: Group,
        p: &SourceEntry,
        upstream: Addr,
    ) -> Vec<Action> {
        // "If there is any router that has the LAN as its incoming
        // interface for the same (S,G) and has non-null outgoing interface
        // list, then the router sends a join message onto the LAN to
        // override the prune" (§3.7).
        let Some(gs) = self.groups.get(&group) else {
            return Vec::new();
        };
        let wants = if p.wildcard {
            gs.star
                .as_ref()
                .is_some_and(|s| s.iif == Some(iface) && !s.oifs_empty())
        } else if p.rp_bit {
            // A negative-cache prune for S: we object if we still forward
            // S via the shared tree on this iif (no negative cache of our
            // own, shared tree comes in here, oifs alive).
            let on_shared = gs
                .star
                .as_ref()
                .is_some_and(|s| s.iif == Some(iface) && !s.oifs_empty());
            let not_pruned_ourselves = match gs.sources.get(&p.addr) {
                Some(e) if e.is_negative() => !e.oifs_empty(),
                Some(_) => false, // we're on the SPT for S; shared-tree prune is fine
                None => true,
            };
            on_shared && not_pruned_ourselves
        } else {
            gs.sources
                .get(&p.addr)
                .is_some_and(|e| !e.is_negative() && e.iif == Some(iface) && !e.oifs_empty())
        };
        if !wants {
            return Vec::new();
        }
        vec![self.join_prune_to(iface, upstream, vec![GroupEntry::join(group, *p)])]
    }

    fn cancel_pending_prune(&mut self, group: Group, e: &SourceEntry, iface: IfaceId) {
        self.pending_prunes.retain(|pp| {
            let cancelled = pp.group == group
                && pp.iface == iface
                && pp.entry.addr == e.addr
                && pp.entry.wildcard == e.wildcard
                && pp.entry.rp_bit == e.rp_bit;
            if cancelled {
                self.prune_timers.disarm(pp.execute_at);
            }
            !cancelled
        });
    }

    // ------------------------------------------------------------------
    // Triggered messages (§3.4: "a PIM message is also sent on an
    // event-triggered basis each time a new forwarding entry is
    // established")
    // ------------------------------------------------------------------

    fn join_prune_to(&self, iface: IfaceId, upstream: Addr, groups: Vec<GroupEntry>) -> Action {
        Action::control(
            iface,
            Addr::ALL_PIM_ROUTERS,
            1,
            Message::PimJoinPrune(JoinPrune {
                upstream_neighbor: upstream,
                holdtime: self.cfg.holdtime.ticks().min(u16::MAX as u64) as u16,
                groups,
            }),
        )
    }

    fn triggered_star_join(&mut self, group: Group) -> Vec<Action> {
        let Some(gs) = self.groups.get(&group) else {
            return Vec::new();
        };
        let Some(star) = gs.star.as_ref() else {
            return Vec::new();
        };
        let (Some(iif), Some(up)) = (star.iif, star.upstream) else {
            return Vec::new(); // we are the RP, or the RP is unreachable
        };
        vec![self.join_prune_to(
            iif,
            up,
            vec![GroupEntry::join(group, SourceEntry::shared_tree(star.key))],
        )]
    }

    fn triggered_source_join(&mut self, group: Group, source: Addr) -> Vec<Action> {
        let Some(gs) = self.groups.get(&group) else {
            return Vec::new();
        };
        let Some(e) = gs.sources.get(&source) else {
            return Vec::new();
        };
        let (Some(iif), Some(up)) = (e.iif, e.upstream) else {
            return Vec::new();
        };
        vec![self.join_prune_to(
            iif,
            up,
            vec![GroupEntry::join(group, SourceEntry::source(source))],
        )]
    }

    /// Prune {S, RPbit} toward the RP, from the router that switched to
    /// the SPT (§3.3) or from a negative-cache holder whose downstream all
    /// pruned.
    fn triggered_negative_prune(&mut self, group: Group, source: Addr) -> Vec<Action> {
        let Some(gs) = self.groups.get(&group) else {
            return Vec::new();
        };
        let Some(star) = gs.star.as_ref() else {
            return Vec::new();
        };
        let (Some(iif), Some(up)) = (star.iif, star.upstream) else {
            return Vec::new(); // at the RP: nowhere further up
        };
        vec![self.join_prune_to(
            iif,
            up,
            vec![GroupEntry::prune(
                group,
                SourceEntry::source_on_rp_tree(source),
            )],
        )]
    }

    // ------------------------------------------------------------------
    // §3 / §3.5 — data-packet processing
    // ------------------------------------------------------------------

    /// A multicast data packet from a directly attached host arrived on
    /// the host subnetwork `iface`. Returns forwarding actions plus, while
    /// no native (S,G) path exists, a Register to each RP (§3: "the
    /// first-hop PIM-speaking router sends a PIM register message,
    /// piggybacked on the data packet, to the RP(s)").
    pub fn on_local_data(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        source: Addr,
        group: Group,
        payload: &[u8],
        rib: &dyn Rib,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        if !self.is_dr(iface) {
            return out; // only the DR serves this subnetwork (§3.7)
        }
        // Native forwarding via (S,G) state if the RP's join has reached us.
        let mut native = false;
        let mut probe = false;
        if let Some(gs) = self.groups.get_mut(&group) {
            if let Some(e) = gs.sources.get_mut(&source) {
                if !e.is_negative() && !e.oifs_empty() {
                    native = true;
                    if !e.spt_bit {
                        // Data is arriving over its own first hop.
                        let from = entry_flags(e);
                        e.spt_bit = true;
                        self.telem.emit(|| Event::EntryModified {
                            group,
                            key: EntryKey::Source(source),
                            from,
                            to: from | flags::SPT,
                        });
                    }
                    // Native oifs only prove some receiver's SPT join
                    // reached us — not that the RP still holds the source.
                    // Periodically re-register one data packet so an RP
                    // that lost its (S,G) state (crash, shared-tree churn)
                    // can reacquire it for later shared-tree members.
                    if now >= e.next_register_probe {
                        probe = true;
                        e.next_register_probe = now + REGISTER_PROBE_INTERVAL;
                    }
                    let ifaces = e.forward_set(Some(iface));
                    if !ifaces.is_empty() {
                        out.push(Action::Forward {
                            ifaces,
                            source,
                            group,
                        });
                    }
                }
            } else if let Some(star) = &gs.star {
                // Local members on our other subnetworks hear the source
                // through the shared tree once the RP reflects it; but
                // members on *this* router can be served directly.
                let ifaces: Vec<IfaceId> = star
                    .oifs()
                    .iter()
                    .filter(|(&i, o)| o.kind == OifKind::LocalMembers && i != iface)
                    .map(|(&i, _)| i)
                    .collect();
                if !ifaces.is_empty() {
                    out.push(Action::Forward {
                        ifaces,
                        source,
                        group,
                    });
                }
            }
        }
        if !native || probe {
            // Register (data encapsulated) to every RP (§3.9: "each source
            // registers and sends data packets toward each of the RPs").
            let rps: Vec<Addr> = self.rp_mapping(group).to_vec();
            for rp in rps {
                if rp == self.my_addr {
                    // We are an RP ourselves: process as if received. The
                    // "decapsulated" packet is the one in hand.
                    let (joins, ifaces) = self.accept_register(source, group, rib);
                    out.extend(joins);
                    if !ifaces.is_empty() {
                        out.push(Action::Forward {
                            ifaces,
                            source,
                            group,
                        });
                    }
                    continue;
                }
                if let Some(r) = rib.route(rp) {
                    self.registers_sent += 1;
                    out.push(Action::control(
                        r.iface,
                        rp,
                        UNICAST_TTL,
                        Message::PimRegister(Register {
                            group,
                            source,
                            payload: payload.to_vec(),
                        }),
                    ));
                }
            }
        }
        out
    }

    /// A PIM Register arrived (unicast, at an RP).
    pub fn on_register(&mut self, _now: SimTime, reg: &Register, rib: &dyn Rib) -> Vec<Action> {
        if !self.is_rp_for(reg.group) {
            return Vec::new();
        }
        self.registers_received += 1;
        let (mut out, ifaces) = self.accept_register(reg.source, reg.group, rib);
        if !ifaces.is_empty() {
            out.push(Action::ForwardDecapsulated {
                ifaces,
                source: reg.source,
                group: reg.group,
                payload: reg.payload.clone(),
            });
        }
        out
    }

    /// RP-side register processing, for a Register off the wire or our
    /// own first-hop data when we are the RP. Returns the triggered
    /// joins and the interfaces the registered packet goes out of (none:
    /// drop it); the caller knows where that packet's payload is.
    fn accept_register(
        &mut self,
        source: Addr,
        group: Group,
        rib: &dyn Rib,
    ) -> (Vec<Action>, Vec<IfaceId>) {
        let mut out = Vec::new();
        let has_receivers = self
            .groups
            .get(&group)
            .and_then(|gs| gs.star.as_ref())
            .is_some_and(|s| !s.oifs_empty());
        if !has_receivers {
            return (out, Vec::new()); // no shared tree: drop until a receiver joins
        }
        // "The RP responds by sending a join toward the source" (§3) —
        // once, when the (S,G) entry is created.
        let created = self.ensure_source(group, source, rib);
        if created {
            out.extend(self.triggered_source_join(group, source));
        } else if self
            .groups
            .get(&group)
            .and_then(|gs| gs.sources.get(&source))
            .is_some_and(|e| !e.is_negative() && e.spt_bit)
        {
            // Already receiving this source natively over its shortest-path
            // tree: the register copy is redundant (the role Register-Stop
            // plays in later PIM-SM). Keep the state, drop the payload.
            return (out, Vec::new());
        }
        // Forward the decapsulated packet down the shared tree. The
        // register tunnel is the logical incoming interface, so the full
        // (*,G) oif list applies — including the physical interface that
        // happens to point toward the source — minus any oifs carrying an
        // active negative-cache prune for this source.
        let gs = self.groups.get(&group).expect("has_receivers");
        let star = gs.star.as_ref().expect("has_receivers");
        let ifaces = star
            .oifs()
            .keys()
            .copied()
            .filter(|i| {
                gs.sources
                    .get(&source)
                    .is_none_or(|e| !e.pruned_oifs().contains_key(i))
            })
            .collect();
        (out, ifaces)
    }

    /// A multicast data packet arrived on router-router interface `iface`
    /// (§3.5). Implements the incoming-interface check, the longest-match
    /// rule, and the two shared→shortest-path transition exceptions. The
    /// payload stays with the caller: forwarding never reads it.
    pub fn on_data(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        source: Addr,
        group: Group,
        _payload: &[u8],
        rib: &dyn Rib,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        let Some(gs) = self.groups.get_mut(&group) else {
            return out; // sparse mode: no state, no forwarding
        };

        enum Verdict {
            Drop,
            Forward(Vec<IfaceId>),
            ForwardAndSetSpt(Vec<IfaceId>),
            ForwardViaStar,
        }

        let verdict = match gs.sources.get(&source) {
            Some(e) if e.is_negative() => {
                if e.iif == Some(iface) {
                    Verdict::Forward(e.forward_set(Some(iface)))
                } else {
                    Verdict::Drop
                }
            }
            Some(e) => {
                // (S,G) SPT entry.
                if e.spt_bit {
                    if e.iif == Some(iface) {
                        Verdict::Forward(e.forward_set(Some(iface)))
                    } else {
                        Verdict::Drop
                    }
                } else if e.iif == Some(iface) {
                    // "When a data packet matches on an (S,G) entry with a
                    // cleared SPT bit, and the incoming interface of the
                    // packet matches that of the (S,G) entry, then the
                    // packet is forwarded and the SPT bit is set" (§3.5).
                    Verdict::ForwardAndSetSpt(e.forward_set(Some(iface)))
                } else if gs.star.as_ref().is_some_and(|s| s.iif == Some(iface)) {
                    // Transition exception 1: still arriving via the
                    // shared tree — forward according to (*,G).
                    Verdict::ForwardViaStar
                } else {
                    Verdict::Drop
                }
            }
            None => match gs.star.as_ref() {
                Some(star) if star.iif == Some(iface) || star.iif.is_none() => {
                    Verdict::ForwardViaStar
                }
                _ => Verdict::Drop,
            },
        };

        match verdict {
            Verdict::Drop => {}
            Verdict::Forward(ifaces) => {
                if !ifaces.is_empty() {
                    out.push(Action::Forward {
                        ifaces,
                        source,
                        group,
                    });
                }
            }
            Verdict::ForwardAndSetSpt(ifaces) => {
                let e = gs.sources.get_mut(&source).expect("matched above");
                if !e.spt_bit {
                    let from = entry_flags(e);
                    e.spt_bit = true;
                    self.telem.emit(|| Event::EntryModified {
                        group,
                        key: EntryKey::Source(source),
                        from,
                        to: from | flags::SPT,
                    });
                }
                // "…sends a PIM prune toward RP if its shared tree incoming
                // interface differs from its shortest path tree incoming
                // interface" (§3.3).
                let star_iif = gs.star.as_ref().and_then(|s| s.iif);
                let diverges = gs.star.is_some() && star_iif != Some(iface);
                if diverges {
                    let e = gs.sources.get_mut(&source).expect("matched above");
                    if !e.pruned_from_shared {
                        e.pruned_from_shared = true;
                        out.extend(self.triggered_negative_prune(group, source));
                    }
                }
                if !ifaces.is_empty() {
                    out.push(Action::Forward {
                        ifaces,
                        source,
                        group,
                    });
                }
            }
            Verdict::ForwardViaStar => {
                let star = gs.star.as_ref().expect("matched above");
                let ifaces = star.forward_set(Some(iface));
                let has_local = star.has_local_members();
                if !ifaces.is_empty() {
                    out.push(Action::Forward {
                        ifaces,
                        source,
                        group,
                    });
                }
                // §3.3 switchover decision: a router with directly
                // connected members seeing shared-tree data from a source
                // it has no (Sn,G) entry for may join the SPT.
                if has_local
                    && !self.local_hosts.contains_key(&source)
                    && !self
                        .groups
                        .get(&group)
                        .is_some_and(|g| g.sources.contains_key(&source))
                    && self.spt_switch_due(now, group, source)
                {
                    out.extend(self.start_spt_switch(group, source, rib));
                }
            }
        }
        out
    }

    /// Has the configured switchover policy been satisfied for (group,
    /// source)?
    fn spt_switch_due(&mut self, now: SimTime, group: Group, source: Addr) -> bool {
        match self.cfg.spt_policy {
            SptPolicy::Immediate => true,
            SptPolicy::Never => false,
            SptPolicy::AfterPackets { packets, within } => {
                let slot = self.spt_counters.entry((group, source)).or_insert((0, now));
                if now.since(slot.1) > within {
                    *slot = (0, now); // window lapsed: restart
                }
                slot.0 += 1;
                slot.0 >= packets
            }
        }
    }

    /// §3.3: create the (Sn,G) entry with SPT bit cleared and send a join
    /// toward the source.
    fn start_spt_switch(&mut self, group: Group, source: Addr, rib: &dyn Rib) -> Vec<Action> {
        self.telem.emit(|| Event::SptSwitchStart { group, source });
        let created = self.ensure_source(group, source, rib);
        if created {
            self.spt_counters.remove(&(group, source));
            self.triggered_source_join(group, source)
        } else {
            Vec::new()
        }
    }

    // ------------------------------------------------------------------
    // §3.2/§3.9 — RP reachability and failover
    // ------------------------------------------------------------------

    /// An RP-reachability message arrived on `iface`.
    pub fn on_rp_reachability(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        msg: &RpReachability,
    ) -> Vec<Action> {
        let Some(gs) = self.groups.get_mut(&msg.group) else {
            return Vec::new();
        };
        let Some(star) = gs.star.as_mut() else {
            return Vec::new();
        };
        if star.iif != Some(iface) || star.key != msg.rp {
            return Vec::new();
        }
        if star.rp_timer().is_some() {
            star.set_rp_timer(&mut self.entry_timers, Some(now + self.cfg.rp_timeout));
        }
        // Distribute on down the (*,G) tree (§3.2), except to host LANs.
        let ifaces: IfaceSet = star
            .forward_set(Some(iface))
            .into_iter()
            .filter(|i| !self.ifaces[i.index()].is_host_lan)
            .collect();
        if ifaces.is_empty() {
            return Vec::new();
        }
        vec![Action::Control {
            ifaces,
            dst: Addr::ALL_PIM_ROUTERS,
            ttl: 1,
            msg: Message::PimRpReachability(*msg),
        }]
    }

    /// §3.9: the RP-timer lapsed — "the router looks up an alternate RP for
    /// the group, sends a join toward the new RP."
    fn rp_failover(&mut self, now: SimTime, group: Group, rib: &dyn Rib) -> Vec<Action> {
        let Some(gs) = self.groups.get_mut(&group) else {
            return Vec::new();
        };
        if gs.rps.len() < 2 {
            // Nowhere to fail over to; keep waiting and retry the join.
            if let Some(star) = gs.star.as_mut() {
                star.set_rp_timer(&mut self.entry_timers, Some(now + self.cfg.rp_timeout));
            }
            return self.triggered_star_join(group);
        }
        let old_rp = gs.star.as_ref().map(|s| s.key);
        let new_rp = gs.next_rp().expect("non-empty rps");
        self.telem.emit(|| Event::RpFailover {
            group,
            from: old_rp.unwrap_or(new_rp),
            to: new_rp,
        });
        // "A new (*,G) entry is established with the incoming interface set
        // to the interface used to reach the new RP. The outgoing interface
        // list includes only those interfaces on which IGMP Reports for the
        // group were received" (§3.9).
        let local_oifs: Vec<IfaceId> = gs
            .star
            .as_ref()
            .map(|s| {
                s.oifs()
                    .iter()
                    .filter(|(_, o)| o.kind == OifKind::LocalMembers)
                    .map(|(&i, _)| i)
                    .collect()
            })
            .unwrap_or_default();
        let (iif, upstream) = if new_rp == self.my_addr {
            (None, None)
        } else {
            match rib.route(new_rp) {
                Some(r) => (Some(r.iface), Some(r.next_hop)),
                None => (None, None),
            }
        };
        let timers = &mut self.entry_timers;
        let mut star = Entry::new_star(group, new_rp, iif, upstream);
        for i in local_oifs {
            star.add_oif(timers, i, OifKind::LocalMembers, SimTime(u64::MAX));
        }
        star.set_rp_timer(timers, Some(now + self.cfg.rp_timeout));
        let gs = self.groups.get_mut(&group).expect("exists");
        if let Some(old) = gs.star.replace(star) {
            old.disarm(timers);
        }
        // Negative caches pointed at the old tree are meaningless now.
        if self.telem.is_enabled() {
            for (&s, e) in gs.sources.iter() {
                if e.is_negative() {
                    self.telem.emit(|| Event::EntryExpired {
                        group,
                        key: EntryKey::Source(s),
                    });
                }
            }
        }
        gs.sources.retain(|_, e| {
            if e.is_negative() {
                e.disarm(timers);
            }
            !e.is_negative()
        });
        self.triggered_star_join(group)
    }

    // ------------------------------------------------------------------
    // §3.7 — PIM Query / DR election
    // ------------------------------------------------------------------

    /// A PIM Query (hello) arrived on `iface` from `src`.
    pub fn on_query(&mut self, now: SimTime, iface: IfaceId, src: Addr, q: &Query) -> Vec<Action> {
        let was_dr = self.is_dr(iface);
        let expires = now + Duration(q.holdtime as u64);
        let before = self.ifaces[iface.index()].neighbors.insert(src, expires);
        self.neighbor_timers.rearm(before, Some(expires));
        let is_dr = self.is_dr(iface);
        if was_dr != is_dr {
            self.telem.emit(|| Event::DrChanged {
                iface: iface.index() as u32,
                is_dr,
            });
        }
        Vec::new()
    }

    // ------------------------------------------------------------------
    // §3.8 — unicast routing changes
    // ------------------------------------------------------------------

    /// The unicast route toward `dst` changed. Re-derive the iif/upstream
    /// of every entry keyed by `dst`, prune the old path, join the new.
    pub fn on_route_change(&mut self, _now: SimTime, dst: Addr, rib: &dyn Rib) -> Vec<Action> {
        let mut out = Vec::new();
        let new_route = rib.route(dst);
        let groups: Vec<Group> = self.groups.keys().copied().collect();
        for group in groups {
            let mut star_join = false;
            let mut source_join = false;
            let mut prunes: Vec<(IfaceId, Addr, GroupEntry)> = Vec::new();
            {
                let gs = self.groups.get_mut(&group).expect("iterating keys");
                if let Some(star) = gs.star.as_mut() {
                    if star.key == dst && !star.oifs_empty() {
                        let (new_iif, new_up) = match new_route {
                            Some(r) => (Some(r.iface), Some(r.next_hop)),
                            None => (None, None),
                        };
                        if new_iif != star.iif || new_up != star.upstream {
                            if let (Some(old_iif), Some(old_up)) = (star.iif, star.upstream) {
                                prunes.push((
                                    old_iif,
                                    old_up,
                                    GroupEntry::prune(group, SourceEntry::shared_tree(star.key)),
                                ));
                            }
                            // "If the new incoming interface appears in the
                            // outgoing interface list, it is deleted" (§3.8).
                            if let Some(i) = new_iif {
                                star.remove_oif(&mut self.entry_timers, i);
                            }
                            star.iif = new_iif;
                            star.upstream = new_up;
                            star_join = true;
                            // Negative caches ride the shared tree: move
                            // their iif along with it.
                            for e in gs.sources.values_mut() {
                                if e.is_negative() {
                                    e.iif = new_iif;
                                    e.upstream = new_up;
                                }
                            }
                        }
                    }
                }
                if let Some(e) = gs.sources.get_mut(&dst) {
                    if !e.is_negative() && !e.local_source && !e.oifs_empty() {
                        let (new_iif, new_up) = match new_route {
                            Some(r) => (Some(r.iface), Some(r.next_hop)),
                            None => (None, None),
                        };
                        if new_iif != e.iif || new_up != e.upstream {
                            if let (Some(old_iif), Some(old_up)) = (e.iif, e.upstream) {
                                prunes.push((
                                    old_iif,
                                    old_up,
                                    GroupEntry::prune(group, SourceEntry::source(dst)),
                                ));
                            }
                            if let Some(i) = new_iif {
                                e.remove_oif(&mut self.entry_timers, i);
                            }
                            e.iif = new_iif;
                            e.upstream = new_up;
                            e.spt_bit = false; // must re-confirm over the new path
                            source_join = true;
                        }
                    }
                }
            }
            for (iface, upstream, ge) in prunes {
                out.push(self.join_prune_to(iface, upstream, vec![ge]));
            }
            if star_join {
                out.extend(self.triggered_star_join(group));
            }
            if source_join {
                out.extend(self.triggered_source_join(group, dst));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // §3.4/§3.6 — timers and periodic refresh
    // ------------------------------------------------------------------

    /// Soft-state maintenance: whatever has matured at `now` — pending LAN
    /// prunes, neighbor holdtimes, entry timers, the RP-timer, and the
    /// periodic query / RP-reachability / refresh schedule. The router
    /// adapter calls this at [`Engine::next_deadline`]; an early call
    /// finds nothing due and does nothing.
    pub fn tick(&mut self, now: SimTime, rib: &dyn Rib) -> Vec<Action> {
        let mut out = Vec::new();

        // Each sweep below runs only when its class of the deadline index
        // holds a matured deadline, so the common tick — a Query and
        // nothing else — walks no neighbor table and collects no keys.

        // Execute matured pending LAN prunes.
        if self.prune_timers.due(now) {
            let (due, rest): (Vec<PendingPrune>, Vec<PendingPrune>) = self
                .pending_prunes
                .drain(..)
                .partition(|p| now >= p.execute_at);
            self.pending_prunes = rest;
            for p in due {
                self.prune_timers.disarm(p.execute_at);
                out.extend(self.execute_prune(now, p.iface, p.group, &p.entry, p.holdtime));
            }
        }

        // Expire neighbors (DR election input). The DR re-election scans
        // run only on interfaces where a holdtime actually lapsed.
        if self.neighbor_timers.due(now) {
            for idx in 0..self.ifaces.len() {
                if !self.ifaces[idx].neighbors.values().any(|&exp| now >= exp) {
                    continue;
                }
                let iface = IfaceId(idx as u32);
                let was_dr = self.is_dr(iface);
                self.ifaces[idx].neighbors.retain(|_, &mut exp| {
                    let live = now < exp;
                    if !live {
                        self.neighbor_timers.disarm(exp);
                    }
                    live
                });
                let is_dr = self.is_dr(iface);
                if was_dr != is_dr {
                    self.telem.emit(|| Event::DrChanged {
                        iface: idx as u32,
                        is_dr,
                    });
                }
            }
        }

        // §3.8 repair: an entry can be left with no upstream when its
        // unicast route vanished, and the RouteChanged notification for
        // the route's return skips entries whose oif list was empty at
        // that instant (nothing to join *for*). If downstream interest
        // arrived later, the entry is live again but pointing nowhere —
        // re-resolve it against the RIB and send the triggered join.
        fn orphan_scan(gs: &GroupState) -> impl Iterator<Item = Addr> + '_ {
            let star = gs
                .star
                .as_ref()
                .filter(|s| s.iif.is_none() && !s.oifs_empty())
                .map(|s| s.key);
            let sources = gs
                .sources
                .iter()
                .filter(|(_, e)| {
                    !e.is_negative() && !e.local_source && e.iif.is_none() && !e.oifs_empty()
                })
                .map(|(&a, _)| a);
            star.into_iter().chain(sources)
        }
        // Orphans are rare (a route flap racing downstream interest): probe
        // without allocating before building the repair set.
        if self
            .groups
            .values()
            .any(|gs| orphan_scan(gs).next().is_some())
        {
            let orphaned: BTreeSet<Addr> = self.groups.values().flat_map(orphan_scan).collect();
            for dst in orphaned {
                out.extend(self.on_route_change(now, dst, rib));
            }
        }

        // PIM queries: one message, every interface. DR election matters
        // on member LANs with multiple routers too (§3.7); hosts ignore
        // them.
        if now >= self.next_query {
            self.next_query = now + self.cfg.query_interval;
            let holdtime = NEIGHBOR_HOLDTIME.ticks().min(u16::MAX as u64) as u16;
            if !self.ifaces.is_empty() {
                out.push(Action::Control {
                    ifaces: IfaceSet::first_n(self.ifaces.len()),
                    dst: Addr::ALL_PIM_ROUTERS,
                    ttl: 1,
                    msg: Message::PimQuery(Query { holdtime }),
                });
            }
        }

        // Entry timer maintenance: when an entry timer matured, or an
        // entry was left without oifs and without a deletion deadline (a
        // degenerate join on its own iif, a prune nobody followed up) and
        // has to be given one.
        if self.entry_timers.due(now) || self.groups.values().any(GroupState::needs_linger) {
            out.extend(self.expire_entries(now));
        }

        // RP failover checks.
        let rp_lapsed = |gs: &GroupState| {
            gs.star
                .as_ref()
                .and_then(|s| s.rp_timer())
                .is_some_and(|t| now >= t)
        };
        if self.entry_timers.due(now) && self.groups.values().any(rp_lapsed) {
            let lapsed: Vec<Group> = self
                .groups
                .iter()
                .filter(|(_, gs)| rp_lapsed(gs))
                .map(|(&g, _)| g)
                .collect();
            for g in lapsed {
                out.extend(self.rp_failover(now, g, rib));
            }
        }

        // RP-reachability generation (§3.2): one message per group, down
        // every (*,G) branch that is not a host LAN.
        if now >= self.next_reach {
            self.next_reach = now + self.cfg.rp_reach_period;
            let holdtime = self.cfg.rp_timeout.ticks().min(u16::MAX as u64) as u16;
            for (&group, gs) in &self.groups {
                if gs.rp() != Some(self.my_addr) && !gs.rps.contains(&self.my_addr) {
                    continue;
                }
                let Some(star) = gs.star.as_ref() else {
                    continue;
                };
                let ifaces: IfaceSet = star
                    .forward_set(None)
                    .into_iter()
                    .filter(|i| !self.ifaces[i.index()].is_host_lan)
                    .collect();
                if ifaces.is_empty() {
                    continue;
                }
                out.push(Action::Control {
                    ifaces,
                    dst: Addr::ALL_PIM_ROUTERS,
                    ttl: 1,
                    msg: Message::PimRpReachability(RpReachability {
                        group,
                        rp: self.my_addr,
                        holdtime,
                    }),
                });
            }
        }

        // Periodic join/prune refresh (§3.4), aggregated per upstream
        // neighbor.
        if now >= self.next_refresh {
            self.next_refresh = now + self.cfg.refresh_period;
            out.extend(self.periodic_refresh(now));
        }

        out
    }

    /// The absolute time of this engine's next pending timer: the periodic
    /// query/reachability/refresh schedule, matured LAN prunes, neighbor
    /// holdtime expiries, and every entry's soft-state timers. The adapter
    /// arms exactly one wakeup at this instant instead of polling.
    ///
    /// PIM routers are never fully quiescent — queries and join/prune
    /// refreshes are the protocol's heartbeat — so this always returns
    /// `Some`, but the deadlines are whole protocol periods apart, not poll
    /// granules.
    ///
    /// A read of the deadline index, whatever was just mutated. Debug
    /// builds check it against the full walk on every call.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let periodic = self.next_query.min(self.next_reach).min(self.next_refresh);
        let next = [
            &self.neighbor_timers,
            &self.entry_timers,
            &self.prune_timers,
        ]
        .into_iter()
        .filter_map(Deadlines::first)
        .fold(periodic, SimTime::min);
        #[cfg(debug_assertions)]
        assert_eq!(
            Some(next),
            self.scan_deadline(),
            "a timer was written past the deadline index"
        );
        Some(next)
    }

    /// Every armed soft-state deadline, found by walking all state: the
    /// reference the three indexes are checked against.
    #[cfg(any(test, debug_assertions))]
    fn for_each_deadline(&self, mut f: impl FnMut(TimerClass, SimTime)) {
        for p in &self.pending_prunes {
            f(TimerClass::Prune, p.execute_at);
        }
        for st in &self.ifaces {
            for &exp in st.neighbors.values() {
                f(TimerClass::Neighbor, exp);
            }
        }
        for gs in self.groups.values() {
            for e in gs.star.iter().chain(gs.sources.values()) {
                for t in e.deadlines() {
                    f(TimerClass::Entry, t);
                }
            }
        }
    }

    /// The earliest pending timer, found by walking all of them.
    #[cfg(any(test, debug_assertions))]
    fn scan_deadline(&self) -> Option<SimTime> {
        let mut best = self.next_query.min(self.next_reach).min(self.next_refresh);
        self.for_each_deadline(|_, t| best = best.min(t));
        Some(best)
    }

    /// Panics unless each index holds exactly the deadlines the walk finds
    /// for its class — none missing, none left behind by a dropped entry,
    /// an expired neighbor or a reset.
    #[cfg(test)]
    pub(crate) fn assert_deadlines_indexed(&self) {
        let mut walked: [Vec<SimTime>; 3] = Default::default();
        self.for_each_deadline(|class, t| walked[class as usize].push(t));
        for (class, index) in [
            (TimerClass::Neighbor, &self.neighbor_timers),
            (TimerClass::Entry, &self.entry_timers),
            (TimerClass::Prune, &self.prune_timers),
        ] {
            walked[class as usize].sort();
            assert_eq!(index.as_slice(), walked[class as usize], "{class:?} timers");
        }
        assert_eq!(self.next_deadline(), self.scan_deadline());
    }

    fn expire_entries(&mut self, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        let groups: Vec<Group> = self.groups.keys().copied().collect();
        for group in groups {
            let mut emptied = false;
            {
                let timers = &mut self.entry_timers;
                let gs = self.groups.get_mut(&group).expect("iterating keys");
                if let Some(star) = gs.star.as_mut() {
                    let removed = star.expire_oifs(timers, now);
                    if !removed.is_empty() {
                        emptied = true;
                        // Copied (S,G) oifs follow the shared tree's lapses.
                        for i in removed {
                            for e in gs.sources.values_mut() {
                                if e.oifs().get(&i).map(|o| o.kind) == Some(OifKind::CopiedFromStar)
                                {
                                    e.remove_oif(timers, i);
                                }
                            }
                        }
                    }
                }
                for e in gs.sources.values_mut() {
                    if !e.expire_oifs(timers, now).is_empty() {
                        emptied = true;
                    }
                    e.expire_pruned_oifs(timers, now);
                }
                // Entries that ended up with no oifs by any path (including
                // degenerate joins that arrived on the entry's own iif and
                // never contributed an oif) must get a deletion deadline.
                emptied |= gs.needs_linger();
                // Deletion of lapsed entries.
                let star_dead = gs
                    .star
                    .as_ref()
                    .and_then(|s| s.delete_at())
                    .is_some_and(|t| now >= t);
                if star_dead {
                    if let Some(star) = gs.star.take() {
                        star.disarm(timers);
                    }
                    self.telem.emit(|| Event::EntryExpired {
                        group,
                        key: EntryKey::Star,
                    });
                    // Footnote 13: negative caches must not outlive (*,G).
                    gs.sources.retain(|&s, e| {
                        if e.is_negative() {
                            e.disarm(timers);
                            self.telem.emit(|| Event::EntryExpired {
                                group,
                                key: EntryKey::Source(s),
                            });
                        }
                        !e.is_negative()
                    });
                }
                for e in gs.sources.values_mut() {
                    // A local-source entry with no remaining oifs carries no
                    // forwarding value; the DR will re-register on the next
                    // packet, so let it linger out like everything else.
                    if e.local_source && e.oifs_empty() && e.delete_at().is_none() {
                        e.set_delete_at(timers, Some(now + self.cfg.entry_linger));
                    }
                }
                gs.sources.retain(|&s, e| {
                    let dead = e.delete_at().is_some_and(|t| now >= t);
                    if dead {
                        e.disarm(timers);
                        self.telem.emit(|| Event::EntryExpired {
                            group,
                            key: EntryKey::Source(s),
                        });
                    }
                    !dead
                });
            }
            if emptied {
                out.extend(self.after_oif_removal(now, group));
            }
            // Drop group states with nothing left but a mapping.
            if self.groups.get(&group).is_some_and(GroupState::is_vacant) {
                self.groups.remove(&group);
            }
        }
        out
    }

    /// "In the steady state each router sends periodic refreshes of PIM
    /// messages upstream to each of the next hop routers that is en route
    /// to each source ... as well as for the RP" (§3.4).
    fn periodic_refresh(&mut self, now: SimTime) -> Vec<Action> {
        // Aggregate entries per (iface, upstream neighbor).
        let mut batches: HashMap<(IfaceId, Addr), Vec<GroupEntry>> = HashMap::new();
        let mut push = |iface: IfaceId,
                        up: Addr,
                        group: Group,
                        joins: Vec<SourceEntry>,
                        prunes: Vec<SourceEntry>| {
            let batch = batches.entry((iface, up)).or_default();
            if let Some(ge) = batch.iter_mut().find(|ge| ge.group == group) {
                ge.joins.extend(joins);
                ge.prunes.extend(prunes);
            } else {
                batch.push(GroupEntry {
                    group,
                    joins,
                    prunes,
                });
            }
        };
        for (&group, gs) in &self.groups {
            if let Some(star) = &gs.star {
                let suppressed = star.suppressed_until.is_some_and(|t| now < t);
                if !star.oifs_empty() && !suppressed {
                    if let (Some(iif), Some(up)) = (star.iif, star.upstream) {
                        push(
                            iif,
                            up,
                            group,
                            vec![SourceEntry::shared_tree(star.key)],
                            vec![],
                        );
                    }
                }
            }
            for (&source, e) in &gs.sources {
                let suppressed = e.suppressed_until.is_some_and(|t| now < t);
                if e.is_negative() {
                    // Footnote 10: "The RP bit in an (S,G) entry indicates
                    // that periodic PIM join/prune should be sent toward
                    // the RP" — refresh the upstream negative caches while
                    // all our downstream branches remain pruned.
                    if e.oifs_empty() {
                        if let (Some(iif), Some(up)) = (e.iif, e.upstream) {
                            push(
                                iif,
                                up,
                                group,
                                vec![],
                                vec![SourceEntry::source_on_rp_tree(source)],
                            );
                        }
                    }
                } else {
                    if !e.oifs_empty() && !e.local_source && !suppressed {
                        if let (Some(iif), Some(up)) = (e.iif, e.upstream) {
                            push(iif, up, group, vec![SourceEntry::source(source)], vec![]);
                        }
                    }
                    if e.pruned_from_shared {
                        // §3.3: the prune toward the RP only applies while
                        // "its shared tree incoming interface differs from
                        // its shortest path tree incoming interface" — a
                        // re-rooted shared tree (RP failover, route change)
                        // may have converged onto the SPT path.
                        if let Some(star) = &gs.star {
                            if star.iif != e.iif {
                                if let (Some(siif), Some(sup)) = (star.iif, star.upstream) {
                                    push(
                                        siif,
                                        sup,
                                        group,
                                        vec![],
                                        vec![SourceEntry::source_on_rp_tree(source)],
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut keys: Vec<(IfaceId, Addr)> = batches.keys().copied().collect();
        keys.sort();
        keys.into_iter()
            .map(|k| {
                let groups = batches.remove(&k).expect("key from map");
                self.join_prune_to(k.0, k.1, groups)
            })
            .collect()
    }

    /// Clear LAN suppression state for tests.
    #[cfg(test)]
    pub(crate) fn neighbors_on(&self, iface: IfaceId) -> Vec<Addr> {
        self.ifaces[iface.index()]
            .neighbors
            .keys()
            .copied()
            .collect()
    }
}

impl StateDump for Engine {
    /// `show mroute`-style snapshot: per-interface PIM neighbors (the DR
    /// election inputs), then every (\*,G)/(S,G) entry with its flag bits,
    /// iif/upstream, oif list, negative-cache prune leases, and soft-state
    /// deadlines. Rendered from [`BTreeMap`]s, so byte-stable across runs.
    fn state_dump(&self, now: telemetry::Ticks) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "pim {} t{}", self.my_addr, now);
        for (i, st) in self.ifaces.iter().enumerate() {
            if st.neighbors.is_empty() {
                continue;
            }
            let nbrs: Vec<String> = st
                .neighbors
                .iter()
                .map(|(a, exp)| format!("{a}/{}", fmt_deadline(*exp)))
                .collect();
            let dr = if self.is_dr(IfaceId(i as u32)) {
                " dr"
            } else {
                ""
            };
            let _ = writeln!(s, "  if{i}{dr} nbrs=[{}]", nbrs.join(","));
        }
        for (&group, gs) in &self.groups {
            let rps: Vec<String> = gs.rps.iter().map(|r| r.to_string()).collect();
            let rp = gs
                .rp()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(s, "  group {group} rps=[{}] rp={rp}", rps.join(","));
            if let Some(star) = &gs.star {
                dump_entry(&mut s, star);
            }
            for e in gs.sources.values() {
                dump_entry(&mut s, e);
            }
        }
        s
    }
}

/// One forwarding entry in `show mroute` style, plus oif/prune sub-lines.
fn dump_entry(s: &mut String, e: &Entry) {
    let lhs = if e.wildcard {
        "*".to_string()
    } else {
        e.key.to_string()
    };
    let _ = write!(
        s,
        "    ({lhs}, {}) flags={}",
        e.group,
        flags::render(entry_flags(e))
    );
    if e.wildcard {
        // For (*,G) the key carries the RP the tree is rooted at.
        let _ = write!(s, " rp={}", e.key);
    }
    match e.iif {
        Some(i) => {
            let _ = write!(s, " iif={}", i.index());
        }
        None => {
            let _ = write!(s, " iif=-");
        }
    }
    if let Some(up) = e.upstream {
        let _ = write!(s, " up={up}");
    }
    if let Some(t) = e.rp_timer() {
        let _ = write!(s, " rp-timer={}", fmt_deadline(t));
    }
    if let Some(t) = e.delete_at() {
        let _ = write!(s, " delete-at={}", fmt_deadline(t));
    }
    let _ = writeln!(s);
    for (&i, o) in e.oifs() {
        let kind = match o.kind {
            OifKind::Joined => "joined",
            OifKind::CopiedFromStar => "copied",
            OifKind::LocalMembers => "local",
        };
        let _ = writeln!(
            s,
            "      oif {} {kind} expires={}",
            i.index(),
            fmt_deadline(o.expires_at)
        );
    }
    for (&i, &t) in e.pruned_oifs() {
        let _ = writeln!(s, "      pruned {} until={}", i.index(), fmt_deadline(t));
    }
}

/// Render a soft-state deadline; `u64::MAX` is the "never expires"
/// sentinel used for local-member oifs.
fn fmt_deadline(t: SimTime) -> String {
    if t.ticks() == u64::MAX {
        "never".to_string()
    } else {
        format!("t{}", t.ticks())
    }
}
