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

/// A holdtime as a message carries it: saturated at 16 bits.
fn msg_holdtime(d: Duration) -> u16 {
    d.ticks().min(u16::MAX as u64) as u16
}

/// The reverse-path lookup toward `dst`: the iif and upstream neighbor of
/// an entry rooted there. Both are null at the root itself ("the incoming
/// interface in the RP's (\*,G) entry is set to null", §3.2) and while
/// `dst` is unreachable (joined when routing recovers, §3.8).
fn rpf(my_addr: Addr, rib: &dyn Rib, dst: Addr) -> (Option<IfaceId>, Option<Addr>) {
    if dst == my_addr {
        return (None, None);
    }
    rib.route(dst)
        .map_or((None, None), |r| (Some(r.iface), Some(r.next_hop)))
}

/// A Join/Prune carrying `groups` out of `iface` to the neighbor
/// `upstream`.
fn join_prune(
    cfg: &PimConfig,
    (iface, upstream): (IfaceId, Addr),
    groups: Vec<GroupEntry>,
) -> Action {
    Action::control(
        iface,
        Addr::ALL_PIM_ROUTERS,
        1,
        Message::PimJoinPrune(JoinPrune {
            upstream_neighbor: upstream,
            holdtime: msg_holdtime(cfg.holdtime),
            groups,
        }),
    )
}

/// A triggered message (§3.4: "a PIM message is also sent on an
/// event-triggered basis each time a new forwarding entry is
/// established"): `msg` built from `via` and sent to `via`'s upstream
/// neighbor. None without `via` or without an upstream: at the root of
/// its tree, or while the root is unreachable.
fn triggered(
    cfg: &PimConfig,
    via: Option<&Entry>,
    msg: impl FnOnce(&Entry) -> GroupEntry,
) -> Option<Action> {
    let via = via?;
    Some(join_prune(cfg, via.upstream_link()?, vec![msg(via)]))
}

/// Forward the data packet in hand out of `ifaces` (§3.5); nothing when
/// there are none.
fn forward(ifaces: Vec<IfaceId>, source: Addr, group: Group) -> Option<Action> {
    (!ifaces.is_empty()).then_some(Action::Forward {
        ifaces,
        source,
        group,
    })
}

/// Set an (S,G) entry's SPT bit: its data arrived over the shortest-path
/// tree (§3.5). Telemetry hears of the flip.
fn set_spt_bit(telem: &mut Telem, e: &mut Entry) {
    if !e.spt_bit {
        let from = entry_flags(e);
        e.spt_bit = true;
        telem.emit(|| Event::EntryModified {
            group: e.group,
            key: EntryKey::Source(e.key),
            from,
            to: from | flags::SPT,
        });
    }
}

/// `msg` down every branch of `star` but `arrival`, host LANs excepted
/// (§3.2); none when that leaves no branch.
fn rp_reach(
    ifaces: &[IfaceState],
    star: &Entry,
    arrival: Option<IfaceId>,
    msg: RpReachability,
) -> Option<Action> {
    let out: IfaceSet = star
        .forward_set(arrival)
        .into_iter()
        .filter(|i| !ifaces[i.index()].is_host_lan)
        .collect();
    (!out.is_empty()).then_some(Action::Control {
        ifaces: out,
        dst: Addr::ALL_PIM_ROUTERS,
        ttl: 1,
        msg: Message::PimRpReachability(msg),
    })
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
        let created = self.ensure_star(group, rp, rib);
        let timers = &mut self.entry_timers;
        let gs = self.groups.get_mut(&group).expect("ensured above");
        let star = gs.star.as_mut().expect("ensured above");
        star.add_oif(timers, iface, OifKind::LocalMembers, now);
        // "The DR sets an RP-timer for this entry" (§3.1).
        if star.rp_timer().is_none() {
            star.set_rp_timer(timers, Some(now + self.cfg.rp_timeout));
        }
        // Local members receive from every source: mirror into existing
        // (S,G) entries, per the §3.3 copy semantics.
        for e in gs.sources.values_mut() {
            if !e.pruned_oifs().contains_key(&iface) {
                e.add_oif(timers, iface, OifKind::LocalMembers, now);
            }
        }
        if !created {
            return Vec::new();
        }
        Vec::from_iter(triggered(&self.cfg, gs.star.as_ref(), Entry::as_join))
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
        let gs = self.groups.entry(group).or_default();
        if gs.star.is_some() {
            return false;
        }
        let (iif, upstream) = rpf(self.my_addr, rib, rp);
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
        _src: Addr,
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
    ) -> Option<Action> {
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
            let timers = &mut self.entry_timers;
            let gs = self.groups.get_mut(&group).expect("ensured");
            let star = gs.star.as_mut().expect("ensured");
            if star.key != rp {
                // §3.9 failover propagation: the downstream receivers have
                // moved to an alternate RP; re-root the shared tree toward
                // it. The join carries the RP address for exactly this
                // purpose (§3.1: "the RP address is included in a special
                // record in the forwarding entry, so that it will be
                // included in upstream join messages").
                star.key = rp;
                let (iif, upstream) = rpf(self.my_addr, rib, rp);
                gs.move_star(timers, iif, upstream);
                if let Some(pos) = gs.rps.iter().position(|&r| r == rp) {
                    gs.current_rp = pos;
                }
                // SPT entries whose iif now coincides with the re-rooted
                // tree no longer diverge from it.
                for e in gs
                    .sources
                    .values_mut()
                    .filter(|e| !e.is_negative() && e.iif == iif)
                {
                    e.pruned_from_shared = false;
                }
                created = true; // trigger a join toward the new RP
            }
            let star = gs.star.as_mut().expect("ensured");
            // A join arriving on our own upstream interface would create a
            // forwarding loop; ignore it.
            if star.iif == Some(iface) {
                return None;
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
                return triggered(&self.cfg, gs.star.as_ref(), Entry::as_join);
            }
        } else if !j.rp_bit {
            // Source-specific join {S}: instantiate/extend (S,G) SPT state.
            let source = j.addr;
            let created = self.ensure_source(group, source, rib);
            let gs = self.groups.get_mut(&group).expect("ensured");
            let e = gs.sources.get_mut(&source).expect("ensured");
            if e.iif == Some(iface) {
                return None;
            }
            e.add_oif(&mut self.entry_timers, iface, OifKind::Joined, expires);
            if created {
                return triggered(&self.cfg, Some(e), Entry::as_join);
            }
        } else {
            // Join {S, RPbit}: re-join of a source on the shared tree —
            // cancels a negative cache for this interface (LAN override,
            // §3.7, and unicast-change repair, §3.8), or restores the
            // branch a real (S,G) pruned off the shared tree (footnote
            // 11). One arriving on the entry's own upstream interface
            // would loop; it is ignored.
            let timers = &mut self.entry_timers;
            let gs = self.groups.get_mut(&group)?;
            if let Some(e) = gs.sources.get_mut(&j.addr).filter(|e| e.iif != Some(iface)) {
                e.unprune_oif(timers, iface);
                e.add_oif(timers, iface, OifKind::CopiedFromStar, expires);
                // With nothing pruned anywhere the negative cache is pure
                // overhead; drop it and fall back to (*,G).
                if e.is_negative() && e.pruned_oifs().is_empty() {
                    e.disarm(timers);
                    gs.sources.remove(&j.addr);
                }
            }
        }
        None
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
        let (iif, upstream) = match local {
            Some(host_iface) => (Some(host_iface), None),
            None => rpf(self.my_addr, rib, source),
        };
        let mut e = Entry::new_source(group, source, iif, upstream);
        e.local_source = local.is_some();
        if let Some(star) = &gs.star {
            e.copy_oifs(timers, star, iif);
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
        let Some(gs) = self.groups.get_mut(&group) else {
            return Vec::new();
        };
        let timers = &mut self.entry_timers;
        let removed = if p.wildcard {
            // Leave the shared tree entirely on this interface.
            let removed = gs
                .star
                .as_mut()
                .is_some_and(|star| star.remove_oif(timers, iface));
            gs.drop_copies(timers, iface);
            removed
        } else if !p.rp_bit {
            // Source-specific prune {S}.
            gs.sources
                .get_mut(&p.addr)
                .is_some_and(|e| !e.is_negative() && e.remove_oif(timers, iface))
        } else {
            // Prune {S, RPbit}: set up a negative cache on the RP tree
            // (§3.3, footnote 11).
            let Some(star) = gs.star.as_ref() else {
                return Vec::new(); // no shared tree here: nothing to prune from
            };
            if !gs.sources.contains_key(&p.addr) {
                self.telem.emit(|| Event::EntryCreated {
                    group,
                    key: EntryKey::Source(p.addr),
                    flags: flags::RP,
                });
            }
            let e = gs.sources.entry(p.addr).or_insert_with(|| {
                let mut neg = Entry::new_negative(group, p.addr, star.iif, star.upstream);
                neg.copy_oifs(timers, star, None);
                neg
            });
            // Footnote 11, for a real (S,G) entry (e.g. at the RP itself)
            // as for a negative cache: "the outgoing interface from which
            // it receives a PIM prune message with (S,G) and the RP bit in
            // the prune list, is deleted from the outgoing interface list."
            let removed = e.remove_oif(timers, iface);
            e.prune_oif(timers, iface, now + holdtime);
            if e.is_negative() {
                // "Negative cache entries on the RP tree must be kept alive
                // by receipt of prunes" (footnote 13).
                e.set_delete_at(timers, Some(now + holdtime));
                if !e.oifs_empty() {
                    return Vec::new();
                }
                // Every shared-tree branch below us has pruned S:
                // propagate toward the RP.
                return Vec::from_iter(triggered(&self.cfg, Some(star), |_| e.as_prune()));
            }
            removed
        };
        if removed {
            self.after_oif_removal(now, group)
        } else {
            Vec::new()
        }
    }

    /// §3.6: a prune (or expiry) may have emptied an oif list — prune
    /// upstream and schedule deletion.
    fn after_oif_removal(&mut self, now: SimTime, group: Group) -> Vec<Action> {
        let mut out = Vec::new();
        let Some(gs) = self.groups.get_mut(&group) else {
            return out;
        };
        let entries = gs.star.iter_mut().chain(gs.sources.values_mut());
        for e in entries.filter(|e| !e.is_negative() && !e.local_source) {
            if e.oifs_empty() && e.delete_at().is_none() {
                e.set_delete_at(&mut self.entry_timers, Some(now + self.cfg.entry_linger));
                out.extend(triggered(&self.cfg, Some(e), Entry::as_prune));
            }
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
    ) -> Option<Action> {
        // "If there is any router that has the LAN as its incoming
        // interface for the same (S,G) and has non-null outgoing interface
        // list, then the router sends a join message onto the LAN to
        // override the prune" (§3.7).
        let gs = self.groups.get(&group)?;
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
            return None;
        }
        let join = GroupEntry::join(group, *p);
        Some(join_prune(&self.cfg, (iface, upstream), vec![join]))
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
                    // Data is arriving over its own first hop.
                    set_spt_bit(&mut self.telem, e);
                    // Native oifs only prove some receiver's SPT join
                    // reached us — not that the RP still holds the source.
                    // Periodically re-register one data packet so an RP
                    // that lost its (S,G) state (crash, shared-tree churn)
                    // can reacquire it for later shared-tree members.
                    if now >= e.next_register_probe {
                        probe = true;
                        e.next_register_probe = now + REGISTER_PROBE_INTERVAL;
                    }
                    out.extend(forward(e.forward_set(Some(iface)), source, group));
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
                out.extend(forward(ifaces, source, group));
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
                    let (join, ifaces) = self.accept_register(source, group, rib);
                    out.extend(join);
                    out.extend(forward(ifaces, source, group));
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
        let (join, ifaces) = self.accept_register(reg.source, reg.group, rib);
        let mut out = Vec::from_iter(join);
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
    /// own first-hop data when we are the RP. Returns the triggered join,
    /// if any, and the interfaces the registered packet goes out of (none:
    /// drop it); the caller knows where that packet's payload is.
    fn accept_register(
        &mut self,
        source: Addr,
        group: Group,
        rib: &dyn Rib,
    ) -> (Option<Action>, Vec<IfaceId>) {
        let has_receivers = self
            .groups
            .get(&group)
            .and_then(|gs| gs.star.as_ref())
            .is_some_and(|s| !s.oifs_empty());
        if !has_receivers {
            return (None, Vec::new()); // no shared tree: drop until a receiver joins
        }
        let created = self.ensure_source(group, source, rib);
        let gs = self.groups.get(&group).expect("has_receivers");
        let e = gs.sources.get(&source).expect("ensured");
        if e.spt_bit {
            // Already receiving this source natively over its shortest-path
            // tree: the register copy is redundant (the role Register-Stop
            // plays in later PIM-SM). Keep the state, drop the payload.
            return (None, Vec::new());
        }
        // "The RP responds by sending a join toward the source" (§3) —
        // once, when the (S,G) entry is created.
        let join = triggered(&self.cfg, Some(e).filter(|_| created), Entry::as_join);
        // Forward the decapsulated packet down the shared tree. The
        // register tunnel is the logical incoming interface, so the full
        // (*,G) oif list applies — including the physical interface that
        // happens to point toward the source — minus any oifs carrying an
        // active negative-cache prune for this source.
        let star = gs.star.as_ref().expect("has_receivers");
        let ifaces = star
            .oifs()
            .keys()
            .copied()
            .filter(|i| !e.pruned_oifs().contains_key(i))
            .collect();
        (join, ifaces)
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

        let arrival = Some(iface);
        let on_shared = gs.star.as_ref().is_some_and(|s| s.iif == arrival);
        match gs.sources.get_mut(&source) {
            // A negative cache, or an SPT entry whose switch is complete:
            // the plain incoming-interface check.
            Some(e) if e.is_negative() || e.spt_bit => {
                if e.iif == arrival {
                    out.extend(forward(e.forward_set(arrival), source, group));
                }
                return out;
            }
            // "When a data packet matches on an (S,G) entry with a cleared
            // SPT bit, and the incoming interface of the packet matches
            // that of the (S,G) entry, then the packet is forwarded and the
            // SPT bit is set" (§3.5).
            Some(e) if e.iif == arrival => {
                let ifaces = e.forward_set(arrival);
                set_spt_bit(&mut self.telem, e);
                // "…sends a PIM prune toward RP if its shared tree incoming
                // interface differs from its shortest path tree incoming
                // interface" (§3.3).
                if gs.star.is_some() && !on_shared && !e.pruned_from_shared {
                    e.pruned_from_shared = true;
                    let prune = |_: &Entry| {
                        GroupEntry::prune(group, SourceEntry::source_on_rp_tree(source))
                    };
                    out.extend(triggered(&self.cfg, gs.star.as_ref(), prune));
                }
                out.extend(forward(ifaces, source, group));
                return out;
            }
            // Transition exception 1: still arriving via the shared tree —
            // forward according to (*,G).
            Some(_) if on_shared => {}
            None if on_shared || gs.star.as_ref().is_some_and(|s| s.iif.is_none()) => {}
            _ => return out,
        }
        let star = gs.star.as_ref().expect("matched above");
        out.extend(forward(star.forward_set(arrival), source, group));
        // §3.3 switchover decision: a router with directly connected
        // members seeing shared-tree data from a source it has no (Sn,G)
        // entry for may join the SPT.
        if star.has_local_members()
            && !gs.sources.contains_key(&source)
            && !self.local_hosts.contains_key(&source)
            && self.spt_switch_due(now, group, source)
        {
            out.extend(self.start_spt_switch(group, source, rib));
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
    fn start_spt_switch(&mut self, group: Group, source: Addr, rib: &dyn Rib) -> Option<Action> {
        self.telem.emit(|| Event::SptSwitchStart { group, source });
        if !self.ensure_source(group, source, rib) {
            return None;
        }
        self.spt_counters.remove(&(group, source));
        triggered(
            &self.cfg,
            self.groups[&group].sources.get(&source),
            Entry::as_join,
        )
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
        // Distribute on down the (*,G) tree (§3.2).
        Vec::from_iter(rp_reach(&self.ifaces, star, Some(iface), *msg))
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
            return Vec::from_iter(triggered(&self.cfg, gs.star.as_ref(), Entry::as_join));
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
        let (iif, upstream) = rpf(self.my_addr, rib, new_rp);
        let timers = &mut self.entry_timers;
        let mut star = Entry::new_star(group, new_rp, iif, upstream);
        let old_oifs = gs.star.iter().flat_map(|s| s.oifs());
        for (&i, _) in old_oifs.filter(|(_, o)| o.kind == OifKind::LocalMembers) {
            star.add_oif(timers, i, OifKind::LocalMembers, now);
        }
        star.set_rp_timer(timers, Some(now + self.cfg.rp_timeout));
        if let Some(old) = gs.star.replace(star) {
            old.disarm(timers);
        }
        gs.drop_negatives(timers, &mut self.telem);
        Vec::from_iter(triggered(&self.cfg, gs.star.as_ref(), Entry::as_join))
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
        let (iif, upstream) = rpf(self.my_addr, rib, dst);
        // An entry keyed by `dst` with downstream interest whose upstream
        // the new route changes.
        let moves =
            |e: &Entry| e.key == dst && !e.oifs_empty() && (e.iif, e.upstream) != (iif, upstream);
        let (cfg, timers) = (&self.cfg, &mut self.entry_timers);
        for gs in self.groups.values_mut() {
            let star_moved = gs.star.as_ref().is_some_and(moves);
            let old_star = if star_moved {
                gs.move_star(timers, iif, upstream)
            } else {
                None
            };
            let source = gs.sources.get_mut(&dst);
            let source = source.filter(|e| !e.is_negative() && !e.local_source && moves(e));
            let source_moved = source.is_some();
            let old_source = source.and_then(|e| {
                e.spt_bit = false; // must re-confirm over the new path
                e.move_upstream(timers, iif, upstream)
            });
            // Prune the old paths, then join the new.
            let (star, source) = (gs.star.as_ref(), gs.sources.get(&dst));
            for (old, e) in [(old_star, star), (old_source, source)] {
                if let (Some(link), Some(e)) = (old, e) {
                    out.push(join_prune(cfg, link, vec![e.as_prune()]));
                }
            }
            if star_moved {
                out.extend(triggered(cfg, star, Entry::as_join));
            }
            if source_moved {
                out.extend(triggered(cfg, source, Entry::as_join));
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

        // §3.8 repair: re-resolve every orphan against the RIB and send
        // the triggered join. Orphans are rare (a route flap racing
        // downstream interest): probe without allocating before building
        // the repair set.
        let me = self.my_addr;
        if self
            .groups
            .values()
            .any(|gs| gs.orphans(me).next().is_some())
        {
            let orphaned: BTreeSet<Addr> =
                self.groups.values().flat_map(|gs| gs.orphans(me)).collect();
            for dst in orphaned {
                out.extend(self.on_route_change(now, dst, rib));
            }
        }

        // PIM queries: one message, every interface. DR election matters
        // on member LANs with multiple routers too (§3.7); hosts ignore
        // them.
        if now >= self.next_query {
            self.next_query = now + self.cfg.query_interval;
            let holdtime = msg_holdtime(NEIGHBOR_HOLDTIME);
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
            let holdtime = msg_holdtime(self.cfg.rp_timeout);
            for (&group, gs) in &self.groups {
                let Some(star) = gs.star.as_ref().filter(|_| gs.rps.contains(&self.my_addr)) else {
                    continue;
                };
                let msg = RpReachability {
                    group,
                    rp: self.my_addr,
                    holdtime,
                };
                out.extend(rp_reach(&self.ifaces, star, None, msg));
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
                    emptied = !removed.is_empty();
                    for i in removed {
                        gs.drop_copies(timers, i);
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
                    gs.drop_negatives(timers, &mut self.telem);
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
        // Aggregate entries per (iface, upstream neighbor), one group
        // entry per group.
        let mut batches: BTreeMap<(IfaceId, Addr), Vec<GroupEntry>> = BTreeMap::new();
        let mut push = |link: (IfaceId, Addr), ge: GroupEntry| {
            let batch = batches.entry(link).or_default();
            if let Some(have) = batch.iter_mut().find(|have| have.group == ge.group) {
                have.joins.extend(ge.joins);
                have.prunes.extend(ge.prunes);
            } else {
                batch.push(ge);
            }
        };
        for (&group, gs) in &self.groups {
            let live = |e: &Entry| !e.oifs_empty() && e.suppressed_until.is_none_or(|t| now >= t);
            if let Some(star) = gs.star.as_ref().filter(|s| live(s)) {
                if let Some(link) = star.upstream_link() {
                    push(link, star.as_join());
                }
            }
            for (&source, e) in &gs.sources {
                if e.is_negative() {
                    // Footnote 10: "The RP bit in an (S,G) entry indicates
                    // that periodic PIM join/prune should be sent toward
                    // the RP" — refresh the upstream negative caches while
                    // all our downstream branches remain pruned.
                    if let Some(link) = e.upstream_link().filter(|_| e.oifs_empty()) {
                        push(link, e.as_prune());
                    }
                    continue;
                }
                if let Some(link) = e.upstream_link().filter(|_| live(e) && !e.local_source) {
                    push(link, e.as_join());
                }
                // §3.3: the prune toward the RP only applies while "its
                // shared tree incoming interface differs from its shortest
                // path tree incoming interface" — a re-rooted shared tree
                // (RP failover, route change) may have converged onto the
                // SPT path.
                let star = gs
                    .star
                    .as_ref()
                    .filter(|s| e.pruned_from_shared && s.iif != e.iif);
                if let Some(link) = star.and_then(Entry::upstream_link) {
                    push(
                        link,
                        GroupEntry::prune(group, SourceEntry::source_on_rp_tree(source)),
                    );
                }
            }
        }
        batches
            .into_iter()
            .map(|(link, groups)| join_prune(&self.cfg, link, groups))
            .collect()
    }

    /// The live PIM neighbors on `iface`.
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
        flags::Set(entry_flags(e))
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
