//! The sans-IO dense-mode engine.

use netsim::{Deadlines, Duration, IfaceId, SimTime};
use node::{Action, ProtocolEngine};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use telemetry::{flags, EntryKey, Event, Telem};
use unicast::Rib;
use wire::dvmrp::{Graft, GraftAck, Probe, Prune};
use wire::{Addr, Group, Message};

/// Lifetime carried in prunes; the pruned branch grows back after this
/// (§1.1: "pruned branches will grow back after a time-out period").
pub const PRUNE_LIFETIME: Duration = Duration(200);

/// An (S,G) entry with no data for this long is deleted.
pub const ENTRY_TIMEOUT: Duration = Duration(400);

/// Retransmit an unacknowledged graft after this.
pub const GRAFT_RETRANSMIT: Duration = Duration(10);

/// Period between neighbor probes.
pub const PROBE_INTERVAL: Duration = Duration(30);

/// A neighbor silent for this long is dropped.
pub const NEIGHBOR_TIMEOUT: Duration = Duration(105);

/// Minimum spacing between repeated prunes for the same (S,G) (avoids a
/// prune per data packet while pruned state is refreshed upstream).
pub const PRUNE_DAMPING: Duration = Duration(50);

/// Per-(S,G) dense-mode state.
#[derive(Clone, Debug)]
struct SgEntry {
    /// Downstream interfaces currently pruned, with grow-back deadline.
    pruned: BTreeMap<IfaceId, SimTime>,
    /// We have sent a prune upstream (we have no receivers); data arriving
    /// before the upstream prune takes effect is dropped silently.
    pruned_upstream: bool,
    /// Last time we sent an upstream prune (damping).
    last_prune_at: Option<SimTime>,
    /// Outstanding graft awaiting its ack, with next retransmit time.
    pending_graft: Option<SimTime>,
    /// Entry garbage collection deadline (refreshed by data).
    expires_at: SimTime,
}

impl SgEntry {
    /// A new entry, its GC deadline armed in `timers`. The two timer
    /// fields are written only through the methods below, which keep
    /// `timers` equal to every entry's [`SgEntry::deadlines`].
    fn new(timers: &mut Deadlines, expires_at: SimTime) -> SgEntry {
        timers.arm(expires_at);
        SgEntry {
            pruned: BTreeMap::new(),
            pruned_upstream: false,
            last_prune_at: None,
            pending_graft: None,
            expires_at,
        }
    }

    /// Both armed timers of this entry: GC and, if one is outstanding,
    /// the graft retransmit. Prune-lifetime lapses are deliberately not
    /// timers — grow-back is evaluated lazily on the next data packet, so
    /// no wakeup is needed.
    fn deadlines(&self) -> impl Iterator<Item = SimTime> {
        [Some(self.expires_at), self.pending_graft]
            .into_iter()
            .flatten()
    }

    /// Push the GC deadline out (data refreshes it).
    fn set_expires_at(&mut self, timers: &mut Deadlines, at: SimTime) {
        timers.rearm(Some(self.expires_at), Some(at));
        self.expires_at = at;
    }

    /// Start, restart or stop the graft retransmit timer.
    fn set_pending_graft(&mut self, timers: &mut Deadlines, at: Option<SimTime>) {
        timers.rearm(self.pending_graft, at);
        self.pending_graft = at;
    }

    /// Graft `(source, group)` toward the source and arm the retransmit;
    /// nothing is sent while the source is unreachable.
    fn graft(
        &mut self,
        timers: &mut Deadlines,
        now: SimTime,
        (source, group): (Addr, Group),
        rib: &dyn Rib,
    ) -> Option<Action> {
        self.set_pending_graft(timers, Some(now + GRAFT_RETRANSMIT));
        let r = rib.route(source)?;
        let graft = Message::DvmrpGraft(Graft { source, group });
        Some(Action::control(r.iface, r.next_hop, 1, graft))
    }

    /// Undo our upstream prune, if we sent one: PRUNED clears (telemetry
    /// hears of it) and a graft goes upstream.
    fn unprune_upstream(
        &mut self,
        timers: &mut Deadlines,
        telem: &mut Telem,
        now: SimTime,
        key: (Addr, Group),
        rib: &dyn Rib,
    ) -> Option<Action> {
        if !self.pruned_upstream {
            return None;
        }
        let from = sg_flags(self);
        self.pruned_upstream = false;
        telem.emit(|| Event::EntryModified {
            group: key.1,
            key: EntryKey::Source(key.0),
            from,
            to: from & !flags::PRUNED,
        });
        self.graft(timers, now, key, rib)
    }
}

/// The dense-mode engine for one router.
pub struct DvmrpEngine {
    my_addr: Addr,
    iface_count: usize,
    /// Interfaces that are host-facing leaf subnetworks.
    host_lans: HashSet<IfaceId>,
    /// Live DVMRP neighbors per interface (probe-maintained).
    neighbors: Vec<BTreeMap<Addr, SimTime>>,
    /// Local members per group per interface (IGMP-fed).
    members: HashMap<Group, HashSet<IfaceId>>,
    /// Directly attached hosts → their interface.
    local_hosts: HashMap<Addr, IfaceId>,
    entries: BTreeMap<(Addr, Group), SgEntry>,
    next_probe: SimTime,
    /// Every neighbor's timeout…
    neighbor_timers: Deadlines,
    /// …and every entry's GC and graft-retransmit deadline
    /// ([`SgEntry::deadlines`]), each kept current where the timer is
    /// written. With `next_probe`, their fronts are the next wakeup, and
    /// a class whose front has not matured is not swept.
    entry_timers: Deadlines,
    /// Telemetry outbox the node adapter drains (off by default).
    pub(crate) telem: Telem,
}

/// The telemetry flag bits an (S,G) entry currently carries. Dense mode
/// has no WC/RP/SPT notions; PRUNED tracks the upstream prune.
fn sg_flags(e: &SgEntry) -> u8 {
    if e.pruned_upstream {
        flags::PRUNED
    } else {
        0
    }
}

impl DvmrpEngine {
    /// New engine for a router with `iface_count` interfaces.
    pub fn new(my_addr: Addr, iface_count: usize) -> DvmrpEngine {
        DvmrpEngine {
            my_addr,
            iface_count,
            host_lans: HashSet::new(),
            neighbors: vec![BTreeMap::new(); iface_count],
            members: HashMap::new(),
            local_hosts: HashMap::new(),
            entries: BTreeMap::new(),
            next_probe: SimTime::ZERO,
            neighbor_timers: Deadlines::new(),
            entry_timers: Deadlines::new(),
            telem: Telem::default(),
        }
    }

    /// Grow the interface table.
    pub fn add_iface(&mut self) -> IfaceId {
        self.iface_count += 1;
        self.neighbors.push(BTreeMap::new());
        IfaceId(self.iface_count as u32 - 1)
    }

    /// Number of interfaces.
    pub fn iface_count(&self) -> usize {
        self.iface_count
    }

    /// Mark `iface` host-facing (a candidate for truncation).
    pub fn set_host_lan(&mut self, iface: IfaceId) {
        self.host_lans.insert(iface);
    }

    /// Read-only check: is `iface` pruned for (source, group)?
    pub fn is_pruned(&self, source: Addr, group: Group, iface: IfaceId) -> bool {
        self.entries
            .get(&(source, group))
            .is_some_and(|e| e.pruned.contains_key(&iface))
    }

    /// Have we pruned ourselves off (source, group) upstream?
    pub fn pruned_upstream(&self, source: Addr, group: Group) -> bool {
        self.entries
            .get(&(source, group))
            .is_some_and(|e| e.pruned_upstream)
    }

    /// Iterate the (source, group) keys of all held (S,G) entries — the
    /// state-inspection hook for cross-node invariant oracles (orphan
    /// detection after prune + timeout).
    pub fn entry_keys(&self) -> impl Iterator<Item = (Addr, Group)> + '_ {
        self.entries.keys().copied()
    }

    /// The (source, group) entry, made on first involvement with GC
    /// deadline `expires` (telemetry hears of it); and the index its
    /// timers live in.
    fn entry(
        &mut self,
        source: Addr,
        group: Group,
        expires: SimTime,
    ) -> (&mut SgEntry, &mut Deadlines) {
        let timers = &mut self.entry_timers;
        let telem = &mut self.telem;
        let entry = self.entries.entry((source, group)).or_insert_with(|| {
            telem.emit(|| Event::EntryCreated {
                group,
                key: EntryKey::Source(source),
                flags: 0,
            });
            SgEntry::new(timers, expires)
        });
        (entry, timers)
    }

    fn has_member(&self, group: Group, iface: IfaceId) -> bool {
        self.members.get(&group).is_some_and(|s| s.contains(&iface))
    }

    fn has_any_member(&self, group: Group) -> bool {
        self.members.get(&group).is_some_and(|s| !s.is_empty())
    }

    /// The forwarding rule: all interfaces except the arrival interface,
    /// minus pruned branches, minus leaf subnetworks with no members
    /// (truncated broadcast), minus router-less interfaces with no members.
    fn flood_set(&self, source: Addr, group: Group, arrival: IfaceId) -> Vec<IfaceId> {
        let entry = self.entries.get(&(source, group));
        (0..self.iface_count)
            .map(|i| IfaceId(i as u32))
            .filter(|&i| i != arrival)
            .filter(|&i| {
                if let Some(e) = entry {
                    if e.pruned.contains_key(&i) {
                        return false;
                    }
                }
                if self.host_lans.contains(&i) {
                    // Leaf subnetwork: truncate unless members present.
                    self.has_member(group, i)
                } else {
                    // Router link: flood only if a neighbor lives there.
                    !self.neighbors[i.index()].is_empty()
                }
            })
            .collect()
    }

    /// A multicast data packet arrived on `iface` (router side or host
    /// side — dense mode treats a local source's subnetwork as just
    /// another RPF interface).
    pub fn on_data(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        source: Addr,
        group: Group,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        // RPF check: accept only on the interface we'd use to reach S
        // (or the host LAN the source lives on).
        let rpf_ok = match self.local_hosts.get(&source) {
            Some(&h) => h == iface,
            None => rib.rpf_iface(source) == Some(iface),
        };
        if !rpf_ok {
            return Vec::new();
        }
        let expires = now + ENTRY_TIMEOUT;
        let (entry, timers) = self.entry(source, group, expires);
        entry.set_expires_at(timers, expires);
        // Grow back lapsed prunes.
        entry.pruned.retain(|_, &mut until| now < until);

        let ifaces = self.flood_set(source, group, iface);
        if !ifaces.is_empty() {
            return vec![Action::Forward {
                ifaces,
                source,
                group,
            }];
        }
        if self.has_any_member(group) || self.local_hosts.get(&source) == Some(&iface) {
            return Vec::new();
        }
        // No receivers: "it will send a prune message upstream toward the
        // source" (§1.1), damped.
        let entry = self.entries.get_mut(&(source, group)).expect("inserted");
        if entry
            .last_prune_at
            .is_some_and(|t| now.since(t) < PRUNE_DAMPING)
        {
            return Vec::new();
        }
        entry.last_prune_at = Some(now);
        if !entry.pruned_upstream {
            let from = sg_flags(entry);
            entry.pruned_upstream = true;
            self.telem.emit(|| Event::EntryModified {
                group,
                key: EntryKey::Source(source),
                from,
                to: from | flags::PRUNED,
            });
        }
        let Some(r) = rib.route(source) else {
            return Vec::new();
        };
        let lifetime = PRUNE_LIFETIME.ticks().min(u32::MAX as u64) as u32;
        let prune = Prune {
            source,
            group,
            lifetime,
        };
        vec![Action::control(
            r.iface,
            r.next_hop,
            1,
            Message::DvmrpPrune(prune),
        )]
    }

    /// A prune arrived from a downstream router on `iface`.
    pub fn on_prune(&mut self, now: SimTime, iface: IfaceId, p: &Prune) -> Vec<Action> {
        let (entry, _) = self.entry(p.source, p.group, now + ENTRY_TIMEOUT);
        entry
            .pruned
            .insert(iface, now + Duration(p.lifetime as u64));
        Vec::new()
    }

    /// A graft arrived from a downstream router on `iface`: un-prune the
    /// branch, ack it, and cascade our own graft upstream if we had pruned.
    pub fn on_graft(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        gr: &Graft,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        let mut out = vec![Action::control(
            iface,
            Addr::ALL_PIM_ROUTERS, // link-local; the grafting router hears it
            1,
            Message::DvmrpGraftAck(GraftAck {
                source: gr.source,
                group: gr.group,
            }),
        )];
        let key = (gr.source, gr.group);
        if let Some(e) = self.entries.get_mut(&key) {
            e.pruned.remove(&iface);
            let (timers, telem) = (&mut self.entry_timers, &mut self.telem);
            out.extend(e.unprune_upstream(timers, telem, now, key, rib));
        }
        out
    }

    /// A graft ack arrived: stop retransmitting.
    pub fn on_graft_ack(&mut self, ack: &GraftAck) {
        if let Some(e) = self.entries.get_mut(&(ack.source, ack.group)) {
            e.set_pending_graft(&mut self.entry_timers, None);
        }
    }

    /// A neighbor probe arrived on `iface`.
    pub fn on_probe(&mut self, now: SimTime, iface: IfaceId, src: Addr, _p: &Probe) {
        let expires = now + NEIGHBOR_TIMEOUT;
        let before = self.neighbors[iface.index()].insert(src, expires);
        self.neighbor_timers.rearm(before, Some(expires));
    }

    /// The earliest pending timer, found by walking all of them: the
    /// reference the indexes are checked against.
    #[cfg(any(test, debug_assertions))]
    fn scan_deadline(&self) -> Option<SimTime> {
        let neighbors = self.neighbors.iter().flat_map(|nb| nb.values().copied());
        let entries = self.entries.values().flat_map(SgEntry::deadlines);
        neighbors.chain(entries).chain([self.next_probe]).min()
    }
}

impl ProtocolEngine for DvmrpEngine {
    /// The router's address.
    fn addr(&self) -> Addr {
        self.my_addr
    }

    /// Number of (S,G) entries held (the state-overhead metric — note that
    /// dense mode accumulates these on *every* router data reaches).
    fn entry_count(&self) -> usize {
        self.entries.len()
    }

    fn on_control(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        _dst: Addr,
        msg: &Message,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        match msg {
            Message::DvmrpProbe(p) => {
                self.on_probe(now, iface, src, p);
                Vec::new()
            }
            Message::DvmrpPrune(p) => self.on_prune(now, iface, p),
            Message::DvmrpGraft(gr) => self.on_graft(now, iface, gr, rib),
            Message::DvmrpGraftAck(a) => {
                self.on_graft_ack(a);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn on_multicast_data(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        source: Addr,
        group: Group,
        _payload: &[u8],
        _from_host_lan: bool,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        // Dense mode treats host and router arrivals alike: RPF-check and
        // broadcast-and-prune.
        self.on_data(now, iface, source, group, rib)
    }

    fn relays_unicast(&self) -> bool {
        false // dense mode drops non-multicast data
    }

    /// IGMP reported a first member of `group` on `iface`. If any (S,G)
    /// for the group is pruned upstream, graft back on (and un-prune the
    /// member interface downstreams).
    fn local_member_joined(
        &mut self,
        now: SimTime,
        group: Group,
        iface: IfaceId,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        self.members.entry(group).or_default().insert(iface);
        let (timers, telem) = (&mut self.entry_timers, &mut self.telem);
        self.entries
            .iter_mut()
            .filter(|((_, g), _)| *g == group)
            .filter_map(|(&key, e)| e.unprune_upstream(timers, telem, now, key, rib))
            .collect()
    }

    /// The last member of `group` on `iface` lapsed.
    fn local_member_left(&mut self, _now: SimTime, group: Group, iface: IfaceId) -> Vec<Action> {
        if let Some(s) = self.members.get_mut(&group) {
            s.remove(&iface);
        }
        // Prunes happen lazily on the next data packet (data-driven).
        Vec::new()
    }

    fn host_lan_attached(&mut self, iface: IfaceId, hosts: &[Addr]) -> u32 {
        let mut grown = 0;
        while self.iface_count() <= iface.index() {
            self.add_iface();
            grown += 1;
        }
        self.set_host_lan(iface);
        for &h in hosts {
            self.local_hosts.insert(h, iface);
        }
        grown
    }

    // Dense mode re-derives RPF lazily per packet; nothing to repair on
    // route changes — the default no-op `on_route_change` stands.

    /// Crash with total state loss: forwarding entries, neighbor liveness,
    /// and IGMP-fed membership are erased; interface roles and attached
    /// hosts are configuration and survive.
    fn reset(&mut self) {
        for n in self.neighbors.iter_mut() {
            n.clear();
        }
        self.members.clear();
        self.entries.clear();
        self.neighbor_timers.clear();
        self.entry_timers.clear();
        self.next_probe = SimTime::ZERO;
    }

    /// Periodic maintenance: probes, neighbor expiry, graft retransmits,
    /// entry GC.
    fn tick(&mut self, now: SimTime, rib: &dyn Rib) -> Vec<Action> {
        let mut out = Vec::new();
        if now >= self.next_probe {
            self.next_probe = now + PROBE_INTERVAL;
            for i in 0..self.iface_count {
                let iface = IfaceId(i as u32);
                if self.host_lans.contains(&iface) {
                    continue;
                }
                let neighbors: Vec<Addr> = self.neighbors[i].keys().copied().collect();
                out.push(Action::control(
                    iface,
                    Addr::ALL_PIM_ROUTERS,
                    1,
                    Message::DvmrpProbe(Probe { neighbors }),
                ));
            }
        }
        // Each sweep runs only when its index holds a matured deadline: a
        // probe-only wakeup walks no neighbor table and no entry.
        if self.neighbor_timers.due(now) {
            for nb in &mut self.neighbors {
                nb.retain(|_, &mut t| {
                    let live = now < t;
                    if !live {
                        self.neighbor_timers.disarm(t);
                    }
                    live
                });
            }
        }
        if self.entry_timers.due(now) {
            let timers = &mut self.entry_timers;
            // Graft retransmission (the one acked DVMRP exchange).
            for (&key, e) in self.entries.iter_mut() {
                if e.pending_graft.is_some_and(|at| now >= at) {
                    out.extend(e.graft(timers, now, key, rib));
                }
            }
            self.entries.retain(|&(source, group), e| {
                let dead = now >= e.expires_at;
                if dead {
                    timers.disarm_all(e.deadlines());
                    self.telem.emit(|| Event::EntryExpired {
                        group,
                        key: EntryKey::Source(source),
                    });
                }
                !dead
            });
        }
        out
    }

    /// The absolute time of this engine's next pending timer: the probe
    /// schedule, neighbor timeouts, graft retransmits, and entry GC.
    ///
    /// A read of the deadline index, whatever was just mutated. Debug
    /// builds check it against the full walk on every call.
    fn next_deadline(&self) -> Option<SimTime> {
        let next = [&self.neighbor_timers, &self.entry_timers]
            .into_iter()
            .filter_map(Deadlines::first)
            .fold(self.next_probe, SimTime::min);
        #[cfg(debug_assertions)]
        assert_eq!(
            Some(next),
            self.scan_deadline(),
            "a timer was written past the deadline index"
        );
        Some(next)
    }

    fn telem(&mut self) -> &mut Telem {
        &mut self.telem
    }

    /// `show mroute`-style snapshot: per-interface DVMRP neighbors, local
    /// membership, then every (S,G) entry with its pruned branch set,
    /// upstream prune/graft state, and GC deadline.
    fn state_dump(&self, now: SimTime) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "dvmrp {} t{}", self.my_addr, now.ticks());
        for (i, nb) in self.neighbors.iter().enumerate() {
            if nb.is_empty() {
                continue;
            }
            let nbrs: Vec<String> = nb
                .iter()
                .map(|(a, exp)| format!("{a}/t{}", exp.ticks()))
                .collect();
            let _ = writeln!(s, "  if{i} nbrs=[{}]", nbrs.join(","));
        }
        let mut member_groups: Vec<Group> = self
            .members
            .iter()
            .filter(|(_, set)| !set.is_empty())
            .map(|(&g, _)| g)
            .collect();
        member_groups.sort();
        for g in member_groups {
            let mut ifs: Vec<u32> = self.members[&g].iter().map(|i| i.index() as u32).collect();
            ifs.sort_unstable();
            let ifs: Vec<String> = ifs.into_iter().map(|i| format!("if{i}")).collect();
            let _ = writeln!(s, "  members {g} on [{}]", ifs.join(","));
        }
        for (&(source, group), e) in &self.entries {
            let _ = write!(
                s,
                "    ({source}, {group}) flags={} expires=t{}",
                flags::Set(sg_flags(e)),
                e.expires_at.ticks()
            );
            if let Some(t) = e.pending_graft {
                let _ = write!(s, " graft-retx=t{}", t.ticks());
            }
            let _ = writeln!(s);
            for (&i, &t) in &e.pruned {
                let _ = writeln!(s, "      pruned {} until=t{}", i.index(), t.ticks());
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicast::{OracleRib, RouteEntry};

    fn me() -> Addr {
        Addr::new(10, 0, 1, 1)
    }
    fn up() -> Addr {
        Addr::new(10, 0, 0, 1)
    }
    fn src() -> Addr {
        Addr::new(10, 0, 0, 10)
    }
    fn g() -> Group {
        Group::test(3)
    }
    fn t(x: u64) -> SimTime {
        SimTime(x)
    }

    /// Engine with iface 0 = upstream (toward src), ifaces 1,2 = downstream
    /// router links, iface 3 = host LAN.
    fn engine_with_neighbors() -> (DvmrpEngine, OracleRib) {
        let mut e = DvmrpEngine::new(me(), 4);
        e.set_host_lan(IfaceId(3));
        // Downstream neighbors on 1 and 2 (and our upstream on 0).
        e.on_probe(t(0), IfaceId(0), up(), &Probe { neighbors: vec![] });
        e.on_probe(
            t(0),
            IfaceId(1),
            Addr::new(10, 0, 2, 1),
            &Probe { neighbors: vec![] },
        );
        e.on_probe(
            t(0),
            IfaceId(2),
            Addr::new(10, 0, 3, 1),
            &Probe { neighbors: vec![] },
        );
        let mut rib = OracleRib::empty(me());
        rib.insert(
            src(),
            RouteEntry {
                iface: IfaceId(0),
                next_hop: up(),
                metric: 1,
            },
        );
        (e, rib)
    }

    #[test]
    fn floods_to_router_links_truncates_memberless_leaves() {
        let (mut e, rib) = engine_with_neighbors();
        let out = e.on_data(t(1), IfaceId(0), src(), g(), &rib);
        // Host LAN (3) has no members: truncated. Routers on 1,2 get it.
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            Action::Forward { ifaces, .. } if ifaces == &vec![IfaceId(1), IfaceId(2)]
        ));
        assert_eq!(e.entry_count(), 1);
    }

    #[test]
    fn member_leaf_receives() {
        let (mut e, rib) = engine_with_neighbors();
        e.local_member_joined(t(0), g(), IfaceId(3), &rib);
        let out = e.on_data(t(1), IfaceId(0), src(), g(), &rib);
        assert!(matches!(
            &out[0],
            Action::Forward { ifaces, .. }
                if ifaces == &vec![IfaceId(1), IfaceId(2), IfaceId(3)]
        ));
    }

    #[test]
    fn rpf_check_drops_wrong_interface() {
        let (mut e, rib) = engine_with_neighbors();
        let out = e.on_data(t(1), IfaceId(1), src(), g(), &rib);
        assert!(out.is_empty(), "non-RPF arrival must be dropped");
        assert_eq!(e.entry_count(), 0);
    }

    #[test]
    fn prune_removes_branch_until_growback() {
        let (mut e, rib) = engine_with_neighbors();
        e.on_data(t(1), IfaceId(0), src(), g(), &rib);
        e.on_prune(
            t(2),
            IfaceId(1),
            &Prune {
                source: src(),
                group: g(),
                lifetime: 100,
            },
        );
        assert!(e.is_pruned(src(), g(), IfaceId(1)));
        let out = e.on_data(t(3), IfaceId(0), src(), g(), &rib);
        assert!(matches!(
            &out[0],
            Action::Forward { ifaces, .. } if ifaces == &vec![IfaceId(2)]
        ));
        // After the lifetime, the branch grows back (§1.1).
        let out = e.on_data(t(103), IfaceId(0), src(), g(), &rib);
        assert!(matches!(
            &out[0],
            Action::Forward { ifaces, .. } if ifaces == &vec![IfaceId(1), IfaceId(2)]
        ));
    }

    #[test]
    fn leaf_router_prunes_upstream_when_no_receivers() {
        // Only the upstream link has a neighbor: we're a leaf router.
        let mut e = DvmrpEngine::new(me(), 2);
        e.set_host_lan(IfaceId(1));
        e.on_probe(t(0), IfaceId(0), up(), &Probe { neighbors: vec![] });
        let mut rib = OracleRib::empty(me());
        rib.insert(
            src(),
            RouteEntry {
                iface: IfaceId(0),
                next_hop: up(),
                metric: 1,
            },
        );

        let out = e.on_data(t(1), IfaceId(0), src(), g(), &rib);
        assert!(matches!(
            &out[0],
            Action::Control { ifaces, dst, msg: Message::DvmrpPrune(p), .. }
                if *ifaces == IfaceId(0).into() && *dst == up() && p.source == src()
        ));
        assert!(e.pruned_upstream(src(), g()));
        // Damping: an immediate second packet does not re-prune.
        let out = e.on_data(t(2), IfaceId(0), src(), g(), &rib);
        assert!(out.is_empty());
        // After the damping interval it may re-prune (upstream grow-back).
        let out = e.on_data(t(60), IfaceId(0), src(), g(), &rib);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn member_join_grafts_pruned_branch() {
        let mut e = DvmrpEngine::new(me(), 2);
        e.set_host_lan(IfaceId(1));
        e.on_probe(t(0), IfaceId(0), up(), &Probe { neighbors: vec![] });
        let mut rib = OracleRib::empty(me());
        rib.insert(
            src(),
            RouteEntry {
                iface: IfaceId(0),
                next_hop: up(),
                metric: 1,
            },
        );
        e.on_data(t(1), IfaceId(0), src(), g(), &rib); // prunes upstream

        let out = e.local_member_joined(t(10), g(), IfaceId(1), &rib);
        assert!(matches!(
            &out[0],
            Action::Control { msg: Message::DvmrpGraft(gr), .. }
                if gr.source == src() && gr.group == g()
        ));
        assert!(!e.pruned_upstream(src(), g()));
        // Unacked graft retransmits on tick...
        let out = e.tick(t(25), &rib);
        assert!(out.iter().any(|o| matches!(
            o,
            Action::Control {
                msg: Message::DvmrpGraft(_),
                ..
            }
        )));
        // ...until the ack arrives.
        e.on_graft_ack(&GraftAck {
            source: src(),
            group: g(),
        });
        let out = e.tick(t(50), &rib);
        assert!(!out.iter().any(|o| matches!(
            o,
            Action::Control {
                msg: Message::DvmrpGraft(_),
                ..
            }
        )));
    }

    #[test]
    fn graft_from_downstream_unprunes_and_acks() {
        let (mut e, rib) = engine_with_neighbors();
        e.on_data(t(1), IfaceId(0), src(), g(), &rib);
        e.on_prune(
            t(2),
            IfaceId(1),
            &Prune {
                source: src(),
                group: g(),
                lifetime: 100,
            },
        );
        let out = e.on_graft(
            t(5),
            IfaceId(1),
            &Graft {
                source: src(),
                group: g(),
            },
            &rib,
        );
        assert!(matches!(
            &out[0],
            Action::Control { ifaces, msg: Message::DvmrpGraftAck(_), .. } if *ifaces == IfaceId(1).into()
        ));
        assert!(!e.is_pruned(src(), g(), IfaceId(1)));
    }

    #[test]
    fn graft_cascades_upstream() {
        let mut e = DvmrpEngine::new(me(), 2);
        e.on_probe(t(0), IfaceId(0), up(), &Probe { neighbors: vec![] });
        e.on_probe(
            t(0),
            IfaceId(1),
            Addr::new(10, 0, 2, 1),
            &Probe { neighbors: vec![] },
        );
        let mut rib = OracleRib::empty(me());
        rib.insert(
            src(),
            RouteEntry {
                iface: IfaceId(0),
                next_hop: up(),
                metric: 1,
            },
        );
        // Downstream pruned, so we pruned upstream too.
        e.on_data(t(1), IfaceId(0), src(), g(), &rib);
        e.on_prune(
            t(2),
            IfaceId(1),
            &Prune {
                source: src(),
                group: g(),
                lifetime: 100,
            },
        );
        e.on_data(t(60), IfaceId(0), src(), g(), &rib);
        assert!(e.pruned_upstream(src(), g()));
        // Downstream grafts: we must cascade.
        let out = e.on_graft(
            t(70),
            IfaceId(1),
            &Graft {
                source: src(),
                group: g(),
            },
            &rib,
        );
        assert!(out.iter().any(|o| matches!(
            o,
            Action::Control { ifaces, msg: Message::DvmrpGraft(_), .. } if *ifaces == IfaceId(0).into()
        )));
    }

    #[test]
    fn entries_gc_without_data() {
        let (mut e, rib) = engine_with_neighbors();
        e.on_data(t(1), IfaceId(0), src(), g(), &rib);
        assert_eq!(e.entry_count(), 1);
        e.tick(t(500), &rib);
        assert_eq!(e.entry_count(), 0, "entries must lapse without traffic");
    }

    #[test]
    fn local_source_floods_from_host_lan() {
        let (mut e, rib) = engine_with_neighbors();
        let local_src = Addr::new(10, 0, 1, 10);
        e.host_lan_attached(IfaceId(3), &[local_src]);
        let out = e.on_data(t(1), IfaceId(3), local_src, g(), &rib);
        assert!(matches!(
            &out[0],
            Action::Forward { ifaces, .. }
                if ifaces == &vec![IfaceId(0), IfaceId(1), IfaceId(2)]
        ));
    }

    /// One random call into the engine's public `&mut` surface. `a` and
    /// `b` pick among two groups, two sources (one behind the upstream,
    /// one on the host LAN) and a few interfaces and neighbours, so calls
    /// collide on state.
    fn engine_step(e: &mut DvmrpEngine, rib: &OracleRib, now: SimTime, op: u8, a: u8, b: u8) {
        let group = [g(), Group::test(9)][(a % 2) as usize];
        let local_src = Addr::new(10, 0, 1, 10);
        let source = [src(), local_src][(a / 2 % 2) as usize];
        let iface = IfaceId((b % 4) as u32);
        let nbr = [up(), Addr::new(10, 0, 2, 1), Addr::new(10, 0, 3, 1)][(b % 3) as usize];
        match op {
            0 => drop(e.local_member_joined(now, group, IfaceId(3), rib)),
            1 => drop(e.local_member_left(now, group, IfaceId(3))),
            // Data on and off the RPF interface.
            2 | 3 => drop(e.on_data(now, iface, source, group, rib)),
            4 => {
                let lifetime = [3, 40, 200][(a % 3) as usize];
                let p = Prune {
                    source,
                    group,
                    lifetime,
                };
                drop(e.on_prune(now, iface, &p));
            }
            5 => drop(e.on_graft(now, iface, &Graft { source, group }, rib)),
            6 => e.on_graft_ack(&GraftAck { source, group }),
            7 | 8 => e.on_probe(now, iface, nbr, &Probe { neighbors: vec![] }),
            9 if a == 0 => e.reset(),
            9 if a == 1 => drop(e.add_iface()),
            _ => drop(e.tick(now, rib)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// Whatever is called, in whatever order, the deadline read off
        /// the indexes is the one a walk of every neighbor and entry
        /// finds — and each index holds exactly the walked deadlines, so
        /// nothing a collected entry, a timed-out neighbor or a reset
        /// owned is left behind. Spelled out here because
        /// `next_deadline`'s own check is compiled out of release-profile
        /// test runs.
        #[test]
        fn indexed_deadline_is_the_scanned_deadline(
            steps in proptest::prop::collection::vec((0u8..12, 0u8..12, 0u8..12, 0usize..6), 1..100),
        ) {
            let (mut e, mut rib) = engine_with_neighbors();
            e.host_lan_attached(IfaceId(3), &[Addr::new(10, 0, 1, 10)]);
            rib.insert(
                Addr::new(10, 0, 1, 10),
                RouteEntry {
                    iface: IfaceId(3),
                    next_hop: Addr::new(10, 0, 1, 10),
                    metric: 1,
                },
            );
            let mut now = 0;
            for (op, a, b, dt) in steps {
                now += [0, 1, 4, 12, 40, 150][dt];
                engine_step(&mut e, &rib, t(now), op, a, b);
                assert_eq!(e.next_deadline(), e.scan_deadline(), "after op {op} at {now}");
                let mut neighbors: Vec<SimTime> =
                    e.neighbors.iter().flat_map(|nb| nb.values().copied()).collect();
                neighbors.sort();
                assert_eq!(e.neighbor_timers.as_slice(), neighbors, "after op {op} at {now}");
                let mut entries: Vec<SimTime> =
                    e.entries.values().flat_map(SgEntry::deadlines).collect();
                entries.sort();
                assert_eq!(e.entry_timers.as_slice(), entries, "after op {op} at {now}");
            }
        }
    }
}
