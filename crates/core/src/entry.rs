//! Multicast forwarding entries — the router state the paper defines in §3.
//!
//! "The shortest path tree state maintained in routers is roughly the same
//! as the forwarding information that is currently maintained by routers
//! running existing IP multicast protocols ... source (S), multicast address
//! (G), outgoing interface set (oif), incoming interface (iif). We refer to
//! this forwarding information as the multicast forwarding entry for (S,G).
//! ... A (\*,G) entry keeps the same information an (S,G) entry keeps,
//! except that it saves the RP address in place of the source address.
//! There is a wildcard flag indicating that this is a shared tree entry."
//!
//! One [`Entry`] type covers all three shapes the protocol uses:
//!
//! | shape             | `wildcard` | `rp_bit` | iif points toward |
//! |-------------------|-----------|----------|-------------------|
//! | (\*,G) shared     | true      | true     | the RP            |
//! | (S,G) shortest path| false    | false    | the source        |
//! | (S,G) negative cache (on RP tree) | false | true | the RP    |

use netsim::{Deadlines, IfaceId, SimTime};
use std::collections::btree_map::{self, BTreeMap};
use telemetry::{EntryKey, Event, Telem};
use wire::pim::{GroupEntry, SourceEntry};
use wire::{Addr, Group};

/// Why an outgoing interface is in the oif list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OifKind {
    /// A downstream PIM router joined on this interface; kept alive by
    /// join refreshes (§3.6).
    Joined,
    /// Copied from the (\*,G) entry when an (S,G) entry was created (§3.3:
    /// "the outgoing interface list is copied from (\*,G)"); its timer is
    /// slaved to the (\*,G) oif (footnote 12).
    CopiedFromStar,
    /// A directly attached subnetwork with local members (IGMP-maintained;
    /// no PIM timer — IGMP expiry removes it).
    LocalMembers,
}

/// One outgoing interface of a forwarding entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Oif {
    /// Why this interface is here.
    pub kind: OifKind,
    /// When the interface lapses unless refreshed ([`SimTime`] max for
    /// local-member oifs, which IGMP manages).
    pub expires_at: SimTime,
}

impl Oif {
    /// When this oif's timer fires: never for a local-member oif (IGMP
    /// expiry removes those) or one pinned at the end of time.
    fn deadline(&self) -> Option<SimTime> {
        (self.kind != OifKind::LocalMembers && self.expires_at != SimTime(u64::MAX))
            .then_some(self.expires_at)
    }
}

/// A multicast forwarding entry.
///
/// The four fields that hold soft-state timers — the oif list, the
/// pruned-oif leases, the RP-timer and the deletion deadline — are private:
/// every method that writes one takes the owning engine's
/// [`Deadlines`] and keeps it equal to [`Entry::deadlines`], so the
/// engine's next wakeup is a read of that index.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The group.
    pub group: Group,
    /// The source address — or the RP address when `wildcard` is set.
    pub key: Addr,
    /// The WC bit: this is a (\*,G) shared-tree entry.
    pub wildcard: bool,
    /// The RP bit: the iif check for this entry is toward the RP, not the
    /// source, and periodic join/prune for it goes toward the RP
    /// (footnote 10).
    pub rp_bit: bool,
    /// The SPT bit (§3.3): the transition from shared tree to this
    /// source's shortest-path tree has completed (data has arrived over
    /// the SPT interface).
    pub spt_bit: bool,
    /// Incoming interface. `None` at the RP for its own (\*,G) ("the
    /// incoming interface in the RP's (\*,G) entry is set to null"), and
    /// for entries whose source is a directly attached host until the host
    /// interface is learned.
    pub iif: Option<IfaceId>,
    /// The upstream neighbor joins/prunes for this entry are sent to.
    pub upstream: Option<Addr>,
    /// Outgoing interfaces, ordered for deterministic iteration.
    oifs: BTreeMap<IfaceId, Oif>,
    /// LAN-pruned interfaces of a negative-cache entry: present in the
    /// parallel (\*,G) oif list but excluded here. Only used when
    /// `rp_bit && !wildcard` (footnote 11).
    pruned_oifs: BTreeMap<IfaceId, SimTime>,
    /// (\*,G) only: RP-reachability timer (§3.1/§3.9). `Some(t)` = declare
    /// the RP unreachable at `t`. Tracked when this router has local
    /// members.
    rp_timer: Option<SimTime>,
    /// (S,G) SPT entries: we have pruned this source off the shared tree,
    /// so periodic prunes {S, RPbit} toward the RP keep the negative
    /// caches upstream alive (footnotes 10/13).
    pub pruned_from_shared: bool,
    /// Set when the oif list went null: the entry is deleted at this time
    /// ("the entry is deleted after 3 times the refresh period", §3.6).
    delete_at: Option<SimTime>,
    /// LAN join suppression (§3.7): skip our periodic upstream join until
    /// this time because we overheard an equivalent join.
    pub suppressed_until: Option<SimTime>,
    /// For source entries at the source's own DR: the data actually
    /// originates on a directly attached subnetwork.
    pub local_source: bool,
    /// For local-source entries: the next time the DR re-registers a data
    /// packet to the RP(s) even though it is forwarding natively (the
    /// periodic register probe; see [`crate::REGISTER_PROBE_INTERVAL`]).
    pub next_register_probe: SimTime,
}

impl Entry {
    /// A new entry of the shape `record` names, with no oifs or timers.
    fn new(
        group: Group,
        record: SourceEntry,
        iif: Option<IfaceId>,
        upstream: Option<Addr>,
    ) -> Entry {
        Entry {
            group,
            key: record.addr,
            wildcard: record.wildcard,
            rp_bit: record.rp_bit,
            spt_bit: false,
            iif,
            upstream,
            oifs: BTreeMap::new(),
            pruned_oifs: BTreeMap::new(),
            rp_timer: None,
            pruned_from_shared: false,
            delete_at: None,
            suppressed_until: None,
            local_source: false,
            next_register_probe: SimTime::ZERO,
        }
    }

    /// A new (\*,G) entry (§3.1): iif toward the RP, WC and RP bits set.
    pub fn new_star(group: Group, rp: Addr, iif: Option<IfaceId>, upstream: Option<Addr>) -> Entry {
        Entry::new(group, SourceEntry::shared_tree(rp), iif, upstream)
    }

    /// A new (S,G) shortest-path-tree entry (§3.3): iif toward the source,
    /// SPT bit cleared until data arrives over it.
    pub fn new_source(
        group: Group,
        source: Addr,
        iif: Option<IfaceId>,
        upstream: Option<Addr>,
    ) -> Entry {
        Entry::new(group, SourceEntry::source(source), iif, upstream)
    }

    /// A new (S,G) negative-cache entry on the RP tree (footnote 11): RP
    /// bit set, iif toward the RP.
    pub fn new_negative(
        group: Group,
        source: Addr,
        iif: Option<IfaceId>,
        upstream: Option<Addr>,
    ) -> Entry {
        Entry::new(group, SourceEntry::source_on_rp_tree(source), iif, upstream)
    }

    /// Is this a negative cache — an (S,G) entry with the RP bit set?
    pub fn is_negative(&self) -> bool {
        self.rp_bit && !self.wildcard
    }

    /// How a Join/Prune names this entry: {RP, RPbit, WCbit} for (\*,G),
    /// {S} for an SPT entry, {S, RPbit} for a negative cache.
    fn record(&self) -> SourceEntry {
        SourceEntry {
            addr: self.key,
            wildcard: self.wildcard,
            rp_bit: self.rp_bit,
        }
    }

    /// A join of this entry, for its upstream neighbor.
    pub(crate) fn as_join(&self) -> GroupEntry {
        GroupEntry::join(self.group, self.record())
    }

    /// A prune of this entry, for its upstream neighbor.
    pub(crate) fn as_prune(&self) -> GroupEntry {
        GroupEntry::prune(self.group, self.record())
    }

    /// The interface and neighbor this entry's joins and prunes go to:
    /// none at the root of its tree, or while the root is unreachable.
    pub(crate) fn upstream_link(&self) -> Option<(IfaceId, Addr)> {
        self.iif.zip(self.upstream)
    }

    /// Move the entry to a new upstream and return the old link, to be
    /// pruned. "If the new incoming interface appears in the outgoing
    /// interface list, it is deleted" (§3.8).
    pub(crate) fn move_upstream(
        &mut self,
        timers: &mut Deadlines,
        iif: Option<IfaceId>,
        upstream: Option<Addr>,
    ) -> Option<(IfaceId, Addr)> {
        let old = self.upstream_link();
        if let Some(i) = iif {
            self.remove_oif(timers, i);
        }
        self.iif = iif;
        self.upstream = upstream;
        old
    }

    /// "When the (Sn,G) entry is created, the outgoing interface list is
    /// copied from (\*,G)" (§3.3): every oif of `star` but `except`, each
    /// local-member oif still one and every other a copy.
    pub(crate) fn copy_oifs(
        &mut self,
        timers: &mut Deadlines,
        star: &Entry,
        except: Option<IfaceId>,
    ) {
        for (&i, oif) in &star.oifs {
            if Some(i) != except {
                let kind = match oif.kind {
                    OifKind::LocalMembers => OifKind::LocalMembers,
                    _ => OifKind::CopiedFromStar,
                };
                self.add_oif(timers, i, kind, oif.expires_at);
            }
        }
    }

    /// Outgoing interfaces, in ascending order.
    pub fn oifs(&self) -> &BTreeMap<IfaceId, Oif> {
        &self.oifs
    }

    /// LAN-pruned interfaces and when each lease lapses.
    pub fn pruned_oifs(&self) -> &BTreeMap<IfaceId, SimTime> {
        &self.pruned_oifs
    }

    /// When the RP is declared unreachable, if the timer runs.
    pub fn rp_timer(&self) -> Option<SimTime> {
        self.rp_timer
    }

    /// When the entry is deleted, once its oif list went null.
    pub fn delete_at(&self) -> Option<SimTime> {
        self.delete_at
    }

    /// Add or refresh an outgoing interface. A [`OifKind::Joined`] add
    /// upgrades a copied oif (an explicit join now backs it) and clears a
    /// pending deletion. A [`OifKind::LocalMembers`] oif never lapses,
    /// whatever `expires_at` says: IGMP removes it.
    pub fn add_oif(
        &mut self,
        timers: &mut Deadlines,
        iface: IfaceId,
        kind: OifKind,
        expires_at: SimTime,
    ) {
        let (before, oif) = match self.oifs.entry(iface) {
            btree_map::Entry::Vacant(v) => (None, v.insert(Oif { kind, expires_at })),
            btree_map::Entry::Occupied(o) => {
                let oif = o.into_mut();
                (oif.deadline(), oif)
            }
        };
        // Refresh, and upgrade Copied → Joined / Local.
        if oif.expires_at < expires_at {
            oif.expires_at = expires_at;
        }
        if oif.kind == OifKind::CopiedFromStar && kind != OifKind::CopiedFromStar {
            oif.kind = kind;
        }
        if kind == OifKind::LocalMembers {
            oif.kind = OifKind::LocalMembers;
            oif.expires_at = SimTime(u64::MAX);
        }
        timers.rearm(before, oif.deadline());
        self.set_delete_at(timers, None);
    }

    /// Remove an outgoing interface; returns true if it was present.
    pub fn remove_oif(&mut self, timers: &mut Deadlines, iface: IfaceId) -> bool {
        let Some(oif) = self.oifs.remove(&iface) else {
            return false;
        };
        timers.rearm(oif.deadline(), None);
        true
    }

    /// Start, move or stop the RP-reachability timer.
    pub fn set_rp_timer(&mut self, timers: &mut Deadlines, at: Option<SimTime>) {
        timers.rearm(self.rp_timer, at);
        self.rp_timer = at;
    }

    /// Schedule, move or cancel the entry's deletion.
    pub fn set_delete_at(&mut self, timers: &mut Deadlines, at: Option<SimTime>) {
        timers.rearm(self.delete_at, at);
        self.delete_at = at;
    }

    /// Record a negative-cache prune on `iface`, leased until `until`.
    pub fn prune_oif(&mut self, timers: &mut Deadlines, iface: IfaceId, until: SimTime) {
        let before = self.pruned_oifs.insert(iface, until);
        timers.rearm(before, Some(until));
    }

    /// Drop the negative-cache prune on `iface`, if any.
    pub fn unprune_oif(&mut self, timers: &mut Deadlines, iface: IfaceId) {
        timers.rearm(self.pruned_oifs.remove(&iface), None);
    }

    /// Lapse the pruned-oif leases that have run out at `now` (footnote
    /// 13: kept alive by prunes only).
    pub fn expire_pruned_oifs(&mut self, timers: &mut Deadlines, now: SimTime) {
        self.pruned_oifs.retain(|_, &mut t| {
            let live = now < t;
            if !live {
                timers.disarm(t);
            }
            live
        });
    }

    /// Disarm every timer of this entry: it is about to be dropped.
    pub fn disarm(&self, timers: &mut Deadlines) {
        timers.disarm_all(self.deadlines());
    }

    /// The interfaces a matching data packet is forwarded to, excluding
    /// `arrival` (never send a packet back where it came from).
    pub fn forward_set(&self, arrival: Option<IfaceId>) -> Vec<IfaceId> {
        self.oifs
            .keys()
            .copied()
            .filter(|&i| Some(i) != arrival && Some(i) != self.iif)
            .collect()
    }

    /// True when the oif list is empty — the §3.6 trigger for pruning
    /// upstream and scheduling deletion.
    pub fn oifs_empty(&self) -> bool {
        self.oifs.is_empty()
    }

    /// Does the entry have a local-member oif (this router is a "router
    /// with directly-connected members", §3.3)?
    pub fn has_local_members(&self) -> bool {
        self.oifs.values().any(|o| o.kind == OifKind::LocalMembers)
    }

    /// Expire lapsed oifs at `now`; returns the removed interfaces (§3.6:
    /// "when a timer expires, the corresponding outgoing interface is
    /// deleted from the outgoing interface list").
    pub fn expire_oifs(&mut self, timers: &mut Deadlines, now: SimTime) -> Vec<IfaceId> {
        let lapsed: Vec<IfaceId> = self
            .oifs
            .iter()
            .filter(|(_, o)| o.kind != OifKind::LocalMembers && now >= o.expires_at)
            .map(|(&i, _)| i)
            .collect();
        for &i in &lapsed {
            self.remove_oif(timers, i);
        }
        lapsed
    }

    /// Every armed timer of this entry, found by walking it: oif expiries
    /// (excluding IGMP-pinned local-member oifs), pruned-oif lease
    /// lapses, the RP liveness timer, and the deletion deadline — what the
    /// engine's [`Deadlines`] holds for this entry. `suppressed_until` is
    /// deliberately excluded: it is only consulted when the periodic
    /// refresh fires, so it never needs a wakeup of its own.
    pub fn deadlines(&self) -> impl Iterator<Item = SimTime> + '_ {
        (self.rp_timer.into_iter())
            .chain(self.delete_at)
            .chain(self.oifs.values().filter_map(Oif::deadline))
            .chain(self.pruned_oifs.values().copied())
    }
}

/// The state kept for one group: the optional shared-tree entry plus
/// per-source entries. Source entries are keyed by source address; an
/// entry's `rp_bit` distinguishes SPT state from negative caches.
#[derive(Clone, Debug, Default)]
pub struct GroupState {
    /// The (\*,G) entry, if any.
    pub star: Option<Entry>,
    /// (S,G) entries (both SPT and negative-cache), keyed by source.
    pub sources: BTreeMap<Addr, Entry>,
    /// The RPs advertised for this group, in preference order (§3.9).
    pub rps: Vec<Addr>,
    /// Index into `rps` of the RP this router's receivers currently join
    /// toward.
    pub current_rp: usize,
}

impl GroupState {
    /// The RP receivers currently join toward.
    pub fn rp(&self) -> Option<Addr> {
        self.rps.get(self.current_rp).copied()
    }

    /// Advance to the next RP in the list (failover, §3.9); wraps around.
    /// Returns the new RP.
    pub fn next_rp(&mut self) -> Option<Addr> {
        if self.rps.is_empty() {
            return None;
        }
        self.current_rp = (self.current_rp + 1) % self.rps.len();
        self.rp()
    }

    /// Total number of forwarding entries (state-overhead metric).
    pub fn entry_count(&self) -> usize {
        self.sources.len() + usize::from(self.star.is_some())
    }

    /// Does an entry sit here with a null oif list and no deletion
    /// deadline yet (§3.6)? Negative caches are exempt: prunes keep those
    /// alive (footnote 13). No timer marks this state, so the engine's
    /// tick looks for it.
    pub(crate) fn needs_linger(&self) -> bool {
        let idle = |e: &Entry| e.oifs_empty() && e.delete_at().is_none();
        self.star.as_ref().is_some_and(idle)
            || self.sources.values().any(|e| !e.is_negative() && idle(e))
    }

    /// The keys of this group's orphans at router `me` (§3.8): live
    /// entries (downstream interest, not a negative cache, not a local
    /// source's) with no upstream. An entry's unicast route can vanish,
    /// and the route-change notice for its return skips entries whose oif
    /// list was empty at that instant (nothing to join *for*); interest
    /// that arrives later leaves the entry live but pointing nowhere.
    /// Entries keyed by `me` are never orphans: at the RP the (\*,G)
    /// iif is null by §3.2's rule.
    pub(crate) fn orphans(&self, me: Addr) -> impl Iterator<Item = Addr> + '_ {
        let sources = self.sources.values();
        let sources = sources.filter(|e| !e.is_negative() && !e.local_source);
        let orphan = move |e: &&Entry| e.key != me && e.iif.is_none() && !e.oifs_empty();
        self.star
            .iter()
            .chain(sources)
            .filter(orphan)
            .map(|e| e.key)
    }

    /// Move the (\*,G) entry to a new upstream ([`Entry::move_upstream`])
    /// and return its old link. Negative caches ride the shared tree
    /// (footnote 11), so they move with it.
    pub(crate) fn move_star(
        &mut self,
        timers: &mut Deadlines,
        iif: Option<IfaceId>,
        upstream: Option<Addr>,
    ) -> Option<(IfaceId, Addr)> {
        let star = self.star.as_mut().expect("a shared tree to move");
        let old = star.move_upstream(timers, iif, upstream);
        for e in self.sources.values_mut().filter(|e| e.is_negative()) {
            e.iif = iif;
            e.upstream = upstream;
        }
        old
    }

    /// Footnote 12: a copied (S,G) oif is slaved to the (\*,G) oif, so it
    /// goes when that one does. Explicitly joined ones stay.
    pub(crate) fn drop_copies(&mut self, timers: &mut Deadlines, iface: IfaceId) {
        for e in self.sources.values_mut() {
            if e.oifs.get(&iface).map(|o| o.kind) == Some(OifKind::CopiedFromStar) {
                e.remove_oif(timers, iface);
            }
        }
    }

    /// Drop every negative cache, each with an `EntryExpired` event:
    /// they point at a shared tree that is gone (footnote 13).
    pub(crate) fn drop_negatives(&mut self, timers: &mut Deadlines, telem: &mut Telem) {
        self.sources.retain(|&s, e| {
            if e.is_negative() {
                e.disarm(timers);
                telem.emit(|| Event::EntryExpired {
                    group: e.group,
                    key: EntryKey::Source(s),
                });
            }
            !e.is_negative()
        });
    }

    /// Nothing left but (at most) the group's name: no entry, no RP
    /// mapping.
    pub(crate) fn is_vacant(&self) -> bool {
        self.star.is_none() && self.sources.is_empty() && self.rps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Group {
        Group::test(1)
    }

    fn rp() -> Addr {
        Addr::new(10, 0, 0, 9)
    }

    fn src() -> Addr {
        Addr::new(10, 0, 7, 10)
    }

    #[test]
    fn entry_shapes() {
        let star = Entry::new_star(g(), rp(), Some(IfaceId(1)), Some(rp()));
        assert!(star.wildcard && star.rp_bit && !star.is_negative());
        let spt = Entry::new_source(g(), src(), Some(IfaceId(2)), None);
        assert!(!spt.wildcard && !spt.rp_bit && !spt.is_negative());
        let neg = Entry::new_negative(g(), src(), Some(IfaceId(1)), Some(rp()));
        assert!(neg.is_negative());
    }

    #[test]
    fn add_refresh_upgrade_oif() {
        let mut e = Entry::new_star(g(), rp(), Some(IfaceId(0)), None);
        let mut t = Deadlines::new();
        e.add_oif(&mut t, IfaceId(2), OifKind::CopiedFromStar, SimTime(100));
        assert_eq!(e.oifs()[&IfaceId(2)].kind, OifKind::CopiedFromStar);
        // Refresh extends, never shortens.
        e.add_oif(&mut t, IfaceId(2), OifKind::CopiedFromStar, SimTime(50));
        assert_eq!(e.oifs()[&IfaceId(2)].expires_at, SimTime(100));
        e.add_oif(&mut t, IfaceId(2), OifKind::Joined, SimTime(200));
        assert_eq!(e.oifs()[&IfaceId(2)].kind, OifKind::Joined);
        assert_eq!(e.oifs()[&IfaceId(2)].expires_at, SimTime(200));
        // Local members pin the oif open.
        e.add_oif(&mut t, IfaceId(2), OifKind::LocalMembers, SimTime(0));
        assert_eq!(e.oifs()[&IfaceId(2)].kind, OifKind::LocalMembers);
        assert_eq!(e.oifs()[&IfaceId(2)].expires_at, SimTime(u64::MAX));
    }

    #[test]
    fn add_oif_clears_pending_delete() {
        let mut e = Entry::new_star(g(), rp(), Some(IfaceId(0)), None);
        let mut t = Deadlines::new();
        e.set_delete_at(&mut t, Some(SimTime(500)));
        e.add_oif(&mut t, IfaceId(1), OifKind::Joined, SimTime(100));
        assert_eq!(e.delete_at(), None);
        assert_eq!(t.as_slice(), [SimTime(100)]);
    }

    #[test]
    fn forward_set_excludes_iif_and_arrival() {
        let mut e = Entry::new_star(g(), rp(), Some(IfaceId(0)), None);
        let mut t = Deadlines::new();
        e.add_oif(&mut t, IfaceId(1), OifKind::Joined, SimTime(100));
        e.add_oif(&mut t, IfaceId(2), OifKind::Joined, SimTime(100));
        e.add_oif(&mut t, IfaceId(0), OifKind::Joined, SimTime(100)); // pathological: iif in oifs
        assert_eq!(e.forward_set(None), vec![IfaceId(1), IfaceId(2)]);
        assert_eq!(e.forward_set(Some(IfaceId(1))), vec![IfaceId(2)]);
    }

    #[test]
    fn oif_expiry() {
        let mut e = Entry::new_star(g(), rp(), Some(IfaceId(0)), None);
        let mut t = Deadlines::new();
        e.add_oif(&mut t, IfaceId(1), OifKind::Joined, SimTime(100));
        e.add_oif(&mut t, IfaceId(2), OifKind::Joined, SimTime(200));
        e.add_oif(&mut t, IfaceId(3), OifKind::LocalMembers, SimTime(0));
        // The pinned local-member oif arms nothing.
        assert_eq!(t.as_slice(), [SimTime(100), SimTime(200)]);
        assert!(e.expire_oifs(&mut t, SimTime(50)).is_empty());
        assert_eq!(e.expire_oifs(&mut t, SimTime(150)), vec![IfaceId(1)]);
        assert_eq!(t.as_slice(), [SimTime(200)]);
        assert_eq!(e.expire_oifs(&mut t, SimTime(10_000)), vec![IfaceId(2)]);
        assert_eq!(t.first(), None);
        // Local-member oifs never expire via PIM timers.
        assert!(e.has_local_members());
        assert!(!e.oifs_empty());
    }

    #[test]
    fn group_state_longest_match() {
        let mut gs = GroupState {
            star: Some(Entry::new_star(g(), rp(), Some(IfaceId(0)), None)),
            ..Default::default()
        };
        gs.sources
            .insert(src(), Entry::new_source(g(), src(), Some(IfaceId(2)), None));
        assert_eq!(gs.entry_count(), 2);
    }

    #[test]
    fn orphans_skip_the_routers_own_entries() {
        let mut t = Deadlines::new();
        let me = Addr::new(10, 0, 1, 1);
        // The RP's (*,G): a null iif by §3.2, receivers downstream.
        let mut star = Entry::new_star(g(), rp(), None, None);
        star.add_oif(&mut t, IfaceId(1), OifKind::Joined, SimTime(100));
        let gs = GroupState {
            star: Some(star),
            ..Default::default()
        };
        assert_eq!(gs.orphans(rp()).count(), 0, "the RP's own (*,G)");
        // The same entry at another router has lost its route to the RP.
        assert_eq!(gs.orphans(me).collect::<Vec<_>>(), [rp()]);
        // An (S,G) with no upstream is one too, unless negative.
        let mut gs = GroupState::default();
        let mut spt = Entry::new_source(g(), src(), None, None);
        spt.add_oif(&mut t, IfaceId(1), OifKind::Joined, SimTime(100));
        gs.sources.insert(src(), spt);
        assert_eq!(gs.orphans(me).collect::<Vec<_>>(), [src()]);
        assert_eq!(gs.orphans(src()).count(), 0);
        let mut neg = Entry::new_negative(g(), src(), None, None);
        neg.add_oif(&mut t, IfaceId(1), OifKind::Joined, SimTime(100));
        gs.sources.insert(src(), neg);
        assert_eq!(gs.orphans(me).count(), 0);
    }

    #[test]
    fn rp_failover_cycles() {
        let mut gs = GroupState {
            rps: vec![rp(), Addr::new(10, 0, 0, 8)],
            ..Default::default()
        };
        assert_eq!(gs.rp(), Some(rp()));
        assert_eq!(gs.next_rp(), Some(Addr::new(10, 0, 0, 8)));
        assert_eq!(gs.next_rp(), Some(rp())); // wraps
        let mut empty = GroupState::default();
        assert_eq!(empty.rp(), None);
        assert_eq!(empty.next_rp(), None);
    }
}
