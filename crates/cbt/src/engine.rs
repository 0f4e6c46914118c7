//! The sans-IO CBT engine.

use netsim::{Duration, IfaceId, SimTime};
use node::DeadlineMemo;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use telemetry::{flags, EntryKey, Event, StateDump, Telem};
use unicast::Rib;
use wire::cbt::{Echo, EchoReply, FlushTree, JoinAck, JoinRequest, Quit};
use wire::pim::Register;
use wire::{Addr, Group, Message};

/// Timers for the CBT protocol.
#[derive(Clone, Copy, Debug)]
pub struct CbtConfig {
    /// Retransmit an unacknowledged Join-Request after this (explicit
    /// reliability — footnote 4's contrast with PIM soft state).
    pub join_retransmit: Duration,
    /// Period between child→parent Echo keepalives.
    pub echo_interval: Duration,
    /// Parent declares a child dead after this much echo silence; a child
    /// declares its parent dead likewise.
    pub echo_timeout: Duration,
}

impl Default for CbtConfig {
    fn default() -> Self {
        CbtConfig {
            join_retransmit: Duration(15),
            echo_interval: Duration(30),
            echo_timeout: Duration(100),
        }
    }
}

/// An action requested by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output {
    /// Transmit a control message (TTL 1 except core-bound encapsulation).
    Send {
        /// Interface to transmit on.
        iface: IfaceId,
        /// Header destination.
        dst: Addr,
        /// Header TTL.
        ttl: u8,
        /// The message.
        msg: Message,
    },
    /// Forward the data packet being handled ([`CbtEngine::on_data`],
    /// [`CbtEngine::on_local_data`]) out of each listed interface. The
    /// caller holds the payload; the engine never copies it.
    Forward {
        /// Interfaces to copy the packet to.
        ifaces: Vec<IfaceId>,
        /// Original source.
        source: Addr,
        /// Destination group.
        group: Group,
    },
    /// Forward the data packet a sender's first hop encapsulated toward
    /// the core ([`CbtEngine::on_encapsulated`]) out of each listed
    /// interface: a payload the caller does not hold.
    ForwardDecapsulated {
        /// Interfaces to copy the packet to.
        ifaces: Vec<IfaceId>,
        /// Original source.
        source: Addr,
        /// Destination group.
        group: Group,
        /// The decapsulated payload.
        payload: Vec<u8>,
    },
}

/// Per-group tree state at one router.
#[derive(Clone, Debug)]
pub struct TreeState {
    /// The group's core router.
    pub core: Addr,
    /// Confirmed on-tree (a Join-Ack arrived, or we are the core).
    pub on_tree: bool,
    /// Parent edge: (interface, parent address). `None` at the core.
    pub parent: Option<(IfaceId, Addr)>,
    /// Confirmed children: (interface, child address) → echo expiry.
    pub children: BTreeMap<(IfaceId, Addr), SimTime>,
    /// Our own outstanding join: (iface, next hop, next retransmit).
    pending_join: Option<(IfaceId, Addr, SimTime)>,
    /// Downstream joins waiting for our ack: (iface, requester).
    pending_downstream: Vec<(IfaceId, Addr)>,
    /// Host subnetworks with local members.
    pub member_ifaces: HashSet<IfaceId>,
    /// Last proof of parent liveness (echo reply naming this group).
    parent_alive_at: SimTime,
}

impl TreeState {
    /// The interfaces data for this group fans out to, excluding
    /// `arrival`: parent edge + child edges + member subnetworks.
    pub fn forward_set(&self, arrival: Option<IfaceId>) -> Vec<IfaceId> {
        let mut set: Vec<IfaceId> = Vec::new();
        if let Some((p, _)) = self.parent {
            if Some(p) != arrival {
                set.push(p);
            }
        }
        for &(i, _) in self.children.keys() {
            if Some(i) != arrival && !set.contains(&i) {
                set.push(i);
            }
        }
        for &i in &self.member_ifaces {
            if Some(i) != arrival && !set.contains(&i) {
                set.push(i);
            }
        }
        set
    }

    /// Is `iface` one of this group's tree interfaces?
    pub fn is_tree_iface(&self, iface: IfaceId) -> bool {
        self.parent.map(|(p, _)| p) == Some(iface) || self.children.keys().any(|&(i, _)| i == iface)
    }
}

/// The CBT engine for one router.
pub struct CbtEngine {
    cfg: CbtConfig,
    my_addr: Addr,
    /// Group → configured core.
    cores: HashMap<Group, Addr>,
    /// Group → tree state (created on first involvement).
    trees: BTreeMap<Group, TreeState>,
    /// Directly attached hosts → interface.
    local_hosts: HashMap<Addr, IfaceId>,
    next_echo: SimTime,
    /// [`CbtEngine::scan_deadline`]'s last result. The three data-path
    /// entry points (`on_data`, `on_local_data`, `on_encapsulated`) only
    /// read tree state, so the per-packet [`CbtEngine::next_deadline`]
    /// is a read; every other `&mut` entry point clears it first thing.
    deadline: DeadlineMemo,
    /// Join-Acks sent (explicit-reliability message overhead metric).
    pub acks_sent: u64,
    /// Structured-event emitter (disabled by default; pure observer).
    telem: Telem,
}

/// The telemetry flag bits a tree entry currently carries. CBT's single
/// notion of state is on-tree membership.
fn tree_flags(t: &TreeState) -> u8 {
    if t.on_tree {
        flags::ON_TREE
    } else {
        0
    }
}

impl CbtEngine {
    /// New engine.
    pub fn new(my_addr: Addr, cfg: CbtConfig) -> CbtEngine {
        CbtEngine {
            cfg,
            my_addr,
            cores: HashMap::new(),
            trees: BTreeMap::new(),
            local_hosts: HashMap::new(),
            next_echo: SimTime::ZERO,
            deadline: DeadlineMemo::default(),
            acks_sent: 0,
            telem: Telem::disabled(),
        }
    }

    /// Attach a telemetry handle. Emission never changes protocol
    /// behavior (DESIGN.md determinism rules).
    pub fn set_telemetry(&mut self, telem: Telem) {
        self.telem = telem;
    }

    /// The router's address.
    pub fn addr(&self) -> Addr {
        self.my_addr
    }

    /// Configure the core for `group`.
    pub fn set_core(&mut self, group: Group, core: Addr) {
        self.deadline.clear();
        self.cores.insert(group, core);
    }

    /// Register a directly attached host.
    pub fn register_local_host(&mut self, host: Addr, iface: IfaceId) {
        self.deadline.clear();
        self.local_hosts.insert(host, iface);
    }

    /// Tree state for `group` (inspection).
    pub fn tree(&self, group: Group) -> Option<&TreeState> {
        self.trees.get(&group)
    }

    /// Number of groups with tree state (state-overhead metric; CBT keeps
    /// exactly one entry per group regardless of sender count).
    pub fn entry_count(&self) -> usize {
        self.trees.len()
    }

    /// Iterate all per-group tree state — the state-inspection hook for
    /// cross-node invariant oracles (ack-ledger consistency, orphan
    /// detection).
    pub fn trees(&self) -> impl Iterator<Item = (Group, &TreeState)> + '_ {
        self.trees.iter().map(|(&g, t)| (g, t))
    }

    /// Does this tree have an outstanding (unacked) join toward the core?
    /// (oracle hook: a router mid-join is not yet bound by the ack ledger)
    pub fn join_pending(&self, group: Group) -> bool {
        self.trees
            .get(&group)
            .is_some_and(|t| t.pending_join.is_some())
    }

    /// Crash with total state loss: all tree state is erased; the
    /// configured group→core mappings and attached hosts survive.
    pub fn reset(&mut self) {
        self.deadline.clear();
        self.trees.clear();
        self.next_echo = SimTime::ZERO;
    }

    fn ensure_tree(&mut self, now: SimTime, group: Group) -> Option<&mut TreeState> {
        let core = *self.cores.get(&group)?;
        let me = self.my_addr;
        if !self.trees.contains_key(&group) {
            self.telem.emit(now.ticks(), || Event::EntryCreated {
                group,
                key: EntryKey::Star,
                flags: if core == me { flags::ON_TREE } else { 0 },
            });
        }
        Some(self.trees.entry(group).or_insert_with(|| TreeState {
            core,
            on_tree: core == me,
            parent: None,
            children: BTreeMap::new(),
            pending_join: None,
            pending_downstream: Vec::new(),
            member_ifaces: HashSet::new(),
            parent_alive_at: SimTime::ZERO,
        }))
    }

    /// Begin (or re-begin) our own join toward the core.
    fn initiate_join(&mut self, now: SimTime, group: Group, rib: &dyn Rib) -> Vec<Output> {
        let me = self.my_addr;
        let cfg = self.cfg;
        let Some(tree) = self.trees.get_mut(&group) else {
            return Vec::new();
        };
        if tree.on_tree || tree.pending_join.is_some() {
            return Vec::new();
        }
        let core = tree.core;
        let Some(r) = rib.route(core) else {
            return Vec::new(); // core unreachable; retried on tick
        };
        tree.pending_join = Some((r.iface, r.next_hop, now + cfg.join_retransmit));
        vec![Output::Send {
            iface: r.iface,
            dst: Addr::ALL_PIM_ROUTERS,
            ttl: 1,
            msg: Message::CbtJoinRequest(JoinRequest {
                group,
                core,
                originator: me,
            }),
        }]
    }

    /// IGMP reported a member of `group` on `iface`.
    pub fn local_member_joined(
        &mut self,
        now: SimTime,
        group: Group,
        iface: IfaceId,
        rib: &dyn Rib,
    ) -> Vec<Output> {
        self.deadline.clear();
        if self.ensure_tree(now, group).is_none() {
            return Vec::new(); // no core configured
        }
        let tree = self.trees.get_mut(&group).expect("ensured");
        tree.member_ifaces.insert(iface);
        tree.parent_alive_at = now;
        self.initiate_join(now, group, rib)
    }

    /// The last member of `group` on `iface` lapsed.
    pub fn local_member_left(
        &mut self,
        _now: SimTime,
        group: Group,
        iface: IfaceId,
    ) -> Vec<Output> {
        self.deadline.clear();
        let Some(tree) = self.trees.get_mut(&group) else {
            return Vec::new();
        };
        tree.member_ifaces.remove(&iface);
        self.maybe_quit(_now, group)
    }

    /// Leave the tree if we have neither members nor children.
    fn maybe_quit(&mut self, now: SimTime, group: Group) -> Vec<Output> {
        let Some(tree) = self.trees.get(&group) else {
            return Vec::new();
        };
        if !tree.member_ifaces.is_empty() || !tree.children.is_empty() || tree.core == self.my_addr
        {
            return Vec::new();
        }
        let mut out = Vec::new();
        if let Some((iface, parent)) = tree.parent {
            out.push(Output::Send {
                iface,
                dst: parent,
                ttl: 1,
                msg: Message::CbtQuit(Quit { group }),
            });
        }
        self.trees.remove(&group);
        self.telem.emit(now.ticks(), || Event::EntryExpired {
            group,
            key: EntryKey::Star,
        });
        out
    }

    /// A Join-Request arrived on `iface` from `src`.
    pub fn on_join_request(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        jr: &JoinRequest,
        rib: &dyn Rib,
    ) -> Vec<Output> {
        self.deadline.clear();
        // Adopt the core carried in the join if unconfigured.
        self.cores.entry(jr.group).or_insert(jr.core);
        if self.ensure_tree(now, jr.group).is_none() {
            return Vec::new();
        }
        let me = self.my_addr;
        let on_tree = {
            let tree = self.trees.get_mut(&jr.group).expect("ensured");
            // A join from our own parent edge would loop.
            if tree.parent.map(|(p, _)| p) == Some(iface) {
                return Vec::new();
            }
            tree.on_tree
        };
        if on_tree {
            // Confirm immediately: child edge + ack (explicit reliability).
            let tree = self.trees.get_mut(&jr.group).expect("ensured");
            tree.children
                .insert((iface, src), now + self.cfg.echo_timeout);
            self.acks_sent += 1;
            vec![Output::Send {
                iface,
                dst: src,
                ttl: 1,
                msg: Message::CbtJoinAck(JoinAck {
                    group: jr.group,
                    core: jr.core,
                    originator: jr.originator,
                }),
            }]
        } else {
            // Hold the downstream join; forward our own toward the core.
            {
                let tree = self.trees.get_mut(&jr.group).expect("ensured");
                if !tree.pending_downstream.contains(&(iface, src)) {
                    tree.pending_downstream.push((iface, src));
                }
            }
            let mut out = self.initiate_join(now, jr.group, rib);
            let _ = me;
            out.retain(|o| !matches!(o, Output::Forward { .. }));
            out
        }
    }

    /// A Join-Ack arrived on `iface` from `src`.
    pub fn on_join_ack(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        ja: &JoinAck,
    ) -> Vec<Output> {
        self.deadline.clear();
        let cfg = self.cfg;
        let Some(tree) = self.trees.get_mut(&ja.group) else {
            return Vec::new();
        };
        let matches = tree
            .pending_join
            .is_some_and(|(i, nh, _)| i == iface && nh == src);
        if !matches {
            return Vec::new();
        }
        tree.pending_join = None;
        let from = tree_flags(tree);
        tree.on_tree = true;
        tree.parent = Some((iface, src));
        tree.parent_alive_at = now;
        self.telem.emit(now.ticks(), || Event::EntryModified {
            group: ja.group,
            key: EntryKey::Star,
            from,
            to: from | flags::ON_TREE,
        });
        // Now confirm everyone who was waiting on us.
        let waiting = std::mem::take(&mut tree.pending_downstream);
        let core = tree.core;
        let mut out = Vec::new();
        for (ci, child) in waiting {
            tree.children.insert((ci, child), now + cfg.echo_timeout);
            self.acks_sent += 1;
            out.push(Output::Send {
                iface: ci,
                dst: child,
                ttl: 1,
                msg: Message::CbtJoinAck(JoinAck {
                    group: ja.group,
                    core,
                    originator: child,
                }),
            });
        }
        out
    }

    /// A Quit arrived from child `src` on `iface`.
    pub fn on_quit(&mut self, _now: SimTime, iface: IfaceId, src: Addr, q: &Quit) -> Vec<Output> {
        self.deadline.clear();
        if let Some(tree) = self.trees.get_mut(&q.group) {
            tree.children.remove(&(iface, src));
        }
        self.maybe_quit(_now, q.group)
    }

    /// An Echo keepalive arrived from child `src`: refresh its edges and
    /// reply with the groups still alive here.
    pub fn on_echo(&mut self, now: SimTime, iface: IfaceId, src: Addr, e: &Echo) -> Vec<Output> {
        self.deadline.clear();
        let mut alive = Vec::new();
        for &group in &e.groups {
            if let Some(tree) = self.trees.get_mut(&group) {
                if let Some(exp) = tree.children.get_mut(&(iface, src)) {
                    *exp = now + self.cfg.echo_timeout;
                    alive.push(group);
                }
            }
        }
        vec![Output::Send {
            iface,
            dst: src,
            ttl: 1,
            msg: Message::CbtEchoReply(EchoReply { groups: alive }),
        }]
    }

    /// An Echo-Reply arrived from our parent on `iface`: groups missing
    /// from it have been torn down upstream — rejoin them.
    pub fn on_echo_reply(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        er: &EchoReply,
        rib: &dyn Rib,
    ) -> Vec<Output> {
        self.deadline.clear();
        let mut rejoin = Vec::new();
        for (&group, tree) in self.trees.iter_mut() {
            if tree.parent != Some((iface, src)) {
                continue;
            }
            if er.groups.contains(&group) {
                tree.parent_alive_at = now;
            } else if tree.on_tree {
                // Parent lost the tree: detach and rejoin.
                let from = tree_flags(tree);
                tree.on_tree = false;
                tree.parent = None;
                tree.pending_join = None;
                self.telem.emit(now.ticks(), || Event::EntryModified {
                    group,
                    key: EntryKey::Star,
                    from,
                    to: from & !flags::ON_TREE,
                });
                rejoin.push(group);
            }
        }
        let mut out = Vec::new();
        for group in rejoin {
            out.extend(self.initiate_join(now, group, rib));
        }
        out
    }

    /// A Flush-Tree arrived from our parent: tear down and rejoin, and
    /// propagate the flush to our own children.
    pub fn on_flush(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        f: &FlushTree,
        rib: &dyn Rib,
    ) -> Vec<Output> {
        self.deadline.clear();
        let mut out = Vec::new();
        let Some(tree) = self.trees.get_mut(&f.group) else {
            return out;
        };
        if tree.parent.map(|(p, _)| p) != Some(iface) {
            return out;
        }
        for &(ci, child) in tree.children.keys() {
            out.push(Output::Send {
                iface: ci,
                dst: child,
                ttl: 1,
                msg: Message::CbtFlushTree(*f),
            });
        }
        tree.children.clear();
        let from = tree_flags(tree);
        tree.on_tree = false;
        tree.parent = None;
        tree.pending_join = None;
        if from & flags::ON_TREE != 0 {
            self.telem.emit(now.ticks(), || Event::EntryModified {
                group: f.group,
                key: EntryKey::Star,
                from,
                to: from & !flags::ON_TREE,
            });
        }
        out.extend(self.initiate_join(now, f.group, rib));
        out
    }

    /// Data from a directly attached host. If we are on the group's tree,
    /// forward along it; otherwise unicast-encapsulate to the core
    /// (CBT's non-member-sender rule).
    pub fn on_local_data(
        &mut self,
        _now: SimTime,
        iface: IfaceId,
        source: Addr,
        group: Group,
        payload: &[u8],
        rib: &dyn Rib,
    ) -> Vec<Output> {
        let Some(&core) = self.cores.get(&group) else {
            return Vec::new();
        };
        if let Some(tree) = self.trees.get(&group) {
            if tree.on_tree {
                let ifaces = tree.forward_set(Some(iface));
                if ifaces.is_empty() {
                    return Vec::new();
                }
                return vec![Output::Forward {
                    ifaces,
                    source,
                    group,
                }];
            }
        }
        if core == self.my_addr {
            return Vec::new(); // we are the core but have no tree: no receivers
        }
        let Some(r) = rib.route(core) else {
            return Vec::new();
        };
        vec![Output::Send {
            iface: r.iface,
            dst: core,
            ttl: 64,
            msg: Message::PimRegister(Register {
                group,
                source,
                payload: payload.to_vec(),
            }),
        }]
    }

    /// Encapsulated sender data arrived at the core: inject onto the tree.
    pub fn on_encapsulated(&mut self, _now: SimTime, reg: &Register) -> Vec<Output> {
        let Some(tree) = self.trees.get(&reg.group) else {
            return Vec::new();
        };
        if tree.core != self.my_addr || !tree.on_tree {
            return Vec::new();
        }
        let ifaces = tree.forward_set(None);
        if ifaces.is_empty() {
            return Vec::new();
        }
        vec![Output::ForwardDecapsulated {
            ifaces,
            source: reg.source,
            group: reg.group,
            payload: reg.payload.clone(),
        }]
    }

    /// A multicast data packet arrived on a router interface: the on-tree
    /// check replaces PIM's RPF check (the tree is bidirectional), then
    /// fan out on every other tree interface.
    pub fn on_data(
        &mut self,
        _now: SimTime,
        iface: IfaceId,
        source: Addr,
        group: Group,
    ) -> Vec<Output> {
        let Some(tree) = self.trees.get(&group) else {
            return Vec::new();
        };
        if !tree.on_tree || !tree.is_tree_iface(iface) {
            return Vec::new();
        }
        let ifaces = tree.forward_set(Some(iface));
        if ifaces.is_empty() {
            return Vec::new();
        }
        vec![Output::Forward {
            ifaces,
            source,
            group,
        }]
    }

    /// The absolute time of this engine's next pending timer: the echo
    /// schedule, join retransmits, child echo expiries, and parent-silence
    /// detection (which matures `echo_timeout` after the last sign of
    /// parent life).
    ///
    /// Memoized: the answer is `scan_deadline`'s (the full walk), rescanned
    /// only after an entry point that can move a timer. Debug builds check
    /// the memo against a fresh scan on every call.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.deadline.get_or(|| self.scan_deadline())
    }

    /// The earliest pending timer, found by walking all of them: the one
    /// definition of "next deadline".
    pub(crate) fn scan_deadline(&self) -> Option<SimTime> {
        let mut best = Some(self.next_echo);
        for tree in self.trees.values() {
            if let Some((_, _, retx)) = tree.pending_join {
                best = netsim::earliest(best, Some(retx));
            }
            best = netsim::earliest(best, tree.children.values().copied().min());
            if tree.on_tree && tree.parent.is_some() {
                best = netsim::earliest(best, Some(tree.parent_alive_at + self.cfg.echo_timeout));
            }
        }
        best
    }

    /// Periodic maintenance: join retransmits, echoes, child/parent
    /// timeouts.
    pub fn tick(&mut self, now: SimTime, rib: &dyn Rib) -> Vec<Output> {
        self.deadline.clear();
        let mut out = Vec::new();
        let me = self.my_addr;
        let cfg = self.cfg;

        // Join retransmission (explicit reliability).
        let groups: Vec<Group> = self.trees.keys().copied().collect();
        for group in groups.clone() {
            let tree = self.trees.get_mut(&group).expect("listed");
            if let Some((iface, _nh, retx)) = tree.pending_join {
                if now >= retx {
                    let core = tree.core;
                    // Recompute the route — it may have changed.
                    if let Some(r) = rib.route(core) {
                        tree.pending_join = Some((r.iface, r.next_hop, now + cfg.join_retransmit));
                        out.push(Output::Send {
                            iface: r.iface,
                            dst: Addr::ALL_PIM_ROUTERS,
                            ttl: 1,
                            msg: Message::CbtJoinRequest(JoinRequest {
                                group,
                                core,
                                originator: me,
                            }),
                        });
                    } else {
                        tree.pending_join =
                            Some((iface, Addr::UNSPECIFIED, now + cfg.join_retransmit));
                    }
                }
            }
        }

        // Child expiry first: a leaf with no members and no children sends
        // its Quit while the parent edge is still known.
        let mut quit_checks = Vec::new();
        for (&group, tree) in self.trees.iter_mut() {
            let before = tree.children.len();
            tree.children.retain(|_, &mut exp| now < exp);
            if tree.children.len() != before {
                quit_checks.push(group);
            }
        }
        for group in quit_checks {
            out.extend(self.maybe_quit(now, group));
        }

        // Parent liveness: a silent parent means our whole subtree must
        // reattach through a live path — flush children and rejoin.
        let mut to_rejoin = Vec::new();
        for (&group, tree) in self.trees.iter_mut() {
            if tree.on_tree
                && tree.parent.is_some()
                && now.since(tree.parent_alive_at) >= cfg.echo_timeout
            {
                let from = tree_flags(tree);
                tree.on_tree = false;
                tree.parent = None;
                tree.pending_join = None;
                self.telem.emit(now.ticks(), || Event::EntryModified {
                    group,
                    key: EntryKey::Star,
                    from,
                    to: from & !flags::ON_TREE,
                });
                to_rejoin.push(group);
            }
        }
        for group in to_rejoin {
            let children: Vec<(IfaceId, Addr)> = self
                .trees
                .get(&group)
                .map(|t| t.children.keys().copied().collect())
                .unwrap_or_default();
            for (ci, child) in &children {
                out.push(Output::Send {
                    iface: *ci,
                    dst: *child,
                    ttl: 1,
                    msg: Message::CbtFlushTree(FlushTree { group }),
                });
            }
            let has_members = self
                .trees
                .get(&group)
                .is_some_and(|t| !t.member_ifaces.is_empty());
            if let Some(t) = self.trees.get_mut(&group) {
                t.children.clear();
                t.parent_alive_at = now; // restart the clock for the rejoin
            }
            if has_members {
                out.extend(self.initiate_join(now, group, rib));
            } else {
                // Nothing left to serve: drop the state entirely.
                self.trees.remove(&group);
                self.telem.emit(now.ticks(), || Event::EntryExpired {
                    group,
                    key: EntryKey::Star,
                });
            }
        }

        // Echo keepalives to surviving parents, batched per (iface, parent).
        if now >= self.next_echo {
            self.next_echo = now + cfg.echo_interval;
            let mut per_parent: BTreeMap<(IfaceId, Addr), Vec<Group>> = BTreeMap::new();
            for (&group, tree) in &self.trees {
                if let Some(p) = tree.parent {
                    per_parent.entry(p).or_default().push(group);
                }
            }
            for ((iface, parent), groups) in per_parent {
                out.push(Output::Send {
                    iface,
                    dst: parent,
                    ttl: 1,
                    msg: Message::CbtEcho(Echo { groups }),
                });
            }
        }
        out
    }
}

impl StateDump for CbtEngine {
    /// `show mroute`-style snapshot: one line per group tree — core,
    /// on-tree flag, parent edge, last parent-liveness proof — plus child
    /// edges with echo expiries, member subnetworks, and pending joins.
    fn state_dump(&self, now: telemetry::Ticks) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "cbt {} t{}", self.my_addr, now);
        for (&group, tree) in &self.trees {
            let _ = write!(
                s,
                "  group {group} core={} flags={}",
                tree.core,
                flags::render(tree_flags(tree))
            );
            match tree.parent {
                Some((i, p)) => {
                    let _ = write!(s, " parent={p}@if{}", i.index());
                }
                None => {
                    let _ = write!(s, " parent=-");
                }
            }
            let _ = write!(s, " parent-alive=t{}", tree.parent_alive_at.ticks());
            if let Some((i, nh, retx)) = tree.pending_join {
                let _ = write!(
                    s,
                    " join-pending={nh}@if{} retx=t{}",
                    i.index(),
                    retx.ticks()
                );
            }
            let _ = writeln!(s);
            for (&(i, child), &exp) in &tree.children {
                let _ = writeln!(
                    s,
                    "    child {child}@if{} expires=t{}",
                    i.index(),
                    exp.ticks()
                );
            }
            let mut members: Vec<u32> = tree
                .member_ifaces
                .iter()
                .map(|i| i.index() as u32)
                .collect();
            members.sort_unstable();
            for i in members {
                let _ = writeln!(s, "    members on if{i}");
            }
            for &(i, req) in &tree.pending_downstream {
                let _ = writeln!(s, "    awaiting-ack {req}@if{}", i.index());
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
    fn core() -> Addr {
        Addr::new(10, 0, 0, 1)
    }
    fn child() -> Addr {
        Addr::new(10, 0, 2, 1)
    }
    fn g() -> Group {
        Group::test(4)
    }
    fn t(x: u64) -> SimTime {
        SimTime(x)
    }

    fn rib() -> OracleRib {
        let mut r = OracleRib::empty(me());
        r.insert(
            core(),
            RouteEntry {
                iface: IfaceId(0),
                next_hop: core(),
                metric: 1,
            },
        );
        r
    }

    fn engine() -> CbtEngine {
        let mut e = CbtEngine::new(me(), CbtConfig::default());
        e.set_core(g(), core());
        e
    }

    #[test]
    fn member_join_sends_join_request_toward_core() {
        let mut e = engine();
        let out = e.local_member_joined(t(0), g(), IfaceId(2), &rib());
        assert!(matches!(
            &out[0],
            Output::Send { iface, msg: Message::CbtJoinRequest(jr), .. }
                if *iface == IfaceId(0) && jr.core == core() && jr.originator == me()
        ));
        assert!(!e.tree(g()).unwrap().on_tree, "not on tree until acked");
    }

    #[test]
    fn join_ack_confirms_tree_membership() {
        let mut e = engine();
        e.local_member_joined(t(0), g(), IfaceId(2), &rib());
        e.on_join_ack(
            t(2),
            IfaceId(0),
            core(),
            &JoinAck {
                group: g(),
                core: core(),
                originator: me(),
            },
        );
        let tree = e.tree(g()).unwrap();
        assert!(tree.on_tree);
        assert_eq!(tree.parent, Some((IfaceId(0), core())));
    }

    #[test]
    fn unacked_join_retransmits() {
        let mut e = engine();
        e.local_member_joined(t(0), g(), IfaceId(2), &rib());
        let out = e.tick(t(20), &rib());
        assert!(out.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: Message::CbtJoinRequest(_),
                ..
            }
        )));
    }

    #[test]
    fn on_tree_router_acks_downstream_join_immediately() {
        let mut e = engine();
        e.local_member_joined(t(0), g(), IfaceId(2), &rib());
        e.on_join_ack(
            t(2),
            IfaceId(0),
            core(),
            &JoinAck {
                group: g(),
                core: core(),
                originator: me(),
            },
        );
        let out = e.on_join_request(
            t(5),
            IfaceId(1),
            child(),
            &JoinRequest {
                group: g(),
                core: core(),
                originator: child(),
            },
            &rib(),
        );
        assert!(matches!(
            &out[0],
            Output::Send { iface, dst, msg: Message::CbtJoinAck(_), .. }
                if *iface == IfaceId(1) && *dst == child()
        ));
        assert!(e
            .tree(g())
            .unwrap()
            .children
            .contains_key(&(IfaceId(1), child())));
        assert_eq!(e.acks_sent, 1);
    }

    #[test]
    fn off_tree_router_forwards_join_and_acks_later() {
        let mut e = engine();
        // Downstream join arrives while we're not on the tree.
        let out = e.on_join_request(
            t(0),
            IfaceId(1),
            child(),
            &JoinRequest {
                group: g(),
                core: core(),
                originator: child(),
            },
            &rib(),
        );
        // Our own join goes toward the core; no ack yet.
        assert!(out.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: Message::CbtJoinRequest(_),
                ..
            }
        )));
        assert!(!out.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: Message::CbtJoinAck(_),
                ..
            }
        )));
        // Core's ack arrives: the pending downstream is confirmed.
        let out = e.on_join_ack(
            t(3),
            IfaceId(0),
            core(),
            &JoinAck {
                group: g(),
                core: core(),
                originator: me(),
            },
        );
        assert!(matches!(
            &out[0],
            Output::Send { dst, msg: Message::CbtJoinAck(_), .. } if *dst == child()
        ));
        assert!(e
            .tree(g())
            .unwrap()
            .children
            .contains_key(&(IfaceId(1), child())));
    }

    #[test]
    fn core_is_trivially_on_tree() {
        let mut e = CbtEngine::new(core(), CbtConfig::default());
        e.set_core(g(), core());
        let out = e.on_join_request(
            t(0),
            IfaceId(0),
            child(),
            &JoinRequest {
                group: g(),
                core: core(),
                originator: child(),
            },
            &OracleRib::empty(core()),
        );
        assert!(matches!(
            &out[0],
            Output::Send {
                msg: Message::CbtJoinAck(_),
                ..
            }
        ));
    }

    #[test]
    fn bidirectional_forwarding_on_tree() {
        let mut e = engine();
        e.local_member_joined(t(0), g(), IfaceId(2), &rib());
        e.on_join_ack(
            t(2),
            IfaceId(0),
            core(),
            &JoinAck {
                group: g(),
                core: core(),
                originator: me(),
            },
        );
        e.on_join_request(
            t(5),
            IfaceId(1),
            child(),
            &JoinRequest {
                group: g(),
                core: core(),
                originator: child(),
            },
            &rib(),
        );

        // From the parent side: to child + members.
        let out = e.on_data(t(10), IfaceId(0), Addr::new(10, 9, 9, 9), g());
        assert!(matches!(
            &out[0],
            Output::Forward { ifaces, .. } if ifaces == &vec![IfaceId(1), IfaceId(2)]
        ));
        // From the child side: up to the parent + members (bidirectional).
        let out = e.on_data(t(11), IfaceId(1), Addr::new(10, 9, 9, 9), g());
        assert!(matches!(
            &out[0],
            Output::Forward { ifaces, .. } if ifaces == &vec![IfaceId(0), IfaceId(2)]
        ));
        // Off-tree arrival is dropped.
        let out = e.on_data(t(12), IfaceId(3), Addr::new(10, 9, 9, 9), g());
        assert!(out.is_empty());
    }

    #[test]
    fn non_member_sender_encapsulates_to_core() {
        let mut e = engine();
        let s = Addr::new(10, 0, 1, 10);
        e.register_local_host(s, IfaceId(2));
        let out = e.on_local_data(t(0), IfaceId(2), s, g(), b"d", &rib());
        assert!(matches!(
            &out[0],
            Output::Send { dst, msg: Message::PimRegister(r), .. }
                if *dst == core() && r.source == s
        ));
    }

    #[test]
    fn core_injects_encapsulated_data_onto_tree() {
        let mut e = CbtEngine::new(core(), CbtConfig::default());
        e.set_core(g(), core());
        e.on_join_request(
            t(0),
            IfaceId(0),
            child(),
            &JoinRequest {
                group: g(),
                core: core(),
                originator: child(),
            },
            &OracleRib::empty(core()),
        );
        let out = e.on_encapsulated(
            t(5),
            &Register {
                group: g(),
                source: Addr::new(10, 9, 9, 9),
                payload: b"d".to_vec(),
            },
        );
        assert!(matches!(
            &out[0],
            Output::ForwardDecapsulated { ifaces, payload, .. }
                if ifaces == &vec![IfaceId(0)] && payload == b"d"
        ));
    }

    #[test]
    fn echo_refreshes_children_and_reply_lists_live_groups() {
        let mut e = engine();
        e.local_member_joined(t(0), g(), IfaceId(2), &rib());
        e.on_join_ack(
            t(2),
            IfaceId(0),
            core(),
            &JoinAck {
                group: g(),
                core: core(),
                originator: me(),
            },
        );
        e.on_join_request(
            t(5),
            IfaceId(1),
            child(),
            &JoinRequest {
                group: g(),
                core: core(),
                originator: child(),
            },
            &rib(),
        );
        let out = e.on_echo(t(50), IfaceId(1), child(), &Echo { groups: vec![g()] });
        assert!(matches!(
            &out[0],
            Output::Send { msg: Message::CbtEchoReply(er), .. } if er.groups == vec![g()]
        ));
        // Keep our parent alive too, then cross the child's original
        // timeout: the echoed child must survive.
        e.on_echo_reply(
            t(60),
            IfaceId(0),
            core(),
            &EchoReply { groups: vec![g()] },
            &rib(),
        );
        e.tick(t(104), &rib());
        assert!(e
            .tree(g())
            .unwrap()
            .children
            .contains_key(&(IfaceId(1), child())));
    }

    #[test]
    fn silent_child_expires_and_leaf_quits() {
        let mut e = engine();
        // We're a pure transit router: a child, no members.
        e.on_join_request(
            t(0),
            IfaceId(1),
            child(),
            &JoinRequest {
                group: g(),
                core: core(),
                originator: child(),
            },
            &rib(),
        );
        e.on_join_ack(
            t(2),
            IfaceId(0),
            core(),
            &JoinAck {
                group: g(),
                core: core(),
                originator: me(),
            },
        );
        assert!(e.tree(g()).is_some());
        // The child never echoes: it expires, and with no members left we
        // quit toward the parent.
        let out = e.tick(t(200), &rib());
        assert!(
            out.iter().any(|o| matches!(
                o,
                Output::Send { dst, msg: Message::CbtQuit(_), .. } if *dst == core()
            )),
            "{out:?}"
        );
        assert!(e.tree(g()).is_none());
    }

    #[test]
    fn missing_group_in_echo_reply_triggers_rejoin() {
        let mut e = engine();
        e.local_member_joined(t(0), g(), IfaceId(2), &rib());
        e.on_join_ack(
            t(2),
            IfaceId(0),
            core(),
            &JoinAck {
                group: g(),
                core: core(),
                originator: me(),
            },
        );
        let out = e.on_echo_reply(
            t(40),
            IfaceId(0),
            core(),
            &EchoReply { groups: vec![] },
            &rib(),
        );
        assert!(out.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: Message::CbtJoinRequest(_),
                ..
            }
        )));
        assert!(!e.tree(g()).unwrap().on_tree);
    }

    #[test]
    fn parent_silence_flushes_subtree_and_rejoins() {
        let mut e = engine();
        e.local_member_joined(t(0), g(), IfaceId(2), &rib());
        e.on_join_ack(
            t(2),
            IfaceId(0),
            core(),
            &JoinAck {
                group: g(),
                core: core(),
                originator: me(),
            },
        );
        e.on_join_request(
            t(5),
            IfaceId(1),
            child(),
            &JoinRequest {
                group: g(),
                core: core(),
                originator: child(),
            },
            &rib(),
        );
        // Keep the child alive but let the parent go silent.
        e.on_echo(t(90), IfaceId(1), child(), &Echo { groups: vec![g()] });
        let out = e.tick(t(110), &rib());
        assert!(
            out.iter().any(|o| matches!(
                o,
                Output::Send { dst, msg: Message::CbtFlushTree(_), .. } if *dst == child()
            )),
            "{out:?}"
        );
        assert!(out.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: Message::CbtJoinRequest(_),
                ..
            }
        )));
    }

    #[test]
    fn quit_removes_child() {
        let mut e = engine();
        e.local_member_joined(t(0), g(), IfaceId(2), &rib());
        e.on_join_ack(
            t(2),
            IfaceId(0),
            core(),
            &JoinAck {
                group: g(),
                core: core(),
                originator: me(),
            },
        );
        e.on_join_request(
            t(5),
            IfaceId(1),
            child(),
            &JoinRequest {
                group: g(),
                core: core(),
                originator: child(),
            },
            &rib(),
        );
        e.on_quit(t(10), IfaceId(1), child(), &Quit { group: g() });
        assert!(e.tree(g()).unwrap().children.is_empty());
    }

    /// One random call into the engine's public `&mut` surface. `a` and
    /// `b` pick among two groups (one cored here, one cored remotely), a
    /// few interfaces and a few neighbours, so calls collide on state.
    fn memo_step(e: &mut CbtEngine, now: SimTime, op: u8, a: u8, b: u8) {
        let rib = rib();
        let groups = [g(), Group::test(5)];
        let group = groups[(a % 2) as usize];
        let tree_core = if group == g() { core() } else { me() };
        let nbr = [core(), child(), Addr::new(10, 0, 3, 1)][(b % 3) as usize];
        let iface = IfaceId((b % 3) as u32);
        let remote_src = Addr::new(10, 9, 9, 9);
        match op {
            0 => drop(e.local_member_joined(now, group, IfaceId(2), &rib)),
            1 => drop(e.local_member_left(now, group, IfaceId(2))),
            2 => {
                let jr = JoinRequest {
                    group,
                    core: tree_core,
                    originator: nbr,
                };
                drop(e.on_join_request(now, iface, nbr, &jr, &rib));
            }
            3 => {
                let ja = JoinAck {
                    group,
                    core: tree_core,
                    originator: [me(), child()][(a / 2 % 2) as usize],
                };
                drop(e.on_join_ack(now, iface, nbr, &ja));
            }
            4 => drop(e.on_quit(now, iface, nbr, &Quit { group })),
            5 => drop(e.on_echo(
                now,
                iface,
                nbr,
                &Echo {
                    groups: vec![group],
                },
            )),
            6 => {
                let live = [vec![group], groups.to_vec(), vec![]][(a / 2 % 3) as usize].clone();
                drop(e.on_echo_reply(now, iface, nbr, &EchoReply { groups: live }, &rib));
            }
            7 => drop(e.on_flush(now, iface, &FlushTree { group }, &rib)),
            8 => drop(e.on_data(now, iface, remote_src, group)),
            9 => drop(e.on_local_data(now, IfaceId(2), remote_src, group, b"d", &rib)),
            10 => {
                let reg = Register {
                    group,
                    source: remote_src,
                    payload: vec![a, b],
                };
                drop(e.on_encapsulated(now, &reg));
            }
            11 if a == 0 => e.reset(),
            11 if a == 1 => e.set_core(group, tree_core),
            11 if a == 2 => e.register_local_host(remote_src, IfaceId(2)),
            _ => drop(e.tick(now, &rib)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// Whatever is called, in whatever order, the memoized deadline
        /// is the scanned one. `next_deadline` is read after every step,
        /// so each call starts from a filled memo it has to invalidate —
        /// and the comparison is spelled out here because
        /// `next_deadline`'s own `debug_assert` is compiled out of
        /// release-profile test runs.
        #[test]
        fn memoized_deadline_is_the_scanned_deadline(
            steps in proptest::prop::collection::vec((0u8..14, 0u8..12, 0u8..6, 0usize..6), 1..100),
        ) {
            let mut e = engine();
            e.set_core(Group::test(5), me());
            let mut now = 0;
            for (op, a, b, dt) in steps {
                now += [0, 1, 4, 15, 40, 150][dt];
                memo_step(&mut e, t(now), op, a, b);
                assert_eq!(e.next_deadline(), e.scan_deadline(), "after op {op} at {now}");
            }
        }
    }
}
