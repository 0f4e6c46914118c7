//! The sans-IO CBT engine.

use netsim::{Deadlines, Duration, IfaceId, SimTime};
use node::{Action, ProtocolEngine};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use telemetry::{flags, EntryKey, Event, Telem};
use unicast::Rib;
use wire::cbt::{Echo, EchoReply, FlushTree, JoinAck, JoinRequest, Quit};
use wire::pim::Register;
use wire::{Addr, Group, Message};

/// Retransmit an unacknowledged Join-Request after this (explicit
/// reliability — footnote 4's contrast with PIM soft state).
pub const JOIN_RETRANSMIT: Duration = Duration(15);

/// Period between child→parent Echo keepalives.
pub const ECHO_INTERVAL: Duration = Duration(30);

/// Parent declares a child dead after this much echo silence; a child
/// declares its parent dead likewise.
pub const ECHO_TIMEOUT: Duration = Duration(100);

/// Per-group tree state at one router.
///
/// The fields that hold or gate a timer — the child edges' echo
/// expiries, the pending join's retransmit time, and the three that
/// together say when a silent parent is given up on — are private: every
/// method that writes one takes the engine's [`Deadlines`] and keeps it
/// equal to what a walk of the tree finds (`TreeState::deadlines`).
#[derive(Clone, Debug)]
pub struct TreeState {
    /// The group's core router.
    pub core: Addr,
    /// Confirmed on-tree (a Join-Ack arrived, or we are the core).
    on_tree: bool,
    /// Parent edge: (interface, parent address). `None` at the core.
    parent: Option<(IfaceId, Addr)>,
    /// Confirmed children: (interface, child address) → echo expiry.
    children: BTreeMap<(IfaceId, Addr), SimTime>,
    /// Our own outstanding join: (iface, next hop, next retransmit). A
    /// join that has never had a route to the core has no iface yet.
    pending_join: Option<(Option<IfaceId>, Addr, SimTime)>,
    /// Downstream joins waiting for our ack: (iface, requester).
    pending_downstream: Vec<(IfaceId, Addr)>,
    /// Host subnetworks with local members, ascending: data fans out to
    /// them in this order.
    pub member_ifaces: BTreeSet<IfaceId>,
    /// Last proof of parent liveness (echo reply naming this group).
    parent_alive_at: SimTime,
}

impl TreeState {
    /// Confirmed on-tree (a Join-Ack arrived, or we are the core)?
    pub fn on_tree(&self) -> bool {
        self.on_tree
    }

    /// Parent edge: (interface, parent address). `None` at the core.
    pub fn parent(&self) -> Option<(IfaceId, Addr)> {
        self.parent
    }

    /// Confirmed children: (interface, child address) → echo expiry.
    pub fn children(&self) -> &BTreeMap<(IfaceId, Addr), SimTime> {
        &self.children
    }

    /// When a parent that stays silent is given up on: [`ECHO_TIMEOUT`]
    /// after its last sign of life, while we hang off one.
    fn parent_deadline(&self) -> Option<SimTime> {
        (self.on_tree && self.parent.is_some()).then(|| self.parent_alive_at + ECHO_TIMEOUT)
    }

    /// Every armed timer of this tree, found by walking it: the join
    /// retransmit, each child's echo expiry, the parent-silence deadline.
    fn deadlines(&self) -> impl Iterator<Item = SimTime> + '_ {
        (self.pending_join.map(|(_, _, retx)| retx).into_iter())
            .chain(self.children.values().copied())
            .chain(self.parent_deadline())
    }

    /// Start, restart or clear our own outstanding join.
    fn set_pending_join(
        &mut self,
        timers: &mut Deadlines,
        join: Option<(Option<IfaceId>, Addr, SimTime)>,
    ) {
        timers.rearm(
            self.pending_join.map(|(_, _, retx)| retx),
            join.map(|(_, _, retx)| retx),
        );
        self.pending_join = join;
    }

    /// Add a child edge or push its echo expiry out.
    fn refresh_child(&mut self, timers: &mut Deadlines, child: (IfaceId, Addr), expires: SimTime) {
        let before = self.children.insert(child, expires);
        timers.rearm(before, Some(expires));
    }

    /// Change what the parent-silence deadline hangs on (`on_tree`,
    /// `parent`, `parent_alive_at`) through `f`.
    fn update_parent(&mut self, timers: &mut Deadlines, f: impl FnOnce(&mut TreeState)) {
        let before = self.parent_deadline();
        f(self);
        timers.rearm(before, self.parent_deadline());
    }

    /// Our own join toward the core, unless we are on the tree or one is
    /// already pending.
    fn join(
        &mut self,
        timers: &mut Deadlines,
        now: SimTime,
        group: Group,
        me: Addr,
        rib: &dyn Rib,
    ) -> Option<Action> {
        if self.on_tree || self.pending_join.is_some() {
            return None;
        }
        self.send_join(timers, now, group, me, rib)
    }

    /// Send our Join-Request toward the core along the current route and
    /// arm its retransmit. With no route nothing is sent, but the
    /// retransmit is armed all the same, with no next hop (a pending join
    /// keeps its interface), so the join goes out once the route is back.
    /// The core never gets here: it is on the tree from the start.
    fn send_join(
        &mut self,
        timers: &mut Deadlines,
        now: SimTime,
        group: Group,
        me: Addr,
        rib: &dyn Rib,
    ) -> Option<Action> {
        let retx = now + JOIN_RETRANSMIT;
        let Some(r) = rib.route(self.core) else {
            let iface = self.pending_join.and_then(|(i, _, _)| i);
            self.set_pending_join(timers, Some((iface, Addr::UNSPECIFIED, retx)));
            return None;
        };
        self.set_pending_join(timers, Some((Some(r.iface), r.next_hop, retx)));
        let jr = JoinRequest {
            group,
            core: self.core,
            originator: me,
        };
        Some(Action::control(
            r.iface,
            Addr::ALL_PIM_ROUTERS,
            1,
            Message::CbtJoinRequest(jr),
        ))
    }

    /// Confirm `child`'s join: add or refresh its edge and ack it
    /// (explicit reliability, footnote 4).
    fn ack_child(
        &mut self,
        timers: &mut Deadlines,
        acks_sent: &mut u64,
        now: SimTime,
        child: (IfaceId, Addr),
        ack: JoinAck,
    ) -> Action {
        self.refresh_child(timers, child, now + ECHO_TIMEOUT);
        *acks_sent += 1;
        Action::control(child.0, child.1, 1, Message::CbtJoinAck(ack))
    }

    /// Leave the tree: no parent, no outstanding join. Telemetry hears
    /// ON_TREE clear if it was set.
    fn leave(&mut self, timers: &mut Deadlines, telem: &mut Telem, group: Group) {
        let from = tree_flags(self);
        self.update_parent(timers, |t| {
            t.on_tree = false;
            t.parent = None;
        });
        self.set_pending_join(timers, None);
        if from & flags::ON_TREE != 0 {
            telem.emit(|| Event::EntryModified {
                group,
                key: EntryKey::Star,
                from,
                to: from & !flags::ON_TREE,
            });
        }
    }

    /// Flush the subtree below: a Flush-Tree to every child, whose edges
    /// go.
    fn flush_subtree(&mut self, timers: &mut Deadlines, group: Group, out: &mut Vec<Action>) {
        for &(ci, child) in self.children.keys() {
            let flush = Message::CbtFlushTree(FlushTree { group });
            out.push(Action::control(ci, child, 1, flush));
        }
        timers.disarm_all(self.children.values().copied());
        self.children.clear();
    }

    /// Forward the packet in hand on every tree interface but `arrival`;
    /// nothing when there is none.
    fn forward(&self, arrival: IfaceId, source: Addr, group: Group) -> Option<Action> {
        let ifaces = self.forward_set(Some(arrival));
        (!ifaces.is_empty()).then_some(Action::Forward {
            ifaces,
            source,
            group,
        })
    }

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
    my_addr: Addr,
    /// Group → configured core.
    cores: HashMap<Group, Addr>,
    /// Group → tree state (created on first involvement).
    trees: BTreeMap<Group, TreeState>,
    next_echo: SimTime,
    /// Every tree's armed deadlines ([`TreeState::deadlines`]), kept
    /// current by the `TreeState` methods that write a timer; with
    /// `next_echo`, its front is the next wakeup.
    timers: Deadlines,
    /// Join-Acks sent (explicit-reliability message overhead metric).
    pub acks_sent: u64,
    /// Telemetry outbox the node adapter drains (off by default).
    pub(crate) telem: Telem,
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

/// `group`'s tree rooted at `core`, made on first involvement (telemetry
/// hears of it).
fn ensure_tree<'a>(
    trees: &'a mut BTreeMap<Group, TreeState>,
    telem: &mut Telem,
    me: Addr,
    group: Group,
    core: Addr,
) -> &'a mut TreeState {
    trees.entry(group).or_insert_with(|| {
        let tree = TreeState {
            core,
            on_tree: core == me,
            parent: None,
            children: BTreeMap::new(),
            pending_join: None,
            pending_downstream: Vec::new(),
            member_ifaces: BTreeSet::new(),
            parent_alive_at: SimTime::ZERO,
        };
        telem.emit(|| Event::EntryCreated {
            group,
            key: EntryKey::Star,
            flags: tree_flags(&tree),
        });
        tree
    })
}

impl CbtEngine {
    /// New engine.
    pub fn new(my_addr: Addr) -> CbtEngine {
        CbtEngine {
            my_addr,
            cores: HashMap::new(),
            trees: BTreeMap::new(),
            next_echo: SimTime::ZERO,
            timers: Deadlines::new(),
            acks_sent: 0,
            telem: Telem::default(),
        }
    }

    /// Configure the core for `group`.
    pub fn set_core(&mut self, group: Group, core: Addr) {
        self.cores.insert(group, core);
    }

    /// Tree state for `group` (inspection).
    pub fn tree(&self, group: Group) -> Option<&TreeState> {
        self.trees.get(&group)
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

    /// Drop `group`'s tree with every timer it holds.
    fn drop_tree(&mut self, group: Group) {
        if let Some(tree) = self.trees.remove(&group) {
            self.timers.disarm_all(tree.deadlines());
            self.telem.emit(|| Event::EntryExpired {
                group,
                key: EntryKey::Star,
            });
        }
    }

    /// Leave the tree if we have neither members nor children: a Quit to
    /// the parent, if there is one.
    fn maybe_quit(&mut self, group: Group) -> Option<Action> {
        let tree = self.trees.get(&group)?;
        if !tree.member_ifaces.is_empty() || !tree.children.is_empty() || tree.core == self.my_addr
        {
            return None;
        }
        let quit = tree.parent.map(|(iface, parent)| {
            Action::control(iface, parent, 1, Message::CbtQuit(Quit { group }))
        });
        self.drop_tree(group);
        quit
    }

    /// A Join-Request arrived on `iface` from `src`.
    pub fn on_join_request(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        jr: &JoinRequest,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        // Adopt the core carried in the join if unconfigured.
        let core = *self.cores.entry(jr.group).or_insert(jr.core);
        let me = self.my_addr;
        let tree = ensure_tree(&mut self.trees, &mut self.telem, me, jr.group, core);
        // A join from our own parent edge would loop.
        if tree.parent.map(|(p, _)| p) == Some(iface) {
            return Vec::new();
        }
        if tree.on_tree {
            // Confirm immediately: child edge + ack.
            let ack = JoinAck {
                group: jr.group,
                core: jr.core,
                originator: jr.originator,
            };
            return vec![tree.ack_child(
                &mut self.timers,
                &mut self.acks_sent,
                now,
                (iface, src),
                ack,
            )];
        }
        // Hold the downstream join; forward our own toward the core.
        if !tree.pending_downstream.contains(&(iface, src)) {
            tree.pending_downstream.push((iface, src));
        }
        Vec::from_iter(tree.join(&mut self.timers, now, jr.group, me, rib))
    }

    /// A Join-Ack arrived on `iface` from `src`.
    pub fn on_join_ack(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        ja: &JoinAck,
    ) -> Vec<Action> {
        let Some(tree) = self.trees.get_mut(&ja.group) else {
            return Vec::new();
        };
        let matches = tree
            .pending_join
            .is_some_and(|(i, nh, _)| i == Some(iface) && nh == src);
        if !matches {
            return Vec::new();
        }
        let timers = &mut self.timers;
        tree.set_pending_join(timers, None);
        let from = tree_flags(tree);
        tree.update_parent(timers, |t| {
            t.on_tree = true;
            t.parent = Some((iface, src));
            t.parent_alive_at = now;
        });
        self.telem.emit(|| Event::EntryModified {
            group: ja.group,
            key: EntryKey::Star,
            from,
            to: from | flags::ON_TREE,
        });
        // Now confirm everyone who was waiting on us.
        let core = tree.core;
        let waiting = std::mem::take(&mut tree.pending_downstream);
        waiting
            .into_iter()
            .map(|child| {
                let ack = JoinAck {
                    group: ja.group,
                    core,
                    originator: child.1,
                };
                tree.ack_child(timers, &mut self.acks_sent, now, child, ack)
            })
            .collect()
    }

    /// A Quit arrived from child `src` on `iface`.
    pub fn on_quit(&mut self, iface: IfaceId, src: Addr, q: &Quit) -> Vec<Action> {
        if let Some(tree) = self.trees.get_mut(&q.group) {
            self.timers.rearm(tree.children.remove(&(iface, src)), None);
        }
        Vec::from_iter(self.maybe_quit(q.group))
    }

    /// An Echo keepalive arrived from child `src`: refresh its edges and
    /// reply with the groups still alive here.
    pub fn on_echo(&mut self, now: SimTime, iface: IfaceId, src: Addr, e: &Echo) -> Vec<Action> {
        let mut alive = Vec::new();
        for &group in &e.groups {
            if let Some(tree) = self.trees.get_mut(&group) {
                if tree.children.contains_key(&(iface, src)) {
                    tree.refresh_child(&mut self.timers, (iface, src), now + ECHO_TIMEOUT);
                    alive.push(group);
                }
            }
        }
        vec![Action::control(
            iface,
            src,
            1,
            Message::CbtEchoReply(EchoReply { groups: alive }),
        )]
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
    ) -> Vec<Action> {
        let me = self.my_addr;
        let mut out = Vec::new();
        for (&group, tree) in self.trees.iter_mut() {
            if tree.parent != Some((iface, src)) {
                continue;
            }
            if er.groups.contains(&group) {
                tree.update_parent(&mut self.timers, |t| t.parent_alive_at = now);
            } else if tree.on_tree {
                // Parent lost the tree: leave it and rejoin.
                tree.leave(&mut self.timers, &mut self.telem, group);
                out.extend(tree.join(&mut self.timers, now, group, me, rib));
            }
        }
        out
    }

    /// A Flush-Tree arrived: from our parent, tear down and rejoin, and
    /// propagate the flush to our own children.
    pub fn on_flush(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        f: &FlushTree,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        let Some(tree) = self.trees.get_mut(&f.group) else {
            return out;
        };
        if tree.parent.map(|(p, _)| p) != Some(iface) {
            return out;
        }
        let timers = &mut self.timers;
        tree.flush_subtree(timers, f.group, &mut out);
        tree.leave(timers, &mut self.telem, f.group);
        out.extend(tree.join(timers, now, f.group, self.my_addr, rib));
        out
    }

    /// Data from a directly attached host. If we are on the group's tree,
    /// forward along it; otherwise unicast-encapsulate to the core
    /// (CBT's non-member-sender rule).
    pub fn on_local_data(
        &mut self,
        iface: IfaceId,
        source: Addr,
        group: Group,
        payload: &[u8],
        rib: &dyn Rib,
    ) -> Vec<Action> {
        let Some(&core) = self.cores.get(&group) else {
            return Vec::new();
        };
        if let Some(tree) = self.trees.get(&group).filter(|t| t.on_tree) {
            return Vec::from_iter(tree.forward(iface, source, group));
        }
        if core == self.my_addr {
            return Vec::new(); // we are the core but have no tree: no receivers
        }
        let Some(r) = rib.route(core) else {
            return Vec::new();
        };
        vec![Action::control(
            r.iface,
            core,
            64,
            Message::PimRegister(Register {
                group,
                source,
                payload: payload.to_vec(),
            }),
        )]
    }

    /// Encapsulated sender data arrived at the core: inject onto the tree.
    pub fn on_encapsulated(&mut self, reg: &Register) -> Vec<Action> {
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
        vec![Action::ForwardDecapsulated {
            ifaces,
            source: reg.source,
            group: reg.group,
            payload: reg.payload.clone(),
        }]
    }

    /// A multicast data packet arrived on a router interface: the on-tree
    /// check replaces PIM's RPF check (the tree is bidirectional), then
    /// fan out on every other tree interface.
    pub fn on_data(&mut self, iface: IfaceId, source: Addr, group: Group) -> Vec<Action> {
        let tree = self.trees.get(&group);
        let tree = tree.filter(|t| t.on_tree && t.is_tree_iface(iface));
        Vec::from_iter(tree.and_then(|t| t.forward(iface, source, group)))
    }

    /// The earliest pending timer, found by walking all of them: the
    /// reference the index is checked against.
    #[cfg(any(test, debug_assertions))]
    fn scan_deadline(&self) -> Option<SimTime> {
        let walked = self.trees.values().flat_map(|tree| tree.deadlines());
        walked.chain([self.next_echo]).min()
    }

    /// Act on every matured tree timer: retransmit joins, drop silent
    /// children, give up on silent parents.
    fn expire(&mut self, now: SimTime, rib: &dyn Rib, out: &mut Vec<Action>) {
        let me = self.my_addr;
        let timers = &mut self.timers;

        // Join retransmission (explicit reliability), along the route as
        // it is now.
        for (&group, tree) in self.trees.iter_mut() {
            if tree.pending_join.is_some_and(|(_, _, retx)| now >= retx) {
                out.extend(tree.send_join(timers, now, group, me, rib));
            }
        }

        // Child expiry first: a leaf with no members and no children sends
        // its Quit while the parent edge is still known.
        let mut quit_checks = Vec::new();
        for (&group, tree) in self.trees.iter_mut() {
            let before = tree.children.len();
            tree.children.retain(|_, &mut exp| {
                let live = now < exp;
                if !live {
                    timers.disarm(exp);
                }
                live
            });
            if tree.children.len() != before {
                quit_checks.push(group);
            }
        }
        for group in quit_checks {
            out.extend(self.maybe_quit(group));
        }

        // Parent liveness: a silent parent means our whole subtree must
        // reattach through a live path — flush children and rejoin.
        let timers = &mut self.timers;
        let mut idle = Vec::new();
        for (&group, tree) in self.trees.iter_mut() {
            if tree.parent_deadline().is_none_or(|at| now < at) {
                continue;
            }
            tree.leave(timers, &mut self.telem, group);
            tree.flush_subtree(timers, group, out);
            // Restart the clock for the rejoin.
            tree.update_parent(timers, |t| t.parent_alive_at = now);
            if tree.member_ifaces.is_empty() {
                idle.push(group);
            } else {
                out.extend(tree.join(timers, now, group, me, rib));
            }
        }
        // Nothing left to serve: drop the state entirely.
        for group in idle {
            self.drop_tree(group);
        }
    }
}

impl ProtocolEngine for CbtEngine {
    /// The router's address.
    fn addr(&self) -> Addr {
        self.my_addr
    }

    /// Number of groups with tree state (state-overhead metric; CBT keeps
    /// exactly one entry per group regardless of sender count).
    fn entry_count(&self) -> usize {
        self.trees.len()
    }

    fn on_control(
        &mut self,
        now: SimTime,
        iface: IfaceId,
        src: Addr,
        dst: Addr,
        msg: &Message,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        match msg {
            Message::CbtJoinRequest(jr) => self.on_join_request(now, iface, src, jr, rib),
            Message::CbtJoinAck(ja) => self.on_join_ack(now, iface, src, ja),
            Message::CbtEcho(e) => self.on_echo(now, iface, src, e),
            Message::CbtEchoReply(er) => self.on_echo_reply(now, iface, src, er, rib),
            Message::CbtQuit(q) => self.on_quit(iface, src, q),
            Message::CbtFlushTree(f) => self.on_flush(now, iface, f, rib),
            Message::PimRegister(reg) => {
                // Senders unicast-encapsulate toward the core; decapsulate
                // when it is ours, relay when in transit.
                if dst == CbtEngine::addr(self) {
                    self.on_encapsulated(reg)
                } else {
                    vec![Action::RelayUnicast]
                }
            }
            _ => Vec::new(),
        }
    }

    fn on_multicast_data(
        &mut self,
        _now: SimTime,
        iface: IfaceId,
        source: Addr,
        group: Group,
        payload: &[u8],
        from_host_lan: bool,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        if from_host_lan {
            self.on_local_data(iface, source, group, payload, rib)
        } else {
            self.on_data(iface, source, group)
        }
    }

    /// IGMP reported a member of `group` on `iface`.
    fn local_member_joined(
        &mut self,
        now: SimTime,
        group: Group,
        iface: IfaceId,
        rib: &dyn Rib,
    ) -> Vec<Action> {
        let Some(&core) = self.cores.get(&group) else {
            return Vec::new(); // no core configured
        };
        let me = self.my_addr;
        let tree = ensure_tree(&mut self.trees, &mut self.telem, me, group, core);
        tree.member_ifaces.insert(iface);
        tree.update_parent(&mut self.timers, |t| t.parent_alive_at = now);
        Vec::from_iter(tree.join(&mut self.timers, now, group, me, rib))
    }

    /// The last member of `group` on `iface` lapsed.
    fn local_member_left(&mut self, _now: SimTime, group: Group, iface: IfaceId) -> Vec<Action> {
        if let Some(tree) = self.trees.get_mut(&group) {
            tree.member_ifaces.remove(&iface);
        }
        Vec::from_iter(self.maybe_quit(group))
    }

    fn host_lan_attached(&mut self, _iface: IfaceId, _hosts: &[Addr]) -> u32 {
        // CBT keeps no per-interface engine state, and a local sender's
        // data is told by its host-LAN arrival (`on_local_data`), not by
        // its address; the unicast engine still grows one interface per
        // attached host LAN.
        1
    }

    // CBT re-derives paths on join retransmission; the default no-op
    // `on_route_change` stands.

    /// Crash with total state loss: all tree state is erased; the
    /// configured group→core mappings survive.
    fn reset(&mut self) {
        self.trees.clear();
        self.timers.clear();
        self.next_echo = SimTime::ZERO;
    }

    /// Periodic maintenance: join retransmits, echoes, child/parent
    /// timeouts.
    fn tick(&mut self, now: SimTime, rib: &dyn Rib) -> Vec<Action> {
        let mut out = Vec::new();
        // The three sweeps over the trees run only when the index holds a
        // matured deadline; an echo-only wakeup skips them.
        if self.timers.due(now) {
            self.expire(now, rib, &mut out);
        }

        // Echo keepalives to surviving parents, batched per (iface, parent).
        if now >= self.next_echo {
            self.next_echo = now + ECHO_INTERVAL;
            let mut per_parent: BTreeMap<(IfaceId, Addr), Vec<Group>> = BTreeMap::new();
            for (&group, tree) in &self.trees {
                if let Some(p) = tree.parent {
                    per_parent.entry(p).or_default().push(group);
                }
            }
            for ((iface, parent), groups) in per_parent {
                out.push(Action::control(
                    iface,
                    parent,
                    1,
                    Message::CbtEcho(Echo { groups }),
                ));
            }
        }
        out
    }

    /// The absolute time of this engine's next pending timer: the echo
    /// schedule, join retransmits, child echo expiries, and parent-silence
    /// detection (which matures [`ECHO_TIMEOUT`] after the last sign of
    /// parent life).
    ///
    /// A read of the deadline index, whatever was just mutated. Debug
    /// builds check it against the full walk on every call.
    fn next_deadline(&self) -> Option<SimTime> {
        let next = netsim::earliest(Some(self.next_echo), self.timers.first());
        #[cfg(debug_assertions)]
        assert_eq!(
            next,
            self.scan_deadline(),
            "a timer was written past the deadline index"
        );
        next
    }

    fn telem(&mut self) -> &mut Telem {
        &mut self.telem
    }

    /// `show mroute`-style snapshot: one line per group tree — core,
    /// on-tree flag, parent edge, last parent-liveness proof — plus child
    /// edges with echo expiries, member subnetworks, and pending joins.
    fn state_dump(&self, now: SimTime) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "cbt {} t{}", self.my_addr, now.ticks());
        for (&group, tree) in &self.trees {
            let _ = write!(
                s,
                "  group {group} core={} flags={}",
                tree.core,
                flags::Set(tree_flags(tree))
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
                let i = i.map_or("-".to_string(), |i| i.index().to_string());
                let _ = write!(s, " join-pending={nh}@if{i} retx=t{}", retx.ticks());
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
            for i in &tree.member_ifaces {
                let _ = writeln!(s, "    members on if{}", i.index());
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
        let mut e = CbtEngine::new(me());
        e.set_core(g(), core());
        e
    }

    #[test]
    fn member_join_sends_join_request_toward_core() {
        let mut e = engine();
        let out = e.local_member_joined(t(0), g(), IfaceId(2), &rib());
        assert!(matches!(
            &out[0],
            Action::Control { ifaces, msg: Message::CbtJoinRequest(jr), .. }
                if *ifaces == IfaceId(0).into() && jr.core == core() && jr.originator == me()
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
            Action::Control {
                msg: Message::CbtJoinRequest(_),
                ..
            }
        )));
    }

    /// A first join made while the core is unreachable is retried: once
    /// the route is there, the Join-Request goes out within one
    /// retransmit interval. The core itself never arms a join.
    #[test]
    fn unrouted_first_join_is_retried_once_routed() {
        let mut e = engine();
        let out = e.local_member_joined(t(0), g(), IfaceId(2), &OracleRib::empty(me()));
        assert!(out.is_empty() && e.join_pending(g()));
        let limit = t(0) + JOIN_RETRANSMIT;
        let mut joined = false;
        while let Some(at) = e.next_deadline().filter(|&at| at <= limit && !joined) {
            joined = e.tick(at, &rib()).iter().any(|o| {
                matches!(o, Action::Control { ifaces, msg: Message::CbtJoinRequest(_), .. }
                    if *ifaces == IfaceId(0).into())
            });
        }
        assert!(joined, "no Join-Request by {limit:?}");

        let mut c = CbtEngine::new(core());
        c.set_core(g(), core());
        c.local_member_joined(t(0), g(), IfaceId(2), &OracleRib::empty(core()));
        assert!(!c.join_pending(g()));
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
            Action::Control { ifaces, dst, msg: Message::CbtJoinAck(_), .. }
                if *ifaces == IfaceId(1).into() && *dst == child()
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
            Action::Control {
                msg: Message::CbtJoinRequest(_),
                ..
            }
        )));
        assert!(!out.iter().any(|o| matches!(
            o,
            Action::Control {
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
            Action::Control { dst, msg: Message::CbtJoinAck(_), .. } if *dst == child()
        ));
        assert!(e
            .tree(g())
            .unwrap()
            .children
            .contains_key(&(IfaceId(1), child())));
    }

    #[test]
    fn core_is_trivially_on_tree() {
        let mut e = CbtEngine::new(core());
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
            Action::Control {
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
        let out = e.on_data(IfaceId(0), Addr::new(10, 9, 9, 9), g());
        assert!(matches!(
            &out[0],
            Action::Forward { ifaces, .. } if ifaces == &vec![IfaceId(1), IfaceId(2)]
        ));
        // From the child side: up to the parent + members (bidirectional).
        let out = e.on_data(IfaceId(1), Addr::new(10, 9, 9, 9), g());
        assert!(matches!(
            &out[0],
            Action::Forward { ifaces, .. } if ifaces == &vec![IfaceId(0), IfaceId(2)]
        ));
        // Off-tree arrival is dropped.
        let out = e.on_data(IfaceId(3), Addr::new(10, 9, 9, 9), g());
        assert!(out.is_empty());
    }

    #[test]
    fn non_member_sender_encapsulates_to_core() {
        let mut e = engine();
        let s = Addr::new(10, 0, 1, 10);
        let out = e.on_local_data(IfaceId(2), s, g(), b"d", &rib());
        assert!(matches!(
            &out[0],
            Action::Control { dst, msg: Message::PimRegister(r), .. }
                if *dst == core() && r.source == s
        ));
    }

    #[test]
    fn core_injects_encapsulated_data_onto_tree() {
        let mut e = CbtEngine::new(core());
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
        let out = e.on_encapsulated(&Register {
            group: g(),
            source: Addr::new(10, 9, 9, 9),
            payload: b"d".to_vec(),
        });
        assert!(matches!(
            &out[0],
            Action::ForwardDecapsulated { ifaces, payload, .. }
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
            Action::Control { msg: Message::CbtEchoReply(er), .. } if er.groups == vec![g()]
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
                Action::Control { dst, msg: Message::CbtQuit(_), .. } if *dst == core()
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
            Action::Control {
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
                Action::Control { dst, msg: Message::CbtFlushTree(_), .. } if *dst == child()
            )),
            "{out:?}"
        );
        assert!(out.iter().any(|o| matches!(
            o,
            Action::Control {
                msg: Message::CbtJoinRequest(_),
                ..
            }
        )));
    }

    #[test]
    fn flush_from_parent_flushes_children_and_rejoins() {
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
        e.telem.set_enabled(true);
        let flush = FlushTree { group: g() };

        // From anywhere but the parent's interface: nothing happens.
        assert!(e.on_flush(t(8), IfaceId(1), &flush, &rib()).is_empty());
        assert_eq!(e.telem.drain().count(), 0);
        assert!(e.tree(g()).unwrap().on_tree());
        assert_eq!(e.tree(g()).unwrap().children().len(), 1);

        // From the parent: the flush goes on to every child, the children
        // are cleared, the tree leaves ON_TREE and a fresh join goes out.
        let out = e.on_flush(t(10), IfaceId(0), &flush, &rib());
        assert_eq!(
            out,
            vec![
                Action::control(IfaceId(1), child(), 1, Message::CbtFlushTree(flush)),
                Action::control(
                    IfaceId(0),
                    Addr::ALL_PIM_ROUTERS,
                    1,
                    Message::CbtJoinRequest(JoinRequest {
                        group: g(),
                        core: core(),
                        originator: me(),
                    }),
                ),
            ]
        );
        assert_eq!(
            e.telem.drain().collect::<Vec<_>>(),
            vec![Event::EntryModified {
                group: g(),
                key: EntryKey::Star,
                from: flags::ON_TREE,
                to: 0,
            }]
        );
        let tree = e.tree(g()).unwrap();
        assert!(!tree.on_tree() && tree.parent().is_none() && tree.children().is_empty());
        assert!(e.join_pending(g()));
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
        e.on_quit(IfaceId(1), child(), &Quit { group: g() });
        assert!(e.tree(g()).unwrap().children.is_empty());
    }

    /// One random call into the engine's public `&mut` surface. `a` and
    /// `b` pick among two groups (one cored here, one cored remotely), a
    /// few interfaces and a few neighbours, so calls collide on state.
    fn engine_step(e: &mut CbtEngine, now: SimTime, op: u8, a: u8, b: u8) {
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
            4 => drop(e.on_quit(iface, nbr, &Quit { group })),
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
            8 => drop(e.on_data(iface, remote_src, group)),
            9 => drop(e.on_local_data(IfaceId(2), remote_src, group, b"d", &rib)),
            10 => {
                let reg = Register {
                    group,
                    source: remote_src,
                    payload: vec![a, b],
                };
                drop(e.on_encapsulated(&reg));
            }
            11 if a == 0 => e.reset(),
            11 if a == 1 => e.set_core(group, tree_core),
            _ => drop(e.tick(now, &rib)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// Whatever is called, in whatever order, the deadline read off
        /// the index is the one a walk of every tree finds — and the
        /// index holds exactly the walked deadlines, so nothing a
        /// removed tree, a flushed child or a reset owned is left behind.
        /// Spelled out here because `next_deadline`'s own `debug_assert`
        /// is compiled out of release-profile test runs.
        #[test]
        fn indexed_deadline_is_the_scanned_deadline(
            steps in proptest::prop::collection::vec((0u8..14, 0u8..12, 0u8..6, 0usize..6), 1..100),
        ) {
            let mut e = engine();
            e.set_core(Group::test(5), me());
            let mut now = 0;
            for (op, a, b, dt) in steps {
                now += [0, 1, 4, 15, 40, 150][dt];
                engine_step(&mut e, t(now), op, a, b);
                assert_eq!(e.next_deadline(), e.scan_deadline(), "after op {op} at {now}");
                let mut walked: Vec<SimTime> = e
                    .trees
                    .values()
                    .flat_map(|tree| tree.deadlines())
                    .collect();
                walked.sort();
                assert_eq!(e.timers.as_slice(), walked, "after op {op} at {now}");
            }
        }
    }
}
