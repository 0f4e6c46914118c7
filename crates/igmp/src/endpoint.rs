//! One handle for "the host behind a LAN", whichever node models it.
//!
//! Scenario code joins, leaves, sends from and reads the reception log of
//! a host slot without knowing whether an explicit [`HostNode`] or an
//! aggregate [`PopulationNode`] sits there; this module is the only place
//! that tells them apart.

use crate::{HostNode, PopulationNode, Received};
use netsim::{Ctx, Node, NodeIdx, World};
use wire::{Addr, Group};

/// What a scenario may do to a host slot.
pub trait Endpoint {
    /// The slot's whole membership joins `group`: the one host, or every
    /// member of the population. Needs a live context (the unsolicited
    /// report goes out immediately) — call through [`with_host`].
    fn join(&mut self, ctx: &mut Ctx<'_>, group: Group);

    /// The slot's whole membership leaves `group` (silent, IGMPv1).
    fn leave(&mut self, group: Group);

    /// Send one data packet to `group`; returns the sequence number used.
    fn send_data(&mut self, ctx: &mut Ctx<'_>, group: Group) -> u64;

    /// Data packets received for joined groups, in arrival order.
    fn received(&self) -> &[Received];

    /// Sequence numbers received from `source` for `group`, in arrival
    /// order.
    fn seqs_from(&self, source: Addr, group: Group) -> Vec<u64> {
        self.received()
            .iter()
            .filter(|r| r.source == source && r.group == group)
            .map(|r| r.seq)
            .collect()
    }
}

impl Endpoint for HostNode {
    fn join(&mut self, ctx: &mut Ctx<'_>, group: Group) {
        HostNode::join(self, ctx, group);
    }

    fn leave(&mut self, group: Group) {
        HostNode::leave(self, group);
    }

    fn send_data(&mut self, ctx: &mut Ctx<'_>, group: Group) -> u64 {
        HostNode::send_data(self, ctx, group)
    }

    fn received(&self) -> &[Received] {
        &self.received
    }
}

impl Endpoint for PopulationNode {
    fn join(&mut self, ctx: &mut Ctx<'_>, group: Group) {
        self.join_members(ctx, group, self.population);
    }

    fn leave(&mut self, group: Group) {
        self.leave_members(group, self.population);
    }

    fn send_data(&mut self, ctx: &mut Ctx<'_>, group: Group) -> u64 {
        PopulationNode::send_data(self, ctx, group)
    }

    fn received(&self) -> &[Received] {
        &self.received
    }
}

/// The host at `idx`, for post-run inspection.
///
/// # Panics
/// Panics if `idx` is neither a [`HostNode`] nor a [`PopulationNode`].
pub fn host(world: &World, idx: NodeIdx) -> &dyn Endpoint {
    let any = world.node_dyn(idx).as_any();
    if let Some(h) = any.downcast_ref::<HostNode>() {
        h
    } else {
        any.downcast_ref::<PopulationNode>()
            .expect("node is a host")
    }
}

fn as_endpoint(node: &mut dyn Node) -> &mut dyn Endpoint {
    let any = node.as_any_mut();
    if any.is::<HostNode>() {
        any.downcast_mut::<HostNode>().expect("checked by is")
    } else {
        any.downcast_mut::<PopulationNode>()
            .expect("node is a host")
    }
}

/// Mutable [`host`] outside any dispatch — enough for a silent leave.
pub fn host_mut(world: &mut World, idx: NodeIdx) -> &mut dyn Endpoint {
    as_endpoint(world.node_dyn_mut(idx))
}

/// Run `f` on the host at `idx` with a live context: the
/// [`World::call_node`] dispatch every scripted join and send goes
/// through. `f`'s value (a send's sequence number) is dropped.
pub fn with_host<R>(
    world: &mut World,
    idx: NodeIdx,
    f: impl FnOnce(&mut dyn Endpoint, &mut Ctx<'_>) -> R,
) {
    world.call_node(idx, |n, ctx| {
        f(as_endpoint(n), ctx);
    });
}
