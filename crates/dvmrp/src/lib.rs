//! A DVMRP-style dense-mode multicast routing protocol — the paper's §1.1
//! baseline.
//!
//! Dense mode is the mirror image of PIM sparse mode: "membership is
//! assumed and multicast data packets are sent until routers without local
//! (or downstream) members send explicit prune messages to remove
//! themselves from the distribution tree" (§3). Concretely:
//!
//! * **Truncated reverse-path broadcast**: the first packet from source S
//!   is flooded out of every interface except the RPF interface toward S —
//!   except leaf subnetworks with no members of G (truncation, §1.1).
//! * **Prune**: a router with no members and no downstream receivers sends
//!   a prune toward S; pruned branches carry a lifetime and "grow back
//!   after a time-out period", at which point flooding resumes (the
//!   periodic re-broadcast the paper criticizes).
//! * **Graft**: when a member appears behind a pruned branch, a graft
//!   re-attaches it immediately. Grafts are acknowledged hop-by-hop (a
//!   lost graft would silence the new member until the next grow-back).
//!
//! Like PIM, this engine takes its RPF information from the [`unicast::Rib`]
//! trait (the original DVMRP embedded its own RIP; ours reuses the
//! workspace's unicast engines, which changes nothing observable about the
//! multicast behavior being measured).
//!
//! The dense-mode overhead the paper measures is visible directly in this
//! implementation: every router in the network ends up holding (S,G) state
//! and processing data packets during each flood epoch, whether or not it
//! leads to members.

#![warn(missing_docs)]

pub mod engine;

pub use engine::{
    DvmrpEngine, ENTRY_TIMEOUT, GRAFT_RETRANSMIT, NEIGHBOR_TIMEOUT, PROBE_INTERVAL, PRUNE_DAMPING,
    PRUNE_LIFETIME,
};
pub use node::Action;

/// A dense-mode (DVMRP-style) router node: the generic
/// [`node::ProtocolNode`] over [`DvmrpEngine`] — the same adapter PIM and
/// CBT use, so the overhead experiments compare protocols, not adapters.
pub type DvmrpRouter = node::ProtocolNode<DvmrpEngine>;
