//! A deterministic discrete-event network simulator.
//!
//! This is the substrate on which the PIM reproduction runs its protocol
//! experiments — the stand-in for the authors' simulator and for the MBONE
//! testbed (see DESIGN.md, "Substitutions"). It provides:
//!
//! * simulated time in abstract ticks ([`SimTime`], [`Duration`]);
//! * point-to-point links and multi-access LANs with per-link propagation
//!   delay, administrative up/down, and independent per-receiver loss
//!   injection ([`World::add_p2p`], [`World::add_lan`]);
//! * a [`Node`] trait implemented by protocol router/host adapters; nodes
//!   receive packets and timer callbacks and emit packets through [`Ctx`];
//! * deterministic execution: seeded per-node RNG streams and a
//!   partition-independent canonical event order, so results are
//!   byte-identical for any region assignment and thread count
//!   ([`World::parallelize`], [`partition::auto_partition`]);
//! * overhead [`Counters`] for the paper's efficiency metrics (control
//!   packets, data packets, bytes per link; local member deliveries);
//! * a [`build::Topology`] planner that instantiates a world from a
//!   [`graph::Graph`] with canonical addressing.

#![warn(missing_docs)]

pub mod build;
pub mod counters;
mod ctx;
mod fixture;
mod ids;
pub mod iface_set;
mod link;
pub mod partition;
pub mod profile;
mod queue;
mod region;
pub mod time;
pub mod trace;
pub mod world;

pub use build::{host_addr, node_of_addr, router_addr, Topology};
pub use counters::{Counters, CtrlProto, LinkStats, PacketClass};
pub use ctx::{Ctx, Node};
pub use ids::{IfaceId, LinkId, NodeIdx};
pub use iface_set::{IfaceSet, TooWide};
pub use link::{ChannelModel, Link, LinkCapacity, LinkKind};
pub use profile::{RegionProfile, SimProfile};
pub use queue::TimerId;
pub use region::CaptureRecord;
pub use time::{earliest, Deadlines, Duration, SimTime};
pub use world::World;
