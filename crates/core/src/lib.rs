//! Protocol Independent Multicast, sparse mode (PIM-SM) — a from-scratch
//! implementation of the architecture in *An Architecture for Wide-Area
//! Multicast Routing* (Deering, Estrin, Farinacci, Jacobson, Liu, Wei —
//! SIGCOMM 1994).
//!
//! The crate is layered:
//!
//! * [`entry`] — the multicast forwarding state: (\*,G) shared-tree
//!   entries, (S,G) shortest-path-tree entries, and (S,G) negative caches
//!   on the RP tree, with the paper's WC/RP/SPT flag bits;
//! * [`config`] — timer ratios and the shared-tree→SPT switchover policy
//!   (immediate / after-m-packets-in-n / never);
//! * [`engine`] — the sans-IO protocol engine: join/prune processing,
//!   registers, RP reachability and multi-RP failover, LAN prune override
//!   and join suppression, DR election, unicast-change repair, soft-state
//!   timers;
//! * [`router`] — the [`netsim`] adapter that combines the engine with an
//!   interchangeable unicast routing engine (distance-vector, link-state,
//!   or oracle — PIM's protocol independence made concrete) and per-LAN
//!   IGMP queriers;
//! * [`HostNode`] (re-exported from `igmp`) — a simulated end host: IGMP membership plus data
//!   sending/receiving with sequence tracking for loss/duplicate analysis.
//!
//! # Quick start
//!
//! ```
//! use pim::{Engine, PimConfig};
//! use netsim::{IfaceId, SimTime};
//! use unicast::{OracleRib, Rib, RouteEntry};
//! use wire::{Addr, Group};
//!
//! // A two-interface router: iface 0 faces a member host LAN, iface 1
//! // leads toward the RP.
//! let me = Addr::new(10, 0, 0, 1);
//! let rp = Addr::new(10, 0, 7, 1);
//! let mut rib = OracleRib::empty(me);
//! rib.insert(rp, RouteEntry { iface: IfaceId(1), next_hop: rp, metric: 1 });
//!
//! let mut engine = Engine::new(me, 2, PimConfig::default());
//! let group = Group::test(1);
//! engine.set_rp_mapping(group, vec![rp]);
//!
//! // IGMP reports a local member: the DR creates (*,G) and joins toward
//! // the RP (paper §3.1–3.2).
//! let out = engine.local_member_joined(SimTime(0), group, IfaceId(0), &rib);
//! assert!(!out.is_empty()); // the triggered PIM join
//! let star = engine.group_state(group).unwrap().star.as_ref().unwrap();
//! assert_eq!(star.iif, Some(IfaceId(1)));
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod entry;
pub mod router;

pub use config::{PimConfig, SptPolicy};
pub use engine::Engine;
pub use entry::{Entry, GroupState, Oif, OifKind};
pub use igmp::HostNode;
pub use node::Action;
pub use router::PimRouter;

#[cfg(test)]
#[path = "engine_tests.rs"]
mod engine_tests;

#[cfg(test)]
#[path = "engine_tests2.rs"]
mod engine_tests2;
