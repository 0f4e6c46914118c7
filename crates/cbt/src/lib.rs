//! A Core Based Trees (CBT) multicast routing protocol — the paper's §1.3
//! comparison (Ballardie, Francis & Crowcroft, SIGCOMM '93).
//!
//! CBT builds **one bidirectional shared tree per group**, rooted at a
//! fixed *core* router. Receivers' DRs send Join-Requests hop-by-hop toward
//! the core; each hop that is already on the tree acknowledges, turning the
//! path into child/parent tree edges. Data from any sender is forwarded
//! along every tree edge (bidirectionally) — there are no source-specific
//! trees, which is exactly the property the paper criticizes:
//!
//! * **traffic concentration** — all senders' packets share the same tree
//!   links (Figure 1(c) and Figure 2(b));
//! * **longer paths** — the core detour can stretch delay up to 2× optimal
//!   (Wall's bound; Figure 2(a)).
//!
//! The engineering contrast the paper draws in footnote 4 is also
//! reproduced: where PIM refreshes soft state, CBT uses **explicit
//! hop-by-hop reliability** — Join-Acks, child→parent Echo keepalives with
//! replies, Quit notifications, and Flush-Tree teardown.
//!
//! Senders whose DR is not on the tree unicast-encapsulate data to the
//! core (reusing the [`wire::pim::Register`] encapsulation format; real
//! CBT used IP-in-IP — the behavior measured is identical).

#![warn(missing_docs)]

pub mod engine;

pub use engine::{CbtEngine, ECHO_INTERVAL, ECHO_TIMEOUT, JOIN_RETRANSMIT};
pub use node::Action;

/// A CBT router node: the generic [`node::ProtocolNode`] — the same
/// adapter PIM and DVMRP use — over [`CbtEngine`].
pub type CbtRouter = node::ProtocolNode<CbtEngine>;
