//! Shared scaffolding for the cross-crate integration tests. Networks
//! come from [`scenario::NetSpec`], the one builder every harness uses.

/// The explorer's four-node diamond, used by several tests:
/// `0 -1- 1 -1- 2 -1- 3` plus a `0 -2- 3` shortcut; RP at node 2.
pub fn diamond() -> graph::Graph {
    scenario::topology("diamond").expect("diamond").graph
}
