//! Weighted undirected graphs, random-topology generators, and shortest-path
//! algorithms.
//!
//! This crate is the lowest-level substrate of the PIM reproduction. It is
//! used in two ways:
//!
//! * the network simulator ([`netsim`]) instantiates a simulated internet
//!   from a [`Graph`] (one router per node, one link per edge), and
//! * the Monte-Carlo tree-quality study ([`mctree`], reproducing Figure 2 of
//!   the paper) runs pure graph algorithms over thousands of random
//!   topologies without simulating any protocol.
//!
//! The random-graph generators in [`gen`] match the methodology of the paper
//! (and of Wei & Estrin, USC-CS-93-560): connected random graphs with a
//! target average node degree, with link delays drawn uniformly at random.
//!
//! [`netsim`]: ../netsim/index.html
//! [`mctree`]: ../mctree/index.html

#![warn(missing_docs)]

pub mod algo;
pub mod gen;

use std::fmt;

/// Identifier of a node (router) in a topology.
///
/// Node ids are dense indices `0..n`, which lets algorithms use `Vec`-indexed
/// tables instead of hash maps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an (undirected) edge in a topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Delay/cost of traversing a link, in abstract time units.
pub type Weight = u64;

/// An undirected edge with a traversal weight (propagation delay).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Traversal delay/cost. Symmetric (the paper's study assumes symmetric
    /// links; PIM's RPF check depends on this for correctness of reverse
    /// paths).
    pub weight: Weight,
}

impl Edge {
    /// Given one endpoint, return the opposite endpoint.
    ///
    /// # Panics
    /// Panics if `from` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else {
            debug_assert_eq!(from, self.b, "node is not an endpoint of edge");
            self.a
        }
    }

    /// True if `n` is one of the two endpoints.
    #[inline]
    pub fn touches(&self, n: NodeId) -> bool {
        self.a == n || self.b == n
    }
}

/// A weighted undirected multigraph stored as an adjacency list.
///
/// Parallel edges are permitted (the simulator may model parallel links);
/// self-loops are rejected.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    edges: Vec<Edge>,
    /// `adjacency[v]` = list of incident edge ids.
    adjacency: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// Create a graph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adjacency.len() as u32).map(NodeId)
    }

    /// Iterator over `(EdgeId, &Edge)` for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adjacency.push(Vec::new());
        NodeId(self.adjacency.len() as u32 - 1)
    }

    /// Add an undirected edge between `a` and `b` with the given weight.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: Weight) -> EdgeId {
        assert_ne!(a, b, "self-loops are not allowed");
        assert!(a.index() < self.node_count(), "endpoint out of range");
        assert!(b.index() < self.node_count(), "endpoint out of range");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { a, b, weight });
        self.adjacency[a.index()].push(id);
        self.adjacency[b.index()].push(id);
        id
    }

    /// Incident edge ids of `n`.
    #[inline]
    pub fn incident(&self, n: NodeId) -> &[EdgeId] {
        &self.adjacency[n.index()]
    }

    /// Degree of `n` (number of incident edges, counting parallel edges).
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// Neighbors of `n` (one entry per incident edge; may contain duplicates
    /// if parallel edges exist).
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency[n.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].other(n))
    }

    /// True if an edge directly connects `a` and `b`.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency[a.index()]
            .iter()
            .any(|&e| self.edges[e.index()].other(a) == b)
    }

    /// Average node degree (`2m / n`).
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            return 0.0;
        }
        2.0 * self.edge_count() as f64 / self.node_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::with_nodes(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = Graph::with_nodes(3);
        let e = g.add_edge(NodeId(0), NodeId(1), 5);
        assert_eq!(g.edge(e).weight, 5);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(2)), 0);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        let n = g.add_node();
        assert_eq!(n, NodeId(3));
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn neighbors_and_other() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(0), NodeId(2), 1);
        let nbrs: Vec<_> = g.neighbors(NodeId(0)).collect();
        assert_eq!(nbrs, vec![NodeId(1), NodeId(2)]);
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(NodeId(0)), NodeId(1));
        assert_eq!(e.other(NodeId(1)), NodeId(0));
        assert!(e.touches(NodeId(0)));
        assert!(!e.touches(NodeId(2)));
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(0), NodeId(1), 7);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.average_degree(), 2.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(NodeId(0), NodeId(0), 1);
    }

    #[test]
    fn average_degree() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        assert_eq!(g.average_degree(), 1.5);
    }
}
