//! Shortest-path and connectivity algorithms.
//!
//! One implementation, [`SpKernel`], computes every shortest-path tree over a
//! [`Graph`]: the oracle unicast RIB runs it per router, confined to the
//! graph's core or to one side of a cut vertex that [`Separators`]
//! finds, [`dijkstra`] wraps one run, and [`AllPairs`] keeps every run
//! for the Figure-2 Monte-Carlo study, where a 50-node all-pairs table is
//! computed once per topology and then shared by hundreds of group
//! computations.

use crate::{EdgeId, Graph, NodeId, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// One shortest-path tree — the only form one takes in this workspace —
/// borrowed from the two rows that hold it: of an [`AllPairs`] forest
/// ([`AllPairs::from`]) or of an owned [`ShortestPaths`].
#[derive(Clone, Copy, Debug)]
pub struct SpTree<'a> {
    /// Distance per node, [`UNREACHED`] if none.
    dist: &'a [Weight],
    /// `parent node << 32 | edge` per node ([`SpKernel`]'s packing),
    /// [`NO_PARENT`] at the source and at unreached nodes.
    parent: &'a [u64],
}

impl<'a> SpTree<'a> {
    /// Distance from the source to `v`, if reachable.
    #[inline]
    pub fn dist_to(self, v: NodeId) -> Option<Weight> {
        let d = self.dist[v.index()];
        (d != UNREACHED).then_some(d)
    }

    /// The next node walking back from `v` toward the source, together with
    /// the edge used, or `None` at the source / for unreachable nodes.
    #[inline]
    pub fn parent_of(self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        let p = self.parent[v.index()];
        (p != NO_PARENT).then_some((NodeId((p >> 32) as u32), EdgeId(p as u32)))
    }

    /// `v`'s link to its parent, then its parent's, up to the source.
    fn up(self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + 'a {
        std::iter::successors(self.parent_of(v), move |&(p, _)| self.parent_of(p))
    }

    /// The full path (sequence of nodes, source first) from the source to
    /// `v`, or `None` if unreachable.
    pub fn path_to(self, v: NodeId) -> Option<Vec<NodeId>> {
        self.dist_to(v)?;
        let mut path = vec![v];
        path.extend(self.up(v).map(|(p, _)| p));
        path.reverse();
        Some(path)
    }

    /// The edges of the path from the source to `v`, or `None` if
    /// unreachable.
    pub fn path_edges_to(self, v: NodeId) -> Option<Vec<EdgeId>> {
        self.dist_to(v)?;
        let mut edges: Vec<EdgeId> = self.up(v).map(|(_, e)| e).collect();
        edges.reverse();
        Some(edges)
    }
}

/// What [`dijkstra`] returns: the owned rows of one [`SpTree`].
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    dist: Vec<Weight>,
    parent: Vec<u64>,
}

impl ShortestPaths {
    /// The tree, to be read through [`SpTree`]'s accessors.
    pub fn tree(&self) -> SpTree<'_> {
        SpTree {
            dist: &self.dist,
            parent: &self.parent,
        }
    }
}

/// Largest distance the kernel can settle: its heap key packs
/// `(distance, node)` into one `u64`, 32 bits each.
const MAX_DIST: Weight = u32::MAX as Weight;

/// `dist` value of a node no path has reached (also [`AllPairs`]'s
/// matrix sentinel, so a kernel row copies straight into the matrix).
const UNREACHED: Weight = Weight::MAX;

/// Packed parent of a node that has none.
const NO_PARENT: u64 = u64::MAX;

/// One direction of an edge in the kernel's CSR adjacency.
#[derive(Clone, Copy, Debug)]
struct Arc {
    to: u32,
    edge: u32,
    weight: Weight,
}

/// A node of the shortest-path tree, as [`SpKernel::settled`] yields it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Settled {
    /// The node.
    pub node: NodeId,
    /// Its distance from the source.
    pub dist: u32,
    /// The node before it on the shortest path from the source.
    pub parent: NodeId,
    /// The edge from `parent` to `node`.
    pub edge: EdgeId,
}

/// A shortest path longer than the kernel can key (`u32::MAX`), as
/// [`SpKernel::run_within`] reports it: the nearest node beyond, with its
/// distance. Its `Display` is [`SpKernel::run`]'s panic message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooFar {
    /// The run's source.
    pub source: NodeId,
    /// The nearest node (then the lowest id) whose distance is too long.
    pub node: NodeId,
    /// That distance.
    pub dist: Weight,
}

impl fmt::Display for TooFar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let TooFar { source, node, dist } = self;
        write!(
            f,
            "shortest path from {source} to {node} has metric {dist}, beyond u32::MAX"
        )
    }
}

/// The shortest-path kernel: a graph's adjacency flattened once, and a
/// workspace that every run reuses, so computing one tree per node of a
/// large graph allocates nothing per source.
///
/// [`SpKernel::run`] settles every node the source reaches;
/// [`SpKernel::run_within`] — the same loop — relaxes only from the nodes
/// a predicate admits, so a run can be confined to one side of a cut
/// vertex (the cut vertex itself admitted, its far neighbours settled but
/// not expanded).
///
/// The tree is the one [`dijkstra`] documents: among the *tight*
/// predecessors of `v` (neighbours `p` with `dist[p] + w(p, v) ==
/// dist[v]`) the parent is the one with the smallest `(node id, edge id)`.
/// With weights ≥ 1 every tight predecessor is settled before `v` and
/// the minimum is taken over all of them. A zero-weight edge becomes a
/// parent edge only by being first to reach its far end, never by winning
/// a tie: the result is still a shortest-path tree (every parent is
/// settled before its child, so there is no parent cycle), the choice
/// among equal-cost parents is just narrower.
#[derive(Clone, Debug)]
pub struct SpKernel {
    /// Arcs of node `v` are `arcs[first[v]..first[v + 1]]`, in
    /// [`Graph::incident`] order.
    first: Vec<u32>,
    arcs: Vec<Arc>,
    source: NodeId,
    /// Tentative, then final, distance per node; [`UNREACHED`] if none.
    dist: Vec<Weight>,
    /// `parent node << 32 | edge` per reached node other than the source:
    /// the tie-break order is the integer order.
    parent: Vec<u64>,
    /// `dist << 32 | node` of every settled node, in settle order.
    order: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
}

impl SpKernel {
    /// Flatten `g`'s adjacency. The kernel does not borrow `g`; it must
    /// not be reused after `g` changes.
    pub fn new(g: &Graph) -> Self {
        let n = g.node_count();
        let mut first = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(2 * g.edge_count());
        for v in g.nodes() {
            first.push(arcs.len() as u32);
            arcs.extend(g.incident(v).iter().map(|&e| {
                let edge = g.edge(e);
                Arc {
                    to: edge.other(v).0,
                    edge: e.0,
                    weight: edge.weight,
                }
            }));
        }
        first.push(arcs.len() as u32);
        SpKernel {
            first,
            arcs,
            source: NodeId(0),
            dist: vec![UNREACHED; n],
            parent: vec![0; n],
            order: Vec::with_capacity(n),
            heap: BinaryHeap::new(),
        }
    }

    /// Compute the shortest-path tree rooted at `source`, replacing the
    /// previous run's: [`SpKernel::run_within`] with every node expanded.
    ///
    /// # Panics
    /// Panics, naming the source, the destination and the distance, if a
    /// shortest path is longer than `u32::MAX`.
    pub fn run(&mut self, source: NodeId) {
        if let Err(far) = self.run_within(source, |_| true) {
            panic!("{far}");
        }
    }

    /// Compute the shortest-path tree rooted at `source`, relaxing arcs
    /// only out of the nodes `expand` admits; a node it rejects is still
    /// settled, at the distance its admitted neighbours give it, but not
    /// relaxed from. When the admitted nodes are one side of a cut
    /// vertex plus the cut vertex ([`Separators`]), the tree over them is
    /// exactly [`SpKernel::run`]'s.
    ///
    /// A node the run reaches only by a path longer than `u32::MAX` is
    /// left unsettled and the nearest one is returned as the error (a
    /// confined run may see a detour too long that the full run would
    /// not).
    pub fn run_within(
        &mut self,
        source: NodeId,
        mut expand: impl FnMut(NodeId) -> bool,
    ) -> Result<(), TooFar> {
        self.source = source;
        self.dist.fill(UNREACHED);
        self.order.clear();
        self.heap.clear();
        self.dist[source.index()] = 0;
        self.heap.push(Reverse(u64::from(source.0)));
        let mut too_far = false;
        while let Some(Reverse(key)) = self.heap.pop() {
            let (d, v) = (key >> 32, key as u32 as usize);
            if d > self.dist[v] {
                continue; // superseded by a shorter path pushed later
            }
            self.order.push(key);
            if !expand(NodeId(v as u32)) {
                continue;
            }
            let via = (v as u64) << 32;
            for a in &self.arcs[self.first[v] as usize..self.first[v + 1] as usize] {
                let u = a.to as usize;
                let nd = d.saturating_add(a.weight);
                let old = self.dist[u];
                if nd > MAX_DIST {
                    // Cannot be keyed. Left unsettled; if no shorter path
                    // turns up, reported after the run.
                    self.dist[u] = old.min(nd.min(UNREACHED - 1));
                    too_far = true;
                } else if nd < old {
                    self.dist[u] = nd;
                    self.parent[u] = via | u64::from(a.edge);
                    self.heap.push(Reverse(nd << 32 | u64::from(a.to)));
                } else if nd == old
                    && via | u64::from(a.edge) < self.parent[u]
                    // Across a free edge `u` may already be settled, and
                    // re-parenting it could close a cycle.
                    && a.weight != 0
                {
                    self.parent[u] = via | u64::from(a.edge);
                }
            }
        }
        if too_far {
            // The nearest such node's tentative distance is exact: every
            // node before it on its shortest path was settled.
            let nearest = (0..self.dist.len())
                .filter(|&v| self.dist[v] > MAX_DIST && self.dist[v] != UNREACHED)
                .min_by_key(|&v| self.dist[v]);
            if let Some(v) = nearest {
                return Err(TooFar {
                    source,
                    node: NodeId(v as u32),
                    dist: self.dist[v],
                });
            }
        }
        Ok(())
    }

    /// Distance from the last run's source to every node, indexed by node
    /// id; [`Weight::MAX`] marks unreachable nodes.
    #[inline]
    pub fn dist(&self) -> &[Weight] {
        &self.dist
    }

    /// The last run's tree in settle order (by distance, then node id),
    /// the source itself left out: every node's parent comes before it.
    pub fn settled(&self) -> impl Iterator<Item = Settled> + '_ {
        self.order.iter().skip(1).map(|&key| {
            let v = key as u32;
            let p = self.parent[v as usize];
            Settled {
                node: NodeId(v),
                dist: (key >> 32) as u32,
                parent: NodeId((p >> 32) as u32),
                edge: EdgeId(p as u32),
            }
        })
    }

    /// The last run's parent row as [`SpTree`] reads it: the workspace's
    /// packing, with the slots no run writes marked [`NO_PARENT`].
    fn parents(&self) -> impl Iterator<Item = u64> + '_ {
        let source = self.source.index();
        let row = self.parent.iter().zip(&self.dist).enumerate();
        row.map(move |(v, (&p, &d))| {
            if v == source || d == UNREACHED {
                NO_PARENT
            } else {
                p
            }
        })
    }
}

/// Dijkstra's algorithm from `source`: one [`SpKernel`] run.
///
/// Ties between equal-length paths are broken deterministically by preferring
/// the path whose final hop has the smaller parent node id, then the smaller
/// edge id. Deterministic tie-breaking matters: PIM's RPF checks require that
/// all routers agree on reverse paths. The simulator's oracle RIB and the
/// distance-vector/link-state engines agree on routes only on graphs without
/// equal-cost ties: the oracle takes the first edge of this run's path from
/// the router, so it breaks a tie at the last hop, where DV and LS break it
/// at the first (ROADMAP item 14). So the protocol-independence tests run on
/// tie-free graphs.
///
/// Every generator in this workspace draws weights ≥ 1, and the rule above
/// is exact for them. A zero-weight edge is legal and yields a valid
/// shortest-path tree; only the choice among its equal-cost parents is
/// narrower (see [`SpKernel`]).
///
/// # Panics
/// Panics if a shortest path is longer than `u32::MAX` (see
/// [`SpKernel::run`]).
pub fn dijkstra(g: &Graph, source: NodeId) -> ShortestPaths {
    let mut kernel = SpKernel::new(g);
    kernel.run(source);
    ShortestPaths {
        parent: kernel.parents().collect(),
        dist: kernel.dist,
    }
}

/// All-pairs shortest paths, computed as one [`SpKernel`] run per node
/// and kept as a flat forest: a tree is one row in each of two arrays.
///
/// For the 50-node graphs of the Figure-2 study this costs ~50 kernel
/// runs and is then reused across all 300 groups of the topology, whose
/// hot paths (`spt_max_delay`, the flow counts, the optimal-core search)
/// issue millions of distance and parent queries per topology: a row is
/// contiguous, a query is one array read, and nothing is an `Option`.
#[derive(Clone, Debug)]
pub struct AllPairs {
    n: usize,
    /// Row-major `n × n`; `dist[a * n + b]`, [`Weight::MAX`] = unreachable.
    dist: Vec<Weight>,
    /// Row-major `n × n`, as [`SpTree`] packs a parent.
    parent: Vec<u64>,
    /// Source `s`'s settle order is `order[order_start[s]..order_start[s + 1]]`
    /// (a source that cannot reach every node has a shorter one).
    order: Vec<u32>,
    order_start: Vec<u32>,
}

impl AllPairs {
    /// Compute all-pairs shortest paths for `g`.
    pub fn new(g: &Graph) -> Self {
        let n = g.node_count();
        let mut kernel = SpKernel::new(g);
        let mut ap = AllPairs {
            n,
            dist: Vec::with_capacity(n * n),
            parent: Vec::with_capacity(n * n),
            order: Vec::with_capacity(n * n),
            order_start: vec![0],
        };
        for s in g.nodes() {
            kernel.run(s);
            ap.dist.extend_from_slice(kernel.dist());
            ap.parent.extend(kernel.parents());
            ap.order.extend(kernel.order.iter().map(|&key| key as u32));
            ap.order_start.push(ap.order.len() as u32);
        }
        ap
    }

    /// Distance from `a` to `b`, if connected.
    #[inline]
    pub fn dist(&self, a: NodeId, b: NodeId) -> Option<Weight> {
        let d = self.dist[a.index() * self.n + b.index()];
        (d != Weight::MAX).then_some(d)
    }

    /// The row of distances from `s` to every node, as a contiguous
    /// slice indexed by node id; [`Weight::MAX`] marks unreachable
    /// nodes. This is the hot-path form of [`AllPairs::dist`].
    #[inline]
    pub fn dist_row(&self, s: NodeId) -> &[Weight] {
        &self.dist[s.index() * self.n..(s.index() + 1) * self.n]
    }

    /// The shortest-path tree rooted at `s`.
    #[inline]
    pub fn from(&self, s: NodeId) -> SpTree<'_> {
        SpTree {
            dist: self.dist_row(s),
            parent: &self.parent[s.index() * self.n..(s.index() + 1) * self.n],
        }
    }

    /// The nodes `s` reaches in the order the kernel settled them, `s`
    /// first: every node's parent comes before it, also across zero-weight
    /// edges, where distance order would not say so.
    pub fn settled(&self, s: NodeId) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        let (first, end) = (self.order_start[s.index()], self.order_start[s.index() + 1]);
        let order = &self.order[first as usize..end as usize];
        order.iter().map(|&v| NodeId(v))
    }
}

/// One side of a cut vertex: a component of `G − cut`, held as an
/// interval of [`Separators::order`] (read through [`Separators::nodes`]
/// and [`Separators::holds`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Side {
    /// The cut vertex: every path from the side to the rest of its
    /// component passes through it.
    pub cut: NodeId,
    /// First preorder position of the side, and one past its last.
    start: u32,
    end: u32,
}

impl Side {
    /// Number of nodes on the side (the cut vertex not counted).
    #[inline]
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the side is empty (it never is: it holds the node it was
    /// asked for).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.end == self.start
    }
}

/// Cut vertices and their sides, from one depth-first search with
/// lowlinks, rooted at the lowest id of each component.
///
/// A DFS child `c` of `e` with `low[c] ≥ disc[e]` has no edge from its
/// subtree to any proper ancestor of `e`, so that subtree is a component
/// of `G − e` and a preorder interval. For each node `x`
/// [`Separators::side`] gives the nearest such `(e, subtree)` above it —
/// the smallest side holding `x` on its root path — and every DFS
/// ancestor, `e` included, comes before `x` in [`Separators::order`].
///
/// The search keeps its own stack, so a 10⁴-node chain is as safe as a
/// star.
#[derive(Clone, Debug)]
pub struct Separators {
    /// Every node in DFS preorder, component after component.
    order: Vec<NodeId>,
    /// Position of each node in `order`.
    pos: Vec<u32>,
    /// The nearest side holding each node; `None` at the roots.
    side: Vec<Option<Side>>,
}

impl Separators {
    /// Search `g`.
    pub fn new(g: &Graph) -> Self {
        const NONE: u32 = u32::MAX;
        let n = g.node_count();
        let mut order = Vec::with_capacity(n);
        let mut pos = vec![NONE; n];
        // Lowest preorder position reachable from each subtree by one
        // back edge, its DFS parent, and one past its subtree's end.
        let mut low = vec![0u32; n];
        let mut parent = vec![NONE; n];
        let mut end = vec![0u32; n];
        // (node, index of its next incident edge to look at)
        let mut stack: Vec<(u32, u32)> = Vec::new();
        for root in g.nodes() {
            if pos[root.index()] != NONE {
                continue;
            }
            pos[root.index()] = order.len() as u32;
            low[root.index()] = pos[root.index()];
            order.push(root);
            stack.push((root.0, 0));
            while let Some(top) = stack.last_mut() {
                let v = top.0 as usize;
                if let Some(&e) = g.incident(NodeId(top.0)).get(top.1 as usize) {
                    top.1 += 1;
                    let u = g.edge(e).other(NodeId(v as u32));
                    if pos[u.index()] == NONE {
                        pos[u.index()] = order.len() as u32;
                        low[u.index()] = pos[u.index()];
                        parent[u.index()] = v as u32;
                        order.push(u);
                        stack.push((u.0, 0));
                    } else {
                        // A back edge, or an edge to the DFS parent,
                        // which gives `pos[parent]` and still passes the
                        // `≥` test below.
                        low[v] = low[v].min(pos[u.index()]);
                    }
                } else {
                    stack.pop();
                    end[v] = order.len() as u32;
                    if let Some(&(p, _)) = stack.last() {
                        low[p as usize] = low[p as usize].min(low[v]);
                    }
                }
            }
        }
        // Parents precede children in preorder: a node's own side if its
        // subtree is cut off at its parent, else its parent's.
        let mut side: Vec<Option<Side>> = vec![None; n];
        for &x in &order {
            let p = parent[x.index()];
            if p == NONE {
                continue;
            }
            side[x.index()] = if low[x.index()] >= pos[p as usize] {
                Some(Side {
                    cut: NodeId(p),
                    start: pos[x.index()],
                    end: end[x.index()],
                })
            } else {
                side[p as usize]
            };
        }
        Separators { order, pos, side }
    }

    /// Every node in DFS preorder: a side's cut vertex before the side.
    #[inline]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The smallest side holding `x` on its DFS root path; `None` at the
    /// root of a component.
    #[inline]
    pub fn side(&self, x: NodeId) -> Option<Side> {
        self.side[x.index()]
    }

    /// The nodes of `side`, in preorder.
    #[inline]
    pub fn nodes(&self, side: Side) -> &[NodeId] {
        &self.order[side.start as usize..side.end as usize]
    }

    /// Whether `v` is on `side`.
    #[inline]
    pub fn holds(&self, side: Side, v: NodeId) -> bool {
        (side.start..side.end).contains(&self.pos[v.index()])
    }
}

/// True if every node is reachable from node 0 (and hence, since edges are
/// undirected, the graph is connected). Empty graphs count as connected.
pub fn is_connected(g: &Graph) -> bool {
    let n = g.node_count();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![NodeId(0)];
    seen[0] = true;
    let mut count = 1;
    while let Some(v) = stack.pop() {
        for u in g.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                count += 1;
                stack.push(u);
            }
        }
    }
    count == n
}

/// Breadth-first distances (hop counts) from `source`; `None` = unreachable.
pub fn bfs_hops(g: &Graph, source: NodeId) -> Vec<Option<u32>> {
    let mut hops = vec![None; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    hops[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let h = hops[v.index()].expect("queued nodes have hop counts");
        for u in g.neighbors(v) {
            if hops[u.index()].is_none() {
                hops[u.index()] = Some(h + 1);
                queue.push_back(u);
            }
        }
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fixture:
    ///
    /// ```text
    ///      1 --5-- 3
    ///     /|       |
    ///    1 |2      |1
    ///   /  |       |
    ///  0 --+--4--- 2
    /// ```
    fn diamond() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 2);
        g.add_edge(NodeId(0), NodeId(2), 4);
        g.add_edge(NodeId(1), NodeId(3), 5);
        g.add_edge(NodeId(2), NodeId(3), 1);
        g
    }

    #[test]
    fn dijkstra_distances() {
        let g = diamond();
        let sp = dijkstra(&g, NodeId(0));
        let sp = sp.tree();
        assert_eq!(sp.dist_to(NodeId(0)), Some(0));
        assert_eq!(sp.dist_to(NodeId(1)), Some(1));
        assert_eq!(sp.dist_to(NodeId(2)), Some(3)); // via node 1
        assert_eq!(sp.dist_to(NodeId(3)), Some(4)); // 0-1-2-3
    }

    #[test]
    fn dijkstra_paths() {
        let g = diamond();
        let sp = dijkstra(&g, NodeId(0));
        let sp = sp.tree();
        assert_eq!(
            sp.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(sp.path_to(NodeId(0)).unwrap(), vec![NodeId(0)]);
        let edges = sp.path_edges_to(NodeId(3)).unwrap();
        assert_eq!(edges.len(), 3);
        let total: Weight = edges.iter().map(|&e| g.edge(e).weight).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn dijkstra_unreachable() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1);
        let sp = dijkstra(&g, NodeId(0));
        let sp = sp.tree();
        assert_eq!(sp.dist_to(NodeId(2)), None);
        assert!(sp.path_to(NodeId(2)).is_none());
        assert!(sp.path_edges_to(NodeId(2)).is_none());
        assert_eq!(sp.parent_of(NodeId(2)), None);
    }

    #[test]
    fn dijkstra_deterministic_tie_break() {
        // Two equal-cost paths 0->3: via 1 and via 2. The tie-break must pick
        // the parent with the smaller node id (1).
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(0), NodeId(2), 1);
        g.add_edge(NodeId(1), NodeId(3), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        let sp = dijkstra(&g, NodeId(0));
        assert_eq!(
            sp.tree().path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
    }

    #[test]
    #[should_panic(expected = "shortest path from n0 to n2 has metric 8589934590, beyond u32::MAX")]
    fn path_metric_beyond_u32_is_refused() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), u32::MAX as Weight);
        g.add_edge(NodeId(1), NodeId(2), u32::MAX as Weight);
        dijkstra(&g, NodeId(0));
    }

    #[test]
    fn an_overlong_edge_beside_a_short_path_is_not_refused() {
        // The direct edge is relaxed first and cannot be keyed; the
        // two-hop path found later must win without a refusal, and a
        // distance of exactly u32::MAX is still representable.
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(2), Weight::MAX);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), u32::MAX as Weight - 1);
        let sp = dijkstra(&g, NodeId(0));
        assert_eq!(sp.tree().dist_to(NodeId(2)), Some(u32::MAX as Weight));
        assert_eq!(sp.tree().path_to(NodeId(2)).unwrap().len(), 3);
    }

    #[test]
    fn zero_weight_edges_give_a_tree_not_a_cycle() {
        // 1, 2 and 0 are all at distance 5 over free edges, each a tight
        // predecessor of its neighbour: were settled nodes re-parented on
        // a tie, 0 (reached last, smallest id) would adopt 2 and 2 adopt 0.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(3), NodeId(1), 5);
        g.add_edge(NodeId(3), NodeId(2), 5);
        g.add_edge(NodeId(1), NodeId(2), 0);
        g.add_edge(NodeId(2), NodeId(0), 0);
        let sp = dijkstra(&g, NodeId(3));
        let sp = sp.tree();
        for v in g.nodes() {
            let edges = sp.path_edges_to(v).expect("connected");
            let total: Weight = edges.iter().map(|&e| g.edge(e).weight).sum();
            assert_eq!(Some(total), sp.dist_to(v));
        }
        assert_eq!(sp.dist_to(NodeId(0)), Some(5));
        assert_eq!(sp.path_to(NodeId(1)).unwrap(), [NodeId(3), NodeId(1)]);
    }

    #[test]
    fn separators_walk_a_long_chain_without_recursing() {
        // Rooted at n0, each node cuts off the rest of the chain; a
        // recursive search would overflow the test thread's stack.
        let n = 100_000u32;
        let mut g = Graph::with_nodes(n as usize);
        for v in 1..n {
            g.add_edge(NodeId(v - 1), NodeId(v), 1);
        }
        let seps = Separators::new(&g);
        assert!(seps.order().iter().map(|v| v.0).eq(0..n));
        assert_eq!(seps.side(NodeId(0)), None);
        let last = seps.side(NodeId(n - 1)).expect("not a root");
        assert_eq!(last.cut, NodeId(n - 2));
        assert_eq!(seps.nodes(last), [NodeId(n - 1)]);
        assert_eq!(seps.side(NodeId(1)).map(Side::len), Some(n as usize - 1));
    }

    #[test]
    fn a_run_within_a_side_settles_the_cut_vertex_and_its_neighbours() {
        // The diamond with a pendant n4 on n3: from n4, confined to
        // {n3, n4}, n3 is expanded, so n1 and n2 are settled but n0 is not.
        let mut g = diamond();
        g.add_node();
        g.add_edge(NodeId(3), NodeId(4), 1);
        let seps = Separators::new(&g);
        let side = seps.side(NodeId(4)).expect("not a root");
        assert_eq!((side.cut, seps.nodes(side)), (NodeId(3), &[NodeId(4)][..]));
        let mut kernel = SpKernel::new(&g);
        let within = |v| v == side.cut || seps.holds(side, v);
        assert_eq!(kernel.run_within(NodeId(4), within), Ok(()));
        assert_eq!(kernel.dist(), [Weight::MAX, 6, 2, 1, 0]);
    }

    #[test]
    fn all_pairs_symmetric() {
        let g = diamond();
        let ap = AllPairs::new(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(ap.dist(a, b), ap.dist(b, a), "{a} vs {b}");
            }
        }
        assert_eq!(ap.dist(NodeId(0), NodeId(3)), Some(4));
    }

    #[test]
    fn flat_rows_match_per_source_dijkstra() {
        let mut g = diamond();
        g.add_node(); // isolated node: unreachable from everyone
        let ap = AllPairs::new(&g);
        for s in g.nodes() {
            let row = ap.dist_row(s);
            assert_eq!(row.len(), g.node_count());
            let sp = dijkstra(&g, s);
            for v in g.nodes() {
                match sp.tree().dist_to(v) {
                    Some(d) => assert_eq!(row[v.index()], d),
                    None => assert_eq!(row[v.index()], Weight::MAX),
                }
            }
        }
    }

    #[test]
    fn connectivity() {
        let g = diamond();
        assert!(is_connected(&g));
        let mut g2 = Graph::with_nodes(3);
        g2.add_edge(NodeId(0), NodeId(1), 1);
        assert!(!is_connected(&g2));
        assert!(is_connected(&Graph::with_nodes(0)));
        assert!(is_connected(&Graph::with_nodes(1)));
    }

    #[test]
    fn bfs_hop_counts() {
        let g = diamond();
        let hops = bfs_hops(&g, NodeId(0));
        assert_eq!(hops[0], Some(0));
        assert_eq!(hops[1], Some(1));
        assert_eq!(hops[2], Some(1));
        assert_eq!(hops[3], Some(2));
    }
}
