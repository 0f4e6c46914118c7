//! Delay-aware automatic region partitioning for the parallel core.
//!
//! The conservative window scheme in [`crate::World`] advances all
//! regions in lock-step windows of width `L = min cross-region link
//! delay`, so a good partition (a) has enough regions to keep every
//! worker busy and (b) only cuts *slow* links, making `L` — and thus the
//! window, the unit of useful parallel work — as large as possible.
//!
//! [`auto_partition`] implements a min-cut-by-delay heuristic over those
//! two goals: for every candidate delay threshold it contracts all links
//! faster than the threshold (union-find) and scores the resulting
//! partition by `min(regions, target) * threshold` — regions beyond the
//! thread count add no parallelism, and the threshold is exactly the
//! lookahead the cut would yield. Zero-delay links are never cut (the
//! lock-step scheme needs `L >= 1` to make progress), which also
//! guarantees the returned partition is always safe to run.
//!
//! The result is only a performance choice: the world's determinism
//! contract makes *every* partition produce byte-identical results, so
//! explicit overrides (e.g. [`crate::build::Topology::regions_by`]) can
//! encode domain knowledge without risking correctness.

use crate::Link;

/// Plain union-find with path halving and union by size.
struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
    }

    /// Dense region ids (0..count) in order of first appearance by node
    /// index — the canonical renumbering, independent of union order.
    fn dense(&mut self, n: usize) -> (Vec<u32>, usize) {
        let mut lut = std::collections::HashMap::new();
        let mut next = 0u32;
        let assign = (0..n as u32)
            .map(|i| {
                let root = self.find(i);
                *lut.entry(root).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect();
        (assign, next as usize)
    }
}

/// Assign `nodes` to regions by contracting every link faster than a
/// chosen delay threshold, targeting about one region per thread.
///
/// Candidate thresholds are the distinct link delays (clamped up to 1 —
/// zero-delay links are always contracted so the conservative lookahead
/// stays `>= 1`). Each candidate is scored `min(regions, target) *
/// threshold`; the best score wins, ties preferring the larger
/// threshold (bigger windows beat surplus regions). Returns the
/// all-zeros single-region assignment when no cut yields two regions
/// (e.g. a clique of uniform fast links smaller than any threshold).
pub fn auto_partition(nodes: usize, links: &[Link], target: usize) -> Vec<u32> {
    if nodes == 0 {
        return Vec::new();
    }
    let target = target.max(1);
    let mut cuts: Vec<u64> = links.iter().map(|l| l.delay.ticks().max(1)).collect();
    cuts.push(1);
    cuts.sort_unstable();
    cuts.dedup();
    let mut best: Option<(u64, u64, Vec<u32>)> = None; // (score, cut, assign)
    for &cut in &cuts {
        let mut dsu = Dsu::new(nodes);
        for l in links {
            if l.delay.ticks() < cut {
                let mut ends = l.attachments.iter().map(|(n, _)| n.0 as u32);
                if let Some(first) = ends.next() {
                    for other in ends {
                        dsu.union(first, other);
                    }
                }
            }
        }
        let (assign, count) = dsu.dense(nodes);
        if count < 2 {
            continue;
        }
        let score = count.min(target) as u64 * cut;
        let better = match &best {
            None => true,
            Some((s, c, _)) => score > *s || (score == *s && cut > *c),
        };
        if better {
            best = Some((score, cut, assign));
        }
    }
    best.map(|(_, _, a)| a).unwrap_or_else(|| vec![0; nodes])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use crate::{ChannelModel, IfaceId, LinkCapacity, LinkKind, NodeIdx};

    fn link(delay: u64, ends: &[usize]) -> Link {
        Link {
            kind: if ends.len() == 2 {
                LinkKind::PointToPoint
            } else {
                LinkKind::Lan
            },
            delay: Duration(delay),
            up: true,
            loss: 0.0,
            channel: ChannelModel::CLEAN,
            capacity: LinkCapacity::UNLIMITED,
            attachments: ends
                .iter()
                .enumerate()
                .map(|(i, &n)| (NodeIdx(n), IfaceId(i as u32)))
                .collect(),
        }
    }

    #[test]
    fn cuts_the_slow_link() {
        // n0 -1- n1 -5- n2 -1- n3: the delay-5 link is the natural cut.
        let links = vec![link(1, &[0, 1]), link(5, &[1, 2]), link(1, &[2, 3])];
        let assign = auto_partition(4, &links, 4);
        assert_eq!(assign, vec![0, 0, 1, 1]);
    }

    #[test]
    fn zero_delay_links_are_never_cut() {
        // A zero-delay pair glued to a slow island: the delay-0 link must
        // be contracted whatever else happens (lookahead >= 1).
        let links = vec![link(0, &[0, 1]), link(4, &[1, 2])];
        let assign = auto_partition(3, &links, 8);
        assert_eq!(assign[0], assign[1], "delay-0 link was cut");
        assert_ne!(assign[0], assign[2]);
    }

    #[test]
    fn uniform_delays_split_per_node() {
        // Uniform delay-3 line: cutting everything gives one region per
        // node with lookahead 3 — more regions than target is fine, the
        // score caps at target.
        let links = vec![link(3, &[0, 1]), link(3, &[1, 2]), link(3, &[2, 3])];
        let assign = auto_partition(4, &links, 2);
        assert_eq!(assign, vec![0, 1, 2, 3]);
    }

    #[test]
    fn connected_fast_clique_stays_single_region() {
        // All nodes joined by delay-0 links: no legal cut exists.
        let links = vec![link(0, &[0, 1]), link(0, &[1, 2])];
        let assign = auto_partition(3, &links, 4);
        assert_eq!(assign, vec![0, 0, 0]);
    }

    #[test]
    fn isolated_nodes_form_singletons() {
        let assign = auto_partition(3, &[], 4);
        assert_eq!(assign, vec![0, 1, 2]);
    }

    #[test]
    fn prefers_larger_lookahead_on_tied_region_count() {
        // Two candidate cuts both yield 2 regions for target 2: cutting
        // at 7 (contract the 2s) or at 2 (cut everything — 4 regions,
        // capped to 2 by min). Score 2*7=14 beats 2*2=4.
        let links = vec![link(2, &[0, 1]), link(7, &[1, 2]), link(2, &[2, 3])];
        let assign = auto_partition(4, &links, 2);
        assert_eq!(assign, vec![0, 0, 1, 1]);
    }
}
