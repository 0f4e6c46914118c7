//! The trees the engines build, checked edge for edge against code that
//! shares nothing with them: `mctree`'s walk over `graph`'s shortest-path
//! forest, the machinery behind Figure 2. On a tie-free graph there is
//! exactly one shortest path between any two routers, so there is exactly
//! one right answer — PIM's (\*,G) tree is the RP-rooted tree over the
//! members' routers, its (S,G) tree after switch-over the source-rooted
//! one, CBT's tree the core-rooted one — and the engines' upstream and
//! parent pointers, read as undirected router pairs, must spell it.
//!
//! Oracle routes, a clean network, 24 placements of root, members and
//! source on two 12-router graphs, state sampled all along the run. What
//! holds at every sample is a test; the two comparisons that do *not* hold
//! are kept exactly as strict and marked `#[ignore]` with what they found
//! (`cargo test -p integration-tests --test tree_differential -- --ignored`
//! shows them failing; ROADMAP item 1(a) has the diagnosis). DVMRP and the
//! distance-vector and link-state substrates are not covered yet.

use cbt::CbtRouter;
use graph::algo::AllPairs;
use graph::{EdgeId, Graph, NodeId};
use integration_tests::tie_free_graph;
use mctree::{center_tree, spt_tree_edges};
use netsim::{node_of_addr, NodeIdx, SimTime};
use pim::{Entry, GroupState, PimRouter};
use scenario::{NetSpec, Protocol, ScenarioNet};
use std::collections::BTreeSet;
use wire::{Addr, Group};

fn group() -> Group {
    Group::test(1)
}

/// An undirected link between two routers, smaller id first.
type Link = (NodeId, NodeId);

fn link(a: NodeId, b: NodeId) -> Link {
    (a.min(b), a.max(b))
}

/// The reference's edges as router pairs.
fn links(g: &Graph, edges: &BTreeSet<EdgeId>) -> BTreeSet<Link> {
    edges
        .iter()
        .map(|&e| link(g.edge(e).a, g.edge(e).b))
        .collect()
}

fn router(addr: Addr) -> NodeId {
    node_of_addr(addr).expect("an upstream neighbor is a router")
}

/// Who sits where: the RP (or core), the members' routers, and the
/// router of the one source, which is not a member.
struct Placement {
    seed: u64,
    turn: u32,
    g: Graph,
    ap: AllPairs,
    root: NodeId,
    members: Vec<NodeId>,
    source: NodeId,
}

/// Six distinct routers of each 12-router graph, rotated through all
/// twelve positions.
fn placements() -> impl Iterator<Item = Placement> {
    [2u64, 13].into_iter().flat_map(|seed| {
        (0..12).map(move |turn| {
            let g = tie_free_graph(seed, 12);
            let at = |k: u32| NodeId((turn + k) % 12);
            Placement {
                seed,
                turn,
                ap: AllPairs::new(&g),
                g,
                root: at(0),
                members: vec![at(3), at(5), at(8), at(10)],
                source: at(6),
            }
        })
    })
}

/// The source's slot: one host per member router comes first.
const SOURCE_SLOT: usize = 4;
/// The source's stream: 200 packets, 20 ticks apart.
const STREAM: std::ops::Range<u64> = 1600..5600;

impl Placement {
    /// The network, every member joined by tick 421 and the stream
    /// scheduled.
    fn build(&self, protocol: Protocol) -> ScenarioNet {
        let mut host_routers = self.members.clone();
        host_routers.push(self.source);
        let mut net = NetSpec {
            protocol,
            groups: &[(group(), vec![self.root])],
            host_routers: &host_routers,
            seed: self.seed,
            ..NetSpec::default()
        }
        .build(&self.g);
        for slot in 0..self.members.len() {
            net.join_at(slot, 400 + 7 * slot as u64);
        }
        let packets = (STREAM.end - STREAM.start) / 20;
        net.send_at(SOURCE_SLOT, STREAM.start, packets, 20);
        net
    }

    /// The links of the tree `root`'s shortest paths induce on the members.
    fn shared_tree(&self) -> BTreeSet<Link> {
        let tree = center_tree(&self.g, &self.ap, self.root, &self.members);
        links(&self.g, &tree.edges)
    }

    /// The links of the source's tree over the members, and over the
    /// members and the RP (§3.2: the RP joins a source that registers).
    fn source_trees(&self) -> (BTreeSet<Link>, BTreeSet<Link>) {
        let over = |receivers: &[NodeId]| {
            let edges = spt_tree_edges(&self.g, &self.ap, self.source, receivers);
            links(&self.g, &edges)
        };
        let mut with_rp = self.members.clone();
        with_rp.push(self.root);
        (over(&self.members), over(&with_rp))
    }
}

/// `{n, upstream(n)}` over every router whose group state has the entry
/// `pick` selects. Only `rootless` may hold such an entry without an
/// upstream neighbor.
fn pim_links(
    net: &ScenarioNet,
    rootless: NodeId,
    pick: impl Fn(&GroupState) -> Option<&Entry>,
) -> BTreeSet<Link> {
    let mut out = BTreeSet::new();
    for i in 0..net.router_count {
        let r: &PimRouter = net.world.node(NodeIdx(i));
        let Some(entry) = r.engine().group_state(group()).and_then(&pick) else {
            continue;
        };
        let n = NodeId(i as u32);
        match entry.upstream {
            Some(up) => assert!(out.insert(link(n, router(up)))),
            None => assert_eq!(n, rootless, "router {n} has an entry and no upstream"),
        }
    }
    out
}

/// `(tick, (*,G) links, (S,G) links)`.
type PimSample = (u64, BTreeSet<Link>, BTreeSet<Link>);

/// One PIM run of a placement, sampled every ten ticks from before the
/// stream until long after it. The (S,G) links are those of the entries
/// without the RP bit — the source's own tree, not the negative caches
/// on the shared one.
fn pim_samples(p: &Placement) -> Vec<PimSample> {
    let mut net = p.build(Protocol::Pim);
    let (_, source) = net.hosts[SOURCE_SLOT];
    (1500..7000)
        .step_by(10)
        .map(|t| {
            net.world.run_until(SimTime(t));
            let star = pim_links(&net, p.root, |gs| gs.star.as_ref());
            let sg = pim_links(&net, p.source, |gs| {
                gs.sources.get(&source).filter(|e| !e.rp_bit)
            });
            (t, star, sg)
        })
        .collect()
}

/// The samples from the first one whose (S,G) links reach every member —
/// the switch-over is complete — which must come within 600 ticks of the
/// first packet.
fn switched_over<'a>(p: &Placement, samples: &'a [PimSample]) -> &'a [PimSample] {
    let (members_only, _) = p.source_trees();
    let first = samples
        .iter()
        .position(|(_, _, sg)| sg.is_superset(&members_only))
        .expect("the members never all joined the source's tree");
    assert!(samples[first].0 <= STREAM.start + 600);
    &samples[first..]
}

#[test]
fn pim_shared_tree_is_the_rp_rooted_tree() {
    for p in placements() {
        let want = p.shared_tree();
        for (t, star, _) in pim_samples(&p) {
            assert_eq!(
                star, want,
                "seed {}, turn {}, tick {t}: (*,G) upstream links",
                p.seed, p.turn
            );
        }
    }
}

/// Once the members have switched over, their branches of the source's
/// tree are the reference's and are never disturbed; the only links that
/// come and go are the RP's own branch. Where the RP is a transit router
/// of the members' tree the two references coincide and the comparison
/// is exact at every sample; and once the stream has ended and the RP's
/// interest has lapsed, what the members' joins keep alive is exactly
/// the source-rooted tree over the members.
#[test]
fn pim_source_tree_is_the_source_rooted_tree_over_the_members() {
    for p in placements() {
        let (members_only, with_rp) = p.source_trees();
        let samples = pim_samples(&p);
        for (t, _, sg) in switched_over(&p, &samples) {
            let at = format!("seed {}, turn {}, tick {t}", p.seed, p.turn);
            assert!(sg.is_superset(&members_only), "{at}: a member's branch");
            assert!(sg.is_subset(&with_rp), "{at}: a link off the source's tree");
            if *t >= STREAM.end + 500 {
                assert_eq!(*sg, members_only, "{at}: (S,G) links after the stream");
            }
        }
    }
}

/// The comparison as ROADMAP 1(a) words it, with the RP a receiver of
/// every source that registers with it: fails. On the 18 placements of
/// 24 where the RP is not already a transit router of the members' tree,
/// its branch flaps with a period of 240 ticks for as long as the source
/// sends — whole for about 200, gone or cut short for 10 to 50: every
/// member's router prunes the source off the shared tree, the RP's (S,G)
/// oif list goes null and it leaves the source's tree, and a later
/// periodic Register (`register_probe_interval`) has it create the entry
/// and join again.
#[test]
#[ignore = "fails: the RP's branch of a source's tree flaps while the source sends (ROADMAP 1(a))"]
fn pim_rp_stays_on_the_source_tree_while_the_source_sends() {
    for p in placements() {
        let (_, with_rp) = p.source_trees();
        let samples = pim_samples(&p);
        for (t, _, sg) in switched_over(&p, &samples) {
            if *t < STREAM.end {
                assert_eq!(
                    *sg, with_rp,
                    "seed {}, turn {}, tick {t}: (S,G) upstream links",
                    p.seed, p.turn
                );
            }
        }
    }
}

/// One CBT run of a placement: `(tick, {n, parent(n)} links)` every 50
/// ticks. Only the core may be on the tree without a parent.
fn cbt_samples(p: &Placement) -> Vec<(u64, BTreeSet<Link>)> {
    let mut net = p.build(Protocol::Cbt);
    (500..4000)
        .step_by(50)
        .map(|t| {
            net.world.run_until(SimTime(t));
            let mut got = BTreeSet::new();
            for i in 0..net.router_count {
                let r: &CbtRouter = net.world.node(NodeIdx(i));
                let n = NodeId(i as u32);
                let Some(tree) = r.engine().tree(group()).filter(|tree| tree.on_tree()) else {
                    continue;
                };
                match tree.parent() {
                    Some((_, up)) => assert!(got.insert(link(n, router(up)))),
                    None => assert_eq!(n, p.root, "router {n} is on the tree, parentless"),
                }
            }
            (t, got)
        })
        .collect()
}

/// CBT never holds a link that is not on the core-rooted tree, and on
/// every placement it has built the whole of it at some sample. (An
/// off-tree sender tunnels to the core and moves no branch.)
#[test]
fn cbt_parent_pointers_are_links_of_the_core_rooted_tree() {
    for p in placements() {
        let want = p.shared_tree();
        let samples = cbt_samples(&p);
        for (t, got) in &samples {
            assert!(
                got.is_subset(&want),
                "seed {}, turn {}, tick {t}: {got:?} is not within {want:?}",
                p.seed,
                p.turn
            );
        }
        assert!(
            samples.iter().any(|(_, got)| *got == want),
            "seed {}, turn {}: the tree was never complete",
            p.seed,
            p.turn
        );
    }
}

/// The comparison as ROADMAP 1(a) words it — once built, the tree *is*
/// the core-rooted tree: fails on 2 placements of 24 (seed 2 turn 1,
/// seed 13 turn 8), whose branches are torn down and re-joined for as
/// long as the run lasts; the other 22 do the same for up to 1500 ticks
/// and then hold. The prime delays of a tie-free graph are long next to
/// CBT's fixed timers: a child's first Echo leaves up to `echo_interval`
/// after the Join-Ack and takes a round trip to be answered, so over a
/// link of more than 35 ticks (2·35 + 30 = `echo_timeout`) parent and
/// child give each other up unless the engine-wide echo tick happens to
/// fall early enough.
#[test]
#[ignore = "fails: CBT branches over long links never settle on 2 of 24 placements (ROADMAP 1(a))"]
fn cbt_tree_is_the_core_rooted_tree() {
    for p in placements() {
        let want = p.shared_tree();
        for (t, got) in cbt_samples(&p) {
            if t >= 3000 {
                assert_eq!(
                    got, want,
                    "seed {}, turn {}, tick {t}: CBT parent links",
                    p.seed, p.turn
                );
            }
        }
    }
}
