//! Causal tracing: folding the provenance-linked event stream into a
//! queryable causal DAG.
//!
//! The paper's hardest claims (soft-state recovery after router loss,
//! RP failover, SPT switchover) are claims about *chains* of cause and
//! effect. The plain event stream records what happened; this module
//! records *why*: every dispatch the simulator runs arrives here as a
//! [`Sink::link`] edge (`dispatch` ← `the dispatch that created the
//! event it handled`), and every emitted event arrives via
//! [`Sink::event_caused`] tagged with the dispatch it was emitted from.
//!
//! Three queries come out of the DAG:
//!
//! * [`CausalIndex::backward_slice`] — the minimal ancestry chain
//!   explaining one dispatch (each dispatch has exactly one cause, so
//!   the slice is a chain, not a cone) — `trace why` renders this;
//! * [`CausalIndex::forward_slice`] — the blast radius of a dispatch,
//!   e.g. every consequence of one injected fault;
//! * [`CausalIndex::critical_path`] — the hop/timer chain that carried
//!   a member's first data delivery, with per-hop latency attribution.
//!
//! Everything here is keyed by the partition-independent [`EventId`],
//! so every rendered slice is byte-identical at any `--threads` — a
//! property CI asserts on the committed regression corpus.

use std::collections::BTreeMap;

use crate::{Event, EventId, Provenance, Sink, Ticks, FNV_OFFSET};

/// One event emitted during a dispatch, as stored in the index: the
/// compact event itself. Text (`rec.ev.to_string()`) and the kind tag
/// (`rec.ev.kind()`) are derived by whoever reads the record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Node that emitted the event.
    pub node: u32,
    /// Sim time of emission.
    pub at: Ticks,
    /// The event.
    pub ev: Event,
}

impl Record {
    /// Group address bits, for membership/delivery events.
    pub fn group(&self) -> Option<u32> {
        match &self.ev {
            Event::DataDelivered { group, .. }
            | Event::LocalMemberJoined { group }
            | Event::LocalMemberLeft { group } => Some(group.addr().0),
            _ => None,
        }
    }
}

/// One dispatch in the causal DAG, as [`CausalIndex::dispatch`] shows
/// it: its single cause and the events it emitted (possibly none —
/// data-plane forwards are silent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dispatch<'a> {
    /// The dispatch that created the event this one handled; `None`
    /// for roots (`on_start`, scripted faults).
    pub cause: Option<EventId>,
    /// Events emitted while handling, in emission order.
    pub records: &'a [Record],
}

/// A dispatch as the index stores it: its cause and where its records
/// sit in the arena — `len` records from `start` in block `block`.
#[derive(Clone, Copy, Debug)]
struct Run {
    cause: Option<EventId>,
    block: usize,
    start: usize,
    len: usize,
}

/// Records per arena block: 12 KiB of records. Every case of a campaign
/// builds a fresh index, and blocks this small come back from the
/// allocator's free lists case after case; one doubling `Vec` would copy
/// itself at every doubling into freshly faulted pages, every case.
const BLOCK: usize = 256;

/// A [`Sink`] folding the provenance-linked event stream into a causal
/// DAG over dispatches. See the module docs for the three queries.
///
/// Like every sink, the index observes and never participates: it is
/// fed from the same deterministic flush the JSONL stream is, so its
/// contents — and every rendered slice — are partition-independent.
///
/// Dispatches are kept sorted by id, each with its cause and a
/// contiguous run of one record arena; the parent→children direction is
/// derived from their causes when a forward query asks for it.
#[derive(Clone, Debug, Default)]
pub struct CausalIndex {
    /// Sorted by id. The simulator delivers ids in ascending order, so
    /// inserts are appends; out-of-order delivery through the public
    /// [`Sink`] API is still placed correctly.
    dispatches: Vec<(EventId, Run)>,
    /// The record arena: blocks of [`BLOCK`] records, each dispatch's
    /// records one contiguous run inside one block. The simulator's
    /// events arrive grouped by dispatch in id order, so a record extends
    /// the arena's last run. One that arrives for any other run (only
    /// out-of-order use of the public [`Sink`] API does that), or for a
    /// run at the end of a full block, moves its run to the end first,
    /// leaving the old copy unreferenced.
    blocks: Vec<Vec<Record>>,
    /// The slot [`CausalIndex::slot`] last returned, where it looks first.
    finger: usize,
}

/// Slots from the finger on that [`CausalIndex::slot`] looks at before it
/// searches: enough to step over a run of silent dispatches, few enough
/// that a miss costs less than the search it failed to save. The explorer
/// campaign reads the same from 2 to 32 (EXPERIMENTS.md PERF "PR 21").
const FINGER_REACH: usize = 8;

impl CausalIndex {
    /// An empty index.
    pub fn new() -> CausalIndex {
        CausalIndex::default()
    }

    /// Number of dispatches observed.
    pub fn len(&self) -> usize {
        self.dispatches.len()
    }

    /// Whether no dispatch has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.dispatches.is_empty()
    }

    /// The dispatch record for `id`, if observed.
    pub fn dispatch(&self, id: EventId) -> Option<Dispatch<'_>> {
        self.position(id)
            .ok()
            .map(|i| self.view(&self.dispatches[i].1))
    }

    fn view(&self, run: &Run) -> Dispatch<'_> {
        Dispatch {
            cause: run.cause,
            records: self
                .blocks
                .get(run.block)
                .map_or(&[], |b| &b[run.start..run.start + run.len]),
        }
    }

    /// Every dispatch in canonical order.
    fn dispatches(&self) -> impl DoubleEndedIterator<Item = (EventId, Dispatch<'_>)> {
        self.dispatches
            .iter()
            .map(|(id, run)| (*id, self.view(run)))
    }

    /// Where `id` is (`Ok`) or would be inserted (`Err`).
    fn position(&self, id: EventId) -> Result<usize, usize> {
        self.dispatches.binary_search_by_key(&id, |(d, _)| *d)
    }

    /// The slot of dispatch `id`, created with `cause` if unseen.
    ///
    /// The simulator hands over a window's links, then its events, both in
    /// id order: a link is an append, and an event's dispatch sits at the
    /// slot the previous event used or a few (silent) dispatches after it
    /// (the window's first event: at or before the last link). So look at
    /// the slot last returned, and on from it, before searching. Any other
    /// arrival order — a dispatch of an earlier window, a window in
    /// reverse — falls through to the search and lands where it would have.
    fn slot(&mut self, id: EventId, cause: Option<EventId>) -> usize {
        let found = match self.dispatches.last() {
            Some((last, _)) if *last >= id => {
                let near = self.dispatches[self.finger..]
                    .iter()
                    .take(FINGER_REACH)
                    .position(|(d, _)| *d >= id)
                    .map(|off| self.finger + off);
                match near {
                    Some(i) if self.dispatches[i].0 == id => Ok(i),
                    // Walked past something smaller: `id` belongs here.
                    Some(i) if i > self.finger => Err(i),
                    // `id` is before the finger, or out of its reach.
                    _ => self.position(id),
                }
            }
            _ => Err(self.dispatches.len()),
        };
        let i = found.unwrap_or_else(|i| {
            let run = Run {
                cause,
                block: 0,
                start: 0,
                len: 0,
            };
            self.dispatches.insert(i, (id, run));
            i
        });
        self.finger = i;
        i
    }

    /// The last `cap` events `node` emitted, oldest first, each line
    /// `t<ticks> <event>`: what a [`crate::FlightRecorder`] of capacity
    /// `cap` attached beside the index dumps for `node` when the stream
    /// arrives in canonical order, as the simulator delivers it.
    pub fn tail(&self, node: u32, cap: usize) -> Vec<String> {
        let mut tail: Vec<&Record> = self
            .dispatches()
            .rev()
            .flat_map(|(_, d)| d.records.iter().rev())
            .filter(|r| r.node == node)
            .take(cap)
            .collect();
        tail.reverse();
        tail.iter().map(|r| format!("t{} {}", r.at, r.ev)).collect()
    }

    // -- anchors ------------------------------------------------------

    /// The last dispatch (canonical order) that emitted an entry-flag
    /// transition (`entry_created` / `entry_modified` / `entry_expired`),
    /// optionally restricted to one node. The explorer anchors oracle
    /// post-mortems here: the final state transition is the event the
    /// violated invariant is *about*.
    pub fn last_flag_transition(&self, node: Option<u32>) -> Option<EventId> {
        self.last_emitting(|r| {
            matches!(
                r.ev,
                Event::EntryCreated { .. }
                    | Event::EntryModified { .. }
                    | Event::EntryExpired { .. }
            ) && node.is_none_or(|n| r.node == n)
        })
    }

    /// The last dispatch that emitted any event from `node`.
    pub fn last_event_on(&self, node: u32) -> Option<EventId> {
        self.last_emitting(|r| r.node == node)
    }

    /// The last dispatch (canonical order) with a record matching `pred`.
    fn last_emitting(&self, pred: impl Fn(&Record) -> bool) -> Option<EventId> {
        self.dispatches()
            .rev()
            .find(|(_, d)| d.records.iter().any(&pred))
            .map(|(id, _)| id)
    }

    /// Root dispatches (no cause) that emitted a `fault` mark — the
    /// scripted fault injections, in canonical order. Forward-slicing
    /// one of these yields the fault's blast radius.
    pub fn fault_roots(&self) -> Vec<EventId> {
        self.dispatches()
            .filter(|(_, d)| {
                d.cause.is_none()
                    && d.records
                        .iter()
                        .any(|r| matches!(r.ev, Event::Fault { .. }))
            })
            .map(|(id, _)| id)
            .collect()
    }

    // -- slicing ------------------------------------------------------

    /// The ancestry chain of `id`, root first. Each dispatch has
    /// exactly one cause, so this is the *minimal* explanation: no
    /// unrelated concurrent events appear. Empty if `id` was never
    /// observed.
    pub fn backward_chain(&self, id: EventId) -> Vec<EventId> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let Some(d) = self.dispatch(c) else { break };
            if chain.len() > self.dispatches.len() {
                break;
            }
            chain.push(c);
            cur = d.cause;
        }
        chain.reverse();
        chain
    }

    /// The rendered backward slice of `id`, root first: one header per
    /// hop (`#depth [id] who`) followed by the events that hop emitted,
    /// indented. Byte-stable: asserted identical across `--threads` and
    /// partitionings.
    pub fn backward_slice(&self, id: EventId) -> Vec<String> {
        let chain = self.backward_chain(id);
        let mut out = Vec::new();
        for (i, hop) in chain.iter().enumerate() {
            out.extend(self.render_hop(i, *hop, ""));
        }
        out
    }

    /// Every dispatch reachable from `id` (including `id`), in BFS
    /// order with siblings in canonical order — the blast radius of a
    /// fault injection. The children lists are derived here, from each
    /// dispatch's `cause`: the one stored direction of an edge is the
    /// only source of truth, whatever order links and events arrived in.
    pub fn forward_slice(&self, id: EventId) -> Vec<EventId> {
        if self.dispatch(id).is_none() {
            return Vec::new();
        }
        let mut children: BTreeMap<EventId, Vec<EventId>> = BTreeMap::new();
        for (child, run) in &self.dispatches {
            if let Some(parent) = run.cause {
                children.entry(parent).or_default().push(*child);
            }
        }
        let mut out = vec![id];
        let mut i = 0;
        while i < out.len() {
            if let Some(c) = children.get(&out[i]) {
                out.extend_from_slice(c);
            }
            i += 1;
        }
        out
    }

    /// The attributed path that carried `member`'s first data delivery
    /// for `group` (group address bits): the backward slice of the
    /// delivering dispatch, annotated with per-hop sim-time deltas and
    /// the dominant hop — the MetricsAggregator's join-latency
    /// histogram, turned into a path. Empty when the member never
    /// joined or never received data.
    pub fn critical_path(&self, group: u32, member: u32) -> Vec<String> {
        let mut join_at = None;
        let mut delivery = None;
        'outer: for (id, d) in self.dispatches() {
            for r in d.records {
                if r.node != member || r.group() != Some(group) {
                    continue;
                }
                if matches!(r.ev, Event::LocalMemberJoined { .. }) && join_at.is_none() {
                    join_at = Some(r.at);
                }
                if matches!(r.ev, Event::DataDelivered { .. }) {
                    if let Some(j) = join_at {
                        delivery = Some((id, r.at, j));
                        break 'outer;
                    }
                }
            }
        }
        let Some((id, at, join)) = delivery else {
            return Vec::new();
        };
        let chain = self.backward_chain(id);
        let mut out = vec![format!(
            "join at t{join}, first delivery at t{at} (latency {})",
            at - join
        )];
        // Per-hop latency: the sim-time this hop waited on its cause
        // (propagation delay or timer sleep). The dominant hop is where
        // the latency budget went.
        let deltas: Vec<Ticks> = chain
            .iter()
            .enumerate()
            .map(|(i, hop)| {
                if i == 0 {
                    0
                } else {
                    hop.time - chain[i - 1].time
                }
            })
            .collect();
        let dominant = deltas
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        for (i, hop) in chain.iter().enumerate() {
            let mark = if i == dominant && deltas[i] > 0 {
                "  <- dominant"
            } else {
                ""
            };
            out.extend(self.render_hop(i, *hop, &format!(" (+{}){mark}", deltas[i])));
        }
        out
    }

    fn render_hop(&self, depth: usize, id: EventId, suffix: &str) -> Vec<String> {
        let who = match id.epoch {
            0 => format!("n{} on-start", id.origin.saturating_sub(1)),
            1 => format!("script step {}", id.seq),
            _ => format!("n{}", id.origin.saturating_sub(1)),
        };
        let mut out = vec![format!("#{depth} [{}] {who}{suffix}", id.render())];
        match self.dispatch(id) {
            Some(d) if !d.records.is_empty() => {
                for r in d.records {
                    out.push(format!("    t{} r{} {}", r.at, r.node, r.ev));
                }
            }
            _ => out.push("    (silent)".into()),
        }
        out
    }

    // -- integrity ----------------------------------------------------

    /// Check the DAG's structural invariants: every cause was itself
    /// observed as a dispatch, and every cause strictly precedes its
    /// child in canonical-key order (which also proves acyclicity —
    /// `<` is well-founded). Returns the first violation found.
    pub fn check(&self) -> Result<(), String> {
        for (id, run) in &self.dispatches {
            if let Some(c) = run.cause {
                if self.dispatch(c).is_none() {
                    return Err(format!(
                        "dispatch {} has unobserved cause {}",
                        id.render(),
                        c.render()
                    ));
                }
                if c >= *id {
                    return Err(format!(
                        "cause {} does not precede child {}",
                        c.render(),
                        id.render()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Stable FNV-1a digest over the full canonical dump — the
    /// causal-index fingerprint CI diffs at `--threads 1` vs `4`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for line in self.dump() {
            h = crate::fnv1a(line.as_bytes(), h);
            h = crate::fnv1a(b"\n", h);
        }
        h
    }

    /// Canonical text dump: one line per dispatch, in canonical order,
    /// with its cause and emitted-event count.
    pub fn dump(&self) -> Vec<String> {
        self.dispatches()
            .map(|(id, d)| {
                format!(
                    "{} cause={} records={}",
                    id.render(),
                    d.cause.map(|c| c.render()).unwrap_or_else(|| "-".into()),
                    d.records.len()
                )
            })
            .collect()
    }
}

impl Sink for CausalIndex {
    /// Provenance-blind delivery carries no dispatch identity; the
    /// index only learns from [`Sink::event_caused`] and [`Sink::link`].
    fn event(&mut self, _node: u32, _at: Ticks, _ev: &Event) {}

    fn event_caused(&mut self, node: u32, at: Ticks, ev: &Event, prov: Provenance) {
        let i = self.slot(prov.id, prov.cause);
        let run = &mut self.dispatches[i].1;
        let blocks = &mut self.blocks;
        let last = blocks.len().wrapping_sub(1);
        let extends = run.len > 0
            && run.block == last
            && run.start + run.len == blocks[last].len()
            && blocks[last].len() < blocks[last].capacity();
        if !extends {
            move_to_end(blocks, run);
        }
        blocks[run.block].push(Record {
            node,
            at,
            ev: ev.clone(),
        });
        run.len += 1;
    }

    /// The first edge seen for `id` wins, whether it arrived as a link
    /// or as an event's provenance.
    fn link(&mut self, id: EventId, cause: Option<EventId>) {
        self.slot(id, cause);
    }
}

/// Put `run` at the end of the last block, with room after it for one
/// more record: copy its records there, into a new block if the last one
/// is too full.
fn move_to_end(blocks: &mut Vec<Vec<Record>>, run: &mut Run) {
    if blocks
        .last()
        .is_none_or(|b| b.capacity() - b.len() <= run.len)
    {
        blocks.push(Vec::with_capacity(BLOCK.max(run.len + 1)));
    }
    let last = blocks.len() - 1;
    let start = blocks[last].len();
    if run.len > 0 {
        let old = run.start..run.start + run.len;
        if run.block == last {
            blocks[last].extend_from_within(old);
        } else {
            let (head, tail) = blocks.split_at_mut(last);
            tail[0].extend_from_slice(&head[run.block][old]);
        }
    }
    run.block = last;
    run.start = start;
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{Addr, Group};

    fn id(time: Ticks, epoch: u8, origin: u32, seq: u64) -> EventId {
        EventId {
            time,
            epoch,
            origin,
            seq,
        }
    }

    /// start(n0) -> deliver(n1) -> deliver(n2), plus a scripted fault
    /// root with one child.
    fn small_dag() -> CausalIndex {
        let g = Group::test(7);
        let mut ix = CausalIndex::new();
        let root = id(0, 0, 1, 0);
        let hop1 = id(5, 2, 2, 0);
        let hop2 = id(9, 2, 3, 0);
        let fault = id(20, 1, 0, 3);
        let after = id(25, 2, 2, 4);
        ix.link(root, None);
        ix.link(hop1, Some(root));
        ix.link(hop2, Some(hop1));
        ix.link(fault, None);
        ix.link(after, Some(fault));
        ix.event_caused(
            1,
            5,
            &Event::LocalMemberJoined { group: g },
            Provenance {
                id: hop1,
                cause: Some(root),
            },
        );
        ix.event_caused(
            1,
            9,
            &Event::DataDelivered {
                group: g,
                source: Addr::new(10, 0, 0, 1),
            },
            Provenance {
                id: hop2,
                cause: Some(hop1),
            },
        );
        ix.event_caused(
            0,
            20,
            &Event::Fault {
                desc: "crash r2".into(),
            },
            Provenance {
                id: fault,
                cause: None,
            },
        );
        ix
    }

    #[test]
    fn backward_slice_walks_to_root() {
        let ix = small_dag();
        let slice = ix.backward_slice(id(9, 2, 3, 0));
        assert_eq!(
            slice,
            vec![
                "#0 [t0/e0/o1#0] n0 on-start",
                "    (silent)",
                "#1 [t5/e2/o2#0] n1",
                "    t5 r1 member-joined group=239.1.0.7",
                "#2 [t9/e2/o3#0] n2",
                "    t9 r1 data-delivered group=239.1.0.7 source=10.0.0.1",
            ]
        );
        assert!(ix.backward_slice(id(99, 2, 9, 9)).is_empty());
    }

    #[test]
    fn forward_slice_is_the_blast_radius() {
        let ix = small_dag();
        let fwd = ix.forward_slice(id(0, 0, 1, 0));
        assert_eq!(fwd, vec![id(0, 0, 1, 0), id(5, 2, 2, 0), id(9, 2, 3, 0)]);
        let roots = ix.fault_roots();
        assert_eq!(roots, vec![id(20, 1, 0, 3)]);
        assert_eq!(ix.forward_slice(roots[0]).len(), 2);
    }

    #[test]
    fn an_event_seen_before_its_link_still_joins_the_blast_radius() {
        // Legal through the public `Sink` API: a dispatch first shows up
        // as an event's provenance, its link arrives afterwards (or
        // never). The edge must be visible in both directions.
        let root = id(0, 0, 1, 0);
        let early = id(5, 2, 2, 0);
        let late = id(6, 2, 3, 0);
        let fire = |ix: &mut CausalIndex| {
            let prov = Provenance {
                id: early,
                cause: Some(root),
            };
            ix.event_caused(1, 5, &Event::TimerFired { token: 1 }, prov);
        };
        let mut ix = CausalIndex::new();
        ix.link(root, None);
        fire(&mut ix);
        ix.link(late, Some(early));
        ix.link(early, Some(root));
        assert_eq!(ix.forward_slice(root), vec![root, early, late]);
        assert_eq!(ix.backward_chain(late), vec![root, early, late]);
        ix.check().expect("well-formed");
        assert_eq!(ix.len(), 3);

        // Arrival order does not show in what a reader sees.
        let mut in_order = CausalIndex::new();
        in_order.link(root, None);
        in_order.link(early, Some(root));
        in_order.link(late, Some(early));
        fire(&mut in_order);
        assert_eq!(ix.dump(), in_order.dump());
    }

    /// Runs longer than a block, runs that reach a block's end, and a
    /// record for a run blocks back: every dispatch still reads its own
    /// records, in order.
    #[test]
    fn runs_cross_blocks_whole() {
        let fired = |token| Event::TimerFired { token };
        let long = id(1, 2, 1, 0);
        let short = |seq| id(2, 2, 1, seq);
        let mut ix = CausalIndex::new();
        for token in 0..(BLOCK as u64 * 2 + 7) {
            ix.event_caused(
                0,
                1,
                &fired(token),
                Provenance {
                    id: long,
                    cause: None,
                },
            );
        }
        for seq in 1..=BLOCK as u64 + 9 {
            for token in 0..3 {
                let prov = Provenance {
                    id: short(seq),
                    cause: Some(long),
                };
                ix.event_caused(1, 2, &fired(seq * 10 + token), prov);
            }
        }
        let late = Provenance {
            id: long,
            cause: None,
        };
        ix.event_caused(0, 3, &fired(BLOCK as u64 * 2 + 7), late);

        let d = ix.dispatch(long).expect("observed");
        assert_eq!(d.records.len(), BLOCK * 2 + 8);
        assert!(d.records.iter().zip(0..).all(|(r, t)| r.ev == fired(t)));
        for seq in 1..=BLOCK as u64 + 9 {
            let d = ix.dispatch(short(seq)).expect("observed");
            let tokens: Vec<Event> = d.records.iter().map(|r| r.ev.clone()).collect();
            assert_eq!(
                tokens,
                (0..3).map(|t| fired(seq * 10 + t)).collect::<Vec<_>>()
            );
        }
        assert_eq!(
            ix.tail(0, 2),
            ["t1 timer-fired token=518", "t3 timer-fired token=519"]
        );
    }

    #[test]
    fn critical_path_attributes_the_dominant_hop() {
        let ix = small_dag();
        // Delivery and join are both on node 1 for group 7.
        let path = ix.critical_path(Group::test(7).addr().0, 1);
        assert_eq!(path[0], "join at t5, first delivery at t9 (latency 4)");
        assert!(path.iter().any(|l| l.contains("<- dominant")), "{path:?}");
        assert!(ix.critical_path(1234, 0).is_empty());
    }

    #[test]
    fn invariants_hold_and_fingerprint_is_stable() {
        let ix = small_dag();
        ix.check().expect("small DAG is well-formed");
        assert_eq!(ix.fingerprint(), small_dag().fingerprint());
        assert_eq!(ix.len(), 5);

        let mut bad = CausalIndex::new();
        bad.link(id(5, 2, 1, 0), Some(id(9, 2, 1, 1)));
        assert!(bad.check().is_err(), "cause after child must be rejected");
        let mut orphan = CausalIndex::new();
        orphan.link(id(5, 2, 1, 0), None);
        orphan.dispatches[0].1.cause = Some(id(1, 2, 9, 9));
        assert!(orphan.check().is_err(), "unobserved cause must be rejected");
    }

    #[test]
    fn anchors_find_flag_transitions() {
        let g = Group::test(7);
        let mut ix = small_dag();
        let hop3 = id(30, 2, 4, 0);
        ix.link(hop3, Some(id(9, 2, 3, 0)));
        ix.event_caused(
            3,
            30,
            &Event::EntryCreated {
                group: g,
                key: crate::EntryKey::Star,
                flags: crate::flags::WC,
            },
            Provenance {
                id: hop3,
                cause: Some(id(9, 2, 3, 0)),
            },
        );
        assert_eq!(ix.last_flag_transition(None), Some(hop3));
        assert_eq!(ix.last_flag_transition(Some(3)), Some(hop3));
        assert_eq!(ix.last_flag_transition(Some(9)), None);
        assert_eq!(ix.last_event_on(1), Some(id(9, 2, 3, 0)));
    }
}
