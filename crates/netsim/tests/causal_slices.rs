//! Property tests for the causal-provenance layer (DESIGN.md §11): the
//! [`telemetry::CausalIndex`] built from a run must be a DAG whose
//! parents precede their children in canonical-key order, and backward
//! slices must be byte-identical across partitionings — single region,
//! delay-aware auto-partition, and an adversarial one-node-per-region
//! split. Provenance, like every other observable, must not know how
//! the world was sharded.

use netsim::{Ctx, Duration, IfaceId, Node, NodeIdx, SimTime, World};
use proptest::prelude::*;
use std::any::Any;
use std::sync::{Arc, Mutex};
use telemetry::{CausalIndex, Event};
use wire::{Addr, Group};

/// A node that narrates its own activity through telemetry: membership
/// on start, entry-flag transitions and timer events on every firing,
/// data deliveries on every reception. Gives the causal index real
/// records to slice, not just silent dispatch edges.
struct Narrator {
    flags: u8,
}

impl Narrator {
    fn new() -> Self {
        Narrator { flags: 0 }
    }

    fn group(ctx: &Ctx<'_>) -> Group {
        Group::test(ctx.me().0 as u32)
    }
}

impl Node for Narrator {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let g = Self::group(ctx);
        ctx.emit(|| Event::LocalMemberJoined { group: g });
        ctx.set_timer(Duration(3), 1);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, packet: &[u8]) {
        let g = Self::group(ctx);
        let src = Addr(u32::from(packet[0]));
        ctx.emit(|| Event::DataDelivered {
            group: g,
            source: src,
        });
        let from = self.flags;
        self.flags = self.flags.wrapping_add(1) & 0x7;
        let to = self.flags;
        ctx.emit(|| Event::EntryModified {
            group: g,
            key: telemetry::EntryKey::Star,
            from,
            to,
        });
        let _ = iface;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        ctx.emit(|| Event::TimerFired { token });
        let me = ctx.me().0 as u8;
        for i in 0..ctx.iface_count() {
            ctx.send(IfaceId(i as u32), vec![me, 0x5A]);
        }
        if ctx.now() < SimTime(180) {
            ctx.set_timer(Duration(7), token);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[derive(Clone, Debug)]
enum Split {
    Single,
    Auto(usize),
    Explicit(Vec<u32>),
}

/// Run the 6-node fixture (line 0-1-2-3 plus LAN {1,4,5}) under `split`
/// and fold the full telemetry stream into a causal index.
fn run(seed: u64, delays: &[u64; 3], loss: f64, faults: bool, split: &Split) -> CausalIndex {
    let mut w = World::new(seed);
    let nodes: Vec<NodeIdx> = (0..6)
        .map(|_| w.add_node(Box::new(Narrator::new())))
        .collect();
    let mut links = Vec::new();
    for (i, &d) in delays.iter().enumerate() {
        let (l, _, _) = w.add_p2p(nodes[i], nodes[i + 1], Duration(d));
        links.push(l);
    }
    let (lan, _) = w.add_lan(&[nodes[1], nodes[4], nodes[5]], Duration(1));
    if loss > 0.0 {
        w.set_link_loss(links[1], loss);
        w.set_link_loss(lan, loss / 2.0);
    }
    if faults {
        let n2 = nodes[2];
        w.at(SimTime(60), move |w| {
            w.emit_event(
                n2,
                Event::Fault {
                    desc: "crash r2".into(),
                },
            );
            w.crash_node(n2);
        });
        w.at(SimTime(120), move |w| {
            w.emit_event(
                n2,
                Event::Fault {
                    desc: "restart r2".into(),
                },
            );
            w.restart_node(n2);
        });
    }
    let index = Arc::new(Mutex::new(CausalIndex::new()));
    w.set_telemetry(index.clone());
    match split {
        Split::Single => {}
        Split::Auto(threads) => w.parallelize(*threads),
        Split::Explicit(assign) => w.set_partition(assign),
    }
    w.run_until(SimTime(250));
    let got = index.lock().unwrap().clone();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The causal DAG is acyclic with parents strictly preceding
    /// children in canonical-key order, and the whole index — dump,
    /// fingerprint, and the backward slice from every natural anchor —
    /// is byte-identical across partitionings.
    #[test]
    fn causal_index_is_a_dag_and_partition_independent(
        seed in any::<u64>(),
        (d0, d1, d2) in (1u64..6, 1u64..6, 1u64..6),
        lossy in any::<bool>(),
        faults in any::<bool>(),
    ) {
        let delays = [d0, d1, d2];
        let loss = if lossy { 0.2 } else { 0.0 };
        let single = run(seed, &delays, loss, faults, &Split::Single);

        // Structure: every cause edge points at a recorded dispatch with
        // a strictly smaller canonical key. That is a topological order,
        // so the graph is acyclic and parents precede children.
        prop_assert!(!single.is_empty());
        prop_assert!(single.check().is_ok(), "{:?}", single.check());

        let auto = run(seed, &delays, loss, faults, &Split::Auto(4));
        let shredded = run(
            seed,
            &delays,
            loss,
            faults,
            // LAN {1,4,5} shares a region (delay-1 lookahead still
            // holds); everything else is its own region.
            &Split::Explicit(vec![0, 1, 2, 3, 1, 1]),
        );
        prop_assert!(auto.check().is_ok(), "{:?}", auto.check());
        prop_assert!(shredded.check().is_ok(), "{:?}", shredded.check());

        prop_assert_eq!(single.dump(), auto.dump());
        prop_assert_eq!(single.dump(), shredded.dump());
        prop_assert_eq!(single.fingerprint(), auto.fingerprint());
        prop_assert_eq!(single.fingerprint(), shredded.fingerprint());

        // Backward slices from the anchors `trace why` uses are
        // byte-identical, and genuinely multi-hop once traffic flowed.
        let anchor = single.last_flag_transition(None);
        prop_assert_eq!(anchor, auto.last_flag_transition(None));
        prop_assert_eq!(anchor, shredded.last_flag_transition(None));
        if let Some(a) = anchor {
            let slice = single.backward_slice(a);
            prop_assert!(!slice.is_empty());
            prop_assert!(single.backward_chain(a).len() > 1);
            prop_assert_eq!(&slice, &auto.backward_slice(a));
            prop_assert_eq!(&slice, &shredded.backward_slice(a));
        }
        for n in 0..6u32 {
            let e = single.last_event_on(n);
            prop_assert_eq!(e, auto.last_event_on(n));
            if let Some(a) = e {
                prop_assert_eq!(single.backward_slice(a), shredded.backward_slice(a));
            }
        }
    }
}

/// Fault injections are roots of the DAG, and their forward slice (the
/// blast radius) is partition-independent too.
#[test]
fn fault_forward_slice_is_partition_independent() {
    let delays = [2, 3, 2];
    let single = run(11, &delays, 0.0, true, &Split::Single);
    let auto = run(11, &delays, 0.0, true, &Split::Auto(4));
    let roots = single.fault_roots();
    assert!(!roots.is_empty(), "crash/restart should emit fault events");
    assert_eq!(roots, auto.fault_roots());
    for r in roots {
        let blast = single.forward_slice(r);
        assert_eq!(blast, auto.forward_slice(r));
    }
}

/// The on-start membership join is a root: its backward chain is just
/// itself, and a later delivery's chain passes through a timer dispatch.
#[test]
fn backward_chain_reaches_a_root() {
    let idx = run(3, &[1, 2, 1], 0.0, false, &Split::Single);
    let anchor = idx
        .last_flag_transition(None)
        .expect("flag transitions recorded");
    let chain = idx.backward_chain(anchor);
    assert!(chain.len() > 1, "expected a multi-hop chain");
    let root = idx.dispatch(chain[0]).expect("root is recorded");
    assert!(root.cause.is_none(), "chain must terminate at a root");
}
