//! `CausalIndex` looks near the slot it last used before it searches.
//! Whatever order the stream arrives in, that is only ever a faster way
//! to the same slot: windows of links and events shaped like the
//! simulator's — and deliberately unlike it — go through `batch` into one
//! index and record by record into another, and both must hold exactly
//! what plain ordered insertion into a `BTreeMap` holds.

use proptest::prelude::*;
use std::collections::BTreeMap;
use telemetry::trace::Record;
use telemetry::{CausalIndex, Emission, Event, EventId, Provenance, Sink};

type Link = (EventId, Option<EventId>);

/// One dispatch as drawn: where in its window's ten ticks, which node,
/// whether a link announces it, how many events it emits, what causes it,
/// and how (if at all) it departs from the simulator's stream.
type Draw = (u64, u32, bool, usize, u64, u8);

/// First edge wins; records in arrival order.
#[derive(Default)]
struct Reference(BTreeMap<EventId, (Option<EventId>, Vec<Record>)>);

impl Reference {
    fn link(&mut self, (id, cause): Link) {
        self.0.entry(id).or_insert((cause, Vec::new()));
    }

    fn event(&mut self, e: &Emission) {
        let slot = self
            .0
            .entry(e.prov.id)
            .or_insert((e.prov.cause, Vec::new()));
        slot.1.push(Record {
            node: e.node,
            at: e.at,
            ev: e.ev.clone(),
        });
    }

    /// `CausalIndex::fingerprint`, from its documented dump format.
    fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (id, (cause, records)) in &self.0 {
            let cause = cause.map_or("-".to_string(), |c| c.render());
            let line = format!("{} cause={cause} records={}\n", id.render(), records.len());
            for b in line.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

/// Window `w`'s links and events. Ids ascend inside the window and every
/// window is later than the one before; then the departures: a dispatch
/// with no link, an event filed under a dispatch of an earlier window
/// (linked there or never seen), an event whose cause disagrees with the
/// link's.
fn window(w: usize, draws: &[Draw], earlier: &[EventId]) -> (Vec<Link>, Vec<Emission>) {
    let mut links = Vec::new();
    let mut events = Vec::new();
    let mut ids: Vec<(EventId, &Draw)> = draws
        .iter()
        .map(|d| {
            let id = EventId {
                time: w as u64 * 10 + d.0,
                epoch: 2,
                origin: d.1,
                seq: d.4 % 3,
            };
            (id, d)
        })
        .collect();
    ids.sort_by_key(|(id, _)| *id);
    ids.dedup_by_key(|(id, _)| *id);
    for (i, &(id, &(_, origin, linked, emits, pick, odd))) in ids.iter().enumerate() {
        let before = earlier.len() + i;
        let cause = (pick % 4 != 0 && before > 0).then(|| {
            let k = pick as usize % before;
            earlier
                .get(k)
                .copied()
                .unwrap_or_else(|| ids[k - earlier.len()].0)
        });
        if linked {
            links.push((id, cause));
        }
        let mut emit = |id: EventId, cause, token| {
            events.push(Emission {
                node: origin,
                at: id.time,
                ev: Event::TimerFired { token },
                prov: Provenance { id, cause },
            });
        };
        for token in 0..emits as u64 {
            emit(id, cause, token);
        }
        match odd {
            // Filed under a dispatch an earlier window announced.
            0 if !earlier.is_empty() => emit(earlier[pick as usize % earlier.len()], None, 90),
            // Filed under a dispatch, earlier than this window, no link ever named.
            1 => emit(
                EventId {
                    time: (w as u64 * 10).saturating_sub(5),
                    epoch: 1,
                    ..id
                },
                None,
                91,
            ),
            // The event's edge disagrees with the link's: the first one seen stays.
            2 => emit(id, None, 92),
            _ => {}
        }
    }
    (links, events)
}

fn assert_holds(ix: &CausalIndex, want: &Reference, how: &str) {
    assert_eq!(ix.len(), want.0.len(), "{how}: len");
    for (id, (cause, records)) in &want.0 {
        let d = ix
            .dispatch(*id)
            .unwrap_or_else(|| panic!("{how}: {} missing", id.render()));
        assert_eq!(d.cause, *cause, "{how}: cause of {}", id.render());
        assert_eq!(&d.records, records, "{how}: records of {}", id.render());
    }
    assert_eq!(ix.fingerprint(), want.fingerprint(), "{how}: fingerprint");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn finger_finds_what_the_search_finds(
        windows in prop::collection::vec(
            prop::collection::vec(
                (0u64..10, 1u32..5, any::<bool>(), 0usize..4, any::<u64>(), 0u8..12),
                0..24,
            ),
            1..8,
        ),
        reversed in any::<prop::sample::Index>(),
    ) {
        let reversed = reversed.index(windows.len());
        let (mut by_batch, mut by_record) = (CausalIndex::new(), CausalIndex::new());
        let mut want = Reference::default();
        let mut earlier: Vec<EventId> = Vec::new();
        for (w, draws) in windows.iter().enumerate() {
            let (mut links, mut events) = window(w, draws, &earlier);
            earlier.extend(links.iter().map(|l| l.0));
            if w == reversed {
                links.reverse();
                events.reverse();
            }
            by_batch.batch(&links, &events);
            for &(id, cause) in &links {
                by_record.link(id, cause);
                want.link((id, cause));
            }
            for e in &events {
                by_record.event_caused(e.node, e.at, &e.ev, e.prov);
                want.event(e);
            }
        }
        assert_holds(&by_batch, &want, "batch");
        assert_holds(&by_record, &want, "record by record");
    }
}
