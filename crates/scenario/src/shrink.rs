//! Deterministic greedy shrinking of fault schedules.
//!
//! A violating schedule found by the explorer or by coverage-guided
//! search is rarely minimal: it carries the generator's boilerplate
//! (healed faults that never mattered, churn that changed nothing) and
//! oddly specific times. The shrinker minimizes a schedule while
//! preserving a caller-supplied property — for violation artifacts,
//! "still violates the same set of oracles" — using three greedy passes
//! iterated to a joint fixpoint:
//!
//! 1. **event deletion** — drop one event at a time, keeping each
//!    deletion that preserves the property (so the final schedule is
//!    **1-minimal**: no single event can be removed);
//! 2. **time rounding** — snap event times down to multiples of 1000,
//!    500, 100, 50, 10;
//! 3. **fault-arm weakening** — halve loss/corrupt/duplicate/reorder
//!    per-mille values, reorder jitter, and burst counts, and drop
//!    links from partition/heal cut sets one at a time.
//!
//! Unlike the search mutator, the shrinker deliberately does **not**
//! re-soundene candidates through [`FaultSchedule::normalize`]: its
//! contract is to preserve the input's observed behavior exactly, and
//! appending heals would flip a crash-without-restart repro from
//! violating to passing. Shrink edits (delete / retime-down / weaken)
//! can never invent an out-of-range index, so they are safe without it.
//! When a heal deletion preserves the predicate, that *is* a smaller
//! reproduction of the same oracle failure — the predicate, not a
//! structural rule, decides what matters.
//!
//! Every accepted edit strictly decreases `(event count, total time,
//! arm magnitudes)` lexicographically, so the pass loop terminates; the
//! cap below is a belt on top of that. The whole procedure is a pure
//! function of its inputs: fixed pass order, fixed candidate order, no
//! randomness. Shrinking the same schedule twice yields the identical
//! result (`scenario/tests/shrink.rs` pins determinism, property
//! preservation, and 1-minimality).
//!
//! [`FaultSchedule::normalize`]: crate::schedule::FaultSchedule::normalize

use crate::explore::{run_case, CaseOutcome, TopoSpec};
use crate::net::Protocol;
use crate::schedule::{FaultEvent, FaultSchedule};
use std::collections::BTreeSet;

/// Bookkeeping of one shrink: how much work it did and how far it got.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate simulations executed.
    pub runs: usize,
    /// Events in the input schedule.
    pub initial_events: usize,
    /// Events in the minimized schedule.
    pub final_events: usize,
    /// Full pass-loop iterations until the fixpoint.
    pub passes: usize,
}

/// A successful shrink: the minimized schedule, the outcome of its run
/// (the property holds on it), and the work done.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The minimized schedule.
    pub schedule: FaultSchedule,
    /// The outcome of running the minimized schedule.
    pub outcome: CaseOutcome,
    /// Shrink bookkeeping.
    pub stats: ShrinkStats,
}

/// Time-rounding granularities, coarse to fine.
const GRANULARITIES: [u64; 5] = [1000, 500, 100, 50, 10];
/// Bound on pass-loop iterations (accepted edits strictly shrink the
/// schedule, so this is a safety net, not a tuning knob).
const MAX_PASSES: usize = 8;

/// Shrink `schedule` for `(topo, protocol, seed)` while `pred` holds.
///
/// `pred` sees each candidate schedule and its run outcome and must be
/// deterministic. Returns `None` when the property does not hold on the
/// input itself — there is nothing to preserve.
pub fn shrink_with<F>(
    topo: &TopoSpec,
    protocol: Protocol,
    seed: u64,
    schedule: &FaultSchedule,
    pred: F,
) -> Option<ShrinkResult>
where
    F: Fn(&FaultSchedule, &CaseOutcome) -> bool,
{
    let mut stats = ShrinkStats::default();
    let holds = |s: &FaultSchedule, stats: &mut ShrinkStats| -> Option<CaseOutcome> {
        stats.runs += 1;
        let o = run_case(topo, protocol, s, seed);
        pred(s, &o).then_some(o)
    };

    let mut cur = schedule.clone();
    stats.initial_events = cur.events.len();
    let mut outcome = holds(&cur, &mut stats)?;

    for pass in 0..MAX_PASSES {
        stats.passes = pass + 1;
        let mut changed = false;

        // Pass 1: event deletion, greedy to a local fixpoint. Accepting
        // a deletion shifts the next event into slot `i`, so the index
        // only advances on rejection.
        let mut i = 0;
        while i < cur.events.len() {
            let cand = cur.with_deleted(i);
            if let Some(o) = holds(&cand, &mut stats) {
                cur = cand;
                outcome = o;
                changed = true;
            } else {
                i += 1;
            }
        }

        // Pass 2: time rounding, coarse to fine. Always downward (never
        // below tick 1), so accepted rounds strictly decrease times.
        for g in GRANULARITIES {
            for i in 0..cur.events.len() {
                let t = cur.events[i].0;
                let rounded = (t - t % g).max(1);
                if rounded == t {
                    continue;
                }
                if let Some(o) = holds(&cur.with_retimed(i, rounded), &mut stats) {
                    cur = cur.with_retimed(i, rounded);
                    outcome = o;
                    changed = true;
                }
            }
        }

        // Pass 3: fault-arm weakening. Halving repeats on the same slot
        // until the predicate refuses.
        let mut i = 0;
        while i < cur.events.len() {
            let (t, ev) = cur.events[i].clone();
            let weaker: Vec<FaultEvent> = match &ev {
                FaultEvent::LinkLoss(l, pm) if *pm > 1 => vec![FaultEvent::LinkLoss(*l, pm / 2)],
                FaultEvent::CorruptLink(l, pm) if *pm > 1 => {
                    vec![FaultEvent::CorruptLink(*l, pm / 2)]
                }
                FaultEvent::DuplicateLink(l, pm) if *pm > 1 => {
                    vec![FaultEvent::DuplicateLink(*l, pm / 2)]
                }
                FaultEvent::ReorderLink(l, pm, j) if *pm > 1 || *j > 1 => {
                    vec![FaultEvent::ReorderLink(
                        *l,
                        if *pm > 1 { pm / 2 } else { *pm },
                        if *j > 1 { j / 2 } else { *j },
                    )]
                }
                FaultEvent::Burst(h, count, gap) if *count > 1 => {
                    vec![FaultEvent::Burst(*h, count / 2, *gap)]
                }
                FaultEvent::Partition(ls) if ls.len() > 1 => (0..ls.len())
                    .map(|k| {
                        let mut sub = ls.clone();
                        sub.remove(k);
                        FaultEvent::Partition(sub)
                    })
                    .collect(),
                FaultEvent::Heal(ls) if ls.len() > 1 => (0..ls.len())
                    .map(|k| {
                        let mut sub = ls.clone();
                        sub.remove(k);
                        FaultEvent::Heal(sub)
                    })
                    .collect(),
                _ => Vec::new(),
            };
            let mut weakened = false;
            for w in weaker {
                let mut cand = cur.clone();
                cand.events[i] = (t, w);
                if let Some(o) = holds(&cand, &mut stats) {
                    cur = cand;
                    outcome = o;
                    changed = true;
                    weakened = true;
                    break; // retry the same slot with the weaker arm
                }
            }
            if !weakened {
                i += 1;
            }
        }

        if !changed {
            break;
        }
    }

    stats.final_events = cur.events.len();
    Some(ShrinkResult {
        schedule: cur,
        outcome,
        stats,
    })
}

/// Shrink a violating run while it keeps violating the *same set of
/// oracles* as the original. Returns `None` when the original run does
/// not violate anything.
pub fn shrink_violation(
    topo: &TopoSpec,
    protocol: Protocol,
    seed: u64,
    schedule: &FaultSchedule,
) -> Option<ShrinkResult> {
    let original = run_case(topo, protocol, schedule, seed);
    if original.violations.is_empty() {
        return None;
    }
    let oracles: BTreeSet<&'static str> = original.violations.iter().map(|v| v.oracle).collect();
    shrink_with(topo, protocol, seed, schedule, move |_s, o| {
        let got: BTreeSet<&'static str> = o.violations.iter().map(|v| v.oracle).collect();
        oracles.iter().all(|x| got.contains(x))
    })
}
