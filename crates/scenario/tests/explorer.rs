//! The acceptance sweep: ≥50 seeded fault schedules, each run against
//! all three protocols, every oracle green.
//!
//! A failure here prints the full replay artifact so the violating run
//! can be re-executed byte-identically (see `tests/replay.rs`).

use scenario::{explore_seed, random_schedule, topologies, Artifact};

#[test]
fn fifty_plus_seeds_all_protocols_green() {
    let zoo = topologies();
    let mut runs = 0usize;
    let mut failures = Vec::new();
    for seed in 0..51u64 {
        let topo = &zoo[(seed % zoo.len() as u64) as usize];
        let (schedule, outcomes) = explore_seed(topo, seed);
        for (protocol, outcome) in outcomes {
            runs += 1;
            if !outcome.violations.is_empty() {
                let artifact = Artifact::capture(topo, protocol, &schedule, seed, &outcome);
                failures.push(artifact.to_text());
            }
        }
    }
    assert_eq!(runs, 51 * 3);
    assert!(
        failures.is_empty(),
        "{} violating run(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn schedules_are_self_healing() {
    // Every generated fault is paired with a heal event no later than the
    // heal point, so the probe train always runs on a healthy network.
    let zoo = topologies();
    for seed in 0..60u64 {
        for topo in &zoo {
            let s = random_schedule(topo, seed, false);
            let mut link_state = std::collections::BTreeMap::new();
            let mut node_down = std::collections::BTreeSet::new();
            let mut loss = std::collections::BTreeMap::new();
            let mut impaired = std::collections::BTreeMap::new();
            let mut capped = std::collections::BTreeMap::new();
            for &(at, ref ev) in &s.events {
                use scenario::FaultEvent::*;
                match ev {
                    LinkDown(l) => {
                        link_state.insert(*l, at);
                    }
                    LinkUp(l) => {
                        link_state.remove(l);
                    }
                    LinkLoss(l, pm) if *pm > 0 => {
                        loss.insert(*l, at);
                    }
                    LinkLoss(l, _) => {
                        loss.remove(l);
                    }
                    CorruptLink(l, pm) | DuplicateLink(l, pm) | ReorderLink(l, pm, _)
                        if *pm > 0 =>
                    {
                        impaired.insert(*l, at);
                    }
                    CorruptLink(l, _) | DuplicateLink(l, _) | ReorderLink(l, _, _) => {
                        impaired.remove(l);
                    }
                    Partition(ls) => {
                        for l in ls {
                            link_state.insert(*l, at);
                        }
                    }
                    Heal(ls) => {
                        // A heal restores the links *and* resets their
                        // channel models — mirror both effects.
                        for l in ls {
                            link_state.remove(l);
                            impaired.remove(l);
                        }
                    }
                    CrashRouter(r) => {
                        node_down.insert(*r);
                    }
                    RestartRouter(r) => {
                        node_down.remove(r);
                    }
                    Bandwidth(l, rate, _, _) if *rate > 0 => {
                        capped.insert(*l, at);
                    }
                    Bandwidth(l, _, _, _) => {
                        capped.remove(l);
                    }
                    // Bursts are traffic, not faults: nothing to heal.
                    Join(_) | Leave(_) | Burst(..) => {}
                }
            }
            assert!(
                link_state.is_empty()
                    && node_down.is_empty()
                    && loss.is_empty()
                    && impaired.is_empty()
                    && capped.is_empty(),
                "seed {seed} on {}: unhealed faults {link_state:?} {node_down:?} {loss:?} {impaired:?} {capped:?}",
                topo.name
            );
            assert!(s.span() < 4500, "faults must settle before the probe train");
        }
    }
}
