//! Coverage-guided schedule search driver.
//!
//! ```text
//! search MODE [--budget N] [--seed S] [--threads N] [--topology NAME]
//!             [--corpus DIR] [--out DIR]
//! ```
//!
//! Modes:
//!
//! - `smoke` — the tier-1 gate: replay the committed regression corpus
//!   byte-identically, self-test the shrinker on a known violating
//!   fixture (1-minimality included), then run a bounded guided search.
//!   Exits nonzero on any corpus divergence, shrinker failure, or
//!   violation the search uncovers.
//! - `compare` — run uniform-random and coverage-guided search on
//!   identical seed budgets per topology and print the SEARCH table
//!   EXPERIMENTS.md records (distinct coverage entries, violations per
//!   1k runs, coverage curve checkpoints).
//! - `full` — guided search over the zoo at `--budget`; every violating
//!   schedule is shrunk to 1-minimal, its artifact replay-verified, and
//!   written under `--out`.
//! - `rebuild-corpus` — regenerate the committed regression pins
//!   (PR 2's register-suppression and orphaned-upstream scenarios,
//!   shrinker-minimized) into `--corpus`.
//!
//! Every mode is deterministic: identical flags produce identical
//! output (and artifacts) at any `--threads` value.

use scenario::explore::HEAL_AT;
use scenario::schedule::{FaultEvent, FaultSchedule};
use scenario::{
    coverage_search, random_schedule, random_search, replay_corpus, run_case, shrink_violation,
    shrink_with, topologies, topology, verify_replay, Artifact, CaseOutcome, Protocol,
    SearchConfig, SearchReport, TopoSpec,
};

/// The congestion-degradation fixture: the diamond's r1-r2 link capped
/// with control priority on, overloaded by a member burst, healed
/// before the probe train. It congests for real (queue-depth and
/// queue-drop events in the telemetry stream) yet converges clean.
fn congestion_fixture() -> (TopoSpec, FaultSchedule) {
    let topo = topology("diamond").unwrap();
    let mut s = FaultSchedule::default();
    s.push(30, FaultEvent::Join(1));
    s.push(40, FaultEvent::Join(2));
    s.push(500, FaultEvent::Bandwidth(1, 2, 48, 1));
    s.push(600, FaultEvent::Burst(1, 24, 2));
    s.push(HEAL_AT, FaultEvent::Bandwidth(1, 0, 0, 1));
    (topo, s)
}

/// Count `ctrl_send` telemetry lines whose message kind is `kind`.
fn ctrl_sends(outcome: &CaseOutcome, kind: &str) -> usize {
    let needle = format!("\"kind\":\"{kind}\"");
    outcome
        .telemetry
        .lines()
        .filter(|l| l.contains("\"ev\":\"ctrl_send\"") && l.contains(&needle))
        .count()
}

/// Find the first seed in `0..limit` whose normalized random schedule
/// satisfies `pred` when run under `protocol`, then shrink it while the
/// predicate holds. Panics (with the mode's name) if no seed qualifies —
/// rebuild-corpus must not silently emit a vacuous pin.
fn build_pin<F>(
    name: &str,
    topo: &TopoSpec,
    protocol: Protocol,
    teardown: bool,
    limit: u64,
    pred: F,
) -> (Artifact, u64)
where
    F: Fn(&FaultSchedule, &CaseOutcome) -> bool + Copy,
{
    for seed in 0..limit {
        let schedule = random_schedule(topo, seed, teardown);
        let outcome = run_case(topo, protocol, &schedule, seed);
        if !pred(&schedule, &outcome) {
            continue;
        }
        let result = shrink_with(topo, protocol, seed, &schedule, pred)
            .expect("predicate held on the unshrunk schedule");
        let artifact = Artifact::capture(topo, protocol, &result.schedule, seed, &result.outcome);
        verify_replay(&artifact).expect("minimized pin must replay byte-identically");
        println!(
            "pin {name}: seed {seed}, {} -> {} events in {} runs ({} passes)",
            result.stats.initial_events,
            result.stats.final_events,
            result.stats.runs,
            result.stats.passes,
        );
        return (artifact, seed);
    }
    panic!("rebuild-corpus: no seed in 0..{limit} satisfies the {name} predicate");
}

/// The known-violating shrinker fixture: crash the line-stub's junction
/// router mid-window with no restart — every protocol loses delivery to
/// the far members (the same shape `scenario/tests/replay.rs` pins).
fn broken_fixture() -> (TopoSpec, FaultSchedule) {
    let topo = topology("line-stub").unwrap();
    let mut s = FaultSchedule::default();
    s.push(30, FaultEvent::Join(1));
    s.push(40, FaultEvent::Join(3));
    s.push(300, FaultEvent::CrashRouter(2));
    (topo, s)
}

/// Assert the shrinker's own contract on the broken fixture:
/// determinism, property preservation, and 1-minimality.
fn shrinker_selftest() -> Result<(), String> {
    let (topo, schedule) = broken_fixture();
    let a = shrink_violation(&topo, Protocol::Pim, 7, &schedule)
        .ok_or("fixture did not violate any oracle")?;
    let b = shrink_violation(&topo, Protocol::Pim, 7, &schedule)
        .ok_or("fixture did not violate on the second shrink")?;
    if a.schedule != b.schedule {
        return Err("shrinking is not deterministic".into());
    }
    if a.outcome.violations.is_empty() {
        return Err("minimized schedule no longer violates".into());
    }
    // 1-minimality: no single-event deletion still violates the same
    // oracle set.
    let oracles: std::collections::BTreeSet<&str> =
        a.outcome.violations.iter().map(|v| v.oracle).collect();
    for i in 0..a.schedule.events.len() {
        let cand = a.schedule.with_deleted(i);
        let o = run_case(&topo, Protocol::Pim, &cand, 7);
        let got: std::collections::BTreeSet<&str> = o.violations.iter().map(|v| v.oracle).collect();
        if oracles.iter().all(|x| got.contains(x)) {
            return Err(format!("not 1-minimal: event {i} is deletable"));
        }
    }
    println!(
        "shrinker self-test: {} -> {} events, still violating {:?}, 1-minimal",
        a.stats.initial_events,
        a.stats.final_events,
        oracles.iter().collect::<Vec<_>>()
    );
    Ok(())
}

/// Shrink every violating evaluation in `report` and write the verified
/// artifacts under `out`. Returns how many were written.
fn write_violations(topo: &TopoSpec, report: &SearchReport, out: &std::path::Path) -> usize {
    let mut written = 0;
    for (i, ev) in report.violating.iter().enumerate() {
        for (protocol, _) in &ev.violations {
            match shrink_violation(topo, *protocol, ev.world_seed, &ev.schedule) {
                Some(result) => {
                    let artifact = Artifact::capture(
                        topo,
                        *protocol,
                        &result.schedule,
                        ev.world_seed,
                        &result.outcome,
                    );
                    if let Err(e) = verify_replay(&artifact) {
                        eprintln!("artifact {i} ({}) failed replay: {e}", protocol.name());
                        continue;
                    }
                    std::fs::create_dir_all(out).expect("create --out dir");
                    let path = out.join(format!("{}-{}-{i}.replay", topo.name, protocol.name()));
                    std::fs::write(&path, artifact.to_text()).expect("write artifact");
                    println!(
                        "wrote {} ({} events)",
                        path.display(),
                        result.stats.final_events
                    );
                    written += 1;
                }
                None => eprintln!(
                    "violating schedule {i} ({}) stopped violating under shrink predicate",
                    protocol.name()
                ),
            }
        }
    }
    written
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = argv.first().cloned().unwrap_or_else(|| "smoke".to_string());
    let mut cfg = SearchConfig::default();
    let mut topo_filter: Option<String> = None;
    let mut corpus = "corpus".to_string();
    let mut out = "target/search".to_string();
    let mut i = 1;
    while i < argv.len() {
        let val = |i: usize| -> &str {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--budget" => cfg.budget = val(i).parse().expect("--budget needs a number"),
            "--seed" => cfg.seed = val(i).parse().expect("--seed needs a number"),
            "--threads" => cfg.threads = val(i).parse().expect("--threads needs a number"),
            "--topology" => topo_filter = Some(val(i).to_string()),
            "--corpus" => corpus = val(i).to_string(),
            "--out" => out = val(i).to_string(),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }
    let zoo: Vec<TopoSpec> = topologies()
        .into_iter()
        .filter(|t| topo_filter.as_deref().is_none_or(|f| f == t.name))
        .collect();
    assert!(!zoo.is_empty(), "--topology matched nothing");

    match mode.as_str() {
        "smoke" => {
            let mut failed = false;

            // 1. Corpus replay (byte-identity of every committed pin).
            let dir = std::path::Path::new(&corpus);
            if dir.is_dir() {
                let results = replay_corpus(dir).expect("corpus unreadable");
                for (name, r) in &results {
                    if let Err(e) = r {
                        eprintln!("corpus {name}: REPLAY DIVERGED: {e}");
                        failed = true;
                    }
                }
                println!("corpus: {} artifact(s) replayed byte-identically", {
                    results.iter().filter(|(_, r)| r.is_ok()).count()
                });
            } else {
                eprintln!("corpus {corpus}: missing directory");
                failed = true;
            }

            // 2. Shrinker self-test on the known violating fixture.
            if let Err(e) = shrinker_selftest() {
                eprintln!("shrinker self-test FAILED: {e}");
                failed = true;
            }

            // 3. Bounded guided search; any violation it uncovers is a
            // finding the gate must surface.
            let smoke_cfg = SearchConfig {
                budget: 12,
                batch: 6,
                ..cfg
            };
            let report = coverage_search(&zoo[0], &smoke_cfg);
            println!(
                "search smoke: {} evals on {}, {} coverage entries, {} violating",
                report.evals,
                zoo[0].name,
                report.entries,
                report.violating.len()
            );
            if report.entries == 0 {
                eprintln!("search smoke: coverage map is empty — sink wiring broken");
                failed = true;
            }
            if !report.violating.is_empty() {
                write_violations(&zoo[0], &report, std::path::Path::new(&out));
                failed = true;
            }
            if failed {
                std::process::exit(1);
            }
            println!("search smoke: OK");
        }
        "compare" => {
            println!("| topology | strategy | evals | coverage entries | violations/1k runs |");
            println!("|----------|----------|-------|------------------|--------------------|");
            let mut curves = Vec::new();
            for topo in &zoo {
                let rnd = random_search(topo, &cfg);
                let gui = coverage_search(topo, &cfg);
                for (name, r) in [("random", &rnd), ("guided", &gui)] {
                    let runs = r.evals * Protocol::ALL.len();
                    println!(
                        "| {} | {} | {} | {} | {:.1} |",
                        topo.name,
                        name,
                        r.evals,
                        r.entries,
                        r.violating.len() as f64 * 1000.0 / runs as f64
                    );
                }
                curves.push((topo.name, rnd.history, gui.history));
            }
            for (name, rnd, gui) in curves {
                let fmt = |h: &[(usize, usize)]| {
                    h.iter()
                        .map(|(e, d)| format!("{e}:{d}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                println!("curve {name} random {}", fmt(&rnd));
                println!("curve {name} guided {}", fmt(&gui));
            }
        }
        "full" => {
            let mut total_viol = 0;
            for topo in &zoo {
                let report = coverage_search(topo, &cfg);
                println!(
                    "{}: {} evals, {} coverage entries, {} violating",
                    topo.name,
                    report.evals,
                    report.entries,
                    report.violating.len()
                );
                total_viol += write_violations(topo, &report, std::path::Path::new(&out));
            }
            if total_viol > 0 {
                std::process::exit(1);
            }
        }
        "rebuild-corpus" => {
            // The PR 2 regression pins, rebuilt minimal. Both are
            // zero-violation artifacts: they pin the *fixed* behavior, so
            // corpus replay fails the moment the bug (or any behavioral
            // drift) reappears.
            //
            // register-suppression: a PIM run with live members (the
            // delivery oracle armed) that still exercises the register
            // path hard (>=2 encapsulated registers reaching the RP)
            // and converges clean — the run the PR 2 suppression
            // deadlock used to wedge.
            let diamond = topology("diamond").unwrap();
            let (reg, _) = build_pin(
                "register-suppression",
                &diamond,
                Protocol::Pim,
                false,
                200,
                |s, o| {
                    o.violations.is_empty()
                        && !s.final_members(3).is_empty()
                        && ctrl_sends(o, "pim-register") >= 2
                },
            );
            // orphaned-upstream: a tree is actually built (a join) and
            // fully torn down (membership empties), with a mid-window
            // router crash *and* its restart retained — the restarted
            // router must not resurrect upstream state; the no-orphans
            // oracle passing pins the PR 2 orphaned-upstream fix.
            let line = topology("line-stub").unwrap();
            let (orp, _) = build_pin(
                "orphaned-upstream",
                &line,
                Protocol::Pim,
                true,
                200,
                |s, o| {
                    o.violations.is_empty()
                        && s.final_members(4).is_empty()
                        && s.events
                            .iter()
                            .any(|(_, e)| matches!(e, FaultEvent::Join(_)))
                        && s.events
                            .iter()
                            .any(|(_, e)| matches!(e, FaultEvent::Leave(_)))
                        && s.events
                            .iter()
                            .any(|(_, e)| matches!(e, FaultEvent::CrashRouter(_)))
                        && s.events
                            .iter()
                            .any(|(_, e)| matches!(e, FaultEvent::RestartRouter(_)))
                },
            );
            // congestion-degradation: a bandwidth-capped link with
            // control priority on, overloaded by a member burst — the
            // run congests for real (queue-depth *and* queue-drop
            // events in the stream) yet every oracle stays green.
            // Another zero-violation pin: congestion may degrade
            // service while it lasts, never correctness, and corpus
            // replay fails the moment the capacity model drifts.
            let (ctopo, cs) = congestion_fixture();
            let cpred = |s: &FaultSchedule, o: &CaseOutcome| {
                o.violations.is_empty()
                    && o.metrics
                        .as_ref()
                        .is_some_and(|m| m.queue_depth.count() > 0 && m.queue_drops > 0)
                    && s.events
                        .iter()
                        .any(|(_, e)| matches!(e, FaultEvent::Bandwidth(_, r, _, _) if *r > 0))
            };
            let cresult = shrink_with(&ctopo, Protocol::Pim, 5, &cs, cpred)
                .expect("congestion fixture must congest and converge clean");
            let cng = Artifact::capture(
                &ctopo,
                Protocol::Pim,
                &cresult.schedule,
                5,
                &cresult.outcome,
            );
            verify_replay(&cng).expect("minimized pin must replay byte-identically");
            println!(
                "pin congestion-degradation: seed 5, {} -> {} events in {} runs ({} passes)",
                cresult.stats.initial_events,
                cresult.stats.final_events,
                cresult.stats.runs,
                cresult.stats.passes,
            );
            let dir = std::path::Path::new(&corpus);
            std::fs::create_dir_all(dir).expect("create corpus dir");
            std::fs::write(dir.join("register-suppression.replay"), reg.to_text())
                .expect("write pin");
            std::fs::write(dir.join("orphaned-upstream.replay"), orp.to_text()).expect("write pin");
            std::fs::write(dir.join("congestion-degradation.replay"), cng.to_text())
                .expect("write pin");
            let results = replay_corpus(dir).expect("corpus unreadable");
            for (name, r) in &results {
                r.as_ref()
                    .unwrap_or_else(|e| panic!("freshly built pin {name} diverged: {e}"));
            }
            println!(
                "rebuilt {} pin(s) into {corpus}, all replay byte-identically",
                results.len()
            );
        }
        other => {
            eprintln!("unknown mode {other}; usage: search smoke|compare|full|rebuild-corpus");
            std::process::exit(2);
        }
    }
}
