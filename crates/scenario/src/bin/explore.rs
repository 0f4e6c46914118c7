//! Command-line schedule explorer.
//!
//! ```text
//! explore [SEEDS] [START] [--threads N] [--corpus DIR]
//! ```
//!
//! Runs `SEEDS` seeded schedules (default 50) starting at seed `START`
//! (default 0), each over one topology from the zoo (round-robin) and all
//! three protocols. Seeds fan out over a deterministic scoped-thread pool
//! (each run re-derives everything from its seed), and results are
//! reported in seed order — output is bit-identical for every `--threads`
//! value. Prints a per-protocol summary plus a chaos summary (channel
//! impairments inflicted, malformed frames dropped by decode-error kind,
//! merged post-fault reconvergence histogram); on any oracle violation,
//! prints the full replay artifact plus a one-line `trace.sh` repro hint
//! and exits nonzero.
//!
//! With `--corpus DIR`, every committed `*.replay` regression artifact in
//! `DIR` is replayed byte-identically before the seed sweep; any replay
//! divergence fails the run the same way a violation does.

use scenario::{explore_seed, replay_corpus, topologies, Artifact, Protocol};
use std::collections::BTreeMap;
use telemetry::MetricsAggregator;

/// Per-kind counts as `kind=n ...`, or `-` when there are none.
fn render_counts(m: &BTreeMap<&str, u64>) -> String {
    if m.is_empty() {
        return "-".to_string();
    }
    m.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One protocol's lines of the chaos summary, from its metrics merged
/// over the campaign.
fn print_chaos(name: &str, m: &MetricsAggregator) {
    println!(
        "  {name:>5}: impaired {}\n         dropped  {}\n         reconvergence {}",
        render_counts(&m.impairments),
        render_counts(&m.decode_drops),
        m.reconvergence.render(),
    );
    // Exact percentiles from the pooled raw samples — the log2
    // buckets above bound these only within a factor of two.
    for (label, h) in [
        ("join-latency", &m.join_latency),
        ("reconvergence", &m.reconvergence),
    ] {
        println!(
            "         {label:<14} count={} p50={} p99={}",
            h.count(),
            h.percentile(50.0),
            h.percentile(99.0),
        );
    }
}

fn main() {
    let mut seeds: u64 = 50;
    let mut start: u64 = 0;
    let mut threads = par::default_threads();
    let mut corpus: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = 0;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--threads" => {
                threads = argv
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--threads needs a positive number");
                i += 2;
            }
            "--corpus" => {
                corpus = Some(argv.get(i + 1).expect("--corpus needs a directory").clone());
                i += 2;
            }
            s => {
                let n = s.parse().expect("SEEDS/START must be numbers");
                match positional {
                    0 => seeds = n,
                    1 => start = n,
                    _ => panic!("too many positional args; usage: explore [SEEDS] [START]"),
                }
                positional += 1;
                i += 1;
            }
        }
    }

    // Regression corpus first: if a committed artifact no longer replays
    // byte-identically, exploring fresh seeds is moot.
    let mut corpus_failures = 0u64;
    if let Some(dir) = &corpus {
        let results =
            replay_corpus(std::path::Path::new(dir)).expect("--corpus directory unreadable");
        for (name, r) in &results {
            match r {
                Ok(()) => println!("corpus {name}: replayed byte-identically"),
                Err(e) => {
                    corpus_failures += 1;
                    eprintln!("corpus {name}: REPLAY DIVERGED: {e}");
                }
            }
        }
        println!(
            "corpus: {}/{} artifacts replayed byte-identically",
            results.len() as u64 - corpus_failures,
            results.len()
        );
    }

    let zoo = topologies();
    // Fan the seeds out; each worker's runs depend only on its seed, and
    // reassembly is in seed order, so the report (and the exit code) is
    // independent of the thread count.
    let outcomes = par::run_trials(threads, seeds as usize, |t| {
        let seed = start + t as u64;
        let topo = &zoo[(seed % zoo.len() as u64) as usize];
        explore_seed(topo, seed)
    });

    let mut runs = 0u64;
    let mut violating = 0u64;
    let mut per_protocol = [0u64; 3];
    let mut chaos: [MetricsAggregator; 3] = Default::default();
    for (t, (schedule, results)) in outcomes.iter().enumerate() {
        let seed = start + t as u64;
        let topo = &zoo[(seed % zoo.len() as u64) as usize];
        for (protocol, outcome) in results {
            runs += 1;
            let slot = *protocol as usize;
            if let Some(m) = &outcome.metrics {
                chaos[slot].merge(m);
            }
            if outcome.violations.is_empty() {
                continue;
            }
            violating += 1;
            per_protocol[slot] += 1;
            // Deepest backward slice among the implicated nodes: how
            // long the causal chain behind this violation is (the
            // `trace why` rendering of the artifact walks it in full).
            let max_depth = outcome
                .violations
                .iter()
                .filter_map(|v| {
                    let n = v.node as u32;
                    outcome
                        .causal
                        .last_flag_transition(Some(n))
                        .or_else(|| outcome.causal.last_event_on(n))
                })
                .map(|id| outcome.causal.backward_chain(id).len())
                .max()
                .unwrap_or(0);
            eprintln!(
                "seed {seed} topology {} protocol {}: {} violation(s), \
                 max causal-slice depth {max_depth} \
                 [repro: ./scripts/trace.sh {} {} {seed}]",
                topo.name,
                protocol.name(),
                outcome.violations.len(),
                topo.name,
                protocol.name(),
            );
            let artifact = Artifact::capture(topo, *protocol, schedule, seed, outcome);
            eprintln!("--- replay artifact ---\n{}", artifact.to_text());
        }
    }

    println!(
        "explored {} schedules x 3 protocols: {runs} runs, {violating} violating",
        seeds
    );
    for (i, p) in Protocol::ALL.iter().enumerate() {
        println!("  {:>5}: {} violating runs", p.name(), per_protocol[i]);
    }
    println!("chaos summary (summed over the campaign):");
    for (p, m) in Protocol::ALL.iter().zip(&chaos) {
        print_chaos(p.name(), m);
    }
    if violating > 0 || corpus_failures > 0 {
        std::process::exit(1);
    }
}
