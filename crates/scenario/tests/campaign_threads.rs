//! The acceptance gate for the region-partitioned event core at the
//! campaign level: a 20-seed explorer campaign — every topology in the
//! zoo, every protocol, randomized fault schedules — must produce
//! byte-identical replay artifacts at `--threads` 1, 2, and 4.
//!
//! This is stronger than the per-binary stdout checks in
//! `bench/tests/thread_determinism.rs`: it compares the *full* trace and
//! telemetry fingerprints of every case, so a single reordered event
//! anywhere in any run fails the gate with the offending (seed,
//! protocol) pair named.
//!
//! The 1-thread runs are also held to a committed table,
//! `tests/campaign_fingerprints.txt`: one line per case with its trace
//! fingerprint, telemetry fingerprint and violation count. Flaps,
//! crashes, loss and churn all reach the three engines here, so an
//! engine refactor that moves one packet or one event fails by case.
//! On a mismatch the run's own table is written beside the test binary's
//! scratch files (the path is in the failure message).

use scenario::{random_schedule, run_case_coverage, topologies, Protocol};
use std::fmt::Write as _;

const TABLE: &str = "tests/campaign_fingerprints.txt";

#[test]
fn twenty_seed_campaign_is_thread_count_invariant() {
    let zoo = topologies();
    let mut cases = 0usize;
    let mut table = String::from("# seed protocol topology trace telemetry violations\n");
    for seed in 0..20u64 {
        let topo = &zoo[(seed % zoo.len() as u64) as usize];
        let schedule = random_schedule(topo, seed, seed % 3 == 2);
        for protocol in Protocol::ALL {
            let (base, _) = run_case_coverage(topo, protocol, &schedule, seed, 1);
            let _ = writeln!(
                table,
                "{seed} {} {} {:016x} {:016x} {}",
                protocol.name(),
                topo.name,
                base.fingerprint,
                base.telemetry_fingerprint,
                base.violations.len()
            );
            for threads in [2usize, 4] {
                let (par, _) = run_case_coverage(topo, protocol, &schedule, seed, threads);
                assert_eq!(
                    base.fingerprint, par.fingerprint,
                    "trace fingerprint diverged: seed {seed} {protocol:?} \
                     topo {} threads {threads}",
                    topo.name
                );
                assert_eq!(
                    base.telemetry_fingerprint, par.telemetry_fingerprint,
                    "telemetry fingerprint diverged: seed {seed} {protocol:?} \
                     topo {} threads {threads}",
                    topo.name
                );
                assert_eq!(
                    base.trace, par.trace,
                    "trace diverged: seed {seed} {protocol:?} threads {threads}"
                );
                assert_eq!(
                    base.violations, par.violations,
                    "oracle verdicts diverged: seed {seed} {protocol:?} threads {threads}"
                );
            }
            cases += 1;
        }
    }
    assert_eq!(cases, 20 * 3);
    let path = format!("{}/{TABLE}", env!("CARGO_MANIFEST_DIR"));
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if table != pinned {
        let got = format!("{}/campaign_fingerprints.txt", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&got, &table).unwrap_or_else(|e| panic!("{got}: {e}"));
        let line = table
            .lines()
            .zip(pinned.lines())
            .find(|(a, b)| a != b)
            .map_or_else(
                || "(line count)".to_string(),
                |(a, b)| format!("{a} != {b}"),
            );
        panic!("{TABLE} differs from this run ({got}): first difference {line}");
    }
}
