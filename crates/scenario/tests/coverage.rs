//! `CoverageSink` contract: the coverage map is a pure fold of the
//! telemetry event stream, and that stream is byte-identical at any
//! thread count — so the map's stable hash must not move when the
//! parallel core's `--threads` knob does.

use scenario::{case_text, load_corpus, random_schedule, run_case_coverage, topology, Protocol};
use std::path::PathBuf;

/// Fixed grid of runs: every topology, every protocol, a fixed seed,
/// the explorer's own schedule generator. Expected hashes are not
/// hard-coded (they legitimately move when protocols evolve); what is
/// pinned is thread-count invariance and non-emptiness.
const TABLE: [(&str, Protocol, u64, bool); 4] = [
    ("diamond", Protocol::Pim, 11, false),
    ("line-stub", Protocol::Dvmrp, 5, false),
    ("mesh", Protocol::Cbt, 8, false),
    ("line-stub", Protocol::Pim, 2, true),
];

#[test]
fn coverage_hash_is_thread_count_invariant() {
    for (name, protocol, seed, teardown) in TABLE {
        let topo = topology(name).unwrap();
        let schedule = random_schedule(&topo, seed, teardown);
        let (_, c1) = run_case_coverage(&topo, protocol, &schedule, seed, 1);
        let (_, c4) = run_case_coverage(&topo, protocol, &schedule, seed, 4);
        assert_eq!(
            case_text(&topo, protocol, &schedule, seed, 1).telemetry,
            case_text(&topo, protocol, &schedule, seed, 4).telemetry,
            "{name}/{}/{seed}: telemetry bytes diverged across threads",
            protocol.name()
        );
        assert_eq!(
            c1.stable_hash(),
            c4.stable_hash(),
            "{name}/{}/{seed}: coverage hash diverged across threads",
            protocol.name()
        );
        assert!(
            c1.distinct() > 0,
            "{name}/{}/{seed}: coverage map is empty",
            protocol.name()
        );
        assert_eq!(c1.distinct(), c4.distinct());
        assert_eq!(c1.total(), c4.total());
        // Re-running the identical case reproduces the identical map:
        // the hash is stable, not merely collision-happy.
        let (_, c1b) = run_case_coverage(&topo, protocol, &schedule, seed, 1);
        assert_eq!(c1.stable_hash(), c1b.stable_hash());
    }
}

#[test]
fn replayed_corpus_artifacts_yield_stable_coverage_hashes() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let corpus = load_corpus(&dir).expect("corpus directory must load");
    assert!(!corpus.is_empty(), "committed corpus must not be empty");
    for (path, artifact) in corpus {
        let topo = topology(&artifact.topology).unwrap();
        let (_, c1) = run_case_coverage(
            &topo,
            artifact.protocol,
            &artifact.schedule,
            artifact.seed,
            1,
        );
        let (_, c4) = run_case_coverage(
            &topo,
            artifact.protocol,
            &artifact.schedule,
            artifact.seed,
            4,
        );
        assert_eq!(
            c1.stable_hash(),
            c4.stable_hash(),
            "{}: coverage hash diverged across threads",
            path.display()
        );
        assert!(c1.distinct() > 0, "{}: empty coverage map", path.display());
    }
}
