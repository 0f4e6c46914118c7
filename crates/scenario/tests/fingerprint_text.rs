//! A case's two fingerprints are hashes of text: the trace fingerprint
//! hashes each line `trace_lines` renders, the telemetry fingerprint the
//! whole stream a `JsonlSink<Vec<u8>>` writes. This holds `run_case`'s
//! fingerprints and sizes to that text, rendered here from the public
//! pieces on the same `run_timeline`, for every topology × protocol, a
//! delivery and a teardown schedule, at 1 and 2 threads. However a case
//! computes its fingerprints, they must stay these hashes.

use scenario::explore::trace_lines;
use scenario::{random_schedule, run_case_coverage, run_timeline, topologies, Protocol};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use telemetry::JsonlSink;

#[test]
fn case_fingerprints_hash_the_rendered_text() {
    for topo in &topologies() {
        for (seed, teardown) in [(4u64, false), (5, true)] {
            let schedule = random_schedule(topo, seed, teardown);
            for protocol in Protocol::ALL {
                for threads in [1usize, 2] {
                    let case = format!(
                        "{} {} seed {seed} threads {threads}",
                        topo.name,
                        protocol.name()
                    );
                    let (outcome, _) = run_case_coverage(topo, protocol, &schedule, seed, threads);

                    let jsonl = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
                    let net = run_timeline(
                        topo,
                        protocol,
                        &schedule,
                        seed,
                        threads,
                        Some(jsonl.clone()),
                    );
                    let trace = trace_lines(&net.world);
                    let text = String::from_utf8(telemetry::lock(&jsonl).get_ref().clone())
                        .expect("JSONL is UTF-8");

                    let mut h = DefaultHasher::new();
                    for line in &trace {
                        line.hash(&mut h);
                    }
                    assert_eq!(outcome.fingerprint, h.finish(), "{case}: trace fingerprint");
                    let mut h = DefaultHasher::new();
                    text.hash(&mut h);
                    assert_eq!(
                        outcome.telemetry_fingerprint,
                        h.finish(),
                        "{case}: telemetry fingerprint"
                    );
                    assert_eq!(outcome.trace.len(), trace.len(), "{case}: trace lines");
                    assert_eq!(outcome.telemetry.len(), text.len(), "{case}: JSONL bytes");
                    assert!(
                        trace.len() > 100 && text.len() > 10_000,
                        "{case}: a real run"
                    );
                }
            }
        }
    }
}
