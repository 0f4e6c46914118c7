//! Deterministic fault-schedule engine and protocol-invariant oracles.
//!
//! Systematic robustness testing for the three multicast protocols in
//! this repository (PIM sparse mode, DVMRP dense mode, CBT), built from
//! three layers:
//!
//! 1. [`schedule`] — a declarative, text-serializable fault DSL: link
//!    flaps, loss ramps, router crashes with total state loss, restarts,
//!    membership churn, bandwidth caps, and traffic bursts, compiled
//!    onto the simulator's scripted-event machinery.
//! 2. [`oracle`] — cross-node invariants checked after quiescence: RPF
//!    consistency, loop freedom, eventual delivery, no orphaned state
//!    after teardown, CBT's hop-by-hop ack ledger, and graceful
//!    degradation under congestion (bounded queues, no control-plane
//!    starvation, recovery after overload clears).
//! 3. [`explore`] — a seeded explorer that samples random schedules per
//!    topology, runs all three protocols against the identical schedule
//!    with structured telemetry attached (JSONL event stream and
//!    convergence metrics, plus coverage for the search), and on
//!    violation emits a replay artifact (seed + schedule + trace and
//!    telemetry fingerprints + per-router flight-recorder tails and
//!    causal slices, read off the causal index of one replay of the
//!    case, and state dumps) that re-executes byte-identically.
//! 4. [`fuzz`] — a deterministic, dependency-free fuzz harness: seeded
//!    splitmix mutation of valid wire encodings against the decoders
//!    (never panic; accepted inputs re-encode idempotently) and live
//!    injection of malformed control frames into running engines (state
//!    stays bounded, drops are accounted, delivery recovers).
//! 5. [`search`] + [`shrink`] — coverage-guided schedule search using
//!    the telemetry event stream as feedback (a stable-hash coverage
//!    map over entry-flag transitions, timer interleavings, and oracle
//!    near-misses), paired with a deterministic greedy shrinker that
//!    minimizes every violating run to a 1-minimal schedule and
//!    re-verifies byte-identical replay before an artifact is written.
//!
//! The paper motivates this: §2 requires the architecture stay robust
//! under "unicast route changes, router failures, and membership churn";
//! the oracles turn those prose requirements into executable invariants.

#![warn(missing_docs)]

pub mod explore;
pub mod fuzz;
pub mod net;
pub mod oracle;
pub mod schedule;
pub mod search;
pub mod shrink;

pub use explore::{
    case_causal, case_text, causal_anchor, explore_seed, load_corpus, random_schedule, replay,
    replay_corpus, run_case, run_case_coverage, run_timeline, seed_schedule, slice_lines,
    topologies, topology, verify_replay, Artifact, CaseCausal, CaseOutcome, CaseText, NodeDump,
    TextLen, TopoSpec,
};
pub use fuzz::{
    corpus, fuzz_engine, fuzz_engines, fuzz_wire, mutate, EngineFuzzOutcome, SeedStream,
    WireFuzzReport,
};
pub use net::{build_net, build_net_aggregate, NetSpec, Protocol, ScenarioNet, Substrate};
pub use oracle::{
    check_battery, check_bounded_queues, check_bounded_state, check_cbt_ack_ledger,
    check_congestion_recovery, check_delivery, check_hardening, check_loop_freedom,
    check_no_orphans, check_no_starvation, check_rpf, check_structure, congested, Violation,
};
pub use schedule::{FaultEvent, FaultSchedule};
pub use search::{
    coverage_search, evaluate_schedule, random_search, Evaluation, SearchConfig, SearchReport,
};
pub use shrink::{shrink_violation, shrink_with, ShrinkResult, ShrinkStats};
