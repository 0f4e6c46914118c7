//! `trace TOPO PROTO SEED` replays the case the explorer ran for `SEED`,
//! so the `[repro: ./scripts/trace.sh …]` hint the explorer prints for a
//! violating case reproduces it — teardown seeds included.

use scenario::{case_text, explore_seed, topology, Protocol};
use std::process::Command;

/// Seed 2 is the first teardown seed: `trace`'s JSONL stream is the one
/// of the schedule `explore_seed` ran, every member leaving after the
/// heal.
#[test]
fn trace_replays_the_explorers_schedule_on_a_teardown_seed() {
    let topo = topology("diamond").expect("diamond is in the zoo");
    let (schedule, _) = explore_seed(&topo, 2);
    assert!(
        schedule.final_members(topo.host_routers.len()).is_empty(),
        "seed 2 runs in teardown mode"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["diamond", "pim", "2", "--jsonl"])
        .output()
        .expect("trace runs");
    assert!(out.status.success(), "trace failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("JSONL is UTF-8");
    let want = case_text(&topo, Protocol::Pim, &schedule, 2, 1).telemetry;
    assert!(
        stdout == want,
        "trace's JSONL differs from the explorer's case ({} vs {} bytes)",
        stdout.len(),
        want.len()
    );
}
