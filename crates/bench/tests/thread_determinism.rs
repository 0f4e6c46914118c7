//! The fan-out contract, end to end: the figure binaries must print
//! bit-identical stdout for every `--threads` value. Trial `t` of stream
//! `s` always seeds its RNG with `par::mix(seed, s, t)` regardless of
//! which worker runs it, and results are reassembled in trial order — so
//! parallelism is purely a wall-clock lever, never a results variable.

use std::process::Command;

/// Run a bench binary and return its stdout, asserting success.
fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout must be UTF-8")
}

/// stdout must be byte-identical across thread counts (and non-trivial).
fn assert_thread_invariant(bin: &str, base_args: &[&str]) {
    let mut outputs = Vec::new();
    for threads in ["1", "2", "4", "8"] {
        let mut args = base_args.to_vec();
        args.extend(["--threads", threads]);
        outputs.push(run(bin, &args));
    }
    assert!(
        outputs[0].lines().count() > 5,
        "suspiciously short output:\n{}",
        outputs[0]
    );
    for (i, threads) in ["2", "4", "8"].iter().enumerate() {
        assert_eq!(
            outputs[0],
            outputs[i + 1],
            "{bin}: 1 vs {threads} threads diverged"
        );
    }
}

#[test]
fn fig2a_output_is_thread_count_invariant() {
    assert_thread_invariant(env!("CARGO_BIN_EXE_fig2a"), &["--trials", "4"]);
}

#[test]
fn fig2b_output_is_thread_count_invariant() {
    assert_thread_invariant(
        env!("CARGO_BIN_EXE_fig2b"),
        &["--trials", "1", "--groups", "20"],
    );
}

#[test]
fn ablation_output_is_thread_count_invariant() {
    assert_thread_invariant(env!("CARGO_BIN_EXE_ablation"), &["--trials", "2"]);
}

/// `--seed` still changes the numbers (the invariance above isn't a
/// constant-output bug).
#[test]
fn fig2a_seed_actually_steers_results() {
    let bin = env!("CARGO_BIN_EXE_fig2a");
    let a = run(bin, &["--trials", "3", "--seed", "1"]);
    let b = run(bin, &["--trials", "3", "--seed", "2"]);
    assert_ne!(a, b, "different seeds must change the sweep");
}
