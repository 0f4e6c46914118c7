//! The benchmark against its own contract: `BENCHMARK.json` names what
//! the code measures and nothing else, a `--smoke` run prints exactly
//! those names, and a failed check fails the run.

use mcbench::json::Value;
use mcbench::metrics::{why, END_TO_END, PER_LAYER};
use mcbench::suite::RUN_SECONDS;
use mcbench::workloads::Workload;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    Value::parse(&text).expect("BENCHMARK.json is JSON")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {key} in {v}"))
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the array {key}"))
}

/// Run the benchmark binary from the repo root (it writes under
/// `benchmark/out`, relative to where it is started).
fn mcbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mcbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("mcbench starts")
}

#[test]
fn benchmark_json_lists_exactly_what_the_code_defines() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS)
    );

    let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|w| (str_of(w, "name"), str_of(w, "why")))
        .collect();
    let defined: Vec<(&str, &str)> = Workload::ALL.iter().map(|&w| (w.name(), why(w))).collect();
    assert_eq!(workloads, defined);

    let e2e: Vec<(&str, &str, &str, Option<f64>)> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| {
            (
                str_of(m, "name"),
                str_of(m, "unit"),
                str_of(m, "better"),
                m.get("bound").and_then(Value::as_f64),
            )
        })
        .collect();
    let defined: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, "lower", Some(m.bound)))
        .collect();
    assert_eq!(e2e, defined);

    let per_layer: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
        .collect();
    let defined: Vec<_> = PER_LAYER
        .iter()
        .map(|m| {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            (m.name, m.unit, better)
        })
        .collect();
    assert_eq!(per_layer, defined);
}

#[test]
fn smoke_run_prints_every_listed_name_and_no_other() {
    let out = mcbench(&["--smoke", "--seconds", "0.05"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("result: "))
        .expect("the last line is the result document");
    let result = Value::parse(result).expect("the result document is JSON");

    let doc = benchmark_json();
    let listed = |key: &str| -> BTreeSet<String> {
        entries(&doc, key)
            .iter()
            .map(|m| str_of(m, "name").to_string())
            .collect()
    };
    let workloads = result
        .get("workloads")
        .and_then(Value::as_obj)
        .expect("workloads in the result");
    let printed: BTreeSet<String> = workloads.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(printed, listed("workloads"));
    for (name, record) in workloads {
        let names_under = |key: &str| -> BTreeSet<String> {
            record
                .get(key)
                .and_then(Value::as_obj)
                .unwrap_or_else(|| panic!("{name} lacks {key}"))
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(names_under("end_to_end"), listed("end_to_end"), "{name}");
        assert_eq!(names_under("per_layer"), listed("per_layer"), "{name}");
        assert_eq!(
            record.get("correct").and_then(Value::as_bool),
            Some(true),
            "{name}"
        );
    }
}

#[test]
fn a_wrong_expectation_fails_the_run() {
    let args = [
        "--workload",
        "fig2_trees",
        "--seed",
        "1",
        "--seconds",
        "0.05",
        "--trace",
        "0",
        "--smoke",
    ];
    let good = mcbench(&args);
    assert_eq!(good.status.code(), Some(0));

    let mut wrong = args.to_vec();
    wrong.push("--wrong-expectation");
    let bad = mcbench(&wrong);
    assert_eq!(
        bad.status.code(),
        Some(1),
        "a failed check must fail the run"
    );
    let stdout = String::from_utf8_lossy(&bad.stdout);
    let result = Value::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(1.0));
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--trace", "2"],
        &["--smoke", "--aa"],
        &["--frobnicate"],
    ] {
        let out = mcbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
