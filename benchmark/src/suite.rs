//! Everything beyond one run: the whole benchmark (`run.sh`), the quick
//! self-check (`run.sh --smoke`) and the A/A comparison (`run.sh --aa`).
//!
//! Every run is a fresh child process of this same binary, so allocator
//! state and peak RSS are per run, and workloads never run concurrently.

use crate::json::Value;
use crate::metrics::{why, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Where `run.sh` keeps what a run leaves behind (ignored by git).
pub const OUT_DIR: &str = "benchmark/out";
/// The committed record of a full run on the reference host.
pub const BASELINE: &str = "benchmark/baseline.json";
/// How long one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 15.0;
/// The default seed.
pub const DEFAULT_SEED: u64 = 1994;

/// What the suite was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct SuiteArgs {
    /// First seed.
    pub seed: u64,
    /// Untraced runs per workload (suite), or seeds per set (`--aa`).
    pub reps: usize,
    /// Seconds each run measures.
    pub seconds: f64,
    /// Tiny sizes.
    pub smoke: bool,
}

/// One finished child run.
struct Child {
    workload: Workload,
    seed: u64,
    /// The contract's result line.
    result: Value,
    /// The `#detail` line.
    detail: Value,
}

impl Child {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("child result lacks metric {name}"))
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
    }

    /// What must repeat exactly for a fixed seed.
    fn exact(&self) -> (Option<&Value>, Option<&Value>, Option<&Value>) {
        (
            self.result.get("attempted"),
            self.result.get("failed"),
            self.detail.get("sim_stats"),
        )
    }
}

fn spawn(w: Workload, seed: u64, trace: bool, args: &SuiteArgs) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("cannot start run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let tag = format!("{} seed {seed} trace {}", w.name(), u8::from(trace));
    // A run that fails a check still prints its result; only a crash
    // leaves nothing to parse.
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{tag}: no output (exit {:?})", out.status.code()))
        .and_then(|l| Value::parse(l).map_err(|e| format!("{tag}: bad result line: {e}")))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#detail "))
        .ok_or_else(|| format!("{tag}: no #detail line"))
        .and_then(|l| Value::parse(l).map_err(|e| format!("{tag}: bad detail line: {e}")))?;
    let child = Child {
        workload: w,
        seed,
        result,
        detail,
    };
    if !child.correct() {
        eprintln!("{tag}: INCORRECT");
        for c in child
            .detail
            .get("checks")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            if c.get("ok").and_then(Value::as_bool) != Some(true) {
                eprintln!(
                    "  failed check: {}",
                    c.get("what").and_then(Value::as_str).unwrap_or("?")
                );
            }
        }
    }
    Ok(child)
}

/// A metric's summary over runs, with its unit.
fn summary_json(unit: &str, values: &[f64]) -> Value {
    let mut pairs = vec![("unit".to_string(), Value::str(unit))];
    if let Value::Obj(summary) = stats::summary(values).to_json() {
        pairs.extend(summary);
    }
    Value::Obj(pairs)
}

fn host_json() -> Value {
    Value::obj([
        ("nproc", Value::Num(par::default_threads() as f64)),
        (
            "rustc",
            std::env::var("MCBENCH_RUSTC").map_or(Value::Null, |v| Value::str(&v)),
        ),
    ])
}

fn write_out(name: &str, doc: &Value) -> Result<PathBuf, String> {
    let path = Path::new(OUT_DIR).join(name);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// The committed simulated statistics for `(workload, seed)`, if the
/// baseline was recorded at that seed.
fn baseline_stats(baseline: Option<&Value>, w: Workload, seed: u64) -> Option<Value> {
    let b = baseline?;
    (b.get("seed").and_then(Value::as_f64) == Some(seed as f64)).then_some(())?;
    b.get("workloads")?.get(w.name())?.get("sim_stats").cloned()
}

/// Report one workload from its untraced runs and its traced run;
/// prints the table and returns the JSON record.
fn report(w: Workload, untraced: &[Child], traced: &Child, baseline: Option<&Value>) -> Value {
    let first = &untraced[0];
    println!("\n== {} — {}", w.name(), why(w));
    let mut e2e = Vec::new();
    for def in &END_TO_END {
        let values: Vec<f64> = untraced.iter().map(|c| c.metric(def.name)).collect();
        let s = stats::summary(&values);
        println!(
            "  {:<12} {:>4}  median {:<12.6} q1 {:<12.6} q3 {:<12.6} min {:<12.6} max {:<12.6} n {}",
            def.name, def.unit, s.median, s.q1, s.q3, s.min, s.max, s.n
        );
        e2e.push((def.name, summary_json(def.unit, &values)));
    }
    let correct = untraced.iter().chain([traced]).all(Child::correct);
    let repeatable = untraced.iter().all(|c| c.exact() == first.exact());
    let (attempted, failed, sim_stats) = first.exact();
    let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(f64::NAN);
    println!(
        "  attempted {}  failed {}  correct {correct}  repeatable {repeatable}",
        num(attempted),
        num(failed)
    );
    let expected = baseline_stats(baseline, w, first.seed);
    let stats_match = expected.as_ref().map(|e| Some(e) == sim_stats);
    match stats_match {
        Some(m) => println!("  sim_stats_match: {m}"),
        None => println!("  sim_stats_match: n/a (no committed record for this seed and size)"),
    }
    for c in first
        .detail
        .get("checks")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
    {
        println!(
            "  [{}] {}",
            if c.get("ok").and_then(Value::as_bool) == Some(true) {
                "ok"
            } else {
                "FAIL"
            },
            c.get("what").and_then(Value::as_str).unwrap_or("?")
        );
    }
    let mut record = vec![
        ("why", Value::str(why(w))),
        ("threads", Value::Num(w.threads() as f64)),
        ("end_to_end", Value::obj(e2e)),
        ("attempted", attempted.cloned().unwrap_or(Value::Null)),
        ("failed", failed.cloned().unwrap_or(Value::Null)),
        ("correct", Value::Bool(correct && repeatable)),
        ("sim_stats", sim_stats.cloned().unwrap_or(Value::Null)),
        (
            "sim_stats_match",
            stats_match.map_or(Value::Null, Value::Bool),
        ),
    ];
    println!("  per-layer (one traced run):");
    let mut layer = Vec::new();
    for def in PER_LAYER {
        let v = traced.metric(def.name);
        println!(
            "    {:<36} {:>6}  {v:<22} -> {}",
            def.name, def.unit, def.moves
        );
        layer.push((
            def.name,
            Value::obj([("value", Value::Num(v)), ("unit", Value::str(def.unit))]),
        ));
    }
    record.push(("per_layer", Value::obj(layer)));
    Value::obj(record)
}

fn finish(
    mode: &str,
    args: &SuiteArgs,
    file: &str,
    workloads: Vec<(&'static str, Value)>,
    ok: bool,
) -> Result<bool, String> {
    let doc = Value::obj([
        ("mode", Value::str(mode)),
        ("seed", Value::Num(args.seed as f64)),
        ("run_seconds", Value::Num(args.seconds)),
        ("host", host_json()),
        ("workloads", Value::obj(workloads)),
    ]);
    let path = write_out(file, &doc)?;
    println!("\nwrote {}", path.display());
    println!("result: {doc}");
    Ok(ok)
}

fn load_baseline() -> Option<Value> {
    let text = std::fs::read_to_string(BASELINE).ok()?;
    Value::parse(&text).ok()
}

/// The whole benchmark: every workload, `reps` untraced runs and one
/// traced run each. Returns whether every check passed.
pub fn full(args: &SuiteArgs) -> Result<bool, String> {
    let baseline = if args.smoke { None } else { load_baseline() };
    let mut ok = true;
    let mut records = Vec::new();
    for w in Workload::ALL {
        let untraced = (0..args.reps)
            .map(|_| spawn(w, args.seed, false, args))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = spawn(w, args.seed, true, args)?;
        let record = report(w, &untraced, &traced, baseline.as_ref());
        ok &= record.get("correct").and_then(Value::as_bool) == Some(true);
        records.push((w.name(), record));
    }
    finish("full", args, "result.json", records, ok)
}

/// The quick self-check: tiny sizes, every workload untraced and traced,
/// at the seed and at a second, held-out seed — every check that needs
/// no pinned value.
pub fn smoke(args: &SuiteArgs) -> Result<bool, String> {
    let mut ok = true;
    let mut records = Vec::new();
    for seed in [args.seed, par::mix(args.seed, 0x5eed, 1) % 1_000_000] {
        println!("\n#### smoke at seed {seed}");
        for w in Workload::ALL {
            let untraced = [spawn(w, seed, false, args)?];
            let traced = spawn(w, seed, true, args)?;
            let record = report(w, &untraced, &traced, None);
            ok &= record.get("correct").and_then(Value::as_bool) == Some(true);
            if seed == args.seed {
                records.push((w.name(), record));
            }
        }
    }
    finish("smoke", args, "smoke.json", records, ok)
}

/// One set of the A/A comparison: every workload at `reps` seeds.
fn aa_set(args: &SuiteArgs) -> Result<Vec<Child>, String> {
    let mut set = Vec::new();
    for w in Workload::ALL {
        for i in 0..args.reps as u64 {
            set.push(spawn(w, args.seed + i, false, args)?);
        }
    }
    Ok(set)
}

/// Two sets of runs of the same code, compared cell by cell the way the
/// acceptance procedure does: each set runs every workload at `reps`
/// different seeds; a cell fails when a set's spread (inter-quartile
/// distance over median; `setup_s` exempt) exceeds the metric's bound,
/// when the second median is worse than the first by more than the
/// bound, or when anything that must repeat exactly differs.
pub fn aa(args: &SuiteArgs) -> Result<bool, String> {
    let a = aa_set(args)?;
    let b = aa_set(args)?;
    let mut ok = a.iter().chain(&b).all(Child::correct);
    println!(
        "\n{:<15} {:<12} {:>12} {:>12} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    let mut records = Vec::new();
    for w in Workload::ALL {
        let of = |set: &[Child], name: &str| -> Vec<f64> {
            set.iter()
                .filter(|c| c.workload == w)
                .map(|c| c.metric(name))
                .collect()
        };
        let mut cells = Vec::new();
        for def in &END_TO_END {
            let (va, vb) = (of(&a, def.name), of(&b, def.name));
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let (sa, sb) = (stats::spread(&va), stats::spread(&vb));
            let worse = stats::worse_by(ma, mb, true);
            let spread_ok = def.name == "setup_s" || (sa <= def.bound && sb <= def.bound);
            let cell_ok = spread_ok && !stats::exceeds_bound(ma, mb, true, def.bound);
            ok &= cell_ok;
            println!(
                "{:<15} {:<12} {:>12.6} {:>12.6} {:>+7.1}% {:>8.1}% {:>8.1}% {:>5.0}%  {}",
                w.name(),
                def.name,
                ma,
                mb,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                def.bound * 100.0,
                if cell_ok { "ok" } else { "EXCEEDS" }
            );
            cells.push((
                def.name,
                Value::obj([
                    ("a", summary_json(def.unit, &va)),
                    ("b", summary_json(def.unit, &vb)),
                    ("b_worse_by", Value::Num(worse)),
                    ("spread_a", Value::Num(sa)),
                    ("spread_b", Value::Num(sb)),
                    ("bound", Value::Num(def.bound)),
                    ("ok", Value::Bool(cell_ok)),
                ]),
            ));
        }
        let exact = a
            .iter()
            .zip(&b)
            .filter(|(x, _)| x.workload == w)
            .all(|(x, y)| x.seed == y.seed && x.exact() == y.exact());
        ok &= exact;
        println!(
            "{:<15} attempted, failed and sim_stats identical in both sets: {exact}",
            w.name()
        );
        cells.push(("exact_match", Value::Bool(exact)));
        records.push((w.name(), Value::obj(cells)));
    }
    finish("aa", args, "aa.json", records, ok)
}
