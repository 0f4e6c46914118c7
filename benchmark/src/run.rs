//! One run of one workload: repeat set-up + timed run for the time
//! budget, check the outputs, and reduce the reps to the run's metrics.
//!
//! `--trace 0` gives the end-to-end metrics from untraced reps.
//! `--trace 1` spends part of the budget on untraced reps (the base of
//! `trace.overhead_ratio`), part on traced reps (the world's profile and
//! the benchmark's spans on), then runs every layer drive, and gives the
//! per-layer metrics.

use crate::drives;
use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::span::{self, Tracer};
use crate::stats::{self, best_slice_sum};
use crate::workloads::{hier, sim_stats_json, Check, Rep, Workload};
use std::time::Instant;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Feeds input generation only.
    pub seed: u64,
    /// How long to keep repeating, host seconds.
    pub seconds: f64,
    /// Per-layer metrics instead of end-to-end metrics.
    pub trace: bool,
    /// Tiny sizes (for `run.sh --smoke`).
    pub smoke: bool,
    /// Self-test: expect one more successful operation than the
    /// workload has, so the run must report a failure.
    pub wrong_expectation: bool,
}

/// The outcome of one run.
pub struct RunResult {
    /// Did every output and shape check hold, with zero failed operations?
    pub correct: bool,
    /// Operations attempted by one rep.
    pub attempted: u64,
    /// Operations failed in one rep.
    pub failed: u64,
    /// `(name, unit, value)` of every metric this run reports.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Everything else worth keeping: reps, checks, simulated statistics.
    pub detail: Value,
    /// The spans, when traced.
    pub trace: Option<Value>,
}

/// Fewest reps a phase accepts, however slow the host.
const MIN_REPS: usize = 2;

/// Repeat `workload` until `seconds` have passed (at least `MIN_REPS`).
fn rep_loop(args: &RunArgs, seconds: f64, traced: bool, tracer: &mut Tracer) -> Vec<Rep> {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        tracer.set_rep(reps.len() as u32);
        reps.push(args.workload.rep(args.seed, args.smoke, traced, tracer));
    }
    reps
}

fn best_run_s(reps: &[Rep]) -> f64 {
    let slices: Vec<&[f64]> = reps.iter().map(|r| r.slices.as_slice()).collect();
    best_slice_sum(&slices)
}

/// Run one workload once.
pub fn run(args: &RunArgs) -> RunResult {
    let mut tracer = Tracer::new();
    let mut checks: Vec<Check> = Vec::new();

    // hier_ctrl_par's outputs are judged against the same inputs on one
    // thread; a traced run also needs that run's time for the speed-up.
    let mut scratch = Tracer::new();
    let serial: Vec<Rep> = if args.workload == Workload::HierCtrlPar {
        let n = if args.trace { MIN_REPS } else { 1 };
        (0..n)
            .map(|_| hier::rep(args.seed, args.smoke, 1, false, &mut scratch))
            .collect()
    } else {
        Vec::new()
    };

    let share = if args.trace { 0.4 } else { 1.0 };
    let untraced = rep_loop(args, args.seconds * share, false, &mut tracer);
    let traced = if args.trace {
        rep_loop(args, args.seconds * share, true, &mut tracer)
    } else {
        Vec::new()
    };

    // Every rep of a seed must tell the same story.
    let first = &untraced[0];
    let all = || untraced.iter().chain(&traced);
    let identical = all().all(|r| r.sim_stats == first.sim_stats && r.attempted == first.attempted);
    checks.push(Check::new(
        identical,
        format!("sim_stats identical over {} reps", all().count()),
    ));
    // A traced rep can fail operations an untraced one does not attempt
    // (fig2_trees' 2-thread pass): count the worst rep.
    let mut attempted = first.attempted;
    let mut failed = all().map(|r| r.failed).max().unwrap_or(0);
    if let Some(reference) = serial.first() {
        let equal = reference.sim_stats == first.sim_stats;
        attempted += 1;
        failed += u64::from(!equal);
        checks.push(Check::new(
            equal,
            "sim_stats equal to the same inputs on 1 thread".to_string(),
        ));
    }
    // Output and shape checks of every rep (they are deterministic, but a
    // traced rep adds checks an untraced one cannot make).
    for r in all() {
        for c in &r.checks {
            if !checks.contains(c) {
                checks.push(c.clone());
            }
        }
    }
    if args.wrong_expectation {
        attempted += 1;
        failed += 1;
        checks.push(Check::new(
            false,
            format!("{attempted} operations expected to succeed (deliberately one too many)"),
        ));
    }
    let correct = failed == 0 && checks.iter().all(|c| c.ok);

    let run_s = best_run_s(&untraced);
    let rep_run_s: Vec<f64> = untraced.iter().map(Rep::run_s).collect();
    let rep_setup_s: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();

    let mut metrics = Vec::new();
    let mut trace = None;
    if args.trace {
        let mut layer = layer_metrics(args, &untraced, &traced, &serial);
        layer.extend(drives::run_all(args.seed, args.smoke));
        for def in PER_LAYER {
            let value = layer
                .iter()
                .find(|(k, _)| *k == def.name)
                .map_or(0.0, |(_, v)| *v);
            metrics.push((def.name, def.unit, value));
        }
        debug_assert!(
            layer
                .iter()
                .all(|(k, _)| PER_LAYER.iter().any(|d| d.name == *k)),
            "a measured metric is missing from metrics::PER_LAYER"
        );
        trace = Some(Value::obj([
            ("workload", Value::str(args.workload.name())),
            ("seed", Value::Num(args.seed as f64)),
            (
                "self_time_by_layer_s",
                Value::obj(
                    span::self_time_by_layer(tracer.spans())
                        .into_iter()
                        .map(|(l, s)| (l, Value::Num(s))),
                ),
            ),
            (
                "per_layer",
                Value::obj(metrics.iter().map(|(k, _, v)| (*k, Value::Num(*v)))),
            ),
            ("spans", tracer.to_json(args.workload.name())),
        ]));
    } else {
        let peak = crate::rss::peak_rss_mib().expect("VmHWM in /proc/self/status");
        for (def, value) in END_TO_END
            .iter()
            .zip([stats::min(&rep_setup_s), run_s, peak])
        {
            metrics.push((def.name, def.unit, value));
        }
    }

    let detail = Value::obj([
        ("workload", Value::str(args.workload.name())),
        ("seed", Value::Num(args.seed as f64)),
        ("smoke", Value::Bool(args.smoke)),
        ("trace", Value::Bool(args.trace)),
        ("threads", Value::Num(args.workload.threads() as f64)),
        (
            "available_parallelism",
            Value::Num(par::default_threads() as f64),
        ),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("run_s", Value::Num(run_s)),
        ("rep_run_s", stats::summary(&rep_run_s).to_json()),
        ("rep_setup_s", stats::summary(&rep_setup_s).to_json()),
        ("slices", Value::Num(first.slices.len() as f64)),
        ("sim_stats", sim_stats_json(&first.sim_stats)),
        (
            "checks",
            Value::Arr(
                checks
                    .iter()
                    .map(|c| Value::obj([("ok", Value::Bool(c.ok)), ("what", Value::str(&c.what))]))
                    .collect(),
            ),
        ),
    ]);
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
        detail,
        trace,
    }
}

/// The per-layer metrics the workload's own reps give (the drives add
/// theirs): each traced-rep metric is the median over the traced reps,
/// and three are quotients of best run times.
fn layer_metrics(
    args: &RunArgs,
    untraced: &[Rep],
    traced: &[Rep],
    serial: &[Rep],
) -> Vec<(&'static str, f64)> {
    let mut layer: Vec<(&'static str, f64)> = Vec::new();
    for (name, _) in &traced[0].layer {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.layer.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
            .collect();
        layer.push((name, stats::median(&values)));
    }
    layer.push((
        "trace.overhead_ratio",
        best_run_s(traced) / best_run_s(untraced),
    ));
    if !serial.is_empty() {
        layer.push((
            "netsim.par_speedup",
            best_run_s(serial) / best_run_s(untraced),
        ));
    }
    if args.workload == Workload::FaultCampaign {
        // One slice per case: the per-case time is the best any rep saw.
        let cases = untraced[0].slices.len();
        let case_ms: Vec<f64> = (0..cases)
            .map(|j| stats::min(&untraced.iter().map(|r| r.slices[j]).collect::<Vec<_>>()) * 1e3)
            .collect();
        layer.push(("scenario.case_ms_p50", stats::percentile(&case_ms, 50.0)));
        layer.push(("scenario.case_ms_p98", stats::percentile(&case_ms, 98.0)));
    }
    layer
}

impl RunResult {
    /// The run's one-line JSON result: `correct`, `attempted`, `failed`
    /// and `metrics`, nothing else.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(name, unit, value)| {
                    (
                        *name,
                        Value::obj([("value", Value::Num(*value)), ("unit", Value::str(unit))]),
                    )
                })),
            ),
        ])
        .to_string()
    }
}
