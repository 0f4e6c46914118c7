//! `mcbench`: one run of one workload (`--workload …`, the contract the
//! benchmark driver uses), or — without `--workload` — the whole suite,
//! its quick self-check (`--smoke`) or the A/A comparison (`--aa`).
//! See `benchmark/README.md`.

use mcbench::run::{self, RunArgs};
use mcbench::suite::{self, SuiteArgs, DEFAULT_SEED, OUT_DIR, RUN_SECONDS};
use mcbench::workloads::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage:
  mcbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]   one run
  mcbench [--seed N] [--reps N] [--seconds S] [--smoke | --aa]         every workload
workloads: hier_ctrl hier_ctrl_par stream_data fault_campaign fig2_trees";

#[derive(Default)]
struct Cli {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    reps: Option<usize>,
    smoke: bool,
    aa: bool,
    wrong_expectation: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err(format!("--reps {n} is outside 1..=100"));
                }
                cli.reps = Some(n);
            }
            "--smoke" => cli.smoke = true,
            "--aa" => cli.aa = true,
            // Self-test: expect one more successful operation than the
            // workload has, to show a failed check fails the run.
            "--wrong-expectation" => cli.wrong_expectation = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.smoke && cli.aa {
        return Err("--smoke and --aa exclude each other".into());
    }
    Ok(cli)
}

fn one_run(cli: &Cli, workload: Workload) -> Result<bool, String> {
    let args = RunArgs {
        workload,
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds: cli.seconds.unwrap_or(RUN_SECONDS),
        trace: cli.trace,
        smoke: cli.smoke,
        wrong_expectation: cli.wrong_expectation,
    };
    let result = run::run(&args);
    for (name, unit, value) in &result.metrics {
        println!("{name:<36} {unit:>6}  {value}");
    }
    if let Some(trace) = &result.trace {
        let path = format!("{OUT_DIR}/trace-{}.json", workload.name());
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, trace.pretty()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    println!("#detail {}", result.detail);
    println!("{}", result.result_line());
    Ok(result.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|cli| match cli.workload {
        Some(w) => one_run(&cli, w),
        None => {
            let suite_args = SuiteArgs {
                seed: cli.seed.unwrap_or(DEFAULT_SEED),
                reps: cli.reps.unwrap_or(if cli.aa { 10 } else { 5 }),
                seconds: cli
                    .seconds
                    .unwrap_or(if cli.smoke { 0.2 } else { RUN_SECONDS }),
                smoke: cli.smoke,
            };
            if cli.smoke {
                suite::smoke(&suite_args)
            } else if cli.aa {
                suite::aa(&suite_args)
            } else {
                suite::full(&suite_args)
            }
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("mcbench: a correctness check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("mcbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
