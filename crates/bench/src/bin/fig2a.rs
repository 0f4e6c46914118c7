//! **Figure 2(a)** — ratio of maximum group delay: optimal center-based
//! tree vs shortest-path trees.
//!
//! Paper setup (§1.3): "For each node degree, we tried 500 different
//! 50-node graphs with 10-member groups chosen randomly. ... the maximum
//! delays of core-based trees with optimal core placement are up to 1.4
//! times of the shortest-path trees."
//!
//! Run: `cargo run -p bench --release --bin fig2a [--trials N] [--seed N]
//! [--threads N] [--smoke]`
//!
//! Trials fan out over a deterministic scoped-thread pool: trial `t` of
//! degree `d` always draws from `StdRng::seed_from_u64(par::mix(seed, d,
//! t))`, so stdout is bit-identical for every `--threads` value.
//!
//! Output: one row per node degree with the mean ratio and its standard
//! deviation (the paper's error bars). Footnote 2 of the paper applies
//! here too: no individual ratio is ever below 1 (see the `min` column);
//! error bars dipping below 1 are symmetric-bar artifacts.

use bench::{cli, stats};
use graph::algo::AllPairs;
use graph::gen::{random_connected, RandomGraphParams};
use mctree::{optimal_center_delay, spt_max_delay, GroupSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 50;
const MEMBERS: usize = 10;

/// One Monte-Carlo trial: the center/SPT max-delay ratio for a fresh
/// random graph and group. All randomness comes from the per-trial seed.
fn trial(seed: u64, degree: u32, trial_idx: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(par::mix(seed, degree as u64, trial_idx as u64));
    let g = random_connected(
        &RandomGraphParams {
            nodes: NODES,
            avg_degree: degree as f64,
            delay_range: (1, 10),
        },
        &mut rng,
    );
    let ap = AllPairs::new(&g);
    let spec = GroupSpec::random(NODES, MEMBERS, MEMBERS, &mut rng);
    let spt = spt_max_delay(&ap, &spec.members) as f64;
    let (_, center) = optimal_center_delay(&g, &ap, &spec.members);
    center as f64 / spt
}

/// The full degree sweep; returns the printable rows.
fn sweep(args: &cli::Args) -> Vec<String> {
    (3..=8u32)
        .map(|degree| {
            let ratios =
                par::run_trials(args.threads, args.trials, |t| trial(args.seed, degree, t));
            let s = stats(&ratios);
            let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = ratios.iter().cloned().fold(0.0f64, f64::max);
            format!(
                "{:<8} {:>8} {:>12.4} {:>10.4} {:>8.3} {:>8.3}",
                degree, args.trials, s.mean, s.sd, min, max
            )
        })
        .collect()
}

fn main() {
    let args = cli::parse_smoke(500, 24);
    println!("# Figure 2(a): max-delay ratio, optimal center-based tree / shortest-path trees");
    println!(
        "# {NODES}-node random graphs, {MEMBERS}-member groups, {} graphs per degree, seed {}",
        args.trials, args.seed
    );
    println!(
        "{:<8} {:>8} {:>12} {:>10} {:>8} {:>8}",
        "degree", "trials", "mean_ratio", "sd", "min", "max"
    );
    for row in sweep(&args) {
        println!("{row}");
    }
    println!("# Paper's shape: ratio > 1 everywhere, rising toward ~1.2-1.4 at higher degrees;");
    println!("# no real data point below 1 (footnote 2).");
}
