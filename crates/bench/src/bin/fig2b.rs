//! **Figure 2(b)** — traffic concentration: maximum number of traffic
//! flows on any link, shortest-path trees vs center-based trees.
//!
//! Paper setup (§1.3): "In each network, there were 300 active groups all
//! having 40 members, of which 32 members were also senders. We measured
//! the number of traffic flows on each link of the network, then recorded
//! the maximum number within the network. For each node degree between
//! three and eight, 500 random networks were generated, and the measured
//! maximum number of traffic flows were averaged. ... It is clear from
//! this experiment that CBT exhibits greater traffic concentrations."
//!
//! Run: `cargo run -p bench --release --bin fig2b [--trials N] [--seed N]
//! [--threads N] [--groups N] [--smoke]`
//! (The full 500×6 sweep builds 29 million source trees, about 10 s on
//! one thread of a 2-vCPU host; `--quick` runs 50×6 and `--smoke` runs
//! 3×6 with 60 groups.)
//!
//! Trials fan out over a deterministic scoped-thread pool: trial `t` of
//! degree `d` draws from `StdRng::seed_from_u64(par::mix(seed, d, t))`,
//! so stdout is bit-identical for every `--threads` value.

use bench::{cli, stats};
use graph::algo::AllPairs;
use graph::gen::{random_connected, RandomGraphParams};
use mctree::flows::{max_flows, one_center};
use mctree::{cbt_link_flows, spt_link_flows, GroupSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 50;
const MEMBERS: usize = 40;
const SENDERS: usize = 32;

/// One Monte-Carlo network: (max SPT flows, max CBT flows).
fn trial(seed: u64, degree: u32, trial_idx: usize, groups: usize) -> (f64, f64) {
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
    let specs: Vec<GroupSpec> = (0..groups)
        .map(|_| GroupSpec::random(NODES, MEMBERS, SENDERS, &mut rng))
        .collect();
    let spt = spt_link_flows(&g, &ap, &specs);
    let cbt = cbt_link_flows(&g, &ap, &specs, |spec| one_center(&g, &ap, &spec.members));
    (max_flows(&spt) as f64, max_flows(&cbt) as f64)
}

/// The full degree sweep; returns the printable rows.
fn sweep(args: &cli::Args, groups: usize) -> Vec<String> {
    (3..=8u32)
        .map(|degree| {
            let pairs = par::run_trials(args.threads, args.trials, |t| {
                trial(args.seed, degree, t, groups)
            });
            let spt_max: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let cbt_max: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let s = stats(&spt_max);
            let c = stats(&cbt_max);
            format!(
                "{:<8} {:>8} {:>12.1} {:>10.1} {:>12.1} {:>10.1} {:>8.3}",
                degree,
                args.trials,
                s.mean,
                s.sd,
                c.mean,
                c.sd,
                c.mean / s.mean
            )
        })
        .collect()
}

fn main() {
    let args = cli::parse_smoke(500, 3);
    let groups = args.groups.unwrap_or(if args.smoke { 60 } else { 300 });
    println!("# Figure 2(b): max traffic flows on any link, SPT vs center-based tree");
    println!(
        "# {NODES}-node networks, {groups} groups x {MEMBERS} members ({SENDERS} senders), {} networks per degree, seed {}",
        args.trials, args.seed
    );
    println!(
        "{:<8} {:>8} {:>12} {:>10} {:>12} {:>10} {:>8}",
        "degree", "trials", "spt_mean", "spt_sd", "cbt_mean", "cbt_sd", "cbt/spt"
    );
    for row in sweep(&args, groups) {
        println!("{row}");
    }
    println!("# Paper's shape: center-based trees concentrate noticeably more flows on the");
    println!("# hottest link at every degree, with both curves falling as degree rises.");
}
