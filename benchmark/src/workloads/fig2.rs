//! `fig2_trees`: the Fig. 2 tree study. The Fig. 2(b) kernel (all-pairs
//! shortest paths, SPT link flows, CBT link flows with their centre) on
//! networks of degree 3–8, then Fig. 2(a) trials (optimal-centre delay
//! vs SPT delay). Touches `graph`, `mctree` and `par` and no simulator
//! code: every simulator optimisation must predict "no change" here.

use super::{slice, Check, Fold, Rep, SimStats, Stat, Workload};
use crate::span::Tracer;
use graph::algo::AllPairs;
use graph::gen::{random_connected, RandomGraphParams};
use graph::Graph;
use mctree::flows::{max_flows, one_center};
use mctree::{cbt_link_flows, optimal_center_delay, spt_link_flows, spt_max_delay, GroupSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Size {
    /// Fig. 2(b) networks per degree.
    networks: usize,
    groups: usize,
    /// Fig. 2(a) trials per degree.
    delay_trials: usize,
}

const FULL: Size = Size {
    networks: 3,
    groups: 300,
    delay_trials: 50,
};
const SMOKE: Size = Size {
    networks: 1,
    groups: 30,
    delay_trials: 5,
};

const NODES: usize = 50;
const DEGREES: std::ops::RangeInclusive<u32> = 3..=8;
const FLOW_MEMBERS: usize = 40;
const FLOW_SENDERS: usize = 32;
const DELAY_MEMBERS: usize = 10;

/// One generated network with its groups.
struct Net {
    degree: u32,
    graph: Graph,
    groups: Vec<GroupSpec>,
}

struct Input {
    /// Fig. 2(b): `groups` groups of 40 members, 32 senders.
    flow_nets: Vec<Net>,
    /// Fig. 2(a): one 10-member group.
    delay_nets: Vec<Net>,
    gen_s: f64,
}

fn gen_net(
    seed: u64,
    part: u64,
    degree: u32,
    idx: usize,
    groups: usize,
    members: usize,
    senders: usize,
) -> Net {
    let stream = (Workload::Fig2Trees as u64) << 8 | part << 4 | u64::from(degree);
    let mut rng = StdRng::seed_from_u64(par::mix(seed, stream, idx as u64));
    let graph = random_connected(
        &RandomGraphParams {
            nodes: NODES,
            avg_degree: f64::from(degree),
            delay_range: (1, 10),
        },
        &mut rng,
    );
    let groups = (0..groups)
        .map(|_| GroupSpec::random(NODES, members, senders, &mut rng))
        .collect();
    Net {
        degree,
        graph,
        groups,
    }
}

fn setup(seed: u64, size: &Size, tracer: &mut Tracer) -> Input {
    let ((flow_nets, delay_nets), gen_s) = tracer.time("random_connected", "graph", |_| {
        let mut flow_nets = Vec::new();
        let mut delay_nets = Vec::new();
        for degree in DEGREES {
            for i in 0..size.networks {
                flow_nets.push(gen_net(
                    seed,
                    0,
                    degree,
                    i,
                    size.groups,
                    FLOW_MEMBERS,
                    FLOW_SENDERS,
                ));
            }
            for i in 0..size.delay_trials {
                delay_nets.push(gen_net(seed, 1, degree, i, 1, DELAY_MEMBERS, DELAY_MEMBERS));
            }
        }
        (flow_nets, delay_nets)
    });
    Input {
        flow_nets,
        delay_nets,
        gen_s,
    }
}

/// One Fig. 2(b) trial: the result and where its time went.
#[derive(Clone, Copy, PartialEq, Debug)]
struct FlowTrial {
    spt_max: u32,
    cbt_max: u32,
}

/// Where one Fig. 2(b) trial's time went, and its slices.
#[derive(Clone, Default)]
struct FlowTimes {
    all_pairs_s: f64,
    spt_s: f64,
    cbt_s: f64,
    /// All-pairs, then one slice per chunk of groups.
    slices: Vec<f64>,
}

/// Groups per slice. Flow counts add up over groups, so counting them
/// chunk by chunk gives the same totals as one call over all groups.
const GROUP_CHUNK: usize = 25;

fn flow_trial(net: &Net) -> (FlowTrial, FlowTimes) {
    let g = &net.graph;
    let mut times = FlowTimes::default();
    let ap = slice(&mut times.slices, || AllPairs::new(g));
    times.all_pairs_s = times.slices[0];
    let mut spt = vec![0u32; g.edge_count()];
    let mut cbt = vec![0u32; g.edge_count()];
    let add = |total: &mut [u32], part: Vec<u32>| {
        for (t, p) in total.iter_mut().zip(part) {
            *t += p;
        }
    };
    for chunk in net.groups.chunks(GROUP_CHUNK) {
        let t0 = Instant::now();
        add(&mut spt, spt_link_flows(g, &ap, chunk));
        let t1 = Instant::now();
        add(
            &mut cbt,
            cbt_link_flows(g, &ap, chunk, |spec| one_center(g, &ap, &spec.members)),
        );
        let t2 = Instant::now();
        times.spt_s += (t1 - t0).as_secs_f64();
        times.cbt_s += (t2 - t1).as_secs_f64();
        times.slices.push((t2 - t0).as_secs_f64());
    }
    (
        FlowTrial {
            spt_max: max_flows(&spt),
            cbt_max: max_flows(&cbt),
        },
        times,
    )
}

/// One Fig. 2(a) trial: centre-tree / SPT maximum-delay ratio, and the
/// nanoseconds the centre search took.
fn delay_trial(net: &Net) -> (f64, u64) {
    let ap = AllPairs::new(&net.graph);
    let members = &net.groups[0].members;
    let spt = spt_max_delay(&ap, members) as f64;
    let t0 = Instant::now();
    let (_, center) = optimal_center_delay(&net.graph, &ap, members);
    (center as f64 / spt, t0.elapsed().as_nanos() as u64)
}

fn flow_sweep(input: &Input, threads: usize) -> Vec<(FlowTrial, FlowTimes)> {
    par::run_trials(threads, input.flow_nets.len(), |i| {
        flow_trial(&input.flow_nets[i])
    })
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// One repetition.
pub fn rep(seed: u64, smoke: bool, traced: bool, tracer: &mut Tracer) -> Rep {
    let size = if smoke { &SMOKE } else { &FULL };
    let (input, setup_s) = tracer.time("setup", "bench", |t| setup(seed, size, t));

    // Fig. 2(b): per network, all-pairs then one slice per chunk of
    // groups; Fig. 2(a): one slice per degree.
    let mut slices = Vec::new();
    let ((flows, flow_s, delays, delay_s), _) = tracer.time("run", "bench", |t| {
        let (flows, flow_s) = t.time("fig2b_sweep", "mctree", |_| flow_sweep(&input, 1));
        slices.extend(flows.iter().flat_map(|(_, t)| t.slices.iter().copied()));
        let (delays, delay_s) = t.time("fig2a_sweep", "mctree", |_| {
            let mut all = Vec::with_capacity(input.delay_nets.len());
            for of_degree in input.delay_nets.chunks(size.delay_trials) {
                slice(&mut slices, || {
                    all.extend(par::run_trials(1, of_degree.len(), |i| {
                        delay_trial(&of_degree[i])
                    }));
                });
            }
            all
        });
        (flows, flow_s, delays, delay_s)
    });

    // Paper's shape: centre-based trees concentrate more flows on the
    // hottest link at every degree; no delay ratio is ever below 1.
    let mut sim_stats: SimStats = Vec::new();
    let mut failed = 0u64;
    let mut fp = Fold::default();
    let mut shape_ok = true;
    for degree in DEGREES {
        let of_degree = || {
            input
                .flow_nets
                .iter()
                .zip(&flows)
                .filter(move |(n, _)| n.degree == degree)
                .map(|(_, (t, _))| *t)
        };
        let spt = mean(of_degree().map(|t| f64::from(t.spt_max)));
        let cbt = mean(of_degree().map(|t| f64::from(t.cbt_max)));
        if cbt < spt {
            shape_ok = false;
            failed += of_degree().count() as u64;
        }
        sim_stats.push((format!("spt_max_flows_d{degree}"), Stat::Real(spt)));
        sim_stats.push((format!("cbt_max_flows_d{degree}"), Stat::Real(cbt)));
    }
    for (t, _) in &flows {
        fp.push(u64::from(t.spt_max));
        fp.push(u64::from(t.cbt_max));
    }
    let below_one = delays.iter().filter(|(r, _)| *r < 1.0).count() as u64;
    failed += below_one;
    for (r, _) in &delays {
        fp.push(r.to_bits());
    }
    sim_stats.push((
        "delay_ratio_mean".into(),
        Stat::Real(mean(delays.iter().map(|(r, _)| *r))),
    ));
    sim_stats.push(("results_fingerprint".into(), Stat::Hash(fp.0)));

    let mut checks = vec![
        Check::new(
            shape_ok,
            "CBT max link flows >= SPT max link flows at every degree".to_string(),
        ),
        Check::new(below_one == 0, format!("delay ratios below 1: {below_one}")),
    ];

    let mut layer = Vec::new();
    if traced {
        // The same sweep on two threads must give identical rows.
        let (flows_2t, flow_2t_s) = tracer.time("fig2b_sweep_2t", "par", |_| flow_sweep(&input, 2));
        let differing = flows
            .iter()
            .zip(&flows_2t)
            .filter(|((a, _), (b, _))| a != b)
            .count() as u64;
        failed += differing;
        checks.push(Check::new(
            differing == 0,
            format!("trials differing between the 1-thread and 2-thread pass: {differing}"),
        ));
        let n = flows.len() as f64;
        let mean = |f: fn(&FlowTimes) -> f64| flows.iter().map(|(_, t)| f(t)).sum::<f64>() / n;
        let center_ns: u64 = delays.iter().map(|(_, ns)| *ns).sum();
        layer = vec![
            ("graph.gen_s", input.gen_s),
            ("graph.all_pairs_us_50n", mean(|t| t.all_pairs_s) * 1e6),
            ("mctree.spt_flows_ms_per_trial", mean(|t| t.spt_s) * 1e3),
            ("mctree.cbt_flows_ms_per_trial", mean(|t| t.cbt_s) * 1e3),
            (
                "mctree.center_search_us",
                center_ns as f64 / delays.len() as f64 / 1e3,
            ),
            ("mctree.fig2a_trials_per_s", delays.len() as f64 / delay_s),
            ("par.speedup_2t", flow_s / flow_2t_s),
        ];
    }

    Rep {
        setup_s,
        slices,
        attempted: (flows.len() + delays.len()) as u64,
        failed,
        sim_stats,
        checks,
        layer,
    }
}
