//! Shared experiment infrastructure for the figure-regeneration binaries
//! (see DESIGN.md §2 for the experiment index):
//!
//! * [`stats`] — mean/std-dev for the Monte-Carlo figures;
//! * [`Workload`]/[`run_protocol_sim_opts`] — drive a membership+traffic
//!   scenario over a network from [`scenario::NetSpec`] (PIM in SPT or
//!   shared-tree mode, DVMRP, or CBT, over any [`graph::Graph`]) and
//!   collect the paper's overhead metrics (router state, control packets,
//!   data packets, link concentration, deliveries);
//! * [`cli`] — tiny flag parsing shared by the binaries.

#![warn(missing_docs)]

use graph::{Graph, NodeId};
use netsim::{CtrlProto, LinkCapacity, LinkId, LinkKind, NodeIdx, SimTime};
use pim::PimConfig;
use scenario::{NetSpec, Protocol};
use std::collections::BTreeSet;
use wire::Group;

/// Mean and standard deviation of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator).
    pub sd: f64,
}

/// Compute sample statistics.
pub fn stats(xs: &[f64]) -> Stats {
    assert!(!xs.is_empty(), "empty sample");
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let sd = if xs.len() < 2 {
        0.0
    } else {
        (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
    };
    Stats { mean, sd }
}

/// One multicast group's membership and traffic for a protocol run.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The group.
    pub group: Group,
    /// Routers with a member host attached.
    pub members: Vec<NodeId>,
    /// Routers with a sending host attached.
    pub senders: Vec<NodeId>,
    /// The RP (PIM) / core (CBT) router for the group. Ignored by DVMRP.
    pub rendezvous: NodeId,
}

/// Overhead metrics from one protocol run — the paper's §1 efficiency
/// measures ("state, control message processing, and data packet
/// processing required across the entire network").
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Multicast forwarding entries summed over all routers at the end.
    pub state_entries: usize,
    /// Control packets transmitted network-wide.
    pub control_pkts: u64,
    /// Data packets transmitted network-wide (per-link transits).
    pub data_pkts: u64,
    /// Distinct links that carried at least one data packet.
    pub data_links_used: usize,
    /// The hottest link's data-packet count (traffic concentration).
    pub max_link_data: u64,
    /// Unique packets received by member hosts (host-side truth).
    pub deliveries: u64,
    /// Duplicate packet receptions at member hosts.
    pub duplicates: u64,
    /// The deliveries a perfect protocol would make.
    pub expected_deliveries: u64,
    /// Data packets per router-router link, indexed by graph edge id.
    pub link_data: Vec<u64>,
    /// Events the world dispatched (deliveries + timers + scripts) — the
    /// event-loop cost of the run; tracks state churn, not wall-clock.
    pub events_dispatched: u64,
    /// Timer events that fired.
    pub timers_fired: u64,
    /// Stale timer-heap entries skipped (lazy-deletion cost of
    /// reschedulable timers).
    pub timers_skipped_stale: u64,
    /// Control packets by sub-protocol ([`CtrlProto::ALL`] order) —
    /// attributes `control_pkts` to PIM vs IGMP vs DVMRP vs CBT vs the
    /// unicast substrate, classified once at tx time.
    pub control_breakdown: [(CtrlProto, u64); 6],
    /// Data packets tail-dropped by bounded transmit queues (zero unless
    /// [`SimOptions::capacity`] caps the links).
    pub queue_drops_data: u64,
    /// Control packets tail-dropped by bounded transmit queues.
    pub queue_drops_ctrl: u64,
    /// Packets ECN-marked while crossing a congested transmit queue.
    pub ecn_marks: u64,
    /// Deepest transmit-queue backlog observed on any link, in bytes.
    pub peak_queue_bytes: u64,
}

/// Simulation schedule shared by all protocols.
const JOIN_START: u64 = 20;
const SEND_START: u64 = 500;
const SEND_GAP: u64 = 25;
const COOLDOWN: u64 = 600;

/// Knobs for [`run_protocol_sim_opts`].
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Packets each sender transmits.
    pub packets_per_sender: u64,
    /// World RNG seed.
    pub seed: u64,
    /// Independent per-receiver drop probability on every router-router
    /// link (failure injection; applies to control and data alike).
    pub link_loss: f64,
    /// PIM configuration. "PIM-shared" is [`Protocol::Pim`] with
    /// [`PimConfig::shared_tree_only`] here.
    pub pim: PimConfig,
    /// Transmit capacity applied to every router-router link
    /// ([`LinkCapacity::UNLIMITED`] — the default — leaves the capacity
    /// model disabled and the trace byte-identical to before the model
    /// existed). Host LANs are never capped: the congestion under study
    /// is transit-network congestion.
    pub capacity: LinkCapacity,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            packets_per_sender: 12,
            seed: 1,
            link_loss: 0.0,
            pim: PimConfig::default(),
            capacity: LinkCapacity::UNLIMITED,
        }
    }
}

/// Run `protocol` over `g` with the given workloads: members join, every
/// sender transmits [`SimOptions::packets_per_sender`] packets, and the
/// run continues long enough for timers to settle. Returns the overhead
/// metrics.
///
/// All protocols share identical topology, host placement, schedule, and
/// (oracle) unicast routing, so differences in the result are differences
/// between the multicast protocols alone.
pub fn run_protocol_sim_opts(
    g: &Graph,
    protocol: Protocol,
    workloads: &[Workload],
    opts: &SimOptions,
) -> SimResult {
    let packets_per_sender = opts.packets_per_sender;

    // One host slot per involved router, in router order.
    let involved: BTreeSet<NodeId> = workloads
        .iter()
        .flat_map(|w| w.members.iter().chain(&w.senders).copied())
        .collect();
    let host_routers: Vec<NodeId> = involved.into_iter().collect();
    let slot_of = |n: NodeId| {
        host_routers
            .binary_search(&n)
            .expect("every member and sender router has a host slot")
    };
    let groups: Vec<(Group, Vec<NodeId>)> = workloads
        .iter()
        .map(|w| (w.group, vec![w.rendezvous]))
        .collect();
    let mut net = NetSpec {
        protocol,
        groups: &groups,
        host_routers: &host_routers,
        pim: opts.pim,
        seed: opts.seed,
        ..NetSpec::default()
    }
    .build(g);

    // Host LANs are never lossy or capped: the impairments under study
    // are transit-network ones (p2p link k is graph edge k).
    for l in (0..g.edge_count()).map(LinkId) {
        if opts.link_loss > 0.0 {
            net.world.set_link_loss(l, opts.link_loss);
        }
        if !opts.capacity.is_unlimited() {
            net.world.set_link_capacity(l, opts.capacity);
        }
    }

    // Schedule joins and transmissions.
    let mut stagger = 0u64;
    for w in workloads {
        for &m in &w.members {
            net.join_group_at(slot_of(m), w.group, JOIN_START + stagger % 40);
            stagger += 1;
        }
        for &s in &w.senders {
            let start = SEND_START + (stagger % 17);
            net.send_group_at(slot_of(s), w.group, start, packets_per_sender, SEND_GAP);
            stagger += 3;
        }
    }

    // Sample total router state while traffic is flowing (dense-mode
    // state is soft and would be garbage-collected by the end of the
    // cooldown, hiding exactly the overhead the paper measures).
    let state_sample = std::rc::Rc::new(std::cell::Cell::new(0usize));
    let sample_at = SEND_START + (packets_per_sender * SEND_GAP) / 2;
    {
        let state_sample = std::rc::Rc::clone(&state_sample);
        let nodes = g.node_count();
        net.world.at(SimTime(sample_at), move |w| {
            let entries = |i| protocol.router(w, NodeIdx(i)).engine().entry_count();
            state_sample.set((0..nodes).map(entries).sum());
        });
    }

    let end = SEND_START + packets_per_sender * SEND_GAP + COOLDOWN;
    net.world.run_until(SimTime(end));
    let world = &net.world;

    // Collect metrics.
    let mut result = SimResult {
        state_entries: state_sample.get(),
        ..SimResult::default()
    };
    // Link metrics cover router-router links only: the member host LANs
    // carry identical delivery traffic under every protocol and would
    // otherwise mask the transit-network differences the paper measures.
    let counters = world.counters();
    result.control_pkts = counters.total_control_pkts();
    result.control_breakdown = counters.control_breakdown();
    result.events_dispatched = counters.events_dispatched();
    result.timers_fired = counters.timers_fired();
    result.timers_skipped_stale = counters.timers_skipped_stale();
    result.queue_drops_data = counters.queue_drops_data();
    result.queue_drops_ctrl = counters.queue_drops_ctrl();
    result.ecn_marks = counters.ecn_marks();
    result.peak_queue_bytes = counters.peak_queue_bytes();
    result.link_data = vec![0; g.edge_count()];
    for (l, st) in counters.links() {
        if world.link(l).kind != LinkKind::PointToPoint {
            continue;
        }
        // build_world wires link k to graph edge k, so p2p link ids are
        // edge indices.
        result.link_data[l.0] = st.data_pkts;
        result.data_pkts += st.data_pkts;
        if st.data_pkts > 0 {
            result.data_links_used += 1;
        }
        result.max_link_data = result.max_link_data.max(st.data_pkts);
    }
    // Host-side delivery accounting: unique (source, seq) receptions per
    // member site, with duplicates tallied separately.
    for (slot, &n) in host_routers.iter().enumerate() {
        let member_of: BTreeSet<Group> = workloads
            .iter()
            .filter(|w| w.members.contains(&n))
            .map(|w| w.group)
            .collect();
        let mut seen = BTreeSet::new();
        for r in &net.host(slot).received {
            if !member_of.contains(&r.group) {
                continue;
            }
            if seen.insert((r.group, r.source, r.seq)) {
                result.deliveries += 1;
            } else {
                result.duplicates += 1;
            }
        }
    }
    for w in workloads {
        for &s in &w.senders {
            let other_sites = w.members.iter().filter(|&&m| m != s).count() as u64;
            result.expected_deliveries += other_sites * packets_per_sender;
        }
    }
    result
}

/// Minimal CLI parsing for the experiment binaries: `--seed N`,
/// `--trials N`, `--quick` (divides trials by 10), `--smoke` (tiny
/// bin-chosen trial count for the CI gate), `--threads N` (trial
/// fan-out width; output is bit-identical for every value), and
/// `--congestion` (overhead: cap every link).
pub mod cli {
    /// Parsed common flags.
    #[derive(Clone, Debug)]
    pub struct Args {
        /// RNG seed.
        pub seed: u64,
        /// Monte-Carlo trials per configuration point.
        pub trials: usize,
        /// Worker threads for the deterministic trial fan-out.
        pub threads: usize,
        /// `--smoke` was given (bins may also shrink non-trial knobs).
        pub smoke: bool,
        /// `--congestion` was given (overhead: cap every link and
        /// report shed load).
        pub congestion: bool,
    }

    /// Parse `std::env::args` with the given default trial count;
    /// `--smoke` uses `smoke_trials` unless `--trials` overrides it.
    pub fn parse_smoke(default_trials: usize, smoke_trials: usize) -> Args {
        let mut args = Args {
            seed: 1994, // the paper's year; any seed reproduces the shape
            trials: default_trials,
            threads: par::default_threads(),
            smoke: false,
            congestion: false,
        };
        let mut explicit_trials = false;
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--seed" => {
                    args.seed = argv
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--seed needs a number"));
                    i += 2;
                }
                "--trials" => {
                    args.trials = argv
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--trials needs a number"));
                    explicit_trials = true;
                    i += 2;
                }
                "--threads" => {
                    args.threads = argv
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| panic!("--threads needs a positive number"));
                    i += 2;
                }
                "--quick" => {
                    args.trials = (args.trials / 10).max(1);
                    i += 1;
                }
                "--smoke" => {
                    args.smoke = true;
                    i += 1;
                }
                "--congestion" => {
                    args.congestion = true;
                    i += 1;
                }
                other => panic!(
                    "unknown flag {other}; supported: --seed N --trials N --quick --smoke \
                     --threads N --congestion"
                ),
            }
        }
        if args.smoke && !explicit_trials {
            args.trials = smoke_trials;
        }
        args
    }

    /// [`parse_smoke`] with a derived smoke trial count (default/25, at
    /// least 1).
    pub fn parse(default_trials: usize) -> Args {
        parse_smoke(default_trials, (default_trials / 25).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stats_basics() {
        let s = stats(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.sd - 1.0).abs() < 1e-12);
        let single = stats(&[5.0]);
        assert_eq!(single.sd, 0.0);
    }

    /// The four protocols deliver the same packets on the same scenario —
    /// the comparison harness itself is sound.
    #[test]
    fn all_protocols_deliver_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = graph::gen::random_connected(
            &graph::gen::RandomGraphParams {
                nodes: 12,
                avg_degree: 3.0,
                delay_range: (1, 3),
            },
            &mut rng,
        );
        let w = Workload {
            group: Group::test(1),
            members: vec![NodeId(2), NodeId(7), NodeId(11)],
            senders: vec![NodeId(7)],
            rendezvous: NodeId(0),
        };
        let contenders = [
            (Protocol::Pim, PimConfig::default()),
            (Protocol::Pim, PimConfig::shared_tree_only()),
            (Protocol::Dvmrp, PimConfig::default()),
            (Protocol::Cbt, PimConfig::default()),
        ];
        for (protocol, pim) in contenders {
            let opts = SimOptions {
                packets_per_sender: 6,
                seed: 9,
                pim,
                ..SimOptions::default()
            };
            let r = run_protocol_sim_opts(&g, protocol, std::slice::from_ref(&w), &opts);
            let label = format!("{protocol:?} {:?}", pim.spt_policy);
            assert_eq!(
                r.deliveries, r.expected_deliveries,
                "{label} dropped packets: {r:?}"
            );
            assert!(r.state_entries > 0, "{label}");
            assert!(r.control_pkts > 0, "{label}");
        }
    }

    /// Dense mode touches more links with data than sparse mode on a
    /// sparse group — the heart of the paper's motivation.
    #[test]
    fn dvmrp_floods_wider_than_pim() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = graph::gen::random_connected(
            &graph::gen::RandomGraphParams {
                nodes: 20,
                avg_degree: 4.0,
                delay_range: (1, 3),
            },
            &mut rng,
        );
        let w = Workload {
            group: Group::test(1),
            members: vec![NodeId(3), NodeId(17)],
            senders: vec![NodeId(17)],
            rendezvous: NodeId(5),
        };
        let opts = SimOptions {
            packets_per_sender: 8,
            seed: 2,
            ..SimOptions::default()
        };
        let pim = run_protocol_sim_opts(&g, Protocol::Pim, std::slice::from_ref(&w), &opts);
        let dvm = run_protocol_sim_opts(&g, Protocol::Dvmrp, &[w], &opts);
        assert!(
            dvm.data_links_used > pim.data_links_used,
            "dense {} vs sparse {}",
            dvm.data_links_used,
            pim.data_links_used
        );
        assert!(dvm.data_pkts > pim.data_pkts);
    }
}
