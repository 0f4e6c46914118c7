//! **OVH** — the §1/§2 efficiency claims, measured end-to-end through the
//! protocol implementations: "Efficiency is measured in terms of the
//! state, control message processing, and data packet processing required
//! across the entire network in order to deliver data packets to the
//! members of the group."
//!
//! One sparse group lives on a 50-node internet while the member count
//! sweeps from 2 to 40 routers. For each density and each protocol
//! (PIM-SPT, PIM shared-tree-only, DVMRP, CBT) the harness reports:
//!
//! * `state`  — multicast forwarding entries summed over all routers,
//!   sampled while traffic flows (dense mode puts state *everywhere*);
//! * `ctrl`   — control packets transmitted network-wide;
//! * `data`   — data-packet link transits (dense mode floods + re-floods);
//! * `links`  — distinct links that carried data (tree footprint);
//! * `hot`    — data packets on the hottest link (traffic concentration);
//! * `dlv/exp`— packets delivered vs expected, and `dup` — duplicate
//!   receptions. PIM may lose or duplicate a packet inside the
//!   register→native transition window (§3.3's "minimizes the chance of
//!   losing data packets during the transition"); steady state is exactly
//!   lossless for every protocol.
//! * `events`/`timers` — simulator event-loop dispatches and timer wakeups
//!   (deadline-driven, so these track protocol work, not wall-clock).
//!
//! A second table attributes `ctrl` to its control sub-protocol
//! (multicast routing vs IGMP vs the unicast substrate), classified
//! once at tx time by [`netsim::CtrlProto`] — the paper's per-protocol
//! control-cost axis.
//!
//! With `--congestion` every router-router link is capped (rate
//! [`CONGESTED_RATE`] bytes/tick, queue [`CONGESTED_QUEUE`] bytes,
//! control priority on) and the table gains the shed-load columns:
//! `qdrop` (data/control tail drops), `ecn` (congestion marks), and
//! `peakq` (deepest queue in bytes). Control drops staying 0 under
//! overload is the no-starvation property, measured per protocol.
//!
//! Run: `cargo run -p bench --release --bin overhead [--trials N]
//! [--seed N] [--congestion]`

use bench::{cli, run_protocol_sim_opts, stats, SimOptions, Workload};
use graph::gen::{random_connected, RandomGraphParams};
use graph::NodeId;
use mctree::GroupSpec;
use netsim::{CtrlProto, LinkCapacity};
use pim::PimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenario::Protocol;
use wire::Group;

const NODES: usize = 50;
const PACKETS: u64 = 12;
/// `--congestion`: per-tick byte rate of every router-router link.
const CONGESTED_RATE: u64 = 4;
/// `--congestion`: transmit-queue bound in bytes.
const CONGESTED_QUEUE: u64 = 96;

fn main() {
    let args = cli::parse(10);
    let capacity = if args.congestion {
        LinkCapacity {
            bytes_per_tick: CONGESTED_RATE,
            queue_bytes: CONGESTED_QUEUE,
            ecn_bytes: CONGESTED_QUEUE / 2,
            ctrl_priority: true,
        }
    } else {
        LinkCapacity::UNLIMITED
    };
    println!("# Overhead comparison on a {NODES}-node internet, one group, {PACKETS} pkts/sender,");
    println!(
        "# averaged over {} topologies (seed {}).",
        args.trials, args.seed
    );
    if args.congestion {
        println!(
            "# links capped at {CONGESTED_RATE} B/tick, queue {CONGESTED_QUEUE} B, \
             ctrl priority on (--congestion)."
        );
    }
    println!(
        "{:<10} {:<11} {:>8} {:>9} {:>9} {:>7} {:>7} {:>11} {:>5} {:>9} {:>8} {:>9} {:>5} {:>6}",
        "members",
        "protocol",
        "state",
        "ctrl",
        "data",
        "links",
        "hot",
        "dlv/exp",
        "dup",
        "events",
        "timers",
        "qdrop",
        "ecn",
        "peakq"
    );
    // PIM-shared is PIM with the switchover policy pinned to Never.
    let contenders = [
        ("PIM-SPT", Protocol::Pim, PimConfig::default()),
        ("PIM-shared", Protocol::Pim, PimConfig::shared_tree_only()),
        ("CBT", Protocol::Cbt, PimConfig::default()),
        ("DVMRP", Protocol::Dvmrp, PimConfig::default()),
    ];
    let mut attribution: Vec<(usize, &'static str, [u64; 6])> = Vec::new();
    for &members in &[2usize, 5, 10, 20, 40] {
        let senders = members.min(4);
        for (name, protocol, pim) in contenders {
            let mut state = Vec::new();
            let mut ctrl = Vec::new();
            let mut data = Vec::new();
            let mut links = Vec::new();
            let mut hot = Vec::new();
            let mut dlv = 0u64;
            let mut exp = 0u64;
            let mut dup = 0u64;
            let mut events = Vec::new();
            let mut timers = Vec::new();
            let mut ctrl_by = [0u64; 6];
            let mut qdrop_data = 0u64;
            let mut qdrop_ctrl = 0u64;
            let mut ecn = 0u64;
            let mut peakq = 0u64;
            for trial in 0..args.trials {
                let mut rng =
                    StdRng::seed_from_u64(args.seed ^ ((members as u64) << 24) ^ trial as u64);
                let g = random_connected(
                    &RandomGraphParams {
                        nodes: NODES,
                        avg_degree: 4.0,
                        delay_range: (1, 10),
                    },
                    &mut rng,
                );
                let spec = GroupSpec::random(NODES, members, senders, &mut rng);
                let w = Workload {
                    group: Group::test(1),
                    members: spec.members.clone(),
                    senders: spec.senders.clone(),
                    rendezvous: NodeId(rng.gen_range(0..NODES as u32)),
                };
                let r = run_protocol_sim_opts(
                    &g,
                    protocol,
                    &[w],
                    &SimOptions {
                        packets_per_sender: PACKETS,
                        seed: args.seed ^ trial as u64,
                        pim,
                        capacity,
                        ..SimOptions::default()
                    },
                );
                state.push(r.state_entries as f64);
                ctrl.push(r.control_pkts as f64);
                data.push(r.data_pkts as f64);
                links.push(r.data_links_used as f64);
                hot.push(r.max_link_data as f64);
                dlv += r.deliveries;
                exp += r.expected_deliveries;
                dup += r.duplicates;
                events.push(r.events_dispatched as f64);
                timers.push(r.timers_fired as f64);
                for (slot, (_, n)) in ctrl_by.iter_mut().zip(r.control_breakdown) {
                    *slot += n;
                }
                qdrop_data += r.queue_drops_data;
                qdrop_ctrl += r.queue_drops_ctrl;
                ecn += r.ecn_marks;
                peakq = peakq.max(r.peak_queue_bytes);
            }
            attribution.push((members, name, ctrl_by));
            println!(
                "{:<10} {:<11} {:>8.1} {:>9.0} {:>9.0} {:>7.1} {:>7.1} {:>5}/{:<5} {:>5} {:>9.0} {:>8.0} {:>4}/{:<4} {:>5} {:>6}",
                members,
                name,
                stats(&state).mean,
                stats(&ctrl).mean,
                stats(&data).mean,
                stats(&links).mean,
                stats(&hot).mean,
                dlv,
                exp,
                dup,
                stats(&events).mean,
                stats(&timers).mean,
                qdrop_data,
                qdrop_ctrl,
                ecn,
                peakq
            );
        }
        println!();
    }
    println!("# Control-cost attribution (mean pkts/run by sub-protocol, tx-time classified):");
    print!("{:<10} {:<11}", "members", "protocol");
    for p in CtrlProto::ALL {
        print!(" {:>8}", p.name());
    }
    println!();
    for (members, proto, ctrl_by) in &attribution {
        print!("{members:<10} {proto:<11}");
        for n in ctrl_by {
            print!(" {:>8.0}", *n as f64 / args.trials as f64);
        }
        println!();
    }
    println!();
    println!("# Expected shape (paper §1.2): for sparse membership DVMRP pays data packets and");
    println!("# state on links/routers that lead to no members (flood + periodic re-flood),");
    println!("# while PIM's explicit joins keep data and state on the distribution tree only.");
    println!("# CBT and PIM-shared concentrate traffic (higher `hot`) vs PIM-SPT.");
    println!("# PIM may miss/duplicate a packet in the register->native transition window —");
    println!("# the paper's own caveat (section 3.3: the SPT bit *minimizes* the chance of");
    println!("# losing packets during the transition; footnote 7). Steady state is lossless.");
}
