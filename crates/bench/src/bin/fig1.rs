//! **Figure 1** — the motivating three-domain example (§1.3).
//!
//! Three domains A, B, C joined by an expensive backbone; one group
//! member in each domain; sources in all three domains.
//!
//! * Fig 1(a)/(b): with DVMRP, a source's packets are periodically
//!   broadcast through the entire internet and pruned back — count how
//!   many links carry data vs how many are actually on the member tree.
//! * Fig 1(c): with CBT, every source's traffic funnels through the core
//!   in domain A — the bold "traffic concentration" path. Compare the
//!   hottest link's load against PIM's source-specific trees, and the
//!   inter-domain (Y→Z style) latency of CBT vs PIM-SPT.
//!
//! Run: `cargo run -p bench --release --bin fig1 [--seed N]`

use bench::{cli, run_protocol_sim_opts, SimOptions, Workload};
use graph::gen::three_domains;
use pim::PimConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenario::Protocol;
use wire::Group;

const DOMAIN_SIZE: usize = 6;
const PACKETS: u64 = 12;

fn main() {
    let args = cli::parse(1);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let (g, members, backbone_rp) = three_domains(DOMAIN_SIZE, &mut rng);
    println!(
        "# Figure 1: three-domain internet ({} routers, {} links).",
        g.node_count(),
        g.edge_count()
    );
    println!(
        "# One member per domain (routers {:?}); every member's site also sends;",
        members
    );
    println!("# RP/core on backbone router {backbone_rp} (domain A's border, as in Fig 1(c)).");
    println!();

    let w = Workload {
        group: Group::test(1),
        members: members.to_vec(),
        senders: members.to_vec(),
        rendezvous: backbone_rp,
    };

    println!(
        "{:<11} {:>6} {:>7} {:>7} {:>6} {:>6} {:>11} {:>8} {:>7} {:>6}",
        "protocol", "state", "ctrl", "data", "links", "hot", "dlv/exp", "events", "timers", "stale"
    );
    let mut results = Vec::new();
    // PIM-shared is PIM with the switchover policy pinned to Never.
    let contenders = [
        ("DVMRP", Protocol::Dvmrp, PimConfig::default()),
        ("CBT", Protocol::Cbt, PimConfig::default()),
        ("PIM-shared", Protocol::Pim, PimConfig::shared_tree_only()),
        ("PIM-SPT", Protocol::Pim, PimConfig::default()),
    ];
    for (name, protocol, pim) in contenders {
        let opts = SimOptions {
            packets_per_sender: PACKETS,
            seed: args.seed,
            pim,
            ..SimOptions::default()
        };
        let r = run_protocol_sim_opts(&g, protocol, std::slice::from_ref(&w), &opts);
        println!(
            "{:<11} {:>6} {:>7} {:>7} {:>6} {:>6} {:>5}/{:<5} {:>8} {:>7} {:>6}",
            name,
            r.state_entries,
            r.control_pkts,
            r.data_pkts,
            r.data_links_used,
            r.max_link_data,
            r.deliveries,
            r.expected_deliveries,
            r.events_dispatched,
            r.timers_fired,
            r.timers_skipped_stale
        );
        results.push(r);
    }
    println!();
    println!("# Event loop: `events` = all dispatches (packet deliveries + timer wakeups");
    println!("# + script steps), `timers` = wakeups fired, `stale` = cancelled/rescheduled");
    println!("# heap entries skipped. Wakeups are deadline-driven, so events track protocol");
    println!("# work, not simulated wall-clock.");
    println!();

    let total_links = g.edge_count();
    let dvmrp = &results[0];
    let cbt = &results[1];
    let pim_spt = &results[3];
    // The Fig 1(c) bold path runs across the backbone triangle —
    // three_domains() adds those three links first, so they are edges
    // 0, 1, 2. (Domain border links carry send+receive load that is
    // identical under every tree shape; the triangle is where tree
    // shape shows.)
    let backbone_hot = |r: &bench::SimResult| r.link_data[..3].iter().copied().max().unwrap_or(0);
    println!(
        "# Fig 1(a)->(b): DVMRP put data on {} of {} router-router links (broadcast +",
        dvmrp.data_links_used, total_links
    );
    println!(
        "#   periodic grow-back re-floods), versus {} links for PIM-SPT: sparse-mode savings.",
        pim_spt.data_links_used
    );
    println!("# Fig 1(c): CBT funnels all senders through the core: the hottest inter-domain");
    println!(
        "#   backbone link carried {} data packets under CBT vs {} under PIM-SPT,",
        backbone_hot(cbt),
        backbone_hot(pim_spt)
    );
    println!("#   the traffic-concentration effect on the bold path of Fig 1(c).");
}
