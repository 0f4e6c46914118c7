//! Scale and determinism of the full protocol stack: many sparse groups
//! on a 50-node internet, each with its own RP, members, and senders —
//! the paper's "wide-area internets, where many groups will be sparsely
//! represented" (§1) — plus bit-for-bit reproducibility of a complete
//! protocol run.

use bench::{run_protocol_sim_opts, SimOptions, Workload};
use graph::gen::{random_connected, RandomGraphParams};
use graph::NodeId;
use mctree::GroupSpec;
use pim::PimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenario::Protocol;
use wire::Group;

fn many_group_workloads(n_groups: u32, nodes: usize, rng: &mut StdRng) -> Vec<Workload> {
    (0..n_groups)
        .map(|i| {
            let spec = GroupSpec::random(nodes, 4, 2, rng);
            Workload {
                group: Group::test(100 + i),
                members: spec.members.clone(),
                senders: spec.senders.clone(),
                rendezvous: NodeId(rng.gen_range(0..nodes as u32)),
            }
        })
        .collect()
}

#[test]
fn twenty_sparse_groups_on_fifty_nodes() {
    let mut rng = StdRng::seed_from_u64(57);
    let g = random_connected(
        &RandomGraphParams {
            nodes: 50,
            avg_degree: 4.0,
            delay_range: (1, 8),
        },
        &mut rng,
    );
    let workloads = many_group_workloads(20, 50, &mut rng);
    let opts = SimOptions {
        packets_per_sender: 6,
        ..SimOptions::default()
    };
    let r = run_protocol_sim_opts(&g, Protocol::Pim, &workloads, &opts);
    // 20 groups × 2 senders × 3 other members × 6 packets = 720 expected.
    assert_eq!(r.expected_deliveries, 720);
    let rate = r.deliveries as f64 / r.expected_deliveries as f64;
    assert!(
        rate > 0.99,
        "delivery must be ≥99% across 20 concurrent groups (got {rate:.4}: {r:?})"
    );
    // Sparse-mode property at scale: the union of 20 small trees still
    // leaves the data footprint far below dense mode (which would be 100).
    assert!(
        r.data_links_used < 90,
        "20 sparse groups must not flood the whole internet ({} links)",
        r.data_links_used
    );
    assert!(r.state_entries > 0);
}

#[test]
fn shared_tree_mode_scales_with_less_state() {
    let mut rng = StdRng::seed_from_u64(51);
    let g = random_connected(
        &RandomGraphParams {
            nodes: 50,
            avg_degree: 4.0,
            delay_range: (1, 8),
        },
        &mut rng,
    );
    let workloads = many_group_workloads(12, 50, &mut rng);
    let spt_opts = SimOptions {
        packets_per_sender: 6,
        ..SimOptions::default()
    };
    let spt = run_protocol_sim_opts(&g, Protocol::Pim, &workloads, &spt_opts);
    let shared = run_protocol_sim_opts(
        &g,
        Protocol::Pim,
        &workloads,
        &SimOptions {
            pim: PimConfig::shared_tree_only(),
            ..spt_opts
        },
    );
    // "Shared trees ... have less per-source overhead" (§3): with 2
    // senders per group, SPT mode holds strictly more entries.
    assert!(
        shared.state_entries < spt.state_entries,
        "shared {} !< spt {}",
        shared.state_entries,
        spt.state_entries
    );
    // Both deliver.
    assert!(shared.deliveries as f64 / shared.expected_deliveries as f64 > 0.99);
    assert!(spt.deliveries as f64 / spt.expected_deliveries as f64 > 0.99);
}

#[test]
fn full_protocol_run_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(52);
    let g = random_connected(
        &RandomGraphParams {
            nodes: 30,
            avg_degree: 3.5,
            delay_range: (1, 6),
        },
        &mut rng,
    );
    let workloads = many_group_workloads(5, 30, &mut rng);
    let runs: Vec<String> = (0..2)
        .map(|_| {
            let opts = SimOptions {
                packets_per_sender: 8,
                seed: 42,
                ..SimOptions::default()
            };
            let r = run_protocol_sim_opts(&g, Protocol::Pim, &workloads, &opts);
            format!("{r:?}")
        })
        .collect();
    assert_eq!(runs[0], runs[1], "identical seed ⇒ identical SimResult");
}

#[test]
fn all_protocols_survive_many_groups() {
    let mut rng = StdRng::seed_from_u64(53);
    let g = random_connected(
        &RandomGraphParams {
            nodes: 30,
            avg_degree: 3.5,
            delay_range: (1, 5),
        },
        &mut rng,
    );
    let workloads = many_group_workloads(8, 30, &mut rng);
    let contenders = [
        (Protocol::Pim, PimConfig::default()),
        (Protocol::Pim, PimConfig::shared_tree_only()),
        (Protocol::Dvmrp, PimConfig::default()),
        (Protocol::Cbt, PimConfig::default()),
    ];
    for (protocol, pim) in contenders {
        let opts = SimOptions {
            packets_per_sender: 5,
            seed: 7,
            pim,
            ..SimOptions::default()
        };
        let r = run_protocol_sim_opts(&g, protocol, &workloads, &opts);
        let rate = r.deliveries as f64 / r.expected_deliveries as f64;
        assert!(
            rate > 0.98,
            "{protocol:?} {:?}: delivery rate {rate:.4} across 8 groups ({r:?})",
            pim.spt_policy
        );
    }
}
