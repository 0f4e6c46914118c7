//! `unicast` drives: building the oracle RIB for every router of the
//! `hier_ctrl` graph (what `build_net*` pays per world), and next-hop
//! lookups in one of the tables.

use super::{ns_per_op, Budget};
use crate::workloads::hier;
use netsim::{router_addr, Topology};
use std::hint::black_box;
use std::time::Instant;
use unicast::{OracleRib, Rib};

/// Run the `unicast` drives.
pub fn run(seed: u64, budget: Budget, smoke: bool) -> Vec<(&'static str, f64)> {
    let h = hier::topology(seed, smoke);
    let topo = Topology::from_graph(&h.graph);
    // A whole-table build is far longer than a batch: time each build.
    let mut ribs = Vec::new();
    let build_s = (0..budget.batches.min(3))
        .map(|_| {
            let t0 = Instant::now();
            ribs = OracleRib::for_all(&h.graph, &topo);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);

    let rib = &ribs[ribs.len() / 2];
    let targets: Vec<_> = h.graph.nodes().map(router_addr).collect();
    let mut i = 0;
    let lookup = ns_per_op(budget, || {
        // A stride coprime to the table size visits every destination.
        i = (i + 7919) % targets.len();
        black_box(rib.route(black_box(targets[i])));
    });
    vec![
        ("unicast.oracle_build_s", build_s),
        ("unicast.lookup_ns", lookup),
    ]
}
