//! The names this benchmark defines. `BENCHMARK.json` at the repo root
//! lists the same names, units and directions (a test keeps the two in
//! step); later issues claim gains as "`<metric>` on `<workload>`" using
//! exactly these names.

use crate::workloads::Workload;

/// One sentence on why each workload exists.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::HierCtrl => {
            "PIM on a 2000-router hierarchical internet with sparse data: control deliveries and timers dominate, and set-up (oracle RIB) is large"
        }
        Workload::HierCtrlPar => {
            "hier_ctrl's exact inputs on 2 regions and 2 threads: exercises region windows, outboxes and the barrier; stats must equal hier_ctrl's"
        }
        Workload::StreamData => {
            "1 KiB packets down 4 source trees at 1 packet/tick: data deliveries dominate, timers and set-up are noise; mirror image of hier_ctrl"
        }
        Workload::FaultCampaign => {
            "180 tiny fault-schedule cases with 5-sink telemetry, capture, impairments, capacity and all oracles on: per-case build and telemetry dominate"
        }
        Workload::Fig2Trees => {
            "Fig. 2 tree study on graph, mctree and par only: dispatches zero simulator events, so simulator work must predict no change here"
        }
    }
}

/// An end-to-end metric: something a user of the simulator waits for or
/// pays for. All three are host-side and lower is better.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.15,
    },
];

/// A per-layer metric.
pub struct PerLayer {
    /// `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Is a higher value better?
    pub higher_is_better: bool,
    /// Where the number comes from.
    pub source: &'static str,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    source: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        source,
        moves,
    }
}

const fn up(
    name: &'static str,
    unit: &'static str,
    source: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        source,
        moves,
    }
}

const COUNTERS: &str = "World::counters / World::profile of the traced rep (exact)";
const PROFILE: &str = "World::profile of the traced rep";
const DRIVE: &str = "layer drive, best of 15 batches";
const FIG2_SPANS: &str = "timings inside the fig2_trees trial closure";
const REPLAY: &str = "traced step-by-step replay of the campaign cases";

/// The per-layer metrics. A metric the run's workload does not exercise
/// reads 0 (`netsim.events` on `fig2_trees` is the point of that
/// workload).
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    m("netsim.events", "count", COUNTERS, "denominator"),
    m("netsim.deliver_events", "count", COUNTERS, "denominator"),
    m("netsim.timer_events", "count", COUNTERS, "denominator"),
    m("netsim.stale_timer_pops", "count", COUNTERS, "wasted work: run_s@hier_ctrl"),
    m("netsim.us_per_event", "us", "run_until span / netsim.events", "run_s@hier_ctrl, run_s@stream_data"),
    m("netsim.handler_s", "s", PROFILE, "run_s@hier_ctrl (timers), run_s@stream_data (deliveries)"),
    m("netsim.loop_self_s", "s", "run_until span - handler_s - barrier_s", "run_s@hier_ctrl (queue, arena, dispatch)"),
    m("netsim.barrier_s", "s", PROFILE, "run_s@hier_ctrl_par"),
    m("netsim.windows", "count", PROFILE, "run_s@hier_ctrl_par"),
    m("netsim.serial_pct", "%", PROFILE, "run_s@hier_ctrl_par"),
    up("netsim.regions", "count", "World::region_count", "run_s@hier_ctrl_par"),
    up("netsim.lookahead_ticks", "ticks", "World::cross_region_lookahead", "run_s@hier_ctrl_par"),
    up("netsim.par_speedup", "ratio", "run_s(hier_ctrl inputs, 1 thread) / run_s(hier_ctrl_par)", "run_s@hier_ctrl_par"),
    m("netsim.fanout_ns_per_delivery_64b", "ns", DRIVE, "run_s@stream_data"),
    m("netsim.fanout_ns_per_delivery_1k", "ns", DRIVE, "run_s@stream_data"),
    m("netsim.fanout_ns_per_delivery_8k", "ns", DRIVE, "run_s@stream_data"),
    m("netsim.p2p_ns_per_hop_64b", "ns", DRIVE, "run_s@stream_data"),
    m("netsim.p2p_ns_per_hop_1k", "ns", DRIVE, "run_s@stream_data"),
    m("netsim.timer_ns_per_fire", "ns", DRIVE, "run_s@hier_ctrl"),
    m("netsim.timer_ns_per_cancel", "ns", DRIVE, "run_s@hier_ctrl"),
    m("netsim.capacity_ns_per_hop", "ns", DRIVE, "run_s@fault_campaign; ~0 effect on stream_data"),
    m("netsim.channel_ns_per_hop", "ns", DRIVE, "run_s@fault_campaign; ~0 effect on stream_data"),
    m("netsim.queue_drops", "count", REPLAY, "sanity: the campaign congests"),
    m("netsim.ecn_marks", "count", REPLAY, "sanity: the campaign congests"),
    m("netsim.peak_queue_bytes", "bytes", REPLAY, "sanity: the campaign congests"),
    m("node.ns_per_deliver", "ns", PROFILE, "run_s@stream_data"),
    m("node.ns_per_timer", "ns", PROFILE, "run_s@hier_ctrl"),
    m("pim.on_data_fastpath_ns", "ns", DRIVE, "run_s@stream_data"),
    m("pim.join_prune_refresh_ns", "ns", DRIVE, "run_s@hier_ctrl"),
    m("pim.tick_idle_ns", "ns", DRIVE, "run_s@hier_ctrl"),
    m("pim.state_entries", "count", "engines' entry_count (exact)", "paper's state overhead; part of sim_stats"),
    m("pim.control_pkts", "count", COUNTERS, "paper's control overhead; part of sim_stats"),
    m("cbt.control_pkts", "count", COUNTERS, "paper's control overhead"),
    m("dvmrp.control_pkts", "count", COUNTERS, "paper's control overhead"),
    m("igmp.control_pkts", "count", COUNTERS, "paper's control overhead"),
    m("unicast.control_pkts", "count", COUNTERS, "paper's control overhead"),
    m("wire.decode_ns_per_msg", "ns", DRIVE, "run_s@hier_ctrl"),
    m("wire.encode_ns_per_msg", "ns", DRIVE, "run_s@hier_ctrl"),
    m("wire.ip_decap_ns_64b", "ns", DRIVE, "run_s@stream_data"),
    m("wire.ip_encap_ns_1k", "ns", DRIVE, "run_s@stream_data"),
    m("wire.checksum_ns_per_kib", "ns", DRIVE, "run_s@stream_data"),
    m("unicast.oracle_build_s", "s", "drive: OracleRib::for_all on the hier_ctrl graph", "setup_s@hier_ctrl, run_s@fault_campaign"),
    m("unicast.lookup_ns", "ns", DRIVE, "run_s@hier_ctrl"),
    m("graph.gen_s", "s", "span around hierarchical / waxman / random_connected", "setup_s@hier_ctrl"),
    m("graph.all_pairs_us_50n", "us", FIG2_SPANS, "run_s@fig2_trees"),
    m("mctree.spt_flows_ms_per_trial", "ms", FIG2_SPANS, "run_s@fig2_trees"),
    m("mctree.cbt_flows_ms_per_trial", "ms", FIG2_SPANS, "run_s@fig2_trees"),
    m("mctree.center_search_us", "us", FIG2_SPANS, "run_s@fig2_trees"),
    up("mctree.fig2a_trials_per_s", "1/s", FIG2_SPANS, "run_s@fig2_trees"),
    up("par.speedup_2t", "ratio", "fig2b sweep at 1 thread / at 2 threads", "informational"),
    m("scenario.build_ms_per_case", "ms", REPLAY, "run_s@fault_campaign"),
    m("scenario.install_ms_per_case", "ms", REPLAY, "run_s@fault_campaign"),
    m("scenario.run_ms_per_case", "ms", REPLAY, "run_s@fault_campaign"),
    m("scenario.oracle_ms_per_case", "ms", REPLAY, "run_s@fault_campaign"),
    m("scenario.case_ms_p50", "ms", "per-case time of the untraced reps", "run_s@fault_campaign"),
    m("scenario.case_ms_p98", "ms", "per-case time of the untraced reps", "tail bounding a parallel campaign"),
    up("scenario.congested_cases", "count", REPLAY, "sanity: the campaign congests"),
    m("telemetry.on_off_ratio", "ratio", "replay run_until with the 5-sink fan-out / with no sink", "run_s@fault_campaign"),
    m("telemetry.events_emitted", "count", "benchmark-owned counting sink in the fan-out (exact)", "denominator"),
    m("telemetry.jsonl_bytes", "bytes", "JsonlSink buffer length (exact)", "denominator"),
    m("telemetry.flight_ns_per_event", "ns", DRIVE, "run_s@fault_campaign"),
    m("telemetry.jsonl_ns_per_event", "ns", DRIVE, "run_s@fault_campaign"),
    m("telemetry.metrics_ns_per_event", "ns", DRIVE, "run_s@fault_campaign"),
    m("telemetry.coverage_ns_per_event", "ns", DRIVE, "run_s@fault_campaign"),
    m("telemetry.causal_ns_per_event", "ns", DRIVE, "run_s@fault_campaign"),
    m("trace.overhead_ratio", "ratio", "traced run_s / untraced run_s", "cost of the profile"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_schema() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(well_formed(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "names are used once");
        assert!(PER_LAYER.len() <= 128);
        for unit in PER_LAYER
            .iter()
            .map(|m| m.unit)
            .chain(END_TO_END.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in Workload::ALL {
            assert!(why(w).len() <= 200 && !why(w).contains('\n'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
