//! What the two PIM simulator workloads share: running the world inside
//! a span, reading the observational counters, and checking receptions.

use super::{named_stats, slice, Check, Fold, SimStats, Stat};
use crate::span::Tracer;
use igmp::{HostNode, PopulationNode, Received};
use netsim::{Counters, CtrlProto, NodeIdx, SimProfile, SimTime};
use pim::PimRouter;
use scenario::ScenarioNet;
use std::collections::BTreeSet;

/// What one timed run of a world produced.
pub struct SimRun {
    /// Host seconds inside `World::run_until`, summed over the slices.
    pub run_until_s: f64,
    /// The world's merged counters after the run.
    pub counters: Counters,
    /// The per-region profile (traced reps only).
    pub profile: Option<SimProfile>,
}

/// Run `net` to `horizon` in `slices` equal steps of simulated time,
/// appending each step's host seconds to `out`. Slicing only adds a
/// handful of `run_until` returns; the event order is unchanged.
///
/// A traced rep switches the world's own profile on and records its
/// handler and barrier time as child spans of the `run_until` span, so
/// that span's self time is the event loop itself (heap push/pop, arena,
/// dispatch, waiting for the slowest region).
pub fn run_sliced(
    net: &mut ScenarioNet,
    horizon: u64,
    slices: u64,
    traced: bool,
    tracer: &mut Tracer,
    out: &mut Vec<f64>,
) -> SimRun {
    if traced {
        net.world.enable_profile();
    }
    let start = tracer.clock_ns();
    let (profile, run_until_s) = tracer.time("run_until", "netsim", |t| {
        for i in 1..=slices {
            slice(out, || net.world.run_until(SimTime(horizon * i / slices)));
        }
        let profile = net.world.profile();
        if let Some(p) = &profile {
            t.record("handlers", "node", start, busiest_region_nanos(p));
            t.record("barrier", "netsim", start, p.barrier_nanos);
        }
        profile
    });
    SimRun {
        run_until_s,
        counters: net.world.counters(),
        profile,
    }
}

/// Handler nanoseconds of the busiest region: the part of the handler
/// work that is on the critical path of a lock-step window loop. With
/// one region this is simply all handler time.
fn busiest_region_nanos(p: &SimProfile) -> u64 {
    p.regions.iter().map(|r| r.nanos()).max().unwrap_or(0)
}

/// Total PIM forwarding entries over all routers.
pub fn pim_state_entries(net: &ScenarioNet) -> u64 {
    (0..net.router_count)
        .map(|i| {
            net.world
                .node::<PimRouter>(NodeIdx(i))
                .engine()
                .entry_count() as u64
        })
        .sum()
}

/// The simulated statistics of one rep, accumulated over its worlds.
#[derive(Default)]
pub struct StatSums {
    events: u64,
    control_deliveries: u64,
    data_deliveries: u64,
    timer_events: u64,
    stale_timer_pops: u64,
    /// Member-weighted unique receptions of the packets that count as
    /// operations (sequence number at or past the workload's warm-up).
    pub member_deliveries: u64,
    /// Member-weighted unique receptions of warm-up packets.
    warmup_deliveries: u64,
    duplicates: u64,
    state_entries: u64,
    data_pkts: u64,
    ctrl: [u64; 6],
    fingerprint: Fold,
}

impl StatSums {
    /// Collect one finished world: its counters, and every reception of
    /// every member site in `slots` (unique `(source, seq)` per site,
    /// weighted by the site's population, plus a fingerprint). Packets
    /// numbered below `first_seq` are warm-up: they build the trees and
    /// may be lost to the switch-over transient, so they are not
    /// operations.
    pub fn add(&mut self, net: &ScenarioNet, c: &Counters, slots: &[usize], first_seq: u64) {
        self.events += c.events_dispatched();
        self.control_deliveries += c.rx_control_pkts();
        self.data_deliveries += c.rx_data_pkts();
        self.timer_events += c.timers_fired();
        self.stale_timer_pops += c.timers_skipped_stale();
        self.state_entries += pim_state_entries(net);
        self.data_pkts += c.total_data_pkts();
        for (i, (_, n)) in c.control_breakdown().into_iter().enumerate() {
            self.ctrl[i] += n;
        }
        for &k in slots {
            let (host, _) = net.hosts[k];
            let weight = net.populations[k];
            let received: &[Received] = if weight > 1 {
                &net.world.node::<PopulationNode>(host).received
            } else {
                &net.world.node::<HostNode>(host).received
            };
            let mut seen = BTreeSet::new();
            for r in received {
                if !seen.insert((r.source, r.seq)) {
                    self.duplicates += 1;
                } else if r.seq >= first_seq {
                    self.member_deliveries += weight;
                } else {
                    self.warmup_deliveries += weight;
                }
                self.fingerprint.push(k as u64);
                self.fingerprint.push(r.at.ticks());
                self.fingerprint.push(u64::from(r.source.0));
                self.fingerprint.push(r.seq);
            }
        }
    }

    /// The statistics, in a fixed order.
    pub fn stats(&self) -> SimStats {
        let mut s: Vec<(&str, Stat)> = vec![
            ("events", Stat::Count(self.events)),
            ("control_deliveries", Stat::Count(self.control_deliveries)),
            ("data_deliveries", Stat::Count(self.data_deliveries)),
            ("timer_events", Stat::Count(self.timer_events)),
            ("stale_timer_pops", Stat::Count(self.stale_timer_pops)),
            ("member_deliveries", Stat::Count(self.member_deliveries)),
            ("warmup_deliveries", Stat::Count(self.warmup_deliveries)),
            ("duplicates", Stat::Count(self.duplicates)),
            ("pim_state_entries", Stat::Count(self.state_entries)),
            ("data_pkts", Stat::Count(self.data_pkts)),
            ("reception_fingerprint", Stat::Hash(self.fingerprint.0)),
        ];
        const CTRL: [&str; 6] = [
            "igmp_control_pkts",
            "pim_control_pkts",
            "dvmrp_control_pkts",
            "cbt_control_pkts",
            "unicast_control_pkts",
            "other_control_pkts",
        ];
        s.extend(CTRL.into_iter().zip(self.ctrl.map(Stat::Count)));
        named_stats(s)
    }

    /// Share of dispatched events that are control deliveries or timers.
    pub fn control_share(&self) -> f64 {
        (self.control_deliveries + self.timer_events) as f64 / self.events.max(1) as f64
    }

    /// Share of dispatched events that are data deliveries.
    pub fn data_share(&self) -> f64 {
        self.data_deliveries as f64 / self.events.max(1) as f64
    }

    /// Share of dispatched events that are timers.
    pub fn timer_share(&self) -> f64 {
        self.timer_events as f64 / self.events.max(1) as f64
    }
}

/// The delivery check: every expected member reception arrived.
pub fn delivery_check(expected: u64, delivered: u64) -> Check {
    Check::new(
        delivered == expected,
        format!("member deliveries {delivered} of {expected} expected"),
    )
}

/// Raw per-layer sums of one traced rep, accumulated over its worlds.
#[derive(Default)]
pub struct LayerSums {
    run_until_s: f64,
    events: u64,
    deliver_events: u64,
    deliver_nanos: u64,
    timer_events: u64,
    timer_nanos: u64,
    stale: u64,
    critical_handler_nanos: u64,
    all_handler_nanos: u64,
    barrier_nanos: u64,
    windows: u64,
    regions: usize,
    lookahead_ticks: u64,
    state_entries: u64,
    ctrl: [u64; 6],
}

impl LayerSums {
    /// Add one world's traced run.
    pub fn add(&mut self, net: &ScenarioNet, run: &SimRun) {
        let c = &run.counters;
        let p = run
            .profile
            .as_ref()
            .expect("a traced rep enables the world's profile");
        self.run_until_s += run.run_until_s;
        self.events += c.events_dispatched();
        for r in &p.regions {
            self.deliver_events += r.deliver_events;
            self.deliver_nanos += r.deliver_nanos;
            self.timer_events += r.timer_events;
            self.timer_nanos += r.timer_nanos;
            self.stale += r.stale_events;
        }
        self.critical_handler_nanos += busiest_region_nanos(p);
        self.all_handler_nanos += p.handler_nanos();
        self.barrier_nanos += p.barrier_nanos;
        self.windows += p.windows;
        self.regions = self.regions.max(net.world.region_count());
        self.lookahead_ticks = net
            .world
            .cross_region_lookahead()
            .map_or(self.lookahead_ticks, |d| d.ticks());
        self.state_entries += pim_state_entries(net);
        for (i, (_, n)) in c.control_breakdown().into_iter().enumerate() {
            self.ctrl[i] += n;
        }
    }

    /// The per-layer metrics these sums give.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let handler_s = self.critical_handler_nanos as f64 / 1e9;
        let barrier_s = self.barrier_nanos as f64 / 1e9;
        let per = |nanos: u64, n: u64| nanos as f64 / n.max(1) as f64;
        let serial = self.barrier_nanos + self.all_handler_nanos;
        let mut m = vec![
            ("netsim.events", self.events as f64),
            ("netsim.deliver_events", self.deliver_events as f64),
            ("netsim.timer_events", self.timer_events as f64),
            ("netsim.stale_timer_pops", self.stale as f64),
            (
                "netsim.us_per_event",
                self.run_until_s * 1e6 / self.events.max(1) as f64,
            ),
            ("netsim.handler_s", handler_s),
            (
                "netsim.loop_self_s",
                self.run_until_s - handler_s - barrier_s,
            ),
            ("netsim.barrier_s", barrier_s),
            ("netsim.windows", self.windows as f64),
            (
                "netsim.serial_pct",
                self.barrier_nanos as f64 * 100.0 / serial.max(1) as f64,
            ),
            ("netsim.regions", self.regions as f64),
            ("netsim.lookahead_ticks", self.lookahead_ticks as f64),
            (
                "node.ns_per_deliver",
                per(self.deliver_nanos, self.deliver_events),
            ),
            (
                "node.ns_per_timer",
                per(self.timer_nanos, self.timer_events),
            ),
            ("pim.state_entries", self.state_entries as f64),
        ];
        for (proto, n) in CtrlProto::ALL.into_iter().zip(self.ctrl) {
            let name = match proto {
                CtrlProto::Igmp => "igmp.control_pkts",
                CtrlProto::Pim => "pim.control_pkts",
                CtrlProto::Dvmrp => "dvmrp.control_pkts",
                CtrlProto::Cbt => "cbt.control_pkts",
                CtrlProto::Unicast => "unicast.control_pkts",
                CtrlProto::Other => continue,
            };
            m.push((name, n as f64));
        }
        m
    }
}
