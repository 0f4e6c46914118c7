//! `fault_campaign`: the explorer's topology zoo × all three protocols ×
//! seeded random fault schedules, through `run_case_coverage` — many
//! tiny worlds with the 5-sink telemetry fan-out, the capture ring,
//! channel impairments, bounded-capacity links, crash/restart and the
//! full oracle battery all switched on. Per-case build and telemetry
//! cost dominate, not steady-state dispatch.
//!
//! A traced rep replays the same cases step by step from the public
//! pieces `run_case` is made of, to say whether a case is build-, run-
//! or oracle-bound, and once more without sinks for the telemetry
//! on/off ratio.

use super::{named_stats, slice, Check, Fold, Rep, Stat, Workload};
use crate::span::Tracer;
use netsim::{host_addr, Counters, NodeIdx, SimTime};
use scenario::explore::{random_schedule, run_case_coverage, topologies, TopoSpec};
use scenario::{
    build_net, check_congestion_recovery, check_delivery, check_no_orphans, check_structure,
    FaultSchedule, Protocol, ScenarioNet, Substrate,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telemetry::{
    CausalIndex, CoverageSink, Fanout, FlightRecorder, JsonlSink, MetricsAggregator, SharedSink,
    Sink, FLIGHT_RECORDER_CAP,
};
use wire::Group;

/// Schedule seeds per topology (× 3 topologies × 3 protocols = cases).
const FULL_SEEDS: usize = 20;
const SMOKE_SEEDS: usize = 2;
/// Times each rep builds its (cheap) inputs.
const SETUP_REPEATS: usize = 25;

// The explorer's scenario timeline (`scenario::explore` keeps these
// private; the step-by-step replay has to restate them).
const TRAIN: u64 = 20;
const PROBES: u64 = 8;
const PROBE_START: u64 = 4500;
const PROBE_GAP: u64 = 30;
const CHECK_AT: u64 = 6000;
const CAPTURE_LIMIT: usize = 300_000;

/// One (topology, protocol, schedule, seed) case.
pub struct Case {
    /// Index into [`Input::topos`].
    pub topo: usize,
    /// Protocol under test.
    pub protocol: Protocol,
    /// World seed and schedule seed.
    pub seed: u64,
    /// The fault schedule.
    pub schedule: FaultSchedule,
}

/// The generated campaign.
pub struct Input {
    /// The topology zoo.
    pub topos: Vec<TopoSpec>,
    /// Every case, in execution order.
    pub cases: Vec<Case>,
}

/// Build the campaign for `seed`.
pub fn setup(seed: u64, smoke: bool) -> Input {
    let seeds = if smoke { SMOKE_SEEDS } else { FULL_SEEDS };
    let topos = topologies();
    let mut cases = Vec::new();
    for i in 0..seeds {
        let s = par::mix(seed, Workload::FaultCampaign as u64, i as u64);
        for (t, topo) in topos.iter().enumerate() {
            // Teardown mode on every third seed, as the explorer does.
            let schedule = random_schedule(topo, s, i % 3 == 2);
            for protocol in Protocol::ALL {
                cases.push(Case {
                    topo: t,
                    protocol,
                    seed: s,
                    schedule: schedule.clone(),
                });
            }
        }
    }
    Input { topos, cases }
}

/// A benchmark-owned sink that only counts what the fan-out emits.
#[derive(Default)]
struct Counting {
    events: u64,
}

impl Sink for Counting {
    fn event(&mut self, _node: u32, _at: u64, _ev: &telemetry::Event) {
        self.events += 1;
    }
}

/// Host seconds of each step of one replayed case.
#[derive(Default, Clone, Copy)]
pub struct Steps {
    /// `build_net` + capture + sink attachment.
    pub build_s: f64,
    /// `FaultSchedule::install` + the data trains.
    pub install_s: f64,
    /// `World::run_until`.
    pub run_s: f64,
    /// The oracle battery.
    pub oracle_s: f64,
}

/// What a replayed case leaves behind.
pub struct Replayed {
    /// Step timings.
    pub steps: Steps,
    /// Oracle violations.
    pub violations: usize,
    /// The world's counters at the checkpoint.
    pub counters: Counters,
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Replay one case from the public pieces `run_case` is made of, with
/// `sink` attached (or no telemetry at all).
pub fn replay(input: &Input, case: &Case, sink: Option<SharedSink>) -> Replayed {
    let topo = &input.topos[case.topo];
    let group = Group::test(1);
    let (mut net, build_s): (ScenarioNet, f64) = secs(|| {
        let mut net = build_net(
            &topo.graph,
            case.protocol,
            Substrate::Oracle,
            group,
            topo.rendezvous,
            &topo.host_routers,
            case.seed,
        );
        net.world.enable_capture(CAPTURE_LIMIT);
        if let Some(sink) = sink {
            net.attach_telemetry(sink);
        }
        net
    });
    let ((), install_s) = secs(|| {
        let hosts: Vec<NodeIdx> = net.hosts.iter().map(|&(n, _)| n).collect();
        case.schedule.install(&mut net.world, &hosts, group);
        net.send_at(0, 100, TRAIN, 40);
        net.send_at(0, PROBE_START, PROBES, PROBE_GAP);
    });
    let (_, run_s) = secs(|| net.world.run_until(SimTime(CHECK_AT)));
    let (violations, oracle_s) = secs(|| {
        let members = case.schedule.final_members(topo.host_routers.len());
        let source = host_addr(topo.host_routers[0], 0);
        let expected: Vec<u64> = (TRAIN..TRAIN + PROBES).collect();
        let mut v = check_structure(&net);
        if members.is_empty() {
            v.extend(check_no_orphans(&net));
        } else {
            // Plain delivery when the run never congested, the same
            // expectation under its congestion label when it did.
            let c = net.world.counters();
            if c.queue_drops_data() > 0 || c.queue_drops_ctrl() > 0 || c.peak_queue_bytes() > 0 {
                v.extend(check_congestion_recovery(&net, &members, source, &expected));
            } else {
                v.extend(check_delivery(&net, &members, source, &expected));
            }
        }
        v.len()
    });
    Replayed {
        steps: Steps {
            build_s,
            install_s,
            run_s,
            oracle_s,
        },
        violations,
        counters: net.world.counters(),
    }
}

/// The explorer's 5-sink fan-out plus the benchmark's counting sink.
struct FullFanout {
    sink: SharedSink,
    counting: Arc<Mutex<Counting>>,
    jsonl: Arc<Mutex<JsonlSink<Vec<u8>>>>,
}

fn full_fanout(protocol: Protocol) -> FullFanout {
    let counting = Arc::new(Mutex::new(Counting::default()));
    let jsonl = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
    let tag = Protocol::ALL
        .iter()
        .position(|p| *p == protocol)
        .expect("protocol is one of ALL") as u64;
    let mut fan = Fanout::new();
    fan.push(Arc::new(Mutex::new(FlightRecorder::new(
        FLIGHT_RECORDER_CAP,
    ))));
    fan.push(jsonl.clone());
    fan.push(Arc::new(Mutex::new(MetricsAggregator::new())));
    fan.push(Arc::new(Mutex::new(CausalIndex::new())));
    fan.push(Arc::new(Mutex::new(CoverageSink::new(tag))));
    fan.push(counting.clone());
    FullFanout {
        sink: Arc::new(Mutex::new(fan)),
        counting,
        jsonl,
    }
}

/// The untraced timed region: every case through `run_case_coverage`.
fn run_cases(input: &Input, slices: &mut Vec<f64>) -> (u64, super::SimStats) {
    let mut failed = 0;
    let mut violations = 0u64;
    let mut trace_fp = Fold::default();
    let mut telemetry_fp = Fold::default();
    let mut trace_lines = 0u64;
    let mut telemetry_bytes = 0u64;
    let mut coverage = 0u64;
    for case in &input.cases {
        let (outcome, map) = slice(slices, || {
            run_case_coverage(
                &input.topos[case.topo],
                case.protocol,
                &case.schedule,
                case.seed,
                1,
            )
        });
        if !outcome.violations.is_empty() || outcome.sink_errors != 0 {
            failed += 1;
        }
        violations += outcome.violations.len() as u64;
        trace_fp.push(outcome.fingerprint);
        telemetry_fp.push(outcome.telemetry_fingerprint);
        trace_lines += outcome.trace.len() as u64;
        telemetry_bytes += outcome.telemetry.len() as u64;
        coverage += map.distinct() as u64;
    }
    let stats = named_stats(vec![
        ("cases", Stat::Count(input.cases.len() as u64)),
        ("violations", Stat::Count(violations)),
        ("trace_lines", Stat::Count(trace_lines)),
        ("telemetry_bytes", Stat::Count(telemetry_bytes)),
        ("coverage_features", Stat::Count(coverage)),
        ("trace_fingerprint", Stat::Hash(trace_fp.0)),
        ("telemetry_fingerprint", Stat::Hash(telemetry_fp.0)),
    ]);
    (failed, stats)
}

/// The traced pass: replay every case with the full fan-out, then again
/// with no sink, and fold the steps into per-layer metrics.
fn traced_replay(input: &Input, tracer: &mut Tracer) -> (u64, Vec<(&'static str, f64)>) {
    let mut on = Steps::default();
    let mut off_run_s = 0.0;
    let mut failed = 0u64;
    let mut emitted = 0u64;
    let mut jsonl_bytes = 0u64;
    let (mut drops, mut marks, mut peak, mut congested) = (0u64, 0u64, 0u64, 0u64);
    let (mut events, mut deliveries, mut timers, mut stale) = (0u64, 0u64, 0u64, 0u64);
    let n = input.cases.len() as f64;
    tracer.time("replay_sinks_on", "scenario", |t| {
        for case in &input.cases {
            let fan = full_fanout(case.protocol);
            let at = t.clock_ns();
            let r = replay(input, case, Some(fan.sink.clone()));
            let mut cursor = at;
            for (name, layer, s) in [
                ("build", "scenario", r.steps.build_s),
                ("install", "scenario", r.steps.install_s),
                ("run_until", "netsim", r.steps.run_s),
                ("oracles", "scenario", r.steps.oracle_s),
            ] {
                let ns = (s * 1e9) as u64;
                t.record(name, layer, cursor, ns);
                cursor += ns;
            }
            on.build_s += r.steps.build_s;
            on.install_s += r.steps.install_s;
            on.run_s += r.steps.run_s;
            on.oracle_s += r.steps.oracle_s;
            failed += u64::from(r.violations > 0);
            emitted += fan.counting.lock().expect("counting sink").events;
            jsonl_bytes += fan.jsonl.lock().expect("jsonl sink").get_ref().len() as u64;
            let c = &r.counters;
            events += c.events_dispatched();
            deliveries += c.rx_pkts();
            timers += c.timers_fired();
            stale += c.timers_skipped_stale();
            drops += c.queue_drops_data() + c.queue_drops_ctrl();
            marks += c.ecn_marks();
            peak = peak.max(c.peak_queue_bytes());
            congested += u64::from(c.peak_queue_bytes() > 0);
        }
    });
    tracer.time("replay_sinks_off", "scenario", |_| {
        for case in &input.cases {
            off_run_s += replay(input, case, None).steps.run_s;
        }
    });
    let layer = vec![
        ("scenario.build_ms_per_case", on.build_s * 1e3 / n),
        ("scenario.install_ms_per_case", on.install_s * 1e3 / n),
        ("scenario.run_ms_per_case", on.run_s * 1e3 / n),
        ("scenario.oracle_ms_per_case", on.oracle_s * 1e3 / n),
        ("scenario.congested_cases", congested as f64),
        ("telemetry.on_off_ratio", on.run_s / off_run_s),
        ("telemetry.events_emitted", emitted as f64),
        ("telemetry.jsonl_bytes", jsonl_bytes as f64),
        ("netsim.events", events as f64),
        ("netsim.deliver_events", deliveries as f64),
        ("netsim.timer_events", timers as f64),
        ("netsim.stale_timer_pops", stale as f64),
        ("netsim.us_per_event", on.run_s * 1e6 / events.max(1) as f64),
        ("netsim.queue_drops", drops as f64),
        ("netsim.ecn_marks", marks as f64),
        ("netsim.peak_queue_bytes", peak as f64),
    ];
    (failed, layer)
}

/// One repetition.
pub fn rep(seed: u64, smoke: bool, traced: bool, tracer: &mut Tracer) -> Rep {
    // Set-up here is tens of microseconds: one sample mostly measures
    // caches left cold by the previous rep, so repeat it and keep the best.
    let (mut input, mut setup_s) = tracer.time("setup", "bench", |_| setup(seed, smoke));
    for _ in 1..SETUP_REPEATS {
        let (again, s) = tracer.time("setup", "bench", |_| setup(seed, smoke));
        if s < setup_s {
            (input, setup_s) = (again, s);
        }
    }
    let mut slices = Vec::with_capacity(input.cases.len());
    let ((failed, sim_stats), _) = tracer.time("run", "bench", |_| run_cases(&input, &mut slices));
    let attempted = input.cases.len() as u64;
    let mut checks = vec![Check::new(
        failed == 0,
        format!("cases with a violation, panic or sink error: {failed} of {attempted}"),
    )];
    let mut layer = Vec::new();
    if traced {
        let (replay_failed, m) = traced_replay(&input, tracer);
        checks.push(Check::new(
            replay_failed == failed,
            format!("step-by-step replay agrees on failing cases ({replay_failed} vs {failed})"),
        ));
        let emitted = m
            .iter()
            .find(|(k, _)| *k == "telemetry.events_emitted")
            .map_or(0.0, |(_, v)| *v);
        checks.push(Check::new(
            emitted > 0.0,
            format!("telemetry events emitted {emitted}"),
        ));
        layer = m;
    }
    Rep {
        setup_s,
        slices,
        attempted,
        failed,
        sim_stats,
        checks,
        layer,
    }
}
