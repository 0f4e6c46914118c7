//! The seeded schedule explorer and its replay artifacts.
//!
//! From one seed the explorer derives one random fault schedule per
//! topology, runs *all three protocols* against the identical schedule,
//! waits for quiescence, and applies the oracle layer. Every run carries
//! structured telemetry — a JSONL event stream and convergence metrics,
//! plus coverage for the search — and on violation the explorer emits a
//! replay artifact: protocol, topology name, seed, schedule text, trace
//! and telemetry fingerprints, plus each implicated router's
//! flight-recorder tail, `show mroute`-style state snapshot and backward
//! causal slice. A case is a pure function of its schedule and seed, so
//! the causal index those post-mortems are read off is built by
//! replaying the violating case when its artifact is captured
//! ([`case_causal`]); a case run builds none.
//! [`replay`] re-executes the artifact byte-identically, telemetry
//! stream included.
//!
//! ## Scenario timeline
//!
//! Every generated schedule keeps to a fixed phase structure so the
//! oracles know when to look. Each phase is one constant below; the
//! generator, [`FaultSchedule::normalize`], the search mutators, the
//! case run and the engine fuzzer all read them from here.
//!
//! | ticks     | constants                                  | phase                               |
//! |-----------|--------------------------------------------|-------------------------------------|
//! | 20–90     | [`JOIN_WINDOW`]                            | initial joins                       |
//! | 100–860   | [`TRAIN_START`], [`TRAIN`], [`TRAIN_GAP`]  | pre-fault data train (builds state) |
//! | 200–2400  | [`FAULT_WINDOW`]                           | fault injection window              |
//! | ≤ 2900    | [`JOIN_MAX`]                               | last join a schedule may make       |
//! | ≤ 2950    | [`HEAL_AT`]                                | every fault healed by the schedule  |
//! | 2960 + k  | [`TEARDOWN_AT`]                            | teardown mode: member slot k leaves |
//! | ≤ 2970    | [`LEAVE_MAX`]                              | last leave a schedule may make      |
//! | 4500–4710 | [`PROBE_START`], [`PROBES`], [`PROBE_GAP`] | probe train                         |
//! | 6000      | [`CHECK_AT`]                               | quiescence checkpoint: oracles run  |
//!
//! [`run_timeline`] is the one place that runs it.
//!
//! The heal events are part of the schedule itself (a crash always pairs
//! with a later restart, a link-down with a link-up, a loss ramp with a
//! ramp to zero), so a schedule is self-contained: replaying it never
//! depends on generator internals.

use crate::net::{NetSpec, Protocol, ScenarioNet};
use crate::oracle::{check_battery, Violation};
use crate::schedule::{FaultEvent, FaultSchedule, BURST_MAX_COUNT, BURST_MAX_GAP};
use graph::{Graph, NodeId};
use netsim::trace::write_packet;
use netsim::{host_addr, SimTime, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::{Range, RangeInclusive};
use std::sync::{Arc, Mutex};
use telemetry::{
    CausalIndex, CoverageMap, CoverageSink, Fanout, JsonlSink, MetricsAggregator, SharedSink,
    FLIGHT_RECORDER_CAP,
};
use wire::{write_dec, Group};

/// When the generator's initial joins happen.
pub const JOIN_WINDOW: RangeInclusive<u64> = 20..=90;
/// When the pre-fault data train from host slot 0 starts.
pub const TRAIN_START: u64 = 100;
/// Number of packets in the pre-fault data train (sequence numbers
/// `0..TRAIN`).
pub const TRAIN: u64 = 20;
/// Pre-fault train spacing.
pub const TRAIN_GAP: u64 = 40;
/// When the generator's faults strike.
pub const FAULT_WINDOW: RangeInclusive<u64> = 200..=2400;
/// The last tick a schedule may join at.
pub const JOIN_MAX: u64 = 2900;
/// Every fault is healed by this tick: the generator caps its heals
/// here and [`FaultSchedule::normalize`] adds any missing heal here.
pub const HEAL_AT: u64 = 2950;
/// In teardown mode member slot `k` leaves at `TEARDOWN_AT + k`.
pub const TEARDOWN_AT: u64 = 2960;
/// The last tick a schedule may leave at.
pub const LEAVE_MAX: u64 = 2970;
/// When the post-heal probe train from host slot 0 starts.
pub const PROBE_START: u64 = 4500;
/// Number of post-heal probe packets.
pub const PROBES: u64 = 8;
/// Probe spacing.
pub const PROBE_GAP: u64 = 30;
/// The probes' sequence numbers: the delivery oracle's expectation.
pub const PROBE_SEQS: Range<u64> = TRAIN..TRAIN + PROBES;
/// When the oracles run.
pub const CHECK_AT: u64 = 6000;

// The probes run on a healed network, after the pre-fault train.
const _: () = assert!(HEAL_AT < PROBE_START && LEAVE_MAX < PROBE_START);
const _: () = assert!(TRAIN_START + (TRAIN - 1) * TRAIN_GAP < PROBE_START);
// A burst is traffic and is never healed: the (S,G) state of the
// latest, longest burst a normalized schedule can hold has expired by
// the checkpoint.
const _: () = assert!(
    HEAL_AT + (BURST_MAX_COUNT as u64 - 1) * BURST_MAX_GAP + dvmrp::ENTRY_TIMEOUT.0 < CHECK_AT
);

/// Capture-ring limit: generously above any scenario's traffic.
const CAPTURE_LIMIT: usize = 300_000;

/// A named topology the explorer samples schedules over.
pub struct TopoSpec {
    /// Stable name used in replay artifacts.
    pub name: &'static str,
    /// The router graph.
    pub graph: Graph,
    /// RP (PIM) / core (CBT) placement.
    pub rendezvous: NodeId,
    /// Routers with an attached host; slot 0 is the sender, slots 1.. are
    /// potential members.
    pub host_routers: Vec<NodeId>,
}

/// The explorer's topology zoo: a redundant diamond, a line with a stub
/// branch, and a cyclic mesh — small enough to quiesce fast, varied
/// enough to exercise reroute, leaf-prune, and multipath behavior.
pub fn topologies() -> Vec<TopoSpec> {
    let mut diamond = Graph::with_nodes(4);
    diamond.add_edge(NodeId(0), NodeId(1), 1);
    diamond.add_edge(NodeId(1), NodeId(2), 1);
    diamond.add_edge(NodeId(2), NodeId(3), 1);
    diamond.add_edge(NodeId(0), NodeId(3), 2);

    let mut line_stub = Graph::with_nodes(6);
    line_stub.add_edge(NodeId(0), NodeId(1), 1);
    line_stub.add_edge(NodeId(1), NodeId(2), 1);
    line_stub.add_edge(NodeId(2), NodeId(3), 1);
    line_stub.add_edge(NodeId(3), NodeId(4), 1);
    line_stub.add_edge(NodeId(2), NodeId(5), 1);

    let mut mesh = Graph::with_nodes(5);
    mesh.add_edge(NodeId(0), NodeId(1), 1);
    mesh.add_edge(NodeId(1), NodeId(2), 1);
    mesh.add_edge(NodeId(2), NodeId(3), 1);
    mesh.add_edge(NodeId(3), NodeId(4), 1);
    mesh.add_edge(NodeId(4), NodeId(0), 2);
    mesh.add_edge(NodeId(1), NodeId(3), 2);

    vec![
        TopoSpec {
            name: "diamond",
            graph: diamond,
            rendezvous: NodeId(2),
            host_routers: vec![NodeId(0), NodeId(1), NodeId(3)],
        },
        TopoSpec {
            name: "line-stub",
            graph: line_stub,
            rendezvous: NodeId(2),
            host_routers: vec![NodeId(4), NodeId(0), NodeId(5), NodeId(3)],
        },
        TopoSpec {
            name: "mesh",
            graph: mesh,
            rendezvous: NodeId(2),
            host_routers: vec![NodeId(0), NodeId(2), NodeId(4)],
        },
    ]
}

/// Look a topology up by its artifact name.
pub fn topology(name: &str) -> Option<TopoSpec> {
    topologies().into_iter().find(|t| t.name == name)
}

/// Generate the random fault schedule for `seed` over `topo`.
///
/// With `teardown`, every member leaves after the heal point and the
/// no-orphans oracle runs instead of delivery (the mode is recoverable
/// from the schedule alone via [`FaultSchedule::final_members`]).
pub fn random_schedule(topo: &TopoSpec, seed: u64, teardown: bool) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5c4e);
    let mut s = FaultSchedule::default();
    let links = topo.graph.edge_count();
    let routers = topo.graph.node_count() as u32;
    let member_slots = 1..topo.host_routers.len() as u32;

    // Initial joins: each member slot joins with probability 2/3.
    let mut any_join = false;
    for slot in member_slots.clone() {
        if rng.gen_range(0..3) < 2 {
            s.push(rng.gen_range(JOIN_WINDOW), FaultEvent::Join(slot));
            any_join = true;
        }
    }
    if !any_join {
        s.push(rng.gen_range(JOIN_WINDOW), FaultEvent::Join(1));
    }

    // Faults: 2–5 of them, each healed by its own later event. Channel
    // impairments (corrupt/duplicate/reorder) and partitions follow the
    // same heal discipline as link faults: everything is clean again
    // before the probe train, because undetectable data-payload
    // corruption during the probes would fail delivery for reasons the
    // protocols cannot observe.
    for _ in 0..rng.gen_range(2..=5) {
        let at = rng.gen_range(FAULT_WINDOW);
        let heal = (at + rng.gen_range(100..=400)).min(HEAL_AT);
        match rng.gen_range(0..10) {
            0 => {
                let l = rng.gen_range(0..links);
                s.push(at, FaultEvent::LinkDown(l));
                s.push(heal, FaultEvent::LinkUp(l));
            }
            1 => {
                let l = rng.gen_range(0..links);
                let pm = rng.gen_range(100..=500);
                s.push(at, FaultEvent::LinkLoss(l, pm));
                s.push(heal, FaultEvent::LinkLoss(l, 0));
            }
            2 => {
                let r = rng.gen_range(0..routers);
                s.push(at, FaultEvent::CrashRouter(r));
                s.push(heal, FaultEvent::RestartRouter(r));
            }
            3 => {
                let l = rng.gen_range(0..links);
                let pm = rng.gen_range(100..=400);
                s.push(at, FaultEvent::CorruptLink(l, pm));
                s.push(heal, FaultEvent::CorruptLink(l, 0));
            }
            4 => {
                let l = rng.gen_range(0..links);
                let pm = rng.gen_range(100..=500);
                s.push(at, FaultEvent::DuplicateLink(l, pm));
                s.push(heal, FaultEvent::DuplicateLink(l, 0));
            }
            5 => {
                let l = rng.gen_range(0..links);
                let pm = rng.gen_range(100..=500);
                let jitter = rng.gen_range(5..=40);
                s.push(at, FaultEvent::ReorderLink(l, pm, jitter));
                s.push(heal, FaultEvent::ReorderLink(l, 0, 0));
            }
            6 => {
                // Atomic multi-link cut; the heal restores every link
                // and resets its channel model in the same tick.
                let a = rng.gen_range(0..links);
                let b = rng.gen_range(0..links);
                let mut cut = vec![a];
                if b != a {
                    cut.push(b);
                }
                s.push(at, FaultEvent::Partition(cut.clone()));
                s.push(heal, FaultEvent::Heal(cut));
            }
            7 => {
                // Membership churn mid-fault-window counts as a fault too.
                let slot = rng.gen_range(member_slots.clone());
                s.push(at, FaultEvent::Leave(slot));
                s.push(heal, FaultEvent::Join(slot));
            }
            8 => {
                // Congestion as a fault: cap the link hard enough that the
                // data train queues and may tail-drop, heal by restoring
                // unlimited. Control priority stays on (the generator
                // never emits prio 0) — the no-starvation oracle depends
                // on it, and clean-by-construction schedules must pass.
                let l = rng.gen_range(0..links);
                let rate = rng.gen_range(2..=16);
                let queue = rng.gen_range(64..=512);
                s.push(at, FaultEvent::Bandwidth(l, rate, queue, 1));
                s.push(heal, FaultEvent::Bandwidth(l, 0, 0, 1));
            }
            _ => {
                // Overload burst from a member slot — traffic, not a
                // fault, so it is self-contained and needs no heal. Its
                // (S,G) state expires before the oracle checkpoint
                // (asserted beside the timeline constants).
                let slot = rng.gen_range(member_slots.clone());
                let count = rng.gen_range(8..=32);
                let gap = rng.gen_range(1..=8);
                s.push(at, FaultEvent::Burst(slot, count, gap));
            }
        }
    }

    if teardown {
        // Everyone leaves after the heal point; the probe train then runs
        // against an empty group and the no-orphans oracle takes over.
        for slot in member_slots {
            s.push(TEARDOWN_AT + u64::from(slot), FaultEvent::Leave(slot));
        }
    } else if s.final_members(topo.host_routers.len()).is_empty() {
        s.push(JOIN_MAX, FaultEvent::Join(1));
    }
    s
}

/// The schedule the explorer runs for `seed` on `topo`: the
/// [`random_schedule`], in teardown mode on every third seed. `trace
/// TOPO PROTO SEED` replays the same one, so the explorer's repro hint
/// reproduces the case it names.
pub fn seed_schedule(topo: &TopoSpec, seed: u64) -> FaultSchedule {
    random_schedule(topo, seed, seed % 3 == 2)
}

/// The outcome of one (topology, protocol, schedule, seed) run.
#[derive(Clone, Debug, Default)]
pub struct CaseOutcome {
    /// Oracle violations, in deterministic order.
    pub violations: Vec<Violation>,
    /// Hash over the full packet trace, each line hashed as a `str` —
    /// byte-identical replays produce the identical fingerprint.
    pub fingerprint: u64,
    /// Lines in the captured packet trace, one per transmission. The
    /// lines themselves are hashed as they are rendered; [`case_text`]
    /// returns them.
    pub trace: TextLen,
    /// Bytes in the JSONL telemetry event stream of the run (one object
    /// per line, keyed by sim time). The stream is hashed as it is
    /// written; [`case_text`] returns it.
    pub telemetry: TextLen,
    /// Hash over the JSONL stream, as `str::hash` of its text.
    /// Deterministic: replays reproduce it.
    pub telemetry_fingerprint: u64,
    /// The run's finished metrics sink: convergence histograms (join
    /// latency, SPT switchover, post-fault reconvergence) with their raw
    /// samples, congestion totals, impairments and decode drops by kind.
    /// `None` when the run panicked.
    pub metrics: Option<MetricsAggregator>,
    /// Write-error count of the JSONL sink at detach
    /// ([`telemetry::JsonlSink`]`::errors`). Nonzero means event lines
    /// were lost and the stream fingerprint cannot be trusted; replay
    /// tests assert zero.
    pub sink_errors: u64,
}

/// One implicated router's post-mortem: its flight-recorder tail and its
/// `show mroute`-style state snapshot at the oracle checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeDump {
    /// Graph node index of the router.
    pub node: usize,
    /// Flight-recorder lines, oldest first (`t<ticks> <event>`): the
    /// router's last [`FLIGHT_RECORDER_CAP`] events, read off the causal
    /// index ([`telemetry::CausalIndex::tail`]).
    pub flight: Vec<String>,
    /// State-snapshot lines ([`telemetry::StateDump`] output, split).
    pub state: Vec<String>,
    /// Backward causal slice ending at this router's last entry-flag
    /// transition (fallback: its last event) — the minimal ancestry
    /// chain explaining how the router got into the dumped state.
    /// Rendered lines from [`telemetry::CausalIndex::backward_slice`];
    /// empty on runs recorded before causal tracing existed.
    pub cause: Vec<String>,
}

impl NodeDump {
    /// Hops in the backward causal slice: the [`NodeDump::cause`] lines
    /// that open a hop (`#<depth> [<event>] …`), each hop's records
    /// being indented under it.
    pub fn slice_depth(&self) -> usize {
        self.cause.iter().filter(|l| l.starts_with('#')).count()
    }
}

/// Render `world`'s captured trace one line at a time, `"<ticks>
/// link<l> r<node> <packet summary>"`, and hand each line to `each`.
/// Every line is built in one reused buffer. A summary depends only on
/// the packet's bytes, and most captured packets repeat an earlier one
/// byte for byte (soft state is refreshed by resending the same
/// messages), so each distinct packet is decoded once and its text
/// copied from an arena.
fn render_trace(world: &World, mut each: impl FnMut(&str)) {
    let mut arena = String::new();
    let mut seen: HashMap<&[u8], Range<usize>> = HashMap::new();
    let mut line = String::with_capacity(128);
    for r in world.captured() {
        let summary = seen
            .entry(&r.packet)
            .or_insert_with(|| {
                let start = arena.len();
                let _ = write_packet(&mut arena, &r.packet);
                start..arena.len()
            })
            .clone();
        line.clear();
        let _ = write_dec(&mut line, r.at.ticks());
        line.push_str(" link");
        let _ = write_dec(&mut line, r.link.0 as u64);
        line.push_str(" r");
        let _ = write_dec(&mut line, r.from.0 as u64);
        line.push(' ');
        line.push_str(&arena[summary]);
        each(&line);
    }
}

/// Format `world`'s captured trace, one stable line per transmission:
/// `"<ticks> link<l> r<node> <packet summary>"`.
pub fn trace_lines(world: &World) -> Vec<String> {
    let mut lines = Vec::new();
    render_trace(world, |line| lines.push(line.to_string()));
    lines
}

/// The hash of every line of `world`'s trace, each hashed as a `str`
/// in order, and the line count: [`CaseOutcome::fingerprint`] and
/// [`CaseOutcome::trace`].
fn trace_fingerprint(world: &World) -> (u64, usize) {
    let mut h = DefaultHasher::new();
    let mut lines = 0;
    render_trace(world, |line| {
        line.hash(&mut h);
        lines += 1;
    });
    (h.finish(), lines)
}

/// A writer that keeps only the hash and the length of what is written
/// to it: [`TextHash::finish`] is the `str::hash` of the whole text.
/// `str::hash` feeds the text's bytes and then a `0xff` terminator, and
/// `DefaultHasher` hashes a byte sequence the same in any chunks
/// (pinned by this module's `text_hash_is_str_hash_in_any_chunks`), so
/// a JSONL stream is fingerprinted as it is written, never held.
#[derive(Debug, Default)]
struct TextHash {
    hasher: DefaultHasher,
    bytes: usize,
}

impl TextHash {
    /// The `str::hash` of everything written.
    fn finish(mut self) -> u64 {
        self.hasher.write_u8(0xff);
        self.hasher.finish()
    }
}

impl std::io::Write for TextHash {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.hasher.write(buf);
        self.bytes += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The length of a text a case hashed instead of keeping:
/// [`CaseOutcome::trace`] counts lines, [`CaseOutcome::telemetry`]
/// bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TextLen(pub usize);

impl TextLen {
    /// The count.
    pub fn len(self) -> usize {
        self.0
    }

    /// Whether the text was empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// The text behind a case's two fingerprints, which [`run_case`] hashes
/// as it is written and does not keep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CaseText {
    /// The captured packet trace, one line per transmission
    /// ([`trace_lines`]).
    pub trace: Vec<String>,
    /// The JSONL telemetry event stream (one object per line, keyed by
    /// sim time).
    pub telemetry: String,
}

/// Run a case's timeline with a [`JsonlSink`] over a `Vec` attached and
/// return its trace and JSONL text: for the callers that read or compare
/// the text itself. The world is [`run_case`]'s, so the text hashes to
/// that case's fingerprints (`tests/fingerprint_text.rs`).
pub fn case_text(
    topo: &TopoSpec,
    protocol: Protocol,
    schedule: &FaultSchedule,
    seed: u64,
    threads: usize,
) -> CaseText {
    let jsonl = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
    let net = run_timeline(topo, protocol, schedule, seed, threads, Some(jsonl.clone()));
    let telemetry = std::mem::take(&mut *telemetry::lock(&jsonl)).into_inner();
    CaseText {
        trace: trace_lines(&net.world),
        telemetry: String::from_utf8(telemetry).expect("JSONL telemetry is always UTF-8"),
    }
}

/// A case replayed with only a [`CausalIndex`] attached: what
/// [`case_causal`] reads off its world and index.
#[derive(Debug)]
pub struct CaseCausal {
    /// The case's oracle violations, in [`run_case`]'s order.
    pub violations: Vec<Violation>,
    /// Post-mortems of the routers the violations implicate; empty when
    /// every oracle passed.
    pub dumps: Vec<NodeDump>,
    /// The causal DAG folded from the run's provenance stream
    /// (DESIGN.md §11).
    pub index: CausalIndex,
}

/// Run a case's timeline with only a [`CausalIndex`] attached, apply the
/// oracles, and read the implicated routers' post-mortems off the index
/// and the world: the one path to a case's index. The world is
/// [`run_case`]'s, so the violations are that case's and the index is
/// the one its telemetry describes. [`run_case`] builds no index;
/// [`Artifact::capture`] calls this for a violating case, and `trace
/// why` for any.
pub fn case_causal(
    topo: &TopoSpec,
    protocol: Protocol,
    schedule: &FaultSchedule,
    seed: u64,
    threads: usize,
) -> CaseCausal {
    let causal = Arc::new(Mutex::new(CausalIndex::new()));
    let net = run_timeline(
        topo,
        protocol,
        schedule,
        seed,
        threads,
        Some(causal.clone()),
    );
    let violations = case_violations(topo, schedule, &net);
    let index = std::mem::take(&mut *telemetry::lock(&causal));
    // A dump for every router an oracle implicated, each with the
    // backward causal slice explaining its last flag transition.
    let mut implicated: Vec<usize> = violations
        .iter()
        .map(|v| v.node)
        .filter(|&n| n < net.router_count)
        .collect();
    implicated.sort_unstable();
    implicated.dedup();
    let dumps = implicated
        .into_iter()
        .map(|n| NodeDump {
            node: n,
            flight: index.tail(n as u32, FLIGHT_RECORDER_CAP),
            state: net
                .state_dump(n, SimTime(CHECK_AT))
                .lines()
                .map(str::to_string)
                .collect(),
            cause: causal_anchor(&index, n as u32)
                .map(|id| slice_lines(&index, id))
                .unwrap_or_default(),
        })
        .collect();
    CaseCausal {
        violations,
        dumps,
        index,
    }
}

/// Run one schedule against one protocol and apply the oracles.
///
/// The explorer always uses the oracle unicast substrate: static routing
/// keeps the run bit-for-bit reproducible from `(schedule, seed)` alone,
/// which the replay-artifact contract depends on.
///
/// The run executes under the **no-panic oracle**: a panic anywhere in
/// the simulation (an engine choking on adversarial input, an overflow
/// in a decode path) is caught and reported as a `no-panic` violation
/// instead of tearing the explorer down, so one poisoned run still
/// yields a replayable artifact.
pub fn run_case(
    topo: &TopoSpec,
    protocol: Protocol,
    schedule: &FaultSchedule,
    seed: u64,
) -> CaseOutcome {
    run_case_inner(topo, protocol, schedule, seed, 1, None)
}

/// [`run_case`] on a region-partitioned world advanced by `threads`
/// workers, with a [`telemetry::CoverageSink`] attached: returns the
/// outcome plus the coverage map folded from the run's event stream —
/// the feedback signal for coverage-guided search. The sink observes
/// only, so the outcome (trace, telemetry bytes, fingerprints) is
/// identical to an uninstrumented run. The replay-artifact contract
/// extends across `threads`: every thread count (including 1) produces
/// byte-identical traces, telemetry, fingerprints and coverage maps, so
/// campaigns can be parallelized without forking their artifacts
/// (`scenario/tests/coverage.rs` pins the map).
pub fn run_case_coverage(
    topo: &TopoSpec,
    protocol: Protocol,
    schedule: &FaultSchedule,
    seed: u64,
    threads: usize,
) -> (CaseOutcome, CoverageMap) {
    let coverage = Arc::new(Mutex::new(CoverageSink::new(protocol as u64)));
    let outcome = run_case_inner(
        topo,
        protocol,
        schedule,
        seed,
        threads,
        Some(coverage.clone()),
    );
    // A panic may have unwound through the sink tree and poisoned it;
    // what coverage the run reached is still there, and a panicked case
    // (one without metrics) adds the panic itself.
    let mut map = telemetry::lock(&coverage).map();
    if outcome.metrics.is_none() {
        map.record(telemetry::feature("panic", &[]));
    }
    (outcome, map)
}

/// The text of a caught panic's payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The explorer's timeline for one case, up to the oracle checkpoint:
/// `set_up_timeline`, then `run_to_check`. Every case, replay and
/// `trace` run goes through here, so they all run the same world.
pub fn run_timeline(
    topo: &TopoSpec,
    protocol: Protocol,
    schedule: &FaultSchedule,
    seed: u64,
    threads: usize,
    sink: Option<SharedSink>,
) -> ScenarioNet {
    let mut net = set_up_timeline(topo, protocol, schedule, seed, sink);
    run_to_check(&mut net, threads);
    net
}

/// The timeline's set-up: build the network over the oracle substrate
/// with the capture ring on and `sink` attached, install `schedule`, and
/// queue the pre-fault train and the post-heal probes from host slot 0.
/// The engine fuzzer adds its injected frames before the run.
pub(crate) fn set_up_timeline(
    topo: &TopoSpec,
    protocol: Protocol,
    schedule: &FaultSchedule,
    seed: u64,
    sink: Option<SharedSink>,
) -> ScenarioNet {
    let mut net = NetSpec {
        protocol,
        groups: &[(Group::test(1), vec![topo.rendezvous])],
        host_routers: &topo.host_routers,
        seed,
        ..NetSpec::default()
    }
    .build(&topo.graph);
    net.world.enable_capture(CAPTURE_LIMIT);
    if let Some(sink) = sink {
        net.attach_telemetry(sink);
    }
    net.install(schedule);
    net.send_at(0, TRAIN_START, TRAIN, TRAIN_GAP);
    net.send_at(0, PROBE_START, PROBES, PROBE_GAP);
    net
}

/// The timeline's run: spread a set-up world over `threads` workers and
/// run it to the oracle checkpoint.
pub(crate) fn run_to_check(net: &mut ScenarioNet, threads: usize) {
    net.world.parallelize(threads);
    net.world.run_until(SimTime(CHECK_AT));
}

/// [`run_case`], with `coverage` attached when the caller wants the
/// map, under the no-panic oracle: a caught panic is the case's one
/// violation, and its outcome has no metrics.
fn run_case_inner(
    topo: &TopoSpec,
    protocol: Protocol,
    schedule: &FaultSchedule,
    seed: u64,
    threads: usize,
    coverage: Option<Arc<Mutex<CoverageSink>>>,
) -> CaseOutcome {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        checked_case(topo, protocol, schedule, seed, threads, coverage)
    }))
    .unwrap_or_else(|payload| {
        let msg = panic_message(payload.as_ref());
        // A panicking seed is a reproduction seed above all else:
        // record it (plus topology and protocol) in the violation
        // itself, so the repro is one trace.sh invocation away even
        // when only the summary line survives.
        CaseOutcome {
            violations: vec![Violation {
                oracle: "no-panic",
                node: 0,
                detail: format!(
                    "simulation panicked [topology {} protocol {} seed {seed}; \
                     repro: ./scripts/trace.sh {} {} {seed}]: {msg}",
                    topo.name,
                    protocol.name(),
                    topo.name,
                    protocol.name()
                ),
            }],
            ..CaseOutcome::default()
        }
    })
}

/// One case's run and its oracles.
fn checked_case(
    topo: &TopoSpec,
    protocol: Protocol,
    schedule: &FaultSchedule,
    seed: u64,
    threads: usize,
    coverage: Option<Arc<Mutex<CoverageSink>>>,
) -> CaseOutcome {
    // Telemetry: JSONL stream (the byte-identity contract, hashed as it
    // is written), metrics aggregator (convergence histograms) and, when
    // wanted, coverage. Observation only — the packet trace is
    // unchanged.
    let jsonl = Arc::new(Mutex::new(JsonlSink::new(TextHash::default())));
    let metrics = Arc::new(Mutex::new(MetricsAggregator::new()));
    let mut fan = Fanout::new();
    fan.push(jsonl.clone());
    fan.push(metrics.clone());
    if let Some(coverage) = coverage {
        fan.push(coverage);
    }
    let net = run_timeline(
        topo,
        protocol,
        schedule,
        seed,
        threads,
        Some(Arc::new(Mutex::new(fan))),
    );

    let violations = case_violations(topo, schedule, &net);

    // The sinks are dropped with the world right after this, so take
    // what they accumulated rather than copying it.
    let mut metrics = std::mem::take(&mut *telemetry::lock(&metrics));
    metrics.finish();
    // Detach point: surface the write-error counter the sink accumulated
    // silently during the run. Nonzero means lost event lines.
    let jsonl = std::mem::take(&mut *telemetry::lock(&jsonl));
    let sink_errors = jsonl.errors;
    if sink_errors != 0 {
        eprintln!(
            "warning: JSONL telemetry sink dropped {sink_errors} event line(s) \
             (write errors); stream fingerprint is unreliable"
        );
    }
    let jsonl = jsonl.into_inner();

    let (fingerprint, lines) = trace_fingerprint(&net.world);
    CaseOutcome {
        violations,
        fingerprint,
        trace: TextLen(lines),
        telemetry: TextLen(jsonl.bytes),
        telemetry_fingerprint: jsonl.finish(),
        metrics: Some(metrics),
        sink_errors,
    }
}

/// The oracle battery on a case's world at the checkpoint.
fn case_violations(topo: &TopoSpec, schedule: &FaultSchedule, net: &ScenarioNet) -> Vec<Violation> {
    let members = schedule.final_members(topo.host_routers.len());
    let source = host_addr(topo.host_routers[0], 0);
    let expected: Vec<u64> = PROBE_SEQS.collect();
    check_battery(net, &members, source, &expected)
}

/// Where a router's backward slice starts: its last entry-flag
/// transition, or failing that its last event.
pub fn causal_anchor(causal: &CausalIndex, node: u32) -> Option<telemetry::EventId> {
    causal
        .last_flag_transition(Some(node))
        .or_else(|| causal.last_event_on(node))
}

/// A backward slice as flat artifact-ready lines (hop renderings are
/// multi-line; dumps serialize line by line).
pub fn slice_lines(causal: &CausalIndex, id: telemetry::EventId) -> Vec<String> {
    causal
        .backward_slice(id)
        .iter()
        .flat_map(|hop| hop.lines())
        .map(str::to_string)
        .collect()
}

/// Explore one seed on one topology: derive its [`seed_schedule`] and
/// run all three protocols against it. Returns the schedule with the
/// outcomes, so a violation's artifact is built from the schedule that
/// ran.
pub fn explore_seed(topo: &TopoSpec, seed: u64) -> (FaultSchedule, Vec<(Protocol, CaseOutcome)>) {
    let schedule = seed_schedule(topo, seed);
    let outcomes = Protocol::ALL
        .into_iter()
        .map(|p| (p, run_case(topo, p, &schedule, seed)))
        .collect();
    (schedule, outcomes)
}

// ---------------------------------------------------------------------
// Replay artifacts
// ---------------------------------------------------------------------

/// A minimal, self-contained reproduction of one violating run: enough to
/// re-execute it byte-identically, plus the implicated routers'
/// post-mortems (flight-recorder tails and state snapshots) so the
/// failure can be read without re-running anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Topology name (resolved via [`topology`]).
    pub topology: String,
    /// World seed.
    pub seed: u64,
    /// The exact fault schedule.
    pub schedule: FaultSchedule,
    /// Trace fingerprint of the violating run.
    pub fingerprint: u64,
    /// Fingerprint of the JSONL telemetry event stream — replay must
    /// reproduce the stream byte-identically.
    pub telemetry: u64,
    /// The violations observed, rendered.
    pub violations: Vec<String>,
    /// Post-mortems of the routers the violations implicate.
    pub dumps: Vec<NodeDump>,
}

impl Artifact {
    /// Capture an artifact from a violating run, `outcome` being
    /// [`run_case`]'s for the same case. The post-mortems come from one
    /// replay of the case ([`case_causal`]), made only here.
    pub fn capture(
        topo: &TopoSpec,
        protocol: Protocol,
        schedule: &FaultSchedule,
        seed: u64,
        outcome: &CaseOutcome,
    ) -> Artifact {
        Artifact {
            protocol,
            topology: topo.name.to_string(),
            seed,
            schedule: schedule.clone(),
            fingerprint: outcome.fingerprint,
            telemetry: outcome.telemetry_fingerprint,
            violations: outcome.violations.iter().map(|v| v.to_string()).collect(),
            dumps: post_mortems(topo, protocol, schedule, seed, outcome),
        }
    }

    /// Serialize to the artifact text form. Dump payload lines are
    /// indented two spaces so the bare `flight` / `state` / `end`
    /// markers can never collide with recorded content.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("scenario-replay-v1\n");
        s.push_str(&format!("protocol {}\n", self.protocol.name()));
        s.push_str(&format!("topology {}\n", self.topology));
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        s.push_str(&format!("telemetry {:016x}\n", self.telemetry));
        s.push_str("schedule\n");
        s.push_str(&self.schedule.to_text());
        s.push_str("end\n");
        for v in &self.violations {
            s.push_str(&format!("violation {v}\n"));
        }
        for d in &self.dumps {
            s.push_str(&format!("dump r{}\n", d.node));
            // The cause section is absent when the slice is empty, so
            // artifacts recorded before causal tracing parse unchanged.
            let sections = [
                ("flight", &d.flight),
                ("state", &d.state),
                ("cause", &d.cause),
            ];
            for (name, lines) in sections {
                if name == "cause" && lines.is_empty() {
                    continue;
                }
                s.push_str(&format!("{name}\n"));
                for l in lines {
                    s.push_str(&format!("  {l}\n"));
                }
                s.push_str("end\n");
            }
            s.push_str("end\n");
        }
        s
    }

    /// Parse the artifact text form back (exact round trip of
    /// [`Artifact::to_text`]).
    pub fn from_text(text: &str) -> Result<Artifact, String> {
        let mut lines = text.lines();
        if lines.next() != Some("scenario-replay-v1") {
            return Err("not a scenario-replay-v1 artifact".into());
        }
        let mut field = |key: &str| -> Result<String, String> {
            let l = lines.next().ok_or_else(|| format!("missing {key} line"))?;
            l.strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| format!("expected `{key} ...`, got {l:?}"))
        };
        let protocol = Protocol::from_name(&field("protocol")?)
            .ok_or_else(|| "unknown protocol".to_string())?;
        let topology = field("topology")?;
        let seed: u64 = field("seed")?.parse().map_err(|_| "bad seed".to_string())?;
        let fingerprint = u64::from_str_radix(&field("fingerprint")?, 16)
            .map_err(|_| "bad fingerprint".to_string())?;
        let telemetry = u64::from_str_radix(&field("telemetry")?, 16)
            .map_err(|_| "bad telemetry fingerprint".to_string())?;
        if lines.next() != Some("schedule") {
            return Err("missing schedule section".into());
        }
        let mut sched_text = String::new();
        let mut terminated = false;
        for l in lines.by_ref() {
            if l == "end" {
                terminated = true;
                break;
            }
            sched_text.push_str(l);
            sched_text.push('\n');
        }
        if !terminated {
            return Err("schedule section not terminated by `end`".into());
        }
        let schedule = FaultSchedule::from_text(&sched_text)?;
        let (violations, dumps) = Self::parse_tail(lines)?;
        Ok(Artifact {
            protocol,
            topology,
            seed,
            schedule,
            fingerprint,
            telemetry,
            violations,
            dumps,
        })
    }

    /// Parse the violation and dump sections after the schedule.
    fn parse_tail<'a>(
        lines: impl Iterator<Item = &'a str>,
    ) -> Result<(Vec<String>, Vec<NodeDump>), String> {
        #[derive(PartialEq)]
        enum Mode {
            Top,
            Dump,
            Flight,
            State,
            Cause,
        }
        let mut mode = Mode::Top;
        let mut violations = Vec::new();
        let mut dumps: Vec<NodeDump> = Vec::new();
        let mut cur: Option<NodeDump> = None;
        for l in lines {
            match mode {
                Mode::Top => {
                    if let Some(v) = l.strip_prefix("violation ") {
                        violations.push(v.to_string());
                    } else if let Some(n) = l.strip_prefix("dump r") {
                        let node = n.parse().map_err(|_| format!("bad dump node {n:?}"))?;
                        cur = Some(NodeDump {
                            node,
                            flight: Vec::new(),
                            state: Vec::new(),
                            cause: Vec::new(),
                        });
                        mode = Mode::Dump;
                    } else {
                        return Err(format!("unexpected artifact line {l:?}"));
                    }
                }
                Mode::Dump => match l {
                    "flight" => mode = Mode::Flight,
                    "state" => mode = Mode::State,
                    "cause" => mode = Mode::Cause,
                    "end" => {
                        dumps.push(cur.take().expect("dump under construction"));
                        mode = Mode::Top;
                    }
                    _ => return Err(format!("unexpected dump line {l:?}")),
                },
                Mode::Flight | Mode::State | Mode::Cause => {
                    if l == "end" {
                        mode = Mode::Dump;
                    } else {
                        let payload = l
                            .strip_prefix("  ")
                            .ok_or_else(|| format!("unindented dump payload {l:?}"))?
                            .to_string();
                        let d = cur.as_mut().expect("dump under construction");
                        match mode {
                            Mode::Flight => d.flight.push(payload),
                            Mode::State => d.state.push(payload),
                            _ => d.cause.push(payload),
                        }
                    }
                }
            }
        }
        if mode != Mode::Top {
            return Err("dump section not terminated by `end`".into());
        }
        Ok((violations, dumps))
    }
}

/// The post-mortems of `outcome`'s case: none for a clean case, nor for
/// a panicked one (its replay would panic again), and otherwise
/// [`case_causal`]'s dumps.
fn post_mortems(
    topo: &TopoSpec,
    protocol: Protocol,
    schedule: &FaultSchedule,
    seed: u64,
    outcome: &CaseOutcome,
) -> Vec<NodeDump> {
    if outcome.violations.is_empty() || outcome.metrics.is_none() {
        return Vec::new();
    }
    case_causal(topo, protocol, schedule, seed, 1).dumps
}

/// The topology an artifact names.
fn artifact_topology(artifact: &Artifact) -> Result<TopoSpec, String> {
    topology(&artifact.topology).ok_or_else(|| format!("unknown topology {:?}", artifact.topology))
}

/// Re-execute an artifact. The run is deterministic, so the returned
/// outcome's fingerprint, telemetry fingerprint and violations must
/// equal the artifact's — the replay test target asserts exactly that.
/// [`verify_replay`] checks the dumps too.
pub fn replay(artifact: &Artifact) -> Result<CaseOutcome, String> {
    let topo = artifact_topology(artifact)?;
    Ok(run_case(
        &topo,
        artifact.protocol,
        &artifact.schedule,
        artifact.seed,
    ))
}

/// Replay an artifact and check every recorded field byte-identically:
/// trace fingerprint, telemetry fingerprint, violations, and post-mortem
/// dumps (from a second replay, for a violating artifact). `Ok(outcome)`
/// means the artifact reproduces exactly; the shrinker calls this before
/// any minimized artifact is written, and the corpus loop calls it for
/// every committed regression artifact.
pub fn verify_replay(artifact: &Artifact) -> Result<CaseOutcome, String> {
    let topo = artifact_topology(artifact)?;
    let outcome = run_case(&topo, artifact.protocol, &artifact.schedule, artifact.seed);
    if outcome.fingerprint != artifact.fingerprint {
        return Err(format!(
            "trace fingerprint mismatch: recorded {:016x}, replayed {:016x}",
            artifact.fingerprint, outcome.fingerprint
        ));
    }
    if outcome.telemetry_fingerprint != artifact.telemetry {
        return Err(format!(
            "telemetry fingerprint mismatch: recorded {:016x}, replayed {:016x}",
            artifact.telemetry, outcome.telemetry_fingerprint
        ));
    }
    let replayed: Vec<String> = outcome.violations.iter().map(|v| v.to_string()).collect();
    if replayed != artifact.violations {
        return Err(format!(
            "violations mismatch: recorded {:?}, replayed {:?}",
            artifact.violations, replayed
        ));
    }
    let dumps = post_mortems(
        &topo,
        artifact.protocol,
        &artifact.schedule,
        artifact.seed,
        &outcome,
    );
    if dumps != artifact.dumps {
        return Err("post-mortem dumps mismatch".to_string());
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------
// The regression corpus loop
// ---------------------------------------------------------------------

/// Load every `*.replay` artifact under `dir`, sorted by file name so
/// the corpus loop runs (and reports) in a stable order.
pub fn load_corpus(dir: &std::path::Path) -> Result<Vec<(std::path::PathBuf, Artifact)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "replay"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
        let artifact =
            Artifact::from_text(&text).map_err(|e| format!("parse {}: {e}", p.display()))?;
        out.push((p, artifact));
    }
    Ok(out)
}

/// Per-artifact `(file name, replay result)` list from [`replay_corpus`].
pub type CorpusReplay = Vec<(String, Result<(), String>)>;

/// Replay every artifact in `dir` byte-identically ([`verify_replay`]).
/// Returns the per-artifact `(file name, result)` list; an artifact that
/// drifts — different trace, telemetry, violations, or dumps — is a
/// regression of whatever behavior the artifact pinned.
pub fn replay_corpus(dir: &std::path::Path) -> Result<CorpusReplay, String> {
    let corpus = load_corpus(dir)?;
    Ok(corpus
        .into_iter()
        .map(|(path, artifact)| {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            (name, verify_replay(&artifact).map(|_| ()))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::FlightRecorder;

    /// The telemetry layer's core contract at full-stack scope: attaching
    /// the complete sink fanout changes nothing about protocol behavior —
    /// the packet trace is identical line for line.
    #[test]
    fn telemetry_attachment_does_not_perturb_the_trace() {
        let topo = &topologies()[0];
        let schedule = random_schedule(topo, 3, false);
        let run = |protocol: Protocol, attach: bool| -> Vec<String> {
            let sink = attach.then(|| {
                let mut fan = Fanout::new();
                fan.push(Arc::new(Mutex::new(FlightRecorder::new(
                    FLIGHT_RECORDER_CAP,
                ))));
                fan.push(Arc::new(Mutex::new(JsonlSink::new(Vec::new()))));
                fan.push(Arc::new(Mutex::new(MetricsAggregator::new())));
                Arc::new(Mutex::new(fan)) as SharedSink
            });
            trace_lines(&run_timeline(topo, protocol, &schedule, 3, 1, sink).world)
        };
        for protocol in Protocol::ALL {
            assert_eq!(
                run(protocol, false),
                run(protocol, true),
                "{}: telemetry must be observation-only",
                protocol.name()
            );
        }
    }

    /// A JSONL writer that takes `ok` lines, then fails every write.
    struct FailAfter {
        ok: usize,
        taken: Vec<u8>,
    }

    impl std::io::Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            self.ok -= 1;
            self.taken.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `CaseOutcome::sink_errors` is `JsonlSink::errors` at detach. The
    /// case runner's own writer only hashes and cannot fail, so the count
    /// is shown on the same run with a writer that does: it loses exactly
    /// the lines after the failure, never panics, and leaves the sibling
    /// stream — the one `run_case` fingerprints — byte-identical.
    #[test]
    fn a_failing_jsonl_writer_is_counted_line_by_line_and_hurts_no_sibling() {
        let topo = &topologies()[0];
        let schedule = random_schedule(topo, 3, false);
        let reference = run_case(topo, Protocol::Pim, &schedule, 3);
        assert_eq!(reference.sink_errors, 0);
        let text = case_text(topo, Protocol::Pim, &schedule, 3, 1).telemetry;
        let lines = text.lines().count();
        assert!(lines > 1000, "a real stream, got {lines} lines");

        let failing = Arc::new(Mutex::new(JsonlSink::new(FailAfter {
            ok: 1000,
            taken: Vec::new(),
        })));
        let healthy = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
        let mut fan = Fanout::new();
        fan.push(failing.clone());
        fan.push(healthy.clone());
        run_timeline(
            topo,
            Protocol::Pim,
            &schedule,
            3,
            1,
            Some(Arc::new(Mutex::new(fan))),
        );

        let healthy = telemetry::lock(&healthy);
        assert_eq!(healthy.errors, 0);
        assert_eq!(healthy.get_ref().as_slice(), text.as_bytes());
        let failing = telemetry::lock(&failing);
        assert_eq!(failing.errors, (lines - 1000) as u64);
        assert!(text.as_bytes().starts_with(&failing.get_ref().taken));
    }

    proptest::proptest! {
        /// `TextHash` rests on `DefaultHasher` hashing bytes the same in
        /// any chunks, which is what std's SipHash-1-3 does but not a
        /// `Hasher` guarantee: random text cut into random chunks, empty
        /// writes included, hashes to `str::hash` of the whole.
        #[test]
        fn text_hash_is_str_hash_in_any_chunks(
            chars in proptest::prop::collection::vec((0u8..4, 0u32..0x11_0000), 0..300),
            cuts in proptest::prop::collection::vec(0usize..10_000, 0..24),
        ) {
            use std::io::Write;
            // Mostly ASCII, as JSONL is, with any other scalar value mixed in.
            let text: String = chars
                .into_iter()
                .map(|(kind, c)| match kind {
                    0 => char::from_u32(c).unwrap_or('\u{fffd}'),
                    _ => char::from((c % 128) as u8),
                })
                .collect();
            let bytes = text.as_bytes();
            // Repeated cuts are empty writes.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut w = TextHash::default();
            let mut at = 0;
            for cut in cuts {
                let chunk = &bytes[at..cut];
                proptest::prop_assert_eq!(w.write(chunk).unwrap(), chunk.len());
                at = cut;
            }
            proptest::prop_assert_eq!(w.bytes, bytes.len());
            let mut h = DefaultHasher::new();
            text.hash(&mut h);
            proptest::prop_assert_eq!(w.finish(), h.finish());
        }
    }
}
