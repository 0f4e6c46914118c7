//! The five workloads. Each module builds its inputs from the seed
//! (set-up), runs the program on them (the timed region), checks the
//! outputs, and returns one [`Rep`].

pub mod campaign;
pub mod fig2;
pub mod hier;
pub mod sim;
pub mod stream;

use crate::json::Value;
use crate::span::Tracer;

/// One workload of the benchmark. The discriminant is the stream id fed
/// to `par::mix(seed, id, …)`, so workloads never share random inputs —
/// except `hier_ctrl_par`, which must see `hier_ctrl`'s inputs exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Control-plane and timer dominated PIM on a hierarchical internet.
    HierCtrl,
    /// The same inputs on two regions and two threads.
    HierCtrlPar,
    /// Data-plane dominated PIM: 1 KiB packets down source trees.
    StreamData,
    /// Many tiny worlds with telemetry, capture and oracles all on.
    FaultCampaign,
    /// The Fig. 2 tree study: graph + mctree + par, no simulator.
    Fig2Trees,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::HierCtrl,
        Workload::HierCtrlPar,
        Workload::StreamData,
        Workload::FaultCampaign,
        Workload::Fig2Trees,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HierCtrl => "hier_ctrl",
            Workload::HierCtrlPar => "hier_ctrl_par",
            Workload::StreamData => "stream_data",
            Workload::FaultCampaign => "fault_campaign",
            Workload::Fig2Trees => "fig2_trees",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload's timed region uses.
    pub fn threads(self) -> usize {
        match self {
            Workload::HierCtrlPar => 2,
            _ => 1,
        }
    }

    /// Run one repetition: set-up, timed run, output checks.
    pub fn rep(self, seed: u64, smoke: bool, traced: bool, tracer: &mut Tracer) -> Rep {
        match self {
            Workload::HierCtrl => hier::rep(seed, smoke, 1, traced, tracer),
            Workload::HierCtrlPar => hier::rep(seed, smoke, 2, traced, tracer),
            Workload::StreamData => stream::rep(seed, smoke, traced, tracer),
            Workload::FaultCampaign => campaign::rep(seed, smoke, traced, tracer),
            Workload::Fig2Trees => fig2::rep(seed, smoke, traced, tracer),
        }
    }
}

/// One simulated statistic. These are properties of the *simulated*
/// system, exact and repeatable for a fixed seed: a simulator-only
/// speed-up must leave every one of them unchanged.
#[derive(Clone, Debug, PartialEq)]
pub enum Stat {
    /// An exact count.
    Count(u64),
    /// A 64-bit fingerprint (printed in hex: JSON numbers lose bits).
    Hash(u64),
    /// A deterministic real (a Fig. 2 mean).
    Real(f64),
}

impl Stat {
    fn to_json(&self) -> Value {
        match self {
            Stat::Count(n) => Value::Num(*n as f64),
            Stat::Hash(h) => Value::Str(format!("{h:#018x}")),
            Stat::Real(r) => Value::Num(*r),
        }
    }
}

/// Named simulated statistics, in a fixed order.
pub type SimStats = Vec<(String, Stat)>;

/// [`SimStats`] from statically named entries.
pub fn named_stats(stats: Vec<(&str, Stat)>) -> SimStats {
    stats.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Render [`SimStats`] as a JSON object.
pub fn sim_stats_json(stats: &SimStats) -> Value {
    Value::obj(stats.iter().map(|(k, v)| (k.as_str(), v.to_json())))
}

/// A named pass/fail check on the workload's outputs or shape.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was checked, with the observed value.
    pub what: String,
    /// Did it hold?
    pub ok: bool,
}

impl Check {
    /// A check with its verdict.
    pub fn new(ok: bool, what: String) -> Check {
        Check { what, ok }
    }
}

/// The result of one repetition of one workload.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Time to build the inputs, seconds of host time.
    pub setup_s: f64,
    /// The timed region cut into fixed segments (the same segments, in
    /// the same order, in every rep of a workload): host seconds each.
    /// The rep's `run_s` is their sum.
    pub slices: Vec<f64>,
    /// Operations attempted (defined per workload).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Exact simulated statistics.
    pub sim_stats: SimStats,
    /// Output and shape checks; any failing check makes the run incorrect.
    pub checks: Vec<Check>,
    /// Per-layer metric values this rep measured (traced reps only).
    pub layer: Vec<(&'static str, f64)>,
}

impl Rep {
    /// The rep's timed region, seconds of host time.
    pub fn run_s(&self) -> f64 {
        self.slices.iter().sum()
    }
}

/// Time `f`, appending its host seconds to `slices`.
pub fn slice<R>(slices: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t0 = std::time::Instant::now();
    let out = f();
    slices.push(t0.elapsed().as_secs_f64());
    out
}

/// FNV-1a style fold of 64-bit words — the reception fingerprints.
#[derive(Clone, Copy)]
pub struct Fold(pub u64);

impl Default for Fold {
    fn default() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }
}

impl Fold {
    /// Mix one word in.
    pub fn push(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
}
