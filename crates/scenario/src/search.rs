//! Coverage-guided fault-schedule search.
//!
//! The explorer samples schedules uniformly; this module searches them.
//! Feedback is the [`telemetry::CoverageMap`] folded from each run's
//! event stream (entry-flag transitions, timer-kind interleavings,
//! decode/impairment features) plus *near-miss* features derived from
//! the outcome itself (which oracle fired where, log2-bucketed
//! convergence-histogram shapes). A schedule that lights up new
//! coverage enters a bounded pool; mutants of pool schedules — splice,
//! retime, duplicate, delete, crossover, all re-soundened through
//! [`FaultSchedule::normalize`] — are prioritized over fresh random
//! samples by each parent's novelty weight.
//!
//! Determinism contract: a search is a pure function of
//! `(topology, SearchConfig)` — including `threads`. Candidates for a
//! generation are derived *before* any of them runs, from the pool
//! state and a counter-mode [`SeedStream`]; the batch fans out via
//! [`par::run_trials`] (which returns results in candidate order); and
//! the fold back into the global map is sequential in that order. The
//! thread knob changes wall-clock time and nothing else.

use crate::explore::{random_schedule, run_case_coverage, CaseOutcome, TopoSpec, HEAL_AT};
use crate::fuzz::SeedStream;
use crate::net::Protocol;
use crate::schedule::FaultSchedule;
use std::collections::BTreeSet;
use telemetry::CoverageMap;

/// A coverage-map *entry* as search accumulates them: a feature plus
/// the AFL-style log2 bucket of how often one run hit it. Hit-count
/// bucketing is what lets dense mutants register progress on features
/// a sparse random schedule also touches — "once" and "dozens of
/// times" are different entries.
pub type CoverageEntry = (u64, u32);

/// Fold one evaluation's bucketed entries into `seen`, returning how
/// many were new — the novelty signal that admits a schedule to the
/// pool.
fn fold_entries(seen: &mut BTreeSet<CoverageEntry>, coverage: &CoverageMap) -> usize {
    let mut novel = 0;
    for (f, n) in coverage.entries() {
        if seen.insert((f, CoverageMap::bucket(n))) {
            novel += 1;
        }
    }
    novel
}

/// Knobs for one search campaign.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Total schedule evaluations (each evaluation runs all three
    /// protocols against the schedule).
    pub budget: usize,
    /// Candidates derived per generation; also the parallel fan-out
    /// width.
    pub batch: usize,
    /// Worker threads for the batch fan-out. Any value produces
    /// bit-identical results.
    pub threads: usize,
}

/// Bound on a guided search's interesting-schedule pool; lowest-novelty
/// entries are evicted first.
const POOL_CAP: usize = 64;

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            seed: 1994,
            budget: 192,
            batch: 16,
            threads: 1,
        }
    }
}

/// One evaluated schedule: its merged three-protocol coverage and any
/// violations it provoked.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The (normalized) schedule that ran.
    pub schedule: FaultSchedule,
    /// World seed the runs used.
    pub world_seed: u64,
    /// Coverage merged across all three protocols, near-miss features
    /// included.
    pub coverage: CoverageMap,
    /// Protocols that violated an oracle, with rendered violations.
    pub violations: Vec<(Protocol, Vec<String>)>,
}

/// The result of a search campaign.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Evaluations actually executed (= `min(budget, …)`).
    pub evals: usize,
    /// The global coverage map (summed hit counts) after the campaign.
    pub coverage: CoverageMap,
    /// Distinct `(feature, hit-bucket)` entries reached — the headline
    /// coverage number EXPERIMENTS.md compares across strategies.
    pub entries: usize,
    /// Violating evaluations, in discovery order.
    pub violating: Vec<Evaluation>,
    /// `(evals, entries)` after each generation — the curve
    /// EXPERIMENTS.md plots against the random baseline.
    pub history: Vec<(usize, usize)>,
}

/// Fold one outcome's *near-miss* signal into `map`: which oracles
/// fired at which nodes, and the log2-bucketed count and max of every
/// convergence histogram ([`telemetry::MetricsAggregator::histograms`]).
/// These put the search gradient on "almost broke" runs that pure event
/// coverage cannot see.
fn near_miss_features(map: &mut CoverageMap, tag: u64, outcome: &CaseOutcome) {
    for v in &outcome.violations {
        map.record(telemetry::feature(
            "violation",
            &[tag, telemetry::strpart(v.oracle), v.node as u64],
        ));
    }
    let Some(metrics) = &outcome.metrics else {
        return;
    };
    for (name, h) in metrics.histograms() {
        for (key, v) in [("count", h.count()), ("max", h.max())] {
            let bucket = 64 - v.leading_zeros() as u64;
            map.record(telemetry::feature(
                "metric",
                &[
                    tag,
                    telemetry::strpart(name),
                    telemetry::strpart(key),
                    bucket,
                ],
            ));
        }
    }
}

/// Run `schedule` against all three protocols under `world_seed` and
/// fold the combined coverage + near-miss signal.
pub fn evaluate_schedule(topo: &TopoSpec, schedule: &FaultSchedule, world_seed: u64) -> Evaluation {
    let mut coverage = CoverageMap::new();
    let mut violations = Vec::new();
    for (tag, protocol) in Protocol::ALL.into_iter().enumerate() {
        let (outcome, cov) = run_case_coverage(topo, protocol, schedule, world_seed, 1);
        coverage.merge(&cov);
        near_miss_features(&mut coverage, tag as u64, &outcome);
        if !outcome.violations.is_empty() {
            violations.push((
                protocol,
                outcome.violations.iter().map(|v| v.to_string()).collect(),
            ));
        }
    }
    Evaluation {
        schedule: schedule.clone(),
        world_seed,
        coverage,
        violations,
    }
}

/// Pick a pool index, weighted by novelty. Deterministic given the
/// stream state.
fn pick(pool: &[(FaultSchedule, u64)], rng: &mut SeedStream) -> usize {
    let total: u64 = pool.iter().map(|(_, w)| w).sum();
    let mut r = rng.next_u64() % total.max(1);
    for (i, (_, w)) in pool.iter().enumerate() {
        if r < *w {
            return i;
        }
        r -= w;
    }
    pool.len() - 1
}

/// Cap on a mutant's raw event count before normalization: splicing is
/// the dominant operator, and unchecked accumulation across generations
/// would make late evaluations arbitrarily slow.
const MUTANT_EVENT_CAP: usize = 64;

/// Apply 1–3 mutation operators drawn from the stream, then re-soundene
/// the result via [`FaultSchedule::normalize`] so the heal discipline
/// (and therefore oracle meaningfulness) survives arbitrary splices.
///
/// The operator mix is deliberately *additive*: splice and duplicate
/// outweigh delete/retime, and one arm splices from a fresh random
/// schedule rather than a pool donor. A mutant can therefore stack more
/// concurrent fault arms than [`random_schedule`]'s 2–5-fault cap ever
/// emits — the region of schedule space only guided search reaches.
fn mutate(
    topo: &TopoSpec,
    parent: &FaultSchedule,
    donor: &FaultSchedule,
    rng: &mut SeedStream,
) -> FaultSchedule {
    let links = topo.graph.edge_count();
    let routers = topo.graph.node_count();
    let hosts = topo.host_routers.len();
    let mut s = parent.clone();
    for _ in 0..(1 + rng.below(3)) {
        let n = s.events.len();
        match rng.below(8) {
            0 if n > 1 => s = s.with_deleted(rng.below(n)),
            1 if n > 0 => {
                let i = rng.below(n);
                let t = 1 + rng.next_u64() % HEAL_AT;
                s = s.with_retimed(i, t);
            }
            2 | 3 if n > 0 => {
                let i = rng.below(n);
                let t = 1 + rng.next_u64() % HEAL_AT;
                s = s.with_duplicated(i, t);
            }
            4 | 5 => {
                let t0 = rng.next_u64() % HEAL_AT;
                let t1 = t0 + 1 + rng.next_u64() % 1000;
                s = s.spliced(donor, t0, t1);
            }
            6 => {
                let fresh = random_schedule(topo, rng.next_u64(), false);
                let t0 = rng.next_u64() % HEAL_AT;
                let t1 = t0 + 1 + rng.next_u64() % 1500;
                s = s.spliced(&fresh, t0, t1);
            }
            _ => {
                let cut = 1 + rng.next_u64() % HEAL_AT;
                s = s.crossover(donor, cut);
            }
        }
    }
    s.events.truncate(MUTANT_EVENT_CAP);
    s.normalize(links, routers, hosts)
}

/// Derive generation `generation`'s candidate schedules from the pool.
/// Pure function of `(cfg.seed, generation, pool)` — it must run before
/// any candidate executes so the thread fan-out cannot influence it.
fn derive_candidates(
    topo: &TopoSpec,
    cfg: &SearchConfig,
    generation: u64,
    pool: &[(FaultSchedule, u64)],
    batch: usize,
) -> Vec<(FaultSchedule, u64)> {
    (0..batch)
        .map(|i| {
            let mut rng = SeedStream::new(cfg.seed, generation * 0x10_0003 + i as u64);
            let world_seed = par::mix(cfg.seed, 0xC0FF_EE00 ^ generation, i as u64);
            // 1-in-4 fresh random schedules keep exploration alive even
            // once the pool saturates (and seed generation 0 entirely).
            let schedule = if pool.is_empty() || rng.below(4) == 0 {
                let fresh = random_schedule(topo, rng.next_u64(), rng.below(3) == 2);
                fresh.normalize(
                    topo.graph.edge_count(),
                    topo.graph.node_count(),
                    topo.host_routers.len(),
                )
            } else {
                let parent = pick(pool, &mut rng);
                let donor = pick(pool, &mut rng);
                mutate(topo, &pool[parent].0, &pool[donor].0, &mut rng)
            };
            (schedule, world_seed)
        })
        .collect()
}

/// Run a coverage-guided campaign over `topo`.
pub fn coverage_search(topo: &TopoSpec, cfg: &SearchConfig) -> SearchReport {
    search(topo, cfg, true)
}

/// The uniform-random baseline: same budget, same evaluation pipeline,
/// same instrumentation — but every candidate is a fresh
/// [`random_schedule`], never a mutant. EXPERIMENTS.md compares its
/// coverage curve against [`coverage_search`] on identical budgets.
pub fn random_search(topo: &TopoSpec, cfg: &SearchConfig) -> SearchReport {
    search(topo, cfg, false)
}

/// The generation loop behind both strategies. Guided, a schedule that
/// reaches new coverage enters the pool later candidates are mutated
/// from. Random, the pool stays empty, so [`derive_candidates`] draws
/// every candidate fresh from the same stream positions.
fn search(topo: &TopoSpec, cfg: &SearchConfig, guided: bool) -> SearchReport {
    let mut global = CoverageMap::new();
    let mut seen: BTreeSet<CoverageEntry> = BTreeSet::new();
    let mut pool: Vec<(FaultSchedule, u64)> = Vec::new();
    let mut violating = Vec::new();
    let mut history = Vec::new();
    let mut evals = 0usize;
    let mut generation = 0u64;

    while evals < cfg.budget {
        let batch = cfg.batch.min(cfg.budget - evals).max(1);
        let candidates = derive_candidates(topo, cfg, generation, &pool, batch);
        let results = par::run_trials(cfg.threads, batch, |i| {
            let (schedule, world_seed) = &candidates[i];
            evaluate_schedule(topo, schedule, *world_seed)
        });
        for ev in results {
            evals += 1;
            let novel = fold_entries(&mut seen, &ev.coverage);
            global.merge(&ev.coverage);
            if !ev.violations.is_empty() {
                violating.push(ev.clone());
            }
            if guided && novel > 0 {
                pool.push((ev.schedule, novel as u64));
                if pool.len() > POOL_CAP {
                    let evict = pool
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, (_, w))| (*w, *i))
                        .map(|(i, _)| i)
                        .unwrap();
                    pool.remove(evict);
                }
            }
        }
        history.push((evals, seen.len()));
        generation += 1;
    }

    SearchReport {
        evals,
        coverage: global,
        entries: seen.len(),
        violating,
        history,
    }
}
