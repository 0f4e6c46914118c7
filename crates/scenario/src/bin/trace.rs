//! Run one scenario end-to-end and pretty-print its telemetry trace.
//!
//! ```text
//! trace [TOPOLOGY] [PROTOCOL] [SEED] [--jsonl]
//! trace why ARTIFACT [--threads N]
//! ```
//!
//! Defaults: `diamond pim 0`. The run is the explorer's standard
//! timeline (joins, fault window, heal, probe train, quiescence at
//! `scenario::explore::CHECK_AT`) under the schedule the explorer runs
//! for `SEED` (`scenario::seed_schedule`: teardown mode on every third
//! seed), so the explorer's `[repro: ./scripts/trace.sh …]` hint replays
//! the case it names.
//!
//! By default the output is a merged human-readable timeline: every
//! packet transmission (decoded via `netsim::trace::describe_packet`)
//! interleaved with every structured telemetry event, sorted by sim
//! time, followed by each router's state snapshot and the convergence
//! metrics. With `--jsonl` the raw JSON-lines event stream is printed
//! instead — one object per line, machine-readable.
//!
//! `trace why ARTIFACT` re-executes a replay artifact once, with the
//! causal index attached and the oracles applied at the end, and
//! answers the question the raw timeline cannot: *why* did the run end in
//! the state it did. It prints the backward causal slice for every
//! implicated router (or, on a passing pin, for the last entry-flag
//! transition of the run), the attributed critical path behind each
//! member's first delivery, each injected fault's blast radius, and the
//! causal-index fingerprint. The output contains no thread count: it is byte-
//! identical at any `--threads`, which check.sh asserts on the corpus.

use scenario::{
    case_causal, causal_anchor, run_timeline, seed_schedule, slice_lines, topologies, topology,
    Artifact, Protocol,
};
use std::sync::{Arc, Mutex};
use telemetry::{Event, Fanout, JsonlSink, MetricsAggregator, Sink, Ticks};
use wire::Group;

/// Records every event as a rendered line, unbounded — the pretty
/// printer's source.
#[derive(Default)]
struct Lines(Vec<(u64, String)>);

impl Sink for Lines {
    fn event(&mut self, node: u32, at: Ticks, ev: &Event) {
        self.0.push((at, format!("t{at} r{node} {ev}")));
    }
}

/// `trace why ARTIFACT [--threads N]`: replay the artifact and print
/// the causal explanation. The output never mentions the thread count —
/// it must be byte-identical at any `--threads`.
fn why(args: &[String]) {
    let mut threads = 1usize;
    let mut path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            threads = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--threads needs a number");
        } else {
            assert!(path.is_none(), "unexpected argument {a:?}");
            path = Some(a.clone());
        }
    }
    let path = path.expect("usage: trace why ARTIFACT [--threads N]");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let artifact = Artifact::from_text(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    let topo = topology(&artifact.topology)
        .unwrap_or_else(|| panic!("unknown topology {:?}", artifact.topology));
    let case = case_causal(
        &topo,
        artifact.protocol,
        &artifact.schedule,
        artifact.seed,
        threads,
    );
    let causal = &case.index;

    println!(
        "# why: {} / {} / seed {}",
        artifact.topology,
        artifact.protocol.name(),
        artifact.seed
    );
    for v in &case.violations {
        println!("violation {v}");
    }

    // Backward slices: one per implicated node; on a clean run, the
    // last entry-flag transition of the whole stream.
    let mut nodes: Vec<u32> = case.violations.iter().map(|v| v.node as u32).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut sliced = false;
    for n in nodes {
        if let Some(id) = causal_anchor(causal, n) {
            println!("\n## backward slice — n{n} ({})", id.render());
            for l in slice_lines(causal, id) {
                println!("{l}");
            }
            sliced = true;
        }
    }
    if !sliced {
        let anchor = causal
            .last_flag_transition(None)
            .expect("a completed run always has entry-flag transitions");
        println!(
            "\n## backward slice — last entry-flag transition ({})",
            anchor.render()
        );
        for l in slice_lines(causal, anchor) {
            println!("{l}");
        }
    }

    // Attributed critical paths: who carried each member's first
    // delivery, and which hop dominated the latency.
    let group = Group::test(1).addr().0;
    let node_count = topo.graph.node_count() + topo.host_routers.len();
    for member in 0..node_count as u32 {
        let path = causal.critical_path(group, member);
        if !path.is_empty() {
            println!("\n## critical path — group 239.1.0.1, member n{member}");
            for l in path {
                println!("{l}");
            }
        }
    }

    // Fault blast radii.
    let roots = causal.fault_roots();
    if !roots.is_empty() {
        println!("\n## fault roots");
        for r in roots {
            let blast = causal.forward_slice(r).len();
            println!("[{}] blast radius = {blast} dispatches", r.render());
            if let Some(d) = causal.dispatch(r) {
                for rec in d.records {
                    println!("    t{} r{} {}", rec.at, rec.node, rec.ev);
                }
            }
        }
    }

    println!(
        "\n## causal index: {} dispatches, fingerprint {:016x}",
        causal.len(),
        causal.fingerprint()
    );
}

fn main() {
    let mut jsonl_mode = false;
    let mut pos = Vec::new();
    for a in std::env::args().skip(1) {
        if a == "--jsonl" {
            jsonl_mode = true;
        } else {
            pos.push(a);
        }
    }
    if pos.first().map(String::as_str) == Some("why") {
        why(&pos[1..]);
        return;
    }
    let topo_name = pos.first().map(String::as_str).unwrap_or("diamond");
    let proto_name = pos.get(1).map(String::as_str).unwrap_or("pim");
    let seed: u64 = pos
        .get(2)
        .map(|s| s.parse().expect("SEED must be a number"))
        .unwrap_or(0);

    let topo = topology(topo_name).unwrap_or_else(|| {
        let names: Vec<_> = topologies().iter().map(|t| t.name).collect();
        panic!("unknown topology {topo_name:?}; pick one of {names:?}")
    });
    let protocol = Protocol::from_name(proto_name)
        .unwrap_or_else(|| panic!("unknown protocol {proto_name:?}; pim, dvmrp, or cbt"));

    let lines = Arc::new(Mutex::new(Lines::default()));
    let jsonl = Arc::new(Mutex::new(JsonlSink::new(Vec::<u8>::new())));
    let metrics = Arc::new(Mutex::new(MetricsAggregator::new()));
    let mut fan = Fanout::new();
    fan.push(lines.clone());
    fan.push(jsonl.clone());
    fan.push(metrics.clone());

    let schedule = seed_schedule(&topo, seed);
    let net = run_timeline(
        &topo,
        protocol,
        &schedule,
        seed,
        1,
        Some(Arc::new(Mutex::new(fan))),
    );

    if jsonl_mode {
        print!(
            "{}",
            String::from_utf8(telemetry::lock(&jsonl).get_ref().clone()).expect("JSONL is UTF-8")
        );
        return;
    }

    println!("# {topo_name} / {proto_name} / seed {seed} — schedule:");
    for l in schedule.to_text().lines() {
        println!("#   {l}");
    }

    // Merge packet transmissions (the capture layer kept the packets;
    // `summary` decodes each one here) with telemetry events, stable by
    // sim time.
    let mut merged: Vec<(u64, String)> = net
        .world
        .captured()
        .into_iter()
        .map(|r| {
            (
                r.at.ticks(),
                format!(
                    "t{} wire link{} r{} {}",
                    r.at.ticks(),
                    r.link.0,
                    r.from.0,
                    r.summary()
                ),
            )
        })
        .collect();
    merged.extend(telemetry::lock(&lines).0.iter().cloned());
    merged.sort_by_key(|&(t, _)| t);
    for (_, l) in &merged {
        println!("{l}");
    }

    let check_at = net.world.now();
    println!("\n# state snapshots at t{}:", check_at.ticks());
    for n in 0..net.router_count {
        for l in net.state_dump(n, check_at).lines() {
            println!("{l}");
        }
    }

    telemetry::lock(&metrics).finish();
    println!("\n# convergence metrics:");
    for l in telemetry::lock(&metrics).render().lines() {
        println!("{l}");
    }
}
