//! `telemetry` drives: replay one campaign case's recorded event stream
//! (events with their provenance, and every dispatch link) into each
//! sink of the explorer's fan-out, one sink at a time.

use super::{best_ns_per_unit, Budget};
use crate::workloads::campaign;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telemetry::{
    CausalIndex, CoverageSink, Event, EventId, FlightRecorder, JsonlSink, MetricsAggregator,
    Provenance, Sink, FLIGHT_RECORDER_CAP,
};

/// One record of the stream a sink sees.
enum Record {
    Link(EventId, Option<EventId>),
    Event(u32, u64, Event, Provenance),
}

/// A benchmark-owned sink that keeps the stream for replay.
#[derive(Default)]
struct Recorder {
    stream: Vec<Record>,
    events: u64,
}

impl Sink for Recorder {
    fn event(&mut self, _node: u32, _at: u64, _ev: &Event) {
        unreachable!("the world always emits with provenance");
    }
    fn event_caused(&mut self, node: u32, at: u64, ev: &Event, prov: Provenance) {
        self.events += 1;
        self.stream.push(Record::Event(node, at, ev.clone(), prov));
    }
    fn link(&mut self, id: EventId, cause: Option<EventId>) {
        self.stream.push(Record::Link(id, cause));
    }
}

fn replay_into(stream: &[Record], sink: &mut dyn Sink) -> f64 {
    let t0 = Instant::now();
    for r in stream {
        match r {
            Record::Link(id, cause) => sink.link(*id, *cause),
            Record::Event(node, at, ev, prov) => sink.event_caused(*node, *at, ev, *prov),
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Run the `telemetry` drives.
pub fn run(seed: u64, budget: Budget, smoke: bool) -> Vec<(&'static str, f64)> {
    let input = campaign::setup(seed, smoke);
    let recorder = Arc::new(Mutex::new(Recorder::default()));
    campaign::replay(&input, &input.cases[0], Some(recorder.clone()));
    let recorder = recorder.lock().expect("recorder sink");
    assert!(recorder.events > 0, "the recorded case emitted no events");
    let (stream, events) = (&recorder.stream, recorder.events);

    // Replay the stream enough times per batch to fill the batch.
    let drive = |mut fresh: Box<dyn FnMut() -> Box<dyn Sink>>| {
        let once = replay_into(stream, fresh().as_mut());
        let repeats = (budget.batch_s / once.max(1e-9)).ceil().max(1.0) as u64;
        best_ns_per_unit(budget, || {
            let secs = (0..repeats)
                .map(|_| replay_into(stream, fresh().as_mut()))
                .sum();
            (secs, events * repeats)
        })
    };
    vec![
        (
            "telemetry.flight_ns_per_event",
            drive(Box::new(|| {
                Box::new(FlightRecorder::new(FLIGHT_RECORDER_CAP))
            })),
        ),
        (
            "telemetry.jsonl_ns_per_event",
            drive(Box::new(|| Box::new(JsonlSink::new(Vec::<u8>::new())))),
        ),
        (
            "telemetry.metrics_ns_per_event",
            drive(Box::new(|| Box::new(MetricsAggregator::new()))),
        ),
        (
            "telemetry.coverage_ns_per_event",
            drive(Box::new(|| Box::new(CoverageSink::new(0)))),
        ),
        (
            "telemetry.causal_ns_per_event",
            drive(Box::new(|| Box::new(CausalIndex::new()))),
        ),
    ]
}
