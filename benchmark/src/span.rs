//! In-memory spans around the calls the benchmark itself makes.
//!
//! A span is `name, layer, start_ns, end_ns, parent, rep`; spans are kept
//! in memory and written once, when the run ends. A span's *self time* is
//! its duration minus the part its direct children cover, so time is
//! attributed to exactly one layer. Spans inside the program under test
//! are a later change: everything here is recorded from `benchmark/`.

use crate::json::Value;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran (`"run_until"`, `"build_net"`, …).
    pub name: String,
    /// The crate the time belongs to (`"netsim"`, `"scenario"`, …;
    /// `"bench"` for the harness's own phases).
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Which repetition of the workload the span belongs to.
    pub rep: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one run of one workload.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; time zero is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Tag the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Run `f` inside a span; the span's parent is whichever span is
    /// open now. Returns `f`'s result and the span's duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.clock_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.clock_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Record an interval measured elsewhere (a worker thread, a
    /// profile counter) as a child of the currently open span.
    /// `start_ns` is relative to the tracer's time zero.
    pub fn record(&mut self, name: &str, layer: &'static str, start_ns: u64, dur_ns: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
    }

    /// Nanoseconds since time zero — the clock every span is on.
    pub fn clock_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order of creation.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, with each span's self time.
    pub fn to_json(&self, workload: &str) -> Value {
        let selfs = self_times(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    Value::obj([
                        ("name", Value::str(&s.name)),
                        ("layer", Value::str(s.layer)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("workload", Value::str(workload)),
                        ("rep", Value::Num(f64::from(s.rep))),
                        ("self_ns", Value::Num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the duration of its
/// *direct* children (a grandchild is already inside its own parent, so
/// it is subtracted exactly once, one level up). Children are clipped to
/// the parent's interval; a span never reads negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            out[p] = out[p].saturating_sub(end.saturating_sub(start));
        }
    }
    out
}

/// Sum of self time per layer, in seconds, in first-seen layer order.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut ns_by_layer: Vec<(&'static str, u64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        match ns_by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, total)) => *total += ns,
            None => ns_by_layer.push((s.layer, ns)),
        }
    }
    ns_by_layer
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / 1e9))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>, layer: &'static str) -> Span {
        Span {
            name: "s".into(),
            layer,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root 0..100 > child 10..60 > grandchild 20..30
        let spans = [
            span(0, 100, None, "a"),
            span(10, 60, Some(0), "b"),
            span(20, 30, Some(1), "c"),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        // Self times partition the root's duration exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn sibling_children_both_count() {
        let spans = [
            span(0, 100, None, "a"),
            span(0, 30, Some(0), "b"),
            span(50, 90, Some(0), "b"),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 40]);
        assert_eq!(
            self_time_by_layer(&spans),
            vec![("a", 30.0 / 1e9), ("b", 70.0 / 1e9)]
        );
    }

    #[test]
    fn children_are_clipped_and_never_go_negative() {
        // Recorded child overhangs its parent; two children cover more
        // than the parent (summed worker-thread time).
        let spans = [
            span(10, 20, None, "a"),
            span(5, 18, Some(0), "b"),
            span(12, 20, Some(0), "b"),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let mut t = Tracer::new();
        t.set_rep(3);
        let ((), outer) = t.time("outer", "bench", |t| {
            t.time("inner", "netsim", |_| std::hint::black_box(1 + 1));
            let at = t.clock_ns();
            t.record("measured", "pim", at, 0);
        });
        assert!(outer >= 0.0);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|s| s.rep == 3));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = t.to_json("w").to_string();
        assert!(json.contains("\"self_ns\"") && json.contains("\"workload\":\"w\""));
    }
}
