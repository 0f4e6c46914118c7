//! Wall-clock and event-count attribution per region × event kind.
//!
//! The ROADMAP's scale item asks for profiling that shows "where the
//! event loop bends" before the node-count sweeps grow further. A
//! [`SimProfile`] answers that: for each region it separates delivery
//! dispatch from timer dispatch (count and nanoseconds each, plus stale
//! heap entries skipped), and at the world level it counts lock-step
//! windows and the time spent in the serial barrier (mail routing +
//! telemetry flush). Comparing a region's dispatch time against the
//! barrier time tells you whether a bigger `--threads` can help or the
//! serial fraction already dominates. Lock-step itself has a bound too:
//! a window lasts as long as its slowest region, so `critical_nanos`
//! sums that maximum over the windows, `Σ busy / critical` is the most
//! any number of threads can gain on this partition, and `handoff_nanos`
//! is what the run paid on top of it.
//!
//! Profiling is opt-in ([`crate::World::enable_profile`]) and purely
//! observational: wall-clock readings never feed back into the
//! simulation, so event order and every deterministic output are
//! identical with profiling on or off. Event *counts* in the profile
//! are deterministic; the nanosecond attributions are host wall-clock
//! and differ run to run — render them, never fingerprint them.

/// Attribution shard for one region: how many events of each kind its
/// window loop dispatched and how long the handlers took.
#[derive(Clone, Debug, Default)]
pub struct RegionProfile {
    /// Region id this shard belongs to.
    pub region: u32,
    /// Packet deliveries dispatched (`Event::Deliver`).
    pub deliver_events: u64,
    /// Wall-clock nanoseconds spent inside delivery handlers.
    pub deliver_nanos: u64,
    /// Timer firings dispatched (`Event::Timer`).
    pub timer_events: u64,
    /// Wall-clock nanoseconds spent inside timer handlers.
    pub timer_nanos: u64,
    /// Cancelled heap entries popped and skipped without dispatch.
    pub stale_events: u64,
    /// Wall-clock nanoseconds inside this region's window loop, handlers
    /// and queue work together (two clock reads per window, not per
    /// event).
    pub busy_nanos: u64,
}

impl RegionProfile {
    /// Fresh shard for region `region`.
    pub fn new(region: u32) -> Self {
        RegionProfile {
            region,
            ..RegionProfile::default()
        }
    }

    /// Total events dispatched by this region (deliveries + timers).
    pub fn events(&self) -> u64 {
        self.deliver_events + self.timer_events
    }

    /// Total nanoseconds spent in this region's handlers.
    pub fn nanos(&self) -> u64 {
        self.deliver_nanos + self.timer_nanos
    }
}

/// Whole-world attribution: per-region shards plus the serial barrier.
#[derive(Clone, Debug, Default)]
pub struct SimProfile {
    /// Per-region shards, in region-id order.
    pub regions: Vec<RegionProfile>,
    /// Lock-step windows executed.
    pub windows: u64,
    /// Wall-clock nanoseconds in the serial barrier (mail routing and
    /// telemetry flush between windows).
    pub barrier_nanos: u64,
    /// Σ over windows of the slowest region's `busy_nanos`: what the
    /// windows would take with a thread per region and a free hand-off —
    /// the lock-step bound.
    pub critical_nanos: u64,
    /// Σ over windows of (the window's wall-clock − its slowest region's
    /// `busy_nanos`): handing regions to threads and waiting for them, or,
    /// where regions share a thread, the other regions' turns.
    pub handoff_nanos: u64,
    /// Barrier-context dispatches (scripted events, restarts) that run
    /// outside any region's window loop.
    pub script_dispatches: u64,
}

impl SimProfile {
    /// Total events dispatched across all regions.
    pub fn events(&self) -> u64 {
        self.regions.iter().map(RegionProfile::events).sum()
    }

    /// Total nanoseconds across all regions' handlers.
    pub fn handler_nanos(&self) -> u64 {
        self.regions.iter().map(RegionProfile::nanos).sum()
    }

    /// Serial fraction: barrier time over barrier + handler time, in
    /// percent. The Amdahl ceiling on what more threads can buy.
    pub fn serial_pct(&self) -> f64 {
        let total = self.barrier_nanos + self.handler_nanos();
        if total == 0 {
            return 0.0;
        }
        self.barrier_nanos as f64 * 100.0 / total as f64
    }

    /// Total nanoseconds across all regions' window loops.
    pub fn busy_nanos(&self) -> u64 {
        self.regions.iter().map(|r| r.busy_nanos).sum()
    }

    /// The lock-step bound on speed-up over one thread: Σ busy over
    /// `critical_nanos` (1 before any window has run).
    pub fn speedup_bound(&self) -> f64 {
        if self.critical_nanos == 0 {
            return 1.0;
        }
        self.busy_nanos() as f64 / self.critical_nanos as f64
    }

    /// Human-readable table. Nanosecond columns are wall-clock and vary
    /// run to run; event counts are deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("region  deliver-ev  deliver-us  timer-ev  timer-us  stale   busy-us\n");
        for r in &self.regions {
            out.push_str(&format!(
                "r{:<6} {:>10} {:>11} {:>9} {:>9} {:>6} {:>9}\n",
                r.region,
                r.deliver_events,
                r.deliver_nanos / 1_000,
                r.timer_events,
                r.timer_nanos / 1_000,
                r.stale_events,
                r.busy_nanos / 1_000,
            ));
        }
        out.push_str(&format!(
            "windows={} barrier-us={} script-dispatches={} serial={:.1}%\n",
            self.windows,
            self.barrier_nanos / 1_000,
            self.script_dispatches,
            self.serial_pct(),
        ));
        out.push_str(&format!(
            "busy-us={} critical-us={} handoff-us={} speed-up<={:.2} (busy/critical)\n",
            self.busy_nanos() / 1_000,
            self.critical_nanos / 1_000,
            self.handoff_nanos / 1_000,
            self.speedup_bound(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shows_regions_and_serial_fraction() {
        let prof = SimProfile {
            regions: vec![
                RegionProfile {
                    region: 0,
                    deliver_events: 10,
                    deliver_nanos: 30_000,
                    timer_events: 4,
                    timer_nanos: 10_000,
                    stale_events: 1,
                    busy_nanos: 45_000,
                },
                RegionProfile {
                    busy_nanos: 15_000,
                    ..RegionProfile::new(1)
                },
            ],
            windows: 7,
            barrier_nanos: 40_000,
            critical_nanos: 48_000,
            handoff_nanos: 9_000,
            script_dispatches: 3,
        };
        assert_eq!(prof.events(), 14);
        assert_eq!(prof.handler_nanos(), 40_000);
        assert!((prof.serial_pct() - 50.0).abs() < 1e-9);
        let text = prof.render();
        assert!(text.contains("r0"));
        assert!(text.contains("windows=7"));
        assert!(text.contains("serial=50.0%"));
        // The lock-step bound: 60 µs of region work, 48 µs of it on the
        // critical path, so no thread count buys more than 1.25×.
        assert_eq!(prof.busy_nanos(), 60_000);
        assert!((prof.speedup_bound() - 1.25).abs() < 1e-9);
        assert!(text.contains("busy-us=60 critical-us=48 handoff-us=9 speed-up<=1.25"));
    }

    #[test]
    fn empty_profile_renders_without_dividing_by_zero() {
        let prof = SimProfile::default();
        assert_eq!(prof.serial_pct(), 0.0);
        assert_eq!(prof.speedup_bound(), 1.0);
        assert!(prof.render().contains("windows=0"));
    }
}
