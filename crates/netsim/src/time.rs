//! Simulated time.
//!
//! Time is measured in abstract *ticks*. One tick equals one unit of link
//! delay in the underlying [`graph::Graph`]. Protocol timer constants
//! (refresh periods, holdtimes) are expressed in ticks as well; the defaults
//! chosen by the protocol crates keep the paper's ordering (per-hop delays ≪
//! refresh periods ≪ entry lifetimes).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in simulated ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(pub u64);

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration(0);

    /// The tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating multiplication by a scalar (used for "3 × refresh period"
    /// style protocol constants).
    pub const fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

/// An absolute instant in simulated time, in ticks since simulation start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Ticks since simulation start.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`; saturates at zero if `earlier` is in
    /// the future.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

/// The earlier of two optional deadlines (`None` means "no deadline").
///
/// Protocol engines fold their timer fields through this when computing
/// `next_deadline()`; adapters fold engine deadlines together the same way.
pub fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// An ordered multiset of armed deadlines: what a protocol engine keeps so
/// that "when is my next timer?" is a read, not a walk over its state.
///
/// The engine [`arm`](Deadlines::arm)s a deadline where it writes a timer
/// field, [`disarm`](Deadlines::disarm)s it where the field is cleared or
/// its owner dropped, and [`rearm`](Deadlines::rearm)s it where the field
/// moves; [`first`](Deadlines::first) is then the earliest armed timer
/// after any mutation. The set is keyless — it knows instants, not owners —
/// so two timers at one instant are two elements, and a sweep still finds
/// the matured owners itself once [`due`](Deadlines::due) says one exists.
///
/// A sorted `Vec`: a router arms tens of deadlines, not thousands, a
/// refresh moves one a few places, and nothing allocates once the vector
/// has reached its working size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Deadlines {
    /// Ascending.
    armed: Vec<SimTime>,
}

impl Deadlines {
    /// No deadline armed.
    pub const fn new() -> Deadlines {
        Deadlines { armed: Vec::new() }
    }

    /// Arm a deadline at `at`.
    pub fn arm(&mut self, at: SimTime) {
        let i = self.armed.partition_point(|&t| t <= at);
        self.armed.insert(i, at);
    }

    /// Disarm one deadline armed at `at`.
    pub fn disarm(&mut self, at: SimTime) {
        match self.armed.binary_search(&at) {
            Ok(i) => {
                self.armed.remove(i);
            }
            Err(_) => debug_assert!(false, "disarming {at}, which was never armed"),
        }
    }

    /// Disarm one deadline at each of `at`: their owner is being dropped.
    pub fn disarm_all(&mut self, at: impl IntoIterator<Item = SimTime>) {
        for t in at {
            self.disarm(t);
        }
    }

    /// A timer field changed from `old` to `new` (`None`: not armed).
    pub fn rearm(&mut self, old: Option<SimTime>, new: Option<SimTime>) {
        match (old, new) {
            (Some(old), Some(new)) if old == new => {}
            (Some(old), Some(new)) => {
                let Ok(from) = self.armed.binary_search(&old) else {
                    debug_assert!(false, "rearming {old}, which was never armed");
                    return self.arm(new);
                };
                // One rotation over the span between the two positions —
                // found by searching only the side `new` lies on — instead
                // of a remove and an insert over the whole tail.
                if new > old {
                    let to = from + 1 + self.armed[from + 1..].partition_point(|&t| t <= new);
                    self.armed[from..to].rotate_left(1);
                    self.armed[to - 1] = new;
                } else {
                    let to = self.armed[..from].partition_point(|&t| t <= new);
                    self.armed[to..=from].rotate_right(1);
                    self.armed[to] = new;
                }
            }
            (Some(old), None) => self.disarm(old),
            (None, Some(new)) => self.arm(new),
            (None, None) => {}
        }
    }

    /// The earliest armed deadline.
    pub fn first(&self) -> Option<SimTime> {
        self.armed.first().copied()
    }

    /// Has an armed deadline matured at `now`?
    pub fn due(&self, now: SimTime) -> bool {
        self.armed.first().is_some_and(|&t| now >= t)
    }

    /// Disarm everything.
    pub fn clear(&mut self) {
        self.armed.clear();
    }

    /// Every armed deadline, ascending.
    pub fn as_slice(&self) -> &[SimTime] {
        &self.armed
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, other: SimTime) -> Duration {
        self.since(other)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(100);
        assert_eq!(t + Duration(5), SimTime(105));
        assert_eq!(SimTime(105) - t, Duration(5));
        assert_eq!(t - SimTime(105), Duration::ZERO); // saturating
        assert_eq!(Duration(3) + Duration(4), Duration(7));
        assert_eq!(Duration(10).saturating_mul(3), Duration(30));
        assert_eq!(Duration(u64::MAX).saturating_mul(2), Duration(u64::MAX));
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(Duration(1) < Duration(2));
    }

    #[test]
    fn earliest_folds_options() {
        assert_eq!(earliest(None, None), None);
        assert_eq!(earliest(Some(SimTime(3)), None), Some(SimTime(3)));
        assert_eq!(earliest(None, Some(SimTime(4))), Some(SimTime(4)));
        assert_eq!(
            earliest(Some(SimTime(9)), Some(SimTime(4))),
            Some(SimTime(4))
        );
    }

    #[test]
    fn deadlines_are_an_ordered_multiset() {
        let mut d = Deadlines::new();
        assert_eq!(d.first(), None);
        assert!(!d.due(SimTime(u64::MAX)));
        for t in [30, 10, 20, 10] {
            d.arm(SimTime(t));
        }
        assert_eq!(d.as_slice(), [10, 10, 20, 30].map(SimTime));
        assert_eq!(d.first(), Some(SimTime(10)));
        assert!(d.due(SimTime(10)) && !d.due(SimTime(9)));
        // One of two equal deadlines goes; the other still holds the front.
        d.disarm(SimTime(10));
        assert_eq!(d.as_slice(), [10, 20, 30].map(SimTime));
        d.rearm(Some(SimTime(10)), Some(SimTime(25)));
        assert_eq!(d.as_slice(), [20, 25, 30].map(SimTime));
        d.rearm(Some(SimTime(30)), Some(SimTime(5)));
        assert_eq!(d.as_slice(), [5, 20, 25].map(SimTime));
        d.rearm(Some(SimTime(20)), Some(SimTime(20)));
        d.rearm(None, Some(SimTime(40)));
        d.rearm(Some(SimTime(5)), None);
        d.rearm(None, None);
        assert_eq!(d.as_slice(), [20, 25, 40].map(SimTime));
        d.clear();
        assert_eq!(d.first(), None);
    }

    /// `rearm`'s rotation against the remove-then-insert it stands for,
    /// over every pair of positions in a set with repeated instants.
    #[test]
    fn rearm_is_disarm_then_arm() {
        let base = [3, 3, 5, 8, 8, 8, 13].map(SimTime);
        for &old in &base {
            for new in (0..16).map(SimTime) {
                let mut rotated = Deadlines::new();
                let mut plain = Deadlines::new();
                for &t in &base {
                    rotated.arm(t);
                    plain.arm(t);
                }
                rotated.rearm(Some(old), Some(new));
                plain.disarm(old);
                plain.arm(new);
                assert_eq!(rotated, plain, "{old} -> {new}");
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(SimTime(7).to_string(), "t7");
        assert_eq!(Duration(7).to_string(), "7t");
    }
}
