//! Layer drives: short isolated loops over one layer's public API.
//!
//! Each drive is timed in batches with plain `Instant` (the vendored
//! `criterion` is a stand-in) and reports its *best* batch: the
//! reference host's timing noise is one-sided and bursty, so the least
//! disturbed batch is the steadiest estimate of the layer's cost.

pub mod netsim;
pub mod pim;
pub mod telemetry;
pub mod unicast;
pub mod wire;

use std::time::Instant;

/// How much time a drive may spend.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Batches per drive.
    pub batches: usize,
    /// Minimum host seconds per batch.
    pub batch_s: f64,
}

impl Budget {
    /// The budget of a full traced run.
    pub const FULL: Budget = Budget {
        batches: 15,
        batch_s: 0.025,
    };
    /// The budget of `--smoke`.
    pub const SMOKE: Budget = Budget {
        batches: 3,
        batch_s: 0.002,
    };
}

/// Nanoseconds per call of `op`: grow the batch until one batch takes
/// `batch_s`, run `batches` of them, keep the best.
pub fn ns_per_op(budget: Budget, mut op: impl FnMut()) -> f64 {
    let mut iters = 16u64;
    let time = |iters: u64, op: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        t0.elapsed().as_secs_f64()
    };
    loop {
        let s = time(iters, &mut op);
        if s >= budget.batch_s || iters >= 1 << 40 {
            break;
        }
        // Aim a little past the target so the next probe usually lands.
        let scale = (budget.batch_s * 1.2 / s.max(1e-9)).clamp(2.0, 1024.0);
        iters = (iters as f64 * scale) as u64;
    }
    (0..budget.batches)
        .map(|_| time(iters, &mut op) * 1e9 / iters as f64)
        .fold(f64::INFINITY, f64::min)
}

/// Nanoseconds per unit of work for a drive whose batch is a whole run
/// (a world built untimed, then run timed): `batch` returns the timed
/// seconds and the units of work done. Keeps the best batch.
pub fn best_ns_per_unit(budget: Budget, mut batch: impl FnMut() -> (f64, u64)) -> f64 {
    (0..budget.batches)
        .map(|_| {
            let (s, units) = batch();
            s * 1e9 / units.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Run every drive. `smoke` shrinks sizes and budgets.
pub fn run_all(seed: u64, smoke: bool) -> Vec<(&'static str, f64)> {
    let budget = if smoke { Budget::SMOKE } else { Budget::FULL };
    let mut m = netsim::run(budget, smoke);
    m.extend(pim::run(budget));
    m.extend(wire::run(budget));
    m.extend(unicast::run(seed, budget, smoke));
    m.extend(telemetry::run(seed, budget, smoke));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_grows_with_the_work_done() {
        let budget = Budget::SMOKE;
        let spin = |n: u64| {
            move || {
                let mut x = 1u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
                }
                std::hint::black_box(x);
            }
        };
        let small = ns_per_op(budget, spin(100));
        let large = ns_per_op(budget, spin(10_000));
        assert!(small > 0.0);
        assert!(
            large > small * 10.0,
            "100x the work must cost clearly more: {small} vs {large}"
        );
    }

    #[test]
    fn best_ns_per_unit_keeps_the_fastest_batch() {
        let mut calls = 0;
        let ns = best_ns_per_unit(Budget::SMOKE, || {
            calls += 1;
            (calls as f64, 1_000_000_000)
        });
        assert_eq!(calls, 3);
        assert_eq!(ns, 1.0);
    }
}
