//! A crew of worker threads that outlives the call: the region executor
//! behind `netsim`'s partitioned world.
//!
//! A lock-step simulation runs hundreds to thousands of windows, each a
//! fraction of a millisecond of work per region. Spawning scoped threads
//! per window costs ≈ 40 µs a window before any work, and a region's
//! handlers ran ≈ 30 % slower on a thread that was new every window
//! (cold allocator arena, no CPU affinity to speak of), so the workers
//! here are spawned once and handed work by value:
//!
//! * The items live in a [`Striped`] between calls — item `i` in stripe
//!   `i % width` — so a worker's whole share is one `Vec`, and handing it
//!   over moves a `Vec` header, not the items: the cost of a hand-off does
//!   not depend on what an item holds or on how many a worker owns.
//! * [`Crew::run`] posts stripe `k` to worker `k` (with a clone of the
//!   call's context), runs stripe 0 on the calling thread instead of
//!   sleeping, and takes every stripe back before it returns. Ownership
//!   moves with the message, so the workers need no borrow of the
//!   caller's data, and the crate needs no `unsafe` and no lifetime
//!   erasure to keep threads across calls.
//! * Both sides wait in three stages — spin, yield, park — see `SPINS`
//!   and `YIELDS` for the measurement behind each.
//!
//! Determinism is the caller's half of the contract, as with
//! [`crate::run_trials`]: `f(i, item, ctx)` must depend only on its
//! arguments. Each item is visited by exactly one thread per call and the
//! results come back in item order, whatever the interleaving.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, Thread};

/// Busy-wait probes before a waiter starts yielding: one `spin_loop`
/// hint each, ≈ 13 µs in all on the reference host. With a thread per
/// CPU the peer is running and answers within microseconds — the barrier
/// between two windows of `hier_ctrl_par` is ≈ 12 µs — and a spin sees
/// that with no system call. (All numbers here: the 2-vCPU reference VM,
/// two regions of 300 µs each and a 12 µs barrier per call, 1 000 calls,
/// best of five; "overhead" is time per call beyond 312 µs.)
const SPINS: u32 = 300;

/// `yield_now` calls before a waiter parks: ≈ 0.2 µs each while nothing
/// else is runnable, so ≈ 0.4 ms — most of a window of `hier_ctrl_par`
/// (0.3 s / 570), which is the longest a region usually waits for its
/// slower peer. Why each stage is there:
///
/// * *Park at once* (no spin, no yield): overhead 142–567 µs per call —
///   more than the window; waking a halted vCPU is the expensive part.
/// * *Spin, then park*: 22–305 µs; every wait longer than the spin still
///   pays the wake-up.
/// * *Spin without end*: 3–12 µs with a CPU per thread, but 3 459 µs per
///   call with four threads on the two CPUs (and ≈ 1 ms per window
///   whenever the scheduler puts waiter and peer on one vCPU): the waiter
///   burns the time slice the peer needs.
/// * *Spin, 400 yields, park*: 6–48 µs; a 300 µs wait outlasts 400
///   yields and parks. *Spin, 2 000 yields, park*: 2–9 µs, and 352 µs per
///   call with four threads on two CPUs against 395 µs for parking at
///   once — a yield hands the CPU to whoever has work. Past that, only a
///   long wait parks: the caller between runs, a worker whose world sits
///   idle.
const YIELDS: u32 = 2000;

/// Items dealt round-robin over `width` stripes: item `i` is element
/// `i / width` of stripe `i % width`. Indexing and iteration are in item
/// order; [`Crew::run`] hands whole stripes to its workers.
pub struct Striped<T> {
    stripes: Vec<Vec<T>>,
    len: usize,
}

impl<T> Striped<T> {
    /// Deal `items` over `width` stripes (at least one).
    pub fn new(items: Vec<T>, width: usize) -> Self {
        let width = width.max(1);
        let len = items.len();
        let mut stripes: Vec<Vec<T>> = (0..width).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            stripes[i % width].push(item);
        }
        Striped { stripes, len }
    }

    /// Number of stripes.
    pub fn width(&self) -> usize {
        self.stripes.len()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No items?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(stripe, position)` of item `i`. One stripe is the case with no
    /// crew, where indexing is per item per call and a division shows (a
    /// 64-region world on one thread spends ≈ 100 ns per region per
    /// window in all).
    fn place(&self, i: usize) -> (usize, usize) {
        match self.stripes.len() {
            1 => (0, i),
            width => (i % width, i / width),
        }
    }

    /// The items, in item order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).map(move |i| &self[i])
    }

    /// The items, mutably, in item order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let mut stripes: Vec<_> = self.stripes.iter_mut().map(|s| s.iter_mut()).collect();
        let width = stripes.len();
        // Stripe `i % width` runs dry exactly at `i == len`.
        (0..).map_while(move |i| stripes[i % width].next())
    }

    /// Deal the same items, in the same order, over `width` stripes.
    pub fn restripe(&mut self, width: usize) {
        if width.max(1) != self.width() {
            let items = std::mem::replace(self, Striped::new(Vec::new(), 1));
            *self = Striped::new(items.into_vec(), width);
        }
    }

    /// The items back in one `Vec`, in item order.
    pub fn into_vec(self) -> Vec<T> {
        let width = self.stripes.len();
        let mut stripes: Vec<_> = self.stripes.into_iter().map(Vec::into_iter).collect();
        (0..).map_while(|i| stripes[i % width].next()).collect()
    }
}

impl<T> std::ops::Index<usize> for Striped<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        let (stripe, at) = self.place(i);
        &self.stripes[stripe][at]
    }
}

impl<T> std::ops::IndexMut<usize> for Striped<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        let (stripe, at) = self.place(i);
        &mut self.stripes[stripe][at]
    }
}

/// An item's work panicked. [`Crew::run`] has every item back in place
/// when it returns this; the caller decides what to print and whether to
/// [`std::panic::resume_unwind`] the payload.
#[derive(Debug)]
pub struct Panicked {
    /// Index of the item whose call panicked.
    pub item: usize,
    /// The panic's own payload.
    pub payload: Box<dyn Any + Send>,
}

/// What a crew runs on every item: `f(item index, item, context)`.
pub type Work<T, C, R> = dyn Fn(usize, &mut T, &C) -> R + Send + Sync;

// A seat's `state`. The caller moves it IDLE → JOB and DONE → IDLE, the
// worker JOB → DONE; STOP (from IDLE, by `drop`) ends the worker. Every
// store that hands a slot over is `Release` and is read by the other
// side's `Acquire` load in `wait_for`.
const IDLE: u8 = 0;
const JOB: u8 = 1;
const DONE: u8 = 2;
const STOP: u8 = 3;

/// What the caller hands a worker: its stripe by value, the context, and
/// whom to wake.
struct Job<T, C> {
    stripe: Vec<T>,
    ctx: C,
    caller: Thread,
}

/// What a worker hands back: the stripe and one result per item.
struct Done<T, R> {
    stripe: Vec<T>,
    out: Result<Vec<R>, Panicked>,
}

/// One worker's mailbox. The mutexes are never contended — `state` says
/// whose turn it is — they are what lets safe code move a value between
/// threads through a shared slot.
struct Seat<T, C, R> {
    state: AtomicU8,
    job: Mutex<Option<Job<T, C>>>,
    done: Mutex<Option<Done<T, R>>>,
}

/// Wait until `state` holds a value `wanted` accepts, and return it:
/// spin, then yield, then park. The peer stores the value and then
/// unparks this thread, so a store that lands between the last probe and
/// `park` leaves the token set and `park` returns at once.
fn wait_for(state: &AtomicU8, wanted: impl Fn(u8) -> bool) -> u8 {
    let probe = || Some(state.load(Ordering::Acquire)).filter(|&s| wanted(s));
    for _ in 0..SPINS {
        if let Some(s) = probe() {
            return s;
        }
        std::hint::spin_loop();
    }
    for _ in 0..YIELDS {
        if let Some(s) = probe() {
            return s;
        }
        thread::yield_now();
    }
    loop {
        if let Some(s) = probe() {
            return s;
        }
        thread::park();
    }
}

/// Run `f` over stripe `k` of `width`, catching a panic so that the
/// stripe itself always survives to be handed back.
fn run_stripe<T, C, R>(
    k: usize,
    width: usize,
    stripe: &mut [T],
    ctx: &C,
    f: &Work<T, C, R>,
) -> Result<Vec<R>, Panicked> {
    let mut out = Vec::with_capacity(stripe.len());
    let mut item = k;
    catch_unwind(AssertUnwindSafe(|| {
        for t in stripe.iter_mut() {
            out.push(f(item, t, ctx));
            item += width;
        }
    }))
    .map(|()| out)
    .map_err(|payload| Panicked { item, payload })
}

/// Worker `k`'s thread: take a job, run it, hand it back, until STOP.
fn work<T, C, R>(k: usize, width: usize, seat: &Seat<T, C, R>, f: &Work<T, C, R>) {
    while wait_for(&seat.state, |s| s == JOB || s == STOP) == JOB {
        let job = seat.job.lock().expect("held for a move only").take();
        let Job {
            mut stripe,
            ctx,
            caller,
        } = job.expect("JOB posted without a job");
        let out = run_stripe(k, width, &mut stripe, &ctx, f);
        // Before DONE: when `run` returns, the caller's context is the
        // only one left (an `Arc` in it is unique again).
        drop(ctx);
        *seat.done.lock().expect("held for a move only") = Some(Done { stripe, out });
        seat.state.store(DONE, Ordering::Release);
        caller.unpark();
    }
}

/// `workers` persistent threads plus the calling thread, running one
/// fixed function over the stripes of a [`Striped`]. Dropping the crew
/// stops and joins its threads.
pub struct Crew<T, C, R> {
    workers: Vec<Worker<T, C, R>>,
    f: Arc<Work<T, C, R>>,
}

/// A worker as the crew holds it: the mailbox it shares with the thread,
/// and the thread.
struct Worker<T, C, R> {
    seat: Arc<Seat<T, C, R>>,
    handle: JoinHandle<()>,
}

impl<T, C, R> Crew<T, C, R>
where
    T: Send + 'static,
    C: Clone + Send + 'static,
    R: Send + 'static,
{
    /// Spawn `workers` threads named `region-worker-<k>` (`k` from 1:
    /// the caller is stripe 0), each holding a clone of `f`.
    pub fn new(workers: usize, f: Arc<Work<T, C, R>>) -> Self {
        let width = workers + 1;
        let workers = (1..width)
            .map(|k| {
                let seat = Arc::new(Seat {
                    state: AtomicU8::new(IDLE),
                    job: Mutex::new(None),
                    done: Mutex::new(None),
                });
                let (theirs, f) = (Arc::clone(&seat), Arc::clone(&f));
                let handle = thread::Builder::new()
                    .name(format!("region-worker-{k}"))
                    .spawn(move || work(k, width, &theirs, &*f))
                    .expect("spawning a region worker");
                Worker { seat, handle }
            })
            .collect();
        Crew { workers, f }
    }

    /// Run `f(i, item, ctx)` once over every item — stripe `k ≥ 1` on
    /// worker `k`, stripe 0 on the calling thread — and return the
    /// results in item order. `items` must be as wide as the crew
    /// (workers + 1). Every clone of `ctx` made for a worker is dropped
    /// before this returns.
    ///
    /// If a call panics, the remaining items of its stripe are skipped,
    /// every other stripe still runs to its end, all items are back in
    /// `items`, and the first panic in stripe order is returned.
    pub fn run(&mut self, items: &mut Striped<T>, ctx: &C) -> Result<Vec<R>, Panicked> {
        let width = self.workers.len() + 1;
        assert_eq!(items.width(), width, "one stripe per crew member");
        let (own, theirs) = items
            .stripes
            .split_first_mut()
            .expect("at least one stripe");
        let caller = thread::current();
        for (Worker { seat, handle }, stripe) in self.workers.iter().zip(theirs.iter_mut()) {
            *seat.job.lock().expect("held for a move only") = Some(Job {
                stripe: std::mem::take(stripe),
                ctx: ctx.clone(),
                caller: caller.clone(),
            });
            seat.state.store(JOB, Ordering::Release);
            handle.thread().unpark();
        }
        let mut outs = vec![run_stripe(0, width, own, ctx, &*self.f)];
        for (Worker { seat, .. }, stripe) in self.workers.iter().zip(theirs.iter_mut()) {
            wait_for(&seat.state, |s| s == DONE);
            let done = seat.done.lock().expect("held for a move only").take();
            let done = done.expect("DONE posted without a result");
            *stripe = done.stripe;
            // Publishes nothing: the worker acts on the next JOB only.
            seat.state.store(IDLE, Ordering::Relaxed);
            outs.push(done.out);
        }
        let mut outs = outs
            .into_iter()
            .map(|out| out.map(Vec::into_iter))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((0..items.len)
            .map(|i| outs[i % width].next().expect("one result per item"))
            .collect())
    }
}

impl<T, C, R> Drop for Crew<T, C, R> {
    fn drop(&mut self) {
        // `run` takes every stripe back before it returns, so every
        // worker is idle (waiting for JOB or STOP) here.
        for Worker { seat, handle } in self.workers.drain(..) {
            seat.state.store(STOP, Ordering::Release);
            handle.thread().unpark();
            // A worker's only panics are broken invariants of this file,
            // and `drop` must not add a second one.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Bump = Work<u64, u64, u64>;

    /// Adds `ctx` to the item and returns twice its index.
    fn bump() -> Arc<Bump> {
        Arc::new(|i, item, add| {
            *item += *add;
            i as u64 * 2
        })
    }

    #[test]
    fn striped_indexes_and_iterates_in_item_order() {
        for width in [0, 1, 2, 3, 8, 20] {
            let mut s = Striped::new((0..13u64).collect(), width);
            assert_eq!(s.width(), width.max(1));
            assert_eq!(s.len(), 13);
            assert!(!s.is_empty());
            assert!(s.iter().copied().eq(0..13));
            assert!((0..13).all(|i| s[i] == i as u64));
            for (i, item) in s.iter_mut().enumerate() {
                assert_eq!(*item, i as u64);
                *item += 1;
            }
            s[4] += 100;
            let mut want: Vec<u64> = (1..14).collect();
            want[4] += 100;
            s.restripe(5);
            assert_eq!(s.width(), 5);
            assert!(s.iter().eq(want.iter()));
            assert_eq!(s.into_vec(), want);
        }
        let empty: Striped<u8> = Striped::new(Vec::new(), 4);
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
        assert!(empty.into_vec().is_empty());
    }

    /// What `run_regions`' test asserted, on the crew: every item is
    /// mutated in place exactly once and results are in item order.
    #[test]
    fn items_and_results_come_back_in_item_order() {
        for workers in [1, 2, 3, 8] {
            let mut crew = Crew::new(workers, bump());
            for n in [0u64, 1, 13] {
                let mut items = Striped::new((0..n).collect(), workers + 1);
                let got = crew.run(&mut items, &100).expect("no panic");
                assert_eq!(
                    got,
                    (0..n).map(|i| i * 2).collect::<Vec<_>>(),
                    "workers={workers}"
                );
                assert_eq!(
                    items.into_vec(),
                    (100..100 + n).collect::<Vec<_>>(),
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn a_crew_is_reused_across_back_to_back_calls() {
        let ids: Arc<Work<Vec<thread::ThreadId>, (), ()>> =
            Arc::new(|_, seen, ()| seen.push(thread::current().id()));
        let mut crew = Crew::new(2, ids);
        let mut items = Striped::new(vec![Vec::new(); 3], 3);
        for _ in 0..1000 {
            assert!(crew.run(&mut items, &()).is_ok());
        }
        let seen = items.into_vec();
        // Item 0 ran here, the others each on one thread of their own,
        // the same one every call.
        assert!(seen[0].iter().all(|&id| id == thread::current().id()));
        for k in 0..3 {
            assert_eq!(seen[k].len(), 1000);
            assert!(seen[k].iter().all(|&id| id == seen[k][0]));
            assert!((0..k).all(|j| seen[j][0] != seen[k][0]));
        }
    }

    #[test]
    fn workers_are_named() {
        let name: Arc<Work<String, (), ()>> =
            Arc::new(|_, s, ()| *s = thread::current().name().unwrap_or("").to_string());
        let mut crew = Crew::new(2, name);
        let mut items = Striped::new(vec![String::new(); 3], 3);
        assert!(crew.run(&mut items, &()).is_ok());
        assert_eq!(items[1], "region-worker-1");
        assert_eq!(items[2], "region-worker-2");
    }

    /// Every worker holds a clone of the function; the count is back to
    /// this test's own handle once `drop` has joined them. (Not a count
    /// of `/proc/self/task`: sibling tests spawn threads too.)
    #[test]
    fn dropping_the_crew_joins_its_threads() {
        let f = bump();
        for round in 0..50 {
            let mut crew = Crew::new(3, Arc::clone(&f));
            assert_eq!(Arc::strong_count(&f), 5, "round {round}");
            let mut items = Striped::new((0..8).collect(), 4);
            assert!(crew.run(&mut items, &1).is_ok());
            drop(crew);
            assert_eq!(Arc::strong_count(&f), 1, "round {round}");
        }
        // Never run at all: the workers are parked on their first wait.
        drop(Crew::new(3, Arc::clone(&f)));
        assert_eq!(Arc::strong_count(&f), 1);
    }

    #[test]
    fn context_clones_are_gone_when_run_returns() {
        let noop: Arc<Work<u8, Arc<()>, ()>> = Arc::new(|_, _, _| ());
        let mut crew = Crew::new(3, noop);
        let mut items = Striped::new(vec![0u8; 4], 4);
        let mut ctx = Arc::new(());
        for _ in 0..200 {
            assert!(crew.run(&mut items, &ctx).is_ok());
            assert!(Arc::get_mut(&mut ctx).is_some());
        }
    }

    #[test]
    fn a_panic_on_any_stripe_is_returned_with_every_item_back() {
        let picky: Arc<Work<u64, u64, ()>> = Arc::new(|i, item, bad| {
            assert!(i as u64 != *bad, "item {i} refuses");
            *item += 1;
        });
        let mut crew = Crew::new(2, picky);
        for bad in [0u64, 4, 5] {
            let mut items = Striped::new(vec![0u64; 9], 3);
            let p = crew.run(&mut items, &bad).expect_err("a panic");
            assert_eq!(p.item, bad as usize);
            let msg = p.payload.downcast_ref::<String>().expect("assert message");
            assert_eq!(msg, &format!("item {bad} refuses"));
            // The bad item and the later ones of its stripe are skipped;
            // the other stripes ran to their end.
            let got = items.into_vec();
            for i in 0..9u64 {
                let skipped = i % 3 == bad % 3 && i >= bad;
                assert_eq!(got[i as usize], u64::from(!skipped), "bad={bad} item {i}");
            }
            // And the crew is still usable.
            let mut items = Striped::new(vec![0u64; 9], 3);
            assert!(crew.run(&mut items, &99).is_ok());
            assert_eq!(items.into_vec(), vec![1; 9]);
        }
    }
}
