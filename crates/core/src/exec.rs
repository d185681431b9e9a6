//! The process-wide **executor**: one small pool of parked worker threads
//! that every parallel phase of the suite draws from — the engine's
//! shared-read and crack-partition phases (`batch`), the shard router's
//! per-shard fan-out and the sharded snapshot loader (`quasii-shard`).
//!
//! # Design
//!
//! * **Started once, parked between calls.** The first parallel call
//!   starts `budget() - 1` worker threads; they live for the rest of the
//!   process and block on a per-worker condvar when idle. They never spin:
//!   an idle worker burns no CPU, and a call pays a wake-up round trip
//!   instead of a thread creation.
//! * **One thread budget.** [`budget`] is the host's parallelism: the
//!   calling thread plus the parked workers. A call asks for a
//!   *width* (the `threads` knob of the layer making it) but only hires
//!   workers that are idle at that moment, so nested calls — a shard job
//!   running engine partitions — draw from what the outer level left free.
//!   `threads = 2, shards = 2` runs at most two threads on two cores, never
//!   four.
//! * **Scoped jobs, caller participates.** [`for_each_mut`] runs one job per
//!   item; jobs borrow from the caller's stack, the caller runs its own
//!   share of them, and the call returns only after every hired worker has
//!   let go of the job. A call that hires nobody (width 1, one item, or no
//!   idle worker) runs everything inline with no synchronization at all.
//! * **Stable placement.** Items are handed out in order by a shared
//!   cursor, and the caller claims the first one while the workers it hired
//!   (lowest index first) are still waking up. So when a batch runs two
//!   shards, the first runs on the calling thread and the second on the
//!   same worker from batch to batch, unless that worker wakes too late,
//!   in which case the caller runs both.
//! * **One panic path.** Every job runs under [`catch`]; the first panic (by
//!   item index) stops further items and comes back as [`Panicked`], which
//!   each layer turns into its poison marker.
//!
//! Deadlock freedom: a caller only ever waits for items some live thread
//! has already claimed; every unclaimed item it runs itself. Nested calls
//! follow the same rule, so the wait chain always ends in running code.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// A job panicked: the lowest panicking item index and its message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Panicked {
    /// Index (into the call's items) of the job that panicked.
    pub index: usize,
    /// The rendered panic payload.
    pub message: String,
}

/// Threads that can run jobs at once: the calling thread plus the parked
/// workers — [`std::thread::available_parallelism`].
pub fn budget() -> usize {
    pool().slots_len() + 1
}

/// Runs `f`, converting a panic into its rendered message — the single
/// place the engine, the shard router and the executor itself catch
/// worker panics.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Calls `f(i, &mut items[i])` for every item on up to `width` threads —
/// the caller plus whichever pool workers are idle — and returns once all
/// of them are done.
///
/// Each item is visited at most once, by one thread. A panic in `f` is
/// caught: no further items start, items already running finish, and the
/// lowest panicking index is returned. Items that never ran are left as
/// they were, so callers can always reassemble their state.
pub fn for_each_mut<T: Send>(
    width: usize,
    items: &mut [T],
    f: impl Fn(usize, &mut T) + Sync,
) -> Result<(), Panicked> {
    let n = items.len();
    let want = width.min(n).saturating_sub(1);
    if want == 0 {
        return run_inline(items, &f);
    }
    // Each cell is locked once, by the thread that claimed its index.
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let body = |i: usize| {
        // A poisoned cell belongs to an item that already ran; never
        // relocked, but recovering the guard is harmless either way.
        let mut item = cells[i].lock().unwrap_or_else(PoisonError::into_inner);
        f(i, &mut item);
    };
    let job = Job {
        body: &body,
        n,
        next: AtomicUsize::new(0),
        active: AtomicUsize::new(0),
        aborted: AtomicBool::new(false),
        panicked: Mutex::new(None),
        caller: std::thread::current(),
    };
    if !pool().run(&job, want) {
        // Nobody was idle: the inline path, on the original slice.
        drop(job);
        drop(cells);
        return run_inline(items, &f);
    }
    let panicked = job
        .panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    panicked.map_or(Ok(()), Err)
}

/// The no-worker path: every item in order on the calling thread, under one
/// [`catch`].
fn run_inline<T>(items: &mut [T], f: &impl Fn(usize, &mut T)) -> Result<(), Panicked> {
    let mut at = 0;
    catch(|| {
        for (i, item) in items.iter_mut().enumerate() {
            at = i;
            f(i, item);
        }
    })
    .map_err(|message| Panicked { index: at, message })
}

/// One parallel call's shared state. Lives on the caller's stack; workers
/// reach it through the lifetime-erased reference in their [`Slot`].
struct Job<'a> {
    body: &'a (dyn Fn(usize) + Sync),
    n: usize,
    /// Shared cursor: the next unclaimed item.
    next: AtomicUsize,
    /// Hired workers that took the job and have not yet let go of it.
    active: AtomicUsize,
    /// Set by the first panic: no further items start.
    aborted: AtomicBool,
    panicked: Mutex<Option<Panicked>>,
    /// Unparked by each worker as it lets go of the job.
    caller: Thread,
}

impl Job<'_> {
    /// Claims and runs items until none are left or one has panicked.
    fn participate(&self) {
        while !self.aborted.load(Ordering::Relaxed) {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            if let Err(message) = catch(|| (self.body)(i)) {
                self.aborted.store(true, Ordering::Relaxed);
                let mut slot = self.panicked.lock().unwrap_or_else(PoisonError::into_inner);
                if slot.as_ref().is_none_or(|p| i < p.index) {
                    *slot = Some(Panicked { index: i, message });
                }
            }
        }
    }
}

/// A worker's mailbox.
enum Slot {
    /// Not started yet, or running a job.
    Busy,
    /// Parked on its condvar, free to hire.
    Idle,
    /// Hired for a job it has not picked up yet.
    Hired(&'static Job<'static>),
}

/// The pool: one mailbox and one condvar per worker, all behind one lock.
struct Pool {
    slots: Mutex<Vec<Slot>>,
    wake: Vec<Condvar>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        for w in 0..workers {
            // Each worker blocks in `pool()` until this initializer returns.
            // A worker that cannot be started stays `Busy` and is never
            // hired: the budget shrinks, nothing breaks.
            let _ = std::thread::Builder::new()
                .name(format!("quasii-exec-{w}"))
                .spawn(move || pool().work(w));
        }
        Pool {
            slots: Mutex::new((0..workers).map(|_| Slot::Busy).collect()),
            wake: (0..workers).map(|_| Condvar::new()).collect(),
        }
    })
}

impl Pool {
    fn slots_len(&self) -> usize {
        self.wake.len()
    }

    /// The pool lock. Every critical section only moves `Slot` values, so
    /// the state is valid at every step and a poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, Vec<Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's life: park until hired, run the job, repeat.
    fn work(&self, w: usize) {
        let mut slots = self.lock();
        slots[w] = Slot::Idle;
        loop {
            match std::mem::replace(&mut slots[w], Slot::Busy) {
                Slot::Hired(job) => {
                    job.active.fetch_add(1, Ordering::Relaxed);
                    drop(slots);
                    job.participate();
                    // The last touch of the job: after this decrement the
                    // caller may return and free it, so unpark through a
                    // handle of our own.
                    let caller = job.caller.clone();
                    job.active.fetch_sub(1, Ordering::Release);
                    caller.unpark();
                    slots = self.lock();
                    slots[w] = Slot::Idle;
                }
                idle => {
                    slots[w] = idle;
                    slots = self.wake[w]
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Hires up to `want` idle workers for `job`, runs the caller's share
    /// and returns once no hired worker holds the job any more. `false`
    /// when no worker was idle (nothing ran).
    fn run(&self, job: &Job<'_>, want: usize) -> bool {
        let mut slots = self.lock();
        let idle: Vec<usize> = (0..slots.len())
            .filter(|&w| matches!(slots[w], Slot::Idle))
            .take(want)
            .collect();
        if idle.is_empty() {
            return false;
        }
        // SAFETY: this erases the lifetime of `job` (and of the caller's
        // borrows inside it) so hired workers can hold it in their slots.
        // The reference never outlives `job`: before this function returns,
        // every slot still holding it is reset under the pool lock (no
        // worker can pick it up afterwards), and every worker that did pick
        // it up incremented `active` under that same lock and decrements it
        // as its last access — the wait below returns only at zero.
        let shared: &'static Job<'static> =
            unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        for &w in &idle {
            slots[w] = Slot::Hired(shared);
            self.wake[w].notify_one();
        }
        drop(slots);

        job.participate();

        let mut slots = self.lock();
        for &w in &idle {
            if matches!(slots[w], Slot::Hired(j) if std::ptr::eq(j, shared)) {
                slots[w] = Slot::Idle;
            }
        }
        drop(slots);
        // Acquire pairs with each worker's Release decrement: everything a
        // worker did to the items is visible once the count reads zero.
        while job.active.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_item_runs_exactly_once() {
        for width in [0, 1, 2, 3, 8, 100] {
            for n in [0, 1, 2, 5, 64, 70] {
                let mut items = vec![0u32; n];
                for_each_mut(width, &mut items, |i, x| *x += i as u32 + 1).unwrap();
                let want: Vec<u32> = (1..=n as u32).collect();
                assert_eq!(items, want, "width {width} n {n}");
            }
        }
    }

    #[test]
    fn nested_calls_complete() {
        let total = AtomicU32::new(0);
        let mut outer = vec![(); 4];
        for_each_mut(4, &mut outer, |_, _| {
            let mut inner = vec![1u32; 16];
            for_each_mut(4, &mut inner, |_, x| {
                total.fetch_add(*x, Ordering::Relaxed);
            })
            .unwrap();
        })
        .unwrap();
        assert_eq!(total.into_inner(), 64);
    }

    #[test]
    fn a_panic_reports_its_index_and_the_pool_survives() {
        for width in [1, 2, 4] {
            let mut items = vec![0u32; 8];
            let err = for_each_mut(width, &mut items, |i, x| {
                if i == 5 {
                    panic!("boom at {i}");
                }
                *x = 1;
            })
            .expect_err("item 5 panics");
            assert_eq!(err.index, 5);
            assert_eq!(err.message, "boom at 5");
            // The pool that caught the panic serves the next call.
            let mut again = vec![0u32; 8];
            for_each_mut(width, &mut again, |_, x| *x = 7).unwrap();
            assert!(again.iter().all(|&x| x == 7));
        }
    }
}
