//! Persistent worker pool with busy-time accounting.
//!
//! QuickStep schedules relational work orders over a fixed set of worker
//! threads; RecStep inherits that model and the paper's CPU-utilization
//! figures (7a, 16) are direct observations of how busy those workers are.
//! This module provides the equivalent substrate:
//!
//! * a pool of `threads` workers living for the engine's lifetime (spawning
//!   threads per operator would dominate programs like CSDA with ~1000 tiny
//!   iterations);
//! * [`ThreadPool::run`], which executes one closure instance per worker and
//!   waits — operators implement morsel-driven parallelism on top by pulling
//!   chunk indices from an atomic counter;
//! * per-worker busy-nanosecond counters, sampled by the benchmark harness
//!   to reconstruct utilization-over-time series.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::sync::WaitGroup;
use parking_lot::{Condvar, Mutex};

type Job = Box<dyn FnOnce(usize) + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    busy_ns: Vec<AtomicU64>,
}

/// A fixed-size worker pool.
///
/// Dropping the pool shuts the workers down and joins them.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

/// Context handed to per-worker closures.
///
/// `worker` is a *slot* id unique within one [`ThreadPool::run`] invocation
/// (`0..threads`), not an OS thread id: the job queue is shared, so a single
/// OS worker may execute several of the N jobs back-to-back when others are
/// busy. Slots are what make per-"worker" output buffers race-free — two
/// concurrently running jobs always hold different slots.
#[derive(Clone, Copy, Debug)]
pub struct WorkerCtx {
    /// Slot index of this closure instance in `0..threads`.
    pub worker: usize,
    /// Total number of workers in the pool.
    pub threads: usize,
}

impl ThreadPool {
    /// Create a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (0..threads)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("recstep-worker-{worker}"))
                    .spawn(move || worker_loop(worker, &shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// Number of workers.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `f` once on every worker and wait for all of them.
    ///
    /// `f` only needs to live for the duration of this call: the pool waits
    /// on a [`WaitGroup`] before returning, so extending the lifetime to
    /// `'static` for the job queue is sound.
    pub fn run<'scope, F>(&self, f: F)
    where
        F: Fn(WorkerCtx) + Sync + 'scope,
    {
        let f_ref: &(dyn Fn(WorkerCtx) + Sync) = &f;
        // SAFETY: all jobs referencing `f_ref` complete before `wg.wait()`
        // returns (each job drops its WaitGroup clone after running, and a
        // panicking job drops it during unwind inside `catch_unwind`), so the
        // reference never outlives the borrow of `f`.
        let f_static: &'static (dyn Fn(WorkerCtx) + Sync) = unsafe { std::mem::transmute(f_ref) };
        let wg = WaitGroup::new();
        let slots = Arc::new(AtomicUsize::new(0));
        let panicked = Arc::new(AtomicBool::new(false));
        {
            let mut q = self.shared.queue.lock();
            for _ in 0..self.threads {
                let wg = wg.clone();
                let threads = self.threads;
                let slots = Arc::clone(&slots);
                let panicked = Arc::clone(&panicked);
                q.push_back(Box::new(move |_os_worker| {
                    let slot = slots.fetch_add(1, Ordering::Relaxed);
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        f_static(WorkerCtx {
                            worker: slot,
                            threads,
                        });
                    }));
                    if r.is_err() {
                        // Set before `wg` drops so the waiter observes it.
                        panicked.store(true, Ordering::SeqCst);
                    }
                    drop(wg);
                }));
            }
        }
        self.shared.available.notify_all();
        wg.wait();
        if panicked.load(Ordering::SeqCst) {
            panic!("a worker task panicked");
        }
    }

    /// Morsel-driven parallel loop over `0..n` in chunks of `grain`.
    ///
    /// `f` receives the item range plus the executing worker's index (useful
    /// for writing into per-worker output buffers without synchronization).
    pub fn parallel_for<'scope, F>(&self, n: usize, grain: usize, f: F)
    where
        F: Fn(Range<usize>, usize) + Sync + 'scope,
    {
        if n == 0 {
            return;
        }
        let grain = grain.max(1);
        // Tiny inputs: skip the queue round-trip entirely.
        if n <= grain {
            f(0..n, 0);
            return;
        }
        let next = AtomicUsize::new(0);
        self.run(|ctx| loop {
            let start = next.fetch_add(grain, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + grain).min(n);
            f(start..end, ctx.worker);
        });
    }

    /// Total busy nanoseconds accumulated across all workers since pool
    /// creation. The harness differentiates successive samples to compute
    /// utilization: `Δbusy / (Δwall × threads)`.
    pub fn busy_ns_total(&self) -> u64 {
        self.shared
            .busy_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Busy nanoseconds of a single worker.
    pub fn busy_ns_of(&self, worker: usize) -> u64 {
        self.shared.busy_ns[worker].load(Ordering::Relaxed)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            // The store must happen under the queue lock: a worker that has
            // just seen an empty queue re-checks `shutdown` while holding
            // the lock before parking, so storing outside the lock could
            // slip between its check and its wait — a missed wakeup that
            // deadlocks the join below.
            let _guard = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Cooperative cancellation flag shared between a requester and a running
/// evaluation.
///
/// The fixpoint driver polls [`CancelToken::is_cancelled`] at iteration
/// boundaries — the only points where aborting leaves no partial state —
/// so a server-side timeout stops a runaway recursion within one iteration
/// instead of running it to completion. The token carries an optional
/// deadline, letting the thread that runs the fixpoint enforce its own
/// timeout without a watchdog.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Default)]
struct CancelInner {
    flag: AtomicBool,
    deadline: Mutex<Option<Instant>>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally reports cancelled once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        let t = Self::default();
        *t.inner.deadline.lock() = Some(deadline);
        t
    }

    /// Request cancellation. Idempotent; wakes nothing — the evaluation
    /// notices at its next iteration boundary.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] was called or the deadline passed.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::SeqCst) {
            return true;
        }
        match *self.inner.deadline.lock() {
            Some(d) if Instant::now() >= d => {
                self.inner.flag.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }
}

/// Outcome of [`Semaphore::acquire`].
pub enum Admission {
    /// A permit was granted; dropping the guard releases it.
    Admitted(SemaphoreGuard),
    /// The wait queue was already at capacity — shed the request.
    QueueFull,
    /// The caller's deadline passed while queued.
    TimedOut,
}

/// Counting semaphore with a bounded wait queue — the admission-control
/// primitive for the query service.
///
/// At most `permits` holders run concurrently; at most `queue_depth`
/// further callers may block waiting. Callers beyond that are shed
/// immediately ([`Admission::QueueFull`]) so load peaks turn into fast
/// `429`s instead of unbounded memory growth.
pub struct Semaphore {
    state: Mutex<SemState>,
    freed: Condvar,
    permits: usize,
    queue_depth: usize,
}

struct SemState {
    available: usize,
    waiting: usize,
}

/// RAII permit returned by [`Semaphore::acquire`].
pub struct SemaphoreGuard {
    sem: Arc<Semaphore>,
}

impl Semaphore {
    /// A semaphore with `permits` concurrent holders (clamped to ≥ 1) and
    /// room for `queue_depth` waiters.
    pub fn new(permits: usize, queue_depth: usize) -> Arc<Self> {
        let permits = permits.max(1);
        Arc::new(Semaphore {
            state: Mutex::new(SemState {
                available: permits,
                waiting: 0,
            }),
            freed: Condvar::new(),
            permits,
            queue_depth,
        })
    }

    /// Maximum concurrent holders.
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Acquire a permit, waiting until `deadline` if one is not free.
    pub fn acquire(self: &Arc<Self>, deadline: Instant) -> Admission {
        let mut state = self.state.lock();
        if state.available == 0 {
            if state.waiting >= self.queue_depth {
                return Admission::QueueFull;
            }
            state.waiting += 1;
            while state.available == 0 {
                if self.freed.wait_until(&mut state, deadline).timed_out() {
                    state.waiting -= 1;
                    return Admission::TimedOut;
                }
            }
            state.waiting -= 1;
        }
        state.available -= 1;
        Admission::Admitted(SemaphoreGuard {
            sem: Arc::clone(self),
        })
    }
}

impl Drop for SemaphoreGuard {
    fn drop(&mut self) {
        let mut state = self.sem.state.lock();
        state.available += 1;
        drop(state);
        self.sem.freed.notify_one();
    }
}

fn worker_loop(worker: usize, shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                shared.available.wait(&mut q);
            }
        };
        let start = Instant::now();
        // Jobs from `run` catch panics internally; this is the backstop that
        // keeps a worker alive if a raw job ever unwinds anyway.
        let _ = catch_unwind(AssertUnwindSafe(|| job(worker)));
        shared.busy_ns[worker].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    #[test]
    fn run_hands_out_each_slot_exactly_once() {
        let pool = ThreadPool::new(4);
        let seen: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|ctx| {
            assert_eq!(ctx.threads, 4);
            seen[ctx.worker].fetch_add(1, Ordering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn parallel_for_covers_all_items_exactly_once() {
        let pool = ThreadPool::new(3);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, 64, |range, _| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_small_input_runs_inline() {
        let pool = ThreadPool::new(2);
        let sum = AtomicI64::new(0);
        pool.parallel_for(3, 8, |range, worker| {
            assert_eq!(worker, 0);
            for i in range {
                sum.fetch_add(i as i64, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn busy_time_accumulates() {
        let pool = ThreadPool::new(2);
        pool.run(|_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        // `run` returns when the jobs release its wait group, a moment
        // before each worker books the job's time: allow them that moment.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while pool.busy_ns_total() < 2 * 4_000_000 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(pool.busy_ns_total() >= 2 * 4_000_000);
    }

    #[test]
    fn borrows_local_state_safely() {
        let pool = ThreadPool::new(4);
        let data: Vec<i64> = (0..1000).collect();
        let total = AtomicI64::new(0);
        pool.parallel_for(data.len(), 10, |range, _| {
            let part: i64 = data[range].iter().sum();
            total.fetch_add(part, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn panic_in_task_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|ctx| {
                if ctx.worker == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool still functional afterwards.
        let counter = AtomicUsize::new(0);
        pool.run(|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        pool.run(|ctx| assert_eq!(ctx.threads, 1));
    }

    #[test]
    fn cancel_token_flag_and_deadline() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let t2 = t.clone();
        t2.cancel();
        assert!(t.is_cancelled());

        let past = CancelToken::with_deadline(Instant::now());
        assert!(past.is_cancelled());
        let future =
            CancelToken::with_deadline(Instant::now() + std::time::Duration::from_secs(3600));
        assert!(!future.is_cancelled());
    }

    #[test]
    fn semaphore_admits_queues_and_sheds() {
        let sem = Semaphore::new(1, 1);
        let deadline = Instant::now() + std::time::Duration::from_millis(20);
        let g1 = match sem.acquire(deadline) {
            Admission::Admitted(g) => g,
            _ => panic!("first acquire must be admitted"),
        };
        // Queue slot taken by a blocked waiter, third caller is shed.
        std::thread::scope(|s| {
            let sem2 = Arc::clone(&sem);
            let waiter = s.spawn(move || {
                let d = Instant::now() + std::time::Duration::from_secs(5);
                matches!(sem2.acquire(d), Admission::Admitted(_))
            });
            // Give the waiter time to enqueue, then overflow the queue.
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(matches!(
                sem.acquire(Instant::now() + std::time::Duration::from_secs(5)),
                Admission::QueueFull
            ));
            drop(g1);
            assert!(waiter.join().unwrap());
        });
        // Queued waiter whose deadline passes times out.
        let _g = match sem.acquire(Instant::now() + std::time::Duration::from_secs(5)) {
            Admission::Admitted(g) => g,
            _ => panic!("reacquire must succeed"),
        };
        assert!(matches!(
            sem.acquire(Instant::now() + std::time::Duration::from_millis(10)),
            Admission::TimedOut
        ));
    }
}
