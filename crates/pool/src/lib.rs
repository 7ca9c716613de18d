//! # soar-pool
//!
//! A small, `std`-only **work-stealing thread pool** in the spirit of a vendored
//! rayon core, sized for the SOAR workspace: long-lived worker threads, per-worker
//! deques with stealing, and *scoped* task spawning so jobs may borrow from the
//! caller's stack (the way `soar_core::api::solve_batch` borrows its instance slice
//! and the level-parallel gather borrows disjoint arena stripes).
//!
//! The build environment has no crates.io access, so this crate vendors the two
//! pieces of rayon the workspace actually needs rather than the whole library:
//!
//! * [`ThreadPool::scope`] — structured parallelism: spawn any number of borrowed
//!   closures, return once all of them ran. While waiting, the **calling thread
//!   helps execute pool jobs**, which makes nested scopes (a gather level
//!   parallelized from inside a batch solve running on a pool worker) deadlock-free
//!   by construction and lets a 1-core machine degrade to plain sequential
//!   execution with no extra context switches.
//! * [`ThreadPool::map`] — an ordered parallel map over a slice, chunked adaptively
//!   so thousand-item batches don't pay a per-item boxing cost.
//!
//! Scheduling: every worker owns a deque; it pops its own newest job first (LIFO,
//! cache-warm), then takes from the shared injector, then **steals the oldest job**
//! of a sibling (FIFO, largest-remaining-work-first). The deques are mutex-guarded
//! rather than lock-free Chase-Lev deques — uncontended mutexes are a handful of
//! nanoseconds, far below the granularity of a DP-table job, and keep this crate
//! free of `unsafe` except for the single lifetime-erasure cell in [`Scope`].
//!
//! ```
//! let pool = soar_pool::ThreadPool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Scoped spawns may borrow local state.
//! let mut halves = [0u64; 2];
//! let (a, b) = halves.split_at_mut(1);
//! pool.scope(|s| {
//!     s.spawn(|| a[0] = (0..1000).sum::<u64>());
//!     s.spawn(|| b[0] = (1000..2000).sum::<u64>());
//! });
//! assert_eq!(halves[0] + halves[1], (0..2000).sum::<u64>());
//! ```
//!
//! The process-wide [`global`] pool is lazily initialized with one worker per
//! available core and is what `soar_core` uses for `solve_batch`, `solve_matrix`,
//! `sweep_budgets_batch` and the level-parallel gather. Set the
//! `SOAR_POOL_THREADS` environment variable before first use to override its size
//! (e.g. `SOAR_POOL_THREADS=1` to force sequential execution when profiling).
//!
//! The pool reports into the [`soar_obs`] registry: `soar_pool_queue_depth`
//! (gauge of queued-but-unclaimed jobs), `soar_pool_jobs_total`,
//! `soar_pool_steals_total{worker="i"}` and `soar_pool_idle_ns_total{worker="i"}`
//! (cumulative parked time per worker) — enough to answer "is the pool
//! starving?" from a `soar serve --obs-addr` scrape. The [`hist`] module
//! (the [`hist::LatencyHistogram`] used by `soar serve` and `soar-loadtest`)
//! is a re-export of [`soar_obs::hist`], which owns the implementation.

#![warn(missing_docs)]

pub use soar_obs::hist;

use soar_obs::{counter, gauge};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A type-erased unit of work. Jobs are `'static` from the pool's point of view;
/// [`Scope`] guarantees (by blocking until completion) that borrowed jobs never
/// outlive the borrow they captured.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
struct Shared {
    /// Jobs injected from threads that are not pool workers.
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker; workers push/pop their own back and steal fronts.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Signals sleeping workers that a job arrived (or the pool shut down).
    wakeup: Condvar,
    /// Companion mutex of `wakeup` (holds no data; the queues have their own locks).
    sleep_lock: Mutex<()>,
    /// Number of queued-but-unclaimed jobs, to keep wakeups cheap.
    queued: AtomicUsize,
    shutdown: AtomicBool,
}

impl Shared {
    /// Pushes one job onto the queue `preferred` (a worker's own deque) or the
    /// injector, and wakes a sleeping worker.
    fn push(&self, job: Job, preferred: Option<usize>) {
        // Count before publishing: a concurrent pop of this job must never
        // decrement `queued` below the increment that accounts for it (the
        // reverse order would transiently wrap the counter to usize::MAX and
        // defeat the `queued == 0` sleep gates).
        self.queued.fetch_add(1, Ordering::Release);
        gauge!("soar_pool_queue_depth", QUEUE_DEPTH_HELP).add(1);
        match preferred {
            Some(w) => self.deques[w]
                .lock()
                .expect("deque poisoned")
                .push_back(job),
            None => self
                .injector
                .lock()
                .expect("injector poisoned")
                .push_back(job),
        }
        let _guard = self.sleep_lock.lock().expect("sleep lock poisoned");
        self.wakeup.notify_one();
    }

    /// Claims one job: own deque back (LIFO) → injector front → steal siblings'
    /// fronts (FIFO). `own` is `None` for non-worker threads helping out.
    fn pop(&self, own: Option<usize>) -> Option<Job> {
        if let Some(w) = own {
            if let Some(job) = self.deques[w].lock().expect("deque poisoned").pop_back() {
                self.claimed();
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().expect("injector poisoned").pop_front() {
            self.claimed();
            return Some(job);
        }
        let start = own.map_or(0, |w| w + 1);
        let n = self.deques.len();
        for offset in 0..n {
            let victim = (start + offset) % n;
            if Some(victim) == own {
                continue;
            }
            if let Some(job) = self.deques[victim]
                .lock()
                .expect("deque poisoned")
                .pop_front()
            {
                self.claimed();
                note_steal();
                return Some(job);
            }
        }
        None
    }

    /// Bookkeeping of one claimed job: the sleep-gate counter and the obs
    /// queue-depth gauge move together.
    fn claimed(&self) {
        self.queued.fetch_sub(1, Ordering::Release);
        gauge!("soar_pool_queue_depth", QUEUE_DEPTH_HELP).add(-1);
    }
}

/// `# HELP` text of the obs gauge that moves with [`Shared::queued`].
const QUEUE_DEPTH_HELP: &str = "jobs pushed to a soar-pool queue and not yet claimed by a thread";

thread_local! {
    /// The worker index of the current thread in the pool it belongs to, used to
    /// route spawns to the local deque. `(pool id, worker index)`.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> = const { std::cell::Cell::new(None) };
}

/// Monotonic pool ids so a worker of pool A helping inside pool B is not mistaken
/// for one of B's own workers.
static POOL_IDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The per-worker steal counter, resolved once per thread so the steal
    /// path never touches the registry lock. Workers get a `worker="i"` label;
    /// helper threads (scope callers) fold into the unlabeled sample.
    static STEAL_COUNTER: std::cell::OnceCell<&'static soar_obs::registry::Counter> =
        const { std::cell::OnceCell::new() };
}

/// Counts one successful steal on the current thread's cached counter.
fn note_steal() {
    const NAME: &str = "soar_pool_steals_total";
    const HELP: &str = "jobs a soar-pool thread took from another worker's queue";
    STEAL_COUNTER.with(|cell| {
        cell.get_or_init(|| match WORKER.with(|w| w.get()) {
            Some((_, index)) => {
                soar_obs::registry::counter_labeled(NAME, HELP, format!("worker=\"{index}\""))
            }
            None => soar_obs::registry::counter(NAME, HELP),
        })
        .inc()
    });
}

/// A work-stealing thread pool. See the [crate docs](crate) for the design.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    id: usize,
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            wakeup: Condvar::new(),
            sleep_lock: Mutex::new(()),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let id = POOL_IDS.fetch_add(1, Ordering::Relaxed);
        let handles = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("soar-pool-{w}"))
                    .spawn(move || worker_loop(&shared, id, w))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            id,
        }
    }

    /// Creates a pool with one worker per available core.
    pub fn with_default_parallelism() -> Self {
        ThreadPool::new(default_threads())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.deques.len()
    }

    /// Structured parallelism: `f` receives a [`Scope`] whose
    /// [`spawn`](Scope::spawn)ed closures may borrow anything that outlives the
    /// `scope` call. Returns `f`'s value once every spawned job has finished.
    ///
    /// The calling thread executes pool jobs while it waits, so recursive use from
    /// inside a pool worker cannot deadlock. If any job — or `f` itself — panics,
    /// the panic is resurfaced here after all jobs of the scope completed.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env, '_>) -> R,
    {
        let scope = Scope {
            pool: self,
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            _env: std::marker::PhantomData,
        };
        // `f` may panic *after* spawning: already-queued jobs hold pointers into
        // `scope` and borrows of `'env`, so the scope MUST drain before this
        // frame unwinds. Catch, drain, then propagate.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait(&scope);
        if let Some(payload) = scope.panic.lock().expect("panic slot poisoned").take() {
            std::panic::resume_unwind(payload);
        }
        match result {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Parallel, order-preserving map over a slice.
    ///
    /// Items are grouped into contiguous chunks (about four per worker) so the
    /// per-job overhead stays negligible even for thousands of small items; each
    /// chunk writes into its disjoint slice of the output, so results come back in
    /// input order regardless of which worker ran what.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        if self.threads() == 1 || items.len() == 1 {
            return items.iter().map(f).collect();
        }
        let chunk = items.len().div_ceil(self.threads() * 4).max(1);
        let mut out: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        let f = &f;
        self.scope(|s| {
            for (input, output) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (i, o) in input.iter().zip(output.iter_mut()) {
                        *o = Some(f(i));
                    }
                });
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("every chunk ran to completion"))
            .collect()
    }

    /// Helps the pool until `scope` has no pending jobs left.
    fn wait(&self, scope: &Scope<'_, '_>) {
        let own = WORKER.with(|w| w.get()).and_then(
            |(pool, w)| {
                if pool == self.id {
                    Some(w)
                } else {
                    None
                }
            },
        );
        while scope.pending.load(Ordering::Acquire) != 0 {
            match self.shared.pop(own) {
                Some(job) => job(),
                None => {
                    // Nothing to help with: the scope's last jobs are running on
                    // other workers. Park on the shared condvar — the last job of
                    // a scope notifies it when `pending` hits zero, and pushes
                    // notify it too (new work to help with). The timeout is only
                    // a lost-wakeup safety net, not a polling interval.
                    let guard = self.shared.sleep_lock.lock().expect("sleep lock poisoned");
                    if scope.pending.load(Ordering::Acquire) != 0
                        && self.shared.queued.load(Ordering::Acquire) == 0
                    {
                        let _ = self
                            .shared
                            .wakeup
                            .wait_timeout(guard, Duration::from_millis(1))
                            .expect("sleep lock poisoned");
                    }
                }
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.sleep_lock.lock().expect("sleep lock poisoned");
            self.shared.wakeup.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`].
///
/// `'env` is the lifetime of the borrowed environment: spawned closures must
/// outlive it, and the scope blocks until they all ran, which is what makes the
/// internal lifetime erasure sound.
pub struct Scope<'env, 'pool> {
    pool: &'pool ThreadPool,
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env, '_> {
    /// Spawns a job onto the pool. The job may borrow from `'env`; it runs at most
    /// once, and [`ThreadPool::scope`] does not return before it finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.pending.fetch_add(1, Ordering::Release);
        // SAFETY of the lifetime erasure below: `scope` blocks in `wait` until
        // `pending` drops to zero, and `pending` is decremented only after the job
        // ran (or panicked), so the closure can never be invoked after `'env`
        // ends. The pointers to `pending`/`panic` stay valid for the same reason:
        // the `Scope` itself outlives every job. Panics are captured so the
        // counter is decremented on every path.
        struct ScopePtrs {
            pending: *const AtomicUsize,
            panic_slot: *const Mutex<Option<Box<dyn std::any::Any + Send>>>,
        }
        // SAFETY: the pointees are Sync (atomic + mutex) and outlive the job.
        unsafe impl Send for ScopePtrs {}
        let ptrs = ScopePtrs {
            pending: &self.pending,
            panic_slot: &self.panic,
        };
        let shared = Arc::clone(&self.pool.shared);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            // Bind the whole struct so the closure captures `ScopePtrs` (which is
            // Send) rather than its raw-pointer fields individually.
            let ptrs = ptrs;
            let result = catch_unwind(AssertUnwindSafe(f));
            // SAFETY: see above — the scope outlives the job.
            let (pending, panic_slot) = unsafe { (&*ptrs.pending, &*ptrs.panic_slot) };
            if let Err(payload) = result {
                let mut slot = panic_slot.lock().expect("panic slot poisoned");
                slot.get_or_insert(payload);
            }
            if pending.fetch_sub(1, Ordering::Release) == 1 {
                // Last job of the scope: wake its waiter (and any parked worker).
                let _guard = shared.sleep_lock.lock().expect("sleep lock poisoned");
                shared.wakeup.notify_all();
            }
        });
        // SAFETY: extend the closure's lifetime to 'static for storage in the
        // queue; execution is bounded by the scope as argued above.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        let own =
            WORKER.with(|w| w.get()).and_then(
                |(pool, w)| {
                    if pool == self.pool.id {
                        Some(w)
                    } else {
                        None
                    }
                },
            );
        self.pool.shared.push(job, own);
    }
}

/// The main loop of one worker thread.
fn worker_loop(shared: &Shared, pool_id: usize, index: usize) {
    WORKER.with(|w| w.set(Some((pool_id, index))));
    let jobs = counter!("soar_pool_jobs_total", "jobs run by soar-pool workers");
    let idle_ns = soar_obs::registry::counter_labeled(
        "soar_pool_idle_ns_total",
        "nanoseconds soar-pool workers slept waiting for a job",
        format!("worker=\"{index}\""),
    );
    loop {
        if let Some(job) = shared.pop(Some(index)) {
            job();
            jobs.inc();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let guard = shared.sleep_lock.lock().expect("sleep lock poisoned");
        if shared.queued.load(Ordering::Acquire) == 0 && !shared.shutdown.load(Ordering::Acquire) {
            // Untimed wait: idle workers burn no CPU. This is lossless because
            // both producers notify *after* publishing under `sleep_lock` —
            // `push` increments `queued` then locks + notifies, and `Drop` sets
            // `shutdown` then locks + notifies — so either this worker saw the
            // flag above or the producer blocks until this wait releases the
            // lock and its notification is delivered.
            let parked = std::time::Instant::now();
            let _guard = shared.wakeup.wait(guard).expect("sleep lock poisoned");
            idle_ns.add(parked.elapsed().as_nanos() as u64);
        }
    }
}

/// Worker count of the [`global`] pool: `SOAR_POOL_THREADS` if set, else one per
/// available core.
fn default_threads() -> usize {
    if let Ok(value) = std::env::var("SOAR_POOL_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide pool, created on first use with `default_threads` workers.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(ThreadPool::with_default_parallelism)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..1000).collect();
        let doubled = pool.map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert!(pool.map::<usize, usize, _>(&[], |&x| x).is_empty());
    }

    #[test]
    fn scope_runs_all_jobs_with_borrows() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for chunk in 0..64u64 {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(chunk, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..64).sum::<u64>());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let count = AtomicU64::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let count = &count;
                outer.spawn(move || {
                    // Nested parallelism from inside a worker.
                    global().scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn single_worker_pool_still_completes() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let items: Vec<u64> = (0..100).collect();
        let sums = pool.map(&items, |&x| x + 1);
        assert_eq!(sums[99], 100);
        let flag = AtomicBool::new(false);
        pool.scope(|s| s.spawn(|| flag.store(true, Ordering::Relaxed)));
        assert!(flag.load(Ordering::Relaxed));
    }

    #[test]
    fn panics_propagate_after_the_scope_drains() {
        let pool = ThreadPool::new(2);
        let ran = AtomicU64::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let ran = &ran;
                s.spawn(|| panic!("job failed"));
                s.spawn(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "the panic must resurface");
        assert_eq!(ran.load(Ordering::Relaxed), 1, "sibling jobs still ran");
        // The pool remains usable after a panicked scope.
        assert_eq!(pool.map(&[1, 2, 3], |&x: &i32| x), vec![1, 2, 3]);
    }

    #[test]
    fn panic_in_the_scope_closure_still_drains_spawned_jobs() {
        // Queued jobs borrow from the caller's frame; a panic in the scope
        // closure itself must not unwind past them (use-after-free otherwise).
        let pool = ThreadPool::new(2);
        let ran = AtomicU64::new(0);
        let data = vec![3u64; 64];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..8 {
                    let (ran, data) = (&ran, &data);
                    s.spawn(move || {
                        ran.fetch_add(data[0], Ordering::Relaxed);
                    });
                }
                panic!("scope closure failed after spawning");
            })
        }));
        assert!(result.is_err(), "the closure panic must resurface");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            8 * 3,
            "every spawned job drained before the unwind continued"
        );
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }
}
