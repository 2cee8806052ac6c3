//! Work-stealing thread pool.
//!
//! Each worker owns a LIFO deque (newest-first keeps hot data in cache
//! and bounds live task count under nested parallelism); a shared FIFO
//! injector receives work submitted from outside the pool. Idle workers
//! steal from the *front* of siblings' deques — the oldest, typically
//! largest pending work. Callers that block on a [`CountLatch`] help
//! execute pool work while they wait, so nested `par_map`/`join` from
//! inside a worker can never deadlock the pool.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use swag_obs::{Counter, Histogram, MonotonicClock, Registry, WallClock};

use crate::job::JobRef;
use crate::latch::CountLatch;

/// How long a blocked coordinator naps between help attempts.
const PARK_INTERVAL: Duration = Duration::from_micros(200);
/// How long an idle worker sleeps before re-polling local deques (backstop
/// for wakeups pushed to a sibling's local deque, which only
/// `notify_one`s the injector condvar).
const IDLE_INTERVAL: Duration = Duration::from_micros(500);

thread_local! {
    /// (pool identity, worker index) for the current thread; identity 0
    /// means "not a pool worker".
    static CURRENT_WORKER: Cell<(usize, usize)> = const { Cell::new((0, usize::MAX)) };
}

/// Metric handles resolved once when observability is attached.
pub(crate) struct ExecObs {
    tasks: Arc<Counter>,
    steals: Arc<Counter>,
    queue_depth: Arc<Histogram>,
    /// Submit-to-dequeue latency for every task that left a queue.
    queue_wait: Arc<Histogram>,
    /// Same latency, but only for tasks dequeued by stealing — how stale
    /// cross-worker work is when it finally runs.
    steal_wait: Arc<Histogram>,
}

impl ExecObs {
    pub(crate) fn new(registry: &Registry) -> Self {
        registry.set_help(
            "swag_exec_queue_wait_micros",
            "Submit-to-dequeue latency per executor task.",
        );
        registry.set_help(
            "swag_exec_steal_wait_micros",
            "Submit-to-dequeue latency for stolen tasks only.",
        );
        ExecObs {
            tasks: registry.counter("swag_exec_tasks_total"),
            steals: registry.counter("swag_exec_steals_total"),
            queue_depth: registry.histogram("swag_exec_queue_depth"),
            queue_wait: registry.histogram("swag_exec_queue_wait_micros"),
            steal_wait: registry.histogram("swag_exec_steal_wait_micros"),
        }
    }
}

/// Shared pool state; workers and coordinating callers both hold an
/// `Arc` to it.
pub(crate) struct Pool {
    /// FIFO queue for work submitted from non-worker threads.
    injector: Mutex<VecDeque<JobRef>>,
    /// Wakes idle workers when the injector receives work or on shutdown.
    idle: Condvar,
    /// Per-worker LIFO deques.
    locals: Vec<Mutex<VecDeque<JobRef>>>,
    shutdown: AtomicBool,
    tasks: AtomicU64,
    steals: AtomicU64,
    obs: OnceLock<ExecObs>,
}

impl Pool {
    fn new(threads: usize) -> Pool {
        Pool {
            injector: Mutex::new(VecDeque::new()),
            idle: Condvar::new(),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            shutdown: AtomicBool::new(false),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            obs: OnceLock::new(),
        }
    }

    fn identity(&self) -> usize {
        self as *const Pool as usize
    }

    /// The current thread's worker index in *this* pool, if any.
    fn me(&self) -> Option<usize> {
        let (pool, idx) = CURRENT_WORKER.get();
        (pool == self.identity()).then_some(idx)
    }

    pub(crate) fn threads(&self) -> usize {
        self.locals.len()
    }

    pub(crate) fn attach_observability(&self, registry: &Registry) {
        let _ = self.obs.set(ExecObs::new(registry));
    }

    pub(crate) fn tasks_submitted(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Enqueues a job: onto the submitting worker's own deque when called
    /// from inside the pool, else onto the shared injector.
    pub(crate) fn submit(&self, mut job: JobRef) {
        self.tasks.fetch_add(1, Ordering::Relaxed);
        // Stamp only when instrumented: the disabled path never reads
        // the clock. Clamped to ≥1 so a stamp of 0 always means
        // "submitted before observability was attached".
        if self.obs.get().is_some() {
            job.stamp_enqueued(WallClock.now_micros().max(1));
        }
        let depth = match self.me() {
            Some(idx) => {
                let mut q = self.locals[idx].lock();
                q.push_back(job);
                q.len()
            }
            None => {
                let mut q = self.injector.lock();
                q.push_back(job);
                q.len()
            }
        };
        if let Some(obs) = self.obs.get() {
            obs.tasks.inc();
            obs.queue_depth.record(depth as u64);
        }
        self.idle.notify_one();
    }

    /// Pops the job at the back of the current worker's deque, but only
    /// if it is the one identified by `data` — used by `join` to reclaim
    /// its pending arm before helping elsewhere.
    pub(crate) fn pop_if(&self, data: *const ()) -> Option<JobRef> {
        let idx = self.me()?;
        let mut q = self.locals[idx].lock();
        if q.back().is_some_and(|j| j.data() == data) {
            q.pop_back()
        } else {
            None
        }
    }

    /// Finds one runnable job: own deque (LIFO), then injector (FIFO),
    /// then steal from siblings (FIFO — the coldest work).
    fn find_work(&self, me: Option<usize>) -> Option<JobRef> {
        if let Some(idx) = me {
            if let Some(job) = self.locals[idx].lock().pop_back() {
                return Some(self.note_dequeue(job, false));
            }
        }
        if let Some(job) = self.injector.lock().pop_front() {
            return Some(self.note_dequeue(job, false));
        }
        let n = self.locals.len();
        let start = me.map_or(0, |idx| idx + 1);
        for off in 0..n {
            let victim = (start + off) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(job) = self.locals[victim].lock().pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = self.obs.get() {
                    obs.steals.inc();
                }
                return Some(self.note_dequeue(job, true));
            }
        }
        None
    }

    /// Records queue-wait (and, for steals, steal-wait) for a dequeued
    /// job. Jobs submitted before observability was attached carry no
    /// stamp and are skipped.
    fn note_dequeue(&self, job: JobRef, stolen: bool) -> JobRef {
        if let Some(obs) = self.obs.get() {
            if job.enqueued_micros() > 0 {
                let wait = WallClock.now_micros().saturating_sub(job.enqueued_micros());
                obs.queue_wait.record(wait);
                if stolen {
                    obs.steal_wait.record(wait);
                }
            }
        }
        job
    }

    /// Blocks until `latch` is set, executing pool work while waiting.
    pub(crate) fn wait(&self, latch: &CountLatch) {
        let me = self.me();
        while !latch.is_set() {
            match self.find_work(me) {
                // SAFETY: every JobRef in a queue was submitted exactly
                // once and its descriptor is kept alive by a blocked
                // coordinator (stack jobs) or owns itself (heap jobs).
                Some(job) => unsafe { job.execute() },
                None => latch.park(PARK_INTERVAL),
            }
        }
        // The job that set the latch may still be inside `set_one`; the
        // caller frees the latch as soon as this returns.
        latch.sync();
    }

    fn worker_main(self: Arc<Pool>, idx: usize) {
        CURRENT_WORKER.set((self.identity(), idx));
        loop {
            if let Some(job) = self.find_work(Some(idx)) {
                // SAFETY: as in `wait` — queued refs are live and
                // execute-once by construction.
                unsafe { job.execute() };
                continue;
            }
            let guard = self.injector.lock();
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if !guard.is_empty() {
                continue;
            }
            let _ = self
                .idle
                .wait_timeout(guard, IDLE_INTERVAL)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Owns the worker threads; dropping it shuts the pool down and joins
/// them.
pub(crate) struct PoolHandle {
    pool: Arc<Pool>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl PoolHandle {
    pub(crate) fn spawn(threads: usize) -> PoolHandle {
        let pool = Arc::new(Pool::new(threads));
        let handles = (0..threads)
            .map(|idx| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("swag-exec-{idx}"))
                    .spawn(move || pool.worker_main(idx))
                    .expect("spawn swag-exec worker")
            })
            .collect();
        PoolHandle {
            pool,
            handles: Mutex::new(handles),
        }
    }

    pub(crate) fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        self.pool.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.pool.injector.lock();
            self.pool.idle.notify_all();
        }
        for handle in self.handles.get_mut().drain(..) {
            let _ = handle.join();
        }
    }
}
