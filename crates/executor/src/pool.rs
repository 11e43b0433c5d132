//! The resident worker pool: one process-lifetime set of threads multiplexing
//! morsels from every in-flight query.
//!
//! Before this module existed, every parallel pipeline spawned scoped
//! `std::thread`s and joined them before returning — acceptable for one query at
//! a time, but it (a) pays thread-spawn latency on every pipeline of every
//! mid-query re-optimization round (milliseconds that the paper's ms-scale
//! rounds cannot hide), and (b) gives the OS scheduler, not the engine, control
//! over how concurrent queries share cores. Here, queries register as **tasks**;
//! each task owns a FIFO queue of jobs (one job processes one morsel, then
//! re-enqueues itself at the back of its task's queue), and the pool's workers
//! pick the next job by:
//!
//! 1. **priority** — the highest-priority task with queued work wins;
//! 2. **round-robin** — among tasks of equal priority, the least-recently-served
//!    task wins, so equal-priority queries interleave at morsel granularity
//!    instead of running back-to-back.
//!
//! Job closures are `'static`: pipelines hand them `Arc`-owned compiled state
//! (see `parallel::Compiled`), so a query that is dropped mid-stream leaves its
//! jobs to drain harmlessly — they observe the query's quiesce flag and exit.
//! Quiesce scoping is therefore per-task by construction: suspending one query
//! stops *its* jobs at the next morsel boundary while every other task's queue
//! keeps draining.
//!
//! The pool grows on demand (`ensure_available`) up to [`MAX_POOL_THREADS`] and
//! never shrinks. Growth is a property of the pool, not of the moment: once it holds
//! `n` workers, `ensure_available(n)` spawns nothing, however busy those workers are
//! when it is called. The only other spawns replace workers parked in a blocking
//! section ([`TaskHandle::blocking`]). [`WorkerPool::threads_spawned_total`] exposes
//! the lifetime spawn count so regression tests can pin "repeated re-optimization
//! rounds reuse the resident workers instead of spawning".

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Cap on resident worker threads *actively eligible for work*. Workers parked
/// inside a [`TaskHandle::blocking`] section (e.g. a root-exchange send to a slow
/// client) are exempted from this count: if they were not, a pool full of
/// slow-client senders would starve every other query's queued jobs — coordinators
/// waiting on their [`Gate`] would never see a worker again. Total thread count is
/// therefore bounded by `MAX_POOL_THREADS + concurrently-blocked senders`, which
/// admission control keeps finite.
pub const MAX_POOL_THREADS: usize = 64;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct TaskSlot {
    id: u64,
    priority: u8,
    queue: VecDeque<Job>,
    /// Live [`TaskHandle`]s (clones included). The slot is removed when the last
    /// handle drops; queued jobs hold a handle inside their closure, so a zero
    /// refcount implies an empty queue.
    refs: usize,
    /// Serve-clock stamp of the last job a worker took from this task; the
    /// round-robin tie-break picks the smallest stamp.
    last_served: u64,
}

#[derive(Default)]
struct PoolState {
    slots: Vec<TaskSlot>,
    serve_clock: u64,
    /// Workers currently parked on the condvar waiting for work.
    idle: usize,
}

/// Why a worker is spawned.
#[derive(Clone, Copy)]
enum Spawn {
    /// Growing the pool to this many workers.
    GrowTo(usize),
    /// Standing in for a worker parked in a blocking section.
    Replacement,
}

struct PoolInner {
    state: Mutex<PoolState>,
    work: Condvar,
    spawned_total: AtomicUsize,
    /// Workers currently parked inside a [`TaskHandle::blocking`] section; they
    /// hold a thread but cannot serve the queue, so the spawn cap excludes them.
    blocked: AtomicUsize,
}

impl PoolInner {
    /// Pick the next job: highest priority first, least-recently-served among
    /// equals. Returns `None` when no task has queued work.
    fn pick(state: &mut PoolState) -> Option<Job> {
        let mut best: Option<usize> = None;
        for (idx, slot) in state.slots.iter().enumerate() {
            if slot.queue.is_empty() {
                continue;
            }
            best = match best {
                None => Some(idx),
                Some(current) => {
                    let cur = &state.slots[current];
                    if slot.priority > cur.priority
                        || (slot.priority == cur.priority && slot.last_served < cur.last_served)
                    {
                        Some(idx)
                    } else {
                        Some(current)
                    }
                }
            };
        }
        let idx = best?;
        state.serve_clock += 1;
        state.slots[idx].last_served = state.serve_clock;
        state.slots[idx].queue.pop_front()
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("pool state");
                loop {
                    if let Some(job) = Self::pick(&mut state) {
                        break job;
                    }
                    state.idle += 1;
                    state = self.work.wait(state).expect("pool state");
                    state.idle -= 1;
                }
            };
            // A panicking job must not kill the resident worker: the thread (and
            // its MAX_POOL_THREADS slot) would leak for the process lifetime and
            // its query's gate would never count down. Jobs signal failure through
            // their own shared query state (see `parallel::run_chain_slice`); the
            // payload is already reported there, so it is dropped here.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        }
    }

    /// Spawn one worker unless the cap is reached, or — growing the pool — it
    /// already holds the requested number. The checks and the counter bumps happen
    /// under the state lock, so concurrent callers cannot both pass them and
    /// overshoot. Workers inside a blocking section are exempt from the cap (see
    /// [`MAX_POOL_THREADS`]); a replacement stands in for such a worker.
    fn try_spawn_worker(self: &Arc<Self>, spawn: Spawn) -> bool {
        let n = {
            let _state = self.state.lock().expect("pool state");
            let spawned = self.spawned_total.load(Ordering::SeqCst);
            let blocked = self.blocked.load(Ordering::SeqCst);
            if spawned.saturating_sub(blocked) >= MAX_POOL_THREADS {
                return false;
            }
            if matches!(spawn, Spawn::GrowTo(size) if spawned >= size) {
                return false;
            }
            self.spawned_total.fetch_add(1, Ordering::SeqCst)
        };
        let inner = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("reopt-worker-{n}"))
            .spawn(move || inner.worker_loop())
            .expect("spawn pool worker");
        true
    }
}

/// The process-wide worker pool. Obtain it with [`WorkerPool::global`].
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// A private pool instance. Production code shares [`WorkerPool::global`];
    /// tests needing deterministic worker counts build their own.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState::default()),
                work: Condvar::new(),
                spawned_total: AtomicUsize::new(0),
                blocked: AtomicUsize::new(0),
            }),
        }
    }

    /// The one resident pool, created on first use with zero threads (workers are
    /// spawned on demand by [`WorkerPool::ensure_available`]).
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(WorkerPool::new)
    }

    /// Register a new task (one query pipeline run) at the given priority and
    /// return its submission handle.
    pub fn register(&self, priority: u8) -> TaskHandle {
        static NEXT_TASK: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT_TASK.fetch_add(1, Ordering::SeqCst) as u64;
        let mut state = self.inner.state.lock().expect("pool state");
        state.slots.push(TaskSlot {
            id,
            priority,
            queue: VecDeque::new(),
            refs: 1,
            last_served: 0,
        });
        TaskHandle {
            pool: Arc::clone(&self.inner),
            id,
        }
    }

    /// Grow the pool to at least `n` resident workers, without exceeding
    /// [`MAX_POOL_THREADS`] total. Workers never exit, so a pool that has spawned
    /// `n` spawns nothing more here, whether its workers are idle or busy at that
    /// instant: a task queued behind other tasks' morsels waits its round-robin
    /// turn. Workers parked in a blocking section are replaced as they park (see
    /// [`TaskHandle::blocking`] and [`TaskHandle::submit`]).
    pub fn ensure_available(&self, n: usize) {
        while self.inner.try_spawn_worker(Spawn::GrowTo(n)) {}
    }

    /// Lifetime count of threads this pool has spawned. Monotonic; the
    /// perf-smoke regression assertion pins that repeated re-optimization rounds
    /// leave this unchanged once the pool is warm.
    pub fn threads_spawned_total(&self) -> usize {
        self.inner.spawned_total.load(Ordering::SeqCst)
    }

    /// Number of tasks currently registered (live handles or queued work).
    pub fn task_count(&self) -> usize {
        self.inner.state.lock().expect("pool state").slots.len()
    }
}

/// A handle for submitting jobs under one registered task. Clones share the
/// task; the task slot is removed when the last handle drops.
pub struct TaskHandle {
    pool: Arc<PoolInner>,
    id: u64,
}

impl TaskHandle {
    /// Enqueue a job at the back of this task's queue.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let needs_worker = {
            let mut state = self.pool.state.lock().expect("pool state");
            if let Some(slot) = state.slots.iter_mut().find(|slot| slot.id == self.id) {
                slot.queue.push_back(Box::new(job));
            }
            // With every worker either busy or parked in a blocking section, this
            // job could otherwise wait behind sends that only unblock when some
            // client pulls; a replacement keeps the queue draining.
            state.idle == 0 && self.pool.blocked.load(Ordering::SeqCst) > 0
        };
        self.pool.work.notify_one();
        if needs_worker {
            self.pool.try_spawn_worker(Spawn::Replacement);
        }
    }

    /// Run `f`, which may block indefinitely (e.g. a root-exchange send to a
    /// client that pulls slowly), without letting this thread starve the pool:
    /// while inside, the thread does not count against [`MAX_POOL_THREADS`], and
    /// a replacement worker is spawned when *other* tasks have queued work with
    /// no idle worker left to take it. Blocking on this task's own exchange needs
    /// no replacement — that backpressure is intentional.
    pub fn blocking<R>(&self, f: impl FnOnce() -> R) -> R {
        // Guard so an unwinding `f` (workers catch panics) cannot leak the
        // blocked count and permanently inflate the cap exemption.
        struct Unblock<'a>(&'a PoolInner);
        impl Drop for Unblock<'_> {
            fn drop(&mut self) {
                self.0.blocked.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.pool.blocked.fetch_add(1, Ordering::SeqCst);
        let _unblock = Unblock(&self.pool);
        let needs_worker = {
            let state = self.pool.state.lock().expect("pool state");
            state.idle == 0
                && state
                    .slots
                    .iter()
                    .any(|slot| slot.id != self.id && !slot.queue.is_empty())
        };
        if needs_worker {
            self.pool.try_spawn_worker(Spawn::Replacement);
        }
        f()
    }
}

impl Clone for TaskHandle {
    fn clone(&self) -> Self {
        let mut state = self.pool.state.lock().expect("pool state");
        if let Some(slot) = state.slots.iter_mut().find(|slot| slot.id == self.id) {
            slot.refs += 1;
        }
        drop(state);
        Self {
            pool: Arc::clone(&self.pool),
            id: self.id,
        }
    }
}

impl Drop for TaskHandle {
    fn drop(&mut self) {
        let removed = {
            let mut state = self.pool.state.lock().expect("pool state");
            match state.slots.iter().position(|slot| slot.id == self.id) {
                Some(idx) => {
                    state.slots[idx].refs -= 1;
                    if state.slots[idx].refs == 0 {
                        // Queued jobs capture a handle, so refs == 0 normally
                        // implies no queued work; any stragglers are dropped
                        // below, outside the lock (their captured handles
                        // re-enter this Drop).
                        Some(state.slots.remove(idx))
                    } else {
                        None
                    }
                }
                None => None,
            }
        };
        drop(removed);
    }
}

/// A countdown barrier for one pipeline run: the coordinator waits until every
/// chain job has retired, running `pump` (the observer event drain) in between
/// so workers never stall behind an undrained event queue.
pub struct Gate {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Gate {
    pub fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    /// Retire one chain. Called by pool workers when their chain finishes.
    pub fn done_one(&self) {
        let mut remaining = self.remaining.lock().expect("gate");
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    pub fn finished(&self) -> bool {
        *self.remaining.lock().expect("gate") == 0
    }

    /// Block until every chain retired, interleaving `pump` so the coordinator
    /// keeps draining observer events while it waits.
    pub fn wait_pumping(&self, pump: &dyn Fn()) {
        loop {
            pump();
            let remaining = self.remaining.lock().expect("gate");
            if *remaining == 0 {
                return;
            }
            let (remaining, _) = self
                .done
                .wait_timeout(remaining, std::time::Duration::from_micros(100))
                .expect("gate");
            if *remaining == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_run_and_gate_releases() {
        let pool = WorkerPool::new();
        pool.ensure_available(2);
        let task = pool.register(1);
        let counter = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Gate::new(8));
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            let gate = Arc::clone(&gate);
            task.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                gate.done_one();
            });
        }
        gate.wait_pumping(&|| {});
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn task_slot_removed_when_handles_drop() {
        let pool = WorkerPool::new();
        let before = pool.task_count();
        let task = pool.register(1);
        let clone = task.clone();
        assert_eq!(pool.task_count(), before + 1);
        drop(task);
        assert_eq!(pool.task_count(), before + 1, "clone keeps the slot alive");
        drop(clone);
        assert_eq!(pool.task_count(), before);
    }

    #[test]
    fn higher_priority_tasks_are_served_first() {
        // A private single-worker pool makes pick order deterministic.
        let pool = WorkerPool::new();
        pool.ensure_available(1);
        let low = pool.register(0);
        let high = pool.register(5);
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let gate = Arc::new(Gate::new(3));
        // Stall the pool briefly so both queues fill before any pick happens.
        let hold = Arc::new(Gate::new(1));
        {
            let hold = Arc::clone(&hold);
            let gate = Arc::clone(&gate);
            low.submit(move || {
                hold.wait_pumping(&|| {});
                gate.done_one();
            });
        }
        for (task, tag) in [(&low, "low"), (&high, "high")] {
            let order = Arc::clone(&order);
            let gate = Arc::clone(&gate);
            task.submit(move || {
                order.lock().unwrap().push(tag);
                gate.done_one();
            });
        }
        hold.done_one();
        gate.wait_pumping(&|| {});
        let order = order.lock().unwrap();
        assert_eq!(
            order.as_slice(),
            &["high", "low"],
            "priority decides pick order"
        );
    }

    #[test]
    fn equal_priority_tasks_round_robin() {
        let pool = WorkerPool::new();
        pool.ensure_available(1);
        let a = pool.register(1);
        let b = pool.register(1);
        let order = Arc::new(Mutex::new(Vec::<u64>::new()));
        let gate = Arc::new(Gate::new(5));
        let hold = Arc::new(Gate::new(1));
        {
            let hold = Arc::clone(&hold);
            let gate = Arc::clone(&gate);
            a.submit(move || {
                hold.wait_pumping(&|| {});
                gate.done_one();
            });
        }
        // Queue a,a then b,b while the pool is held; round-robin should
        // interleave them a,b,a,b rather than draining one task first.
        for (task, tag) in [(&a, 1u64), (&a, 1), (&b, 2), (&b, 2)] {
            let order = Arc::clone(&order);
            let gate = Arc::clone(&gate);
            task.submit(move || {
                order.lock().unwrap().push(tag);
                gate.done_one();
            });
        }
        hold.done_one();
        gate.wait_pumping(&|| {});
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 4);
        assert_ne!(
            order.as_slice(),
            &[1, 1, 2, 2],
            "equal-priority tasks must interleave, got {order:?}"
        );
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new();
        pool.ensure_available(1);
        let task = pool.register(1);
        let gate = Arc::new(Gate::new(1));
        task.submit(|| panic!("job bug"));
        {
            let gate = Arc::clone(&gate);
            task.submit(move || gate.done_one());
        }
        // The second job only runs if the worker survived the first one's panic
        // (the pool spawned exactly one worker and never replaces dead threads).
        gate.wait_pumping(&|| {});
        assert_eq!(pool.threads_spawned_total(), 1);
    }

    #[test]
    fn blocked_worker_gets_a_replacement_for_other_tasks_work() {
        let pool = WorkerPool::new();
        pool.ensure_available(1);
        let blocker = pool.register(1);
        let other = pool.register(1);
        let release = Arc::new(Gate::new(1));
        let entered = Arc::new(Gate::new(1));
        {
            let release = Arc::clone(&release);
            let entered = Arc::clone(&entered);
            let handle = blocker.clone();
            blocker.submit(move || {
                handle.blocking(|| {
                    entered.done_one();
                    release.wait_pumping(&|| {});
                });
            });
        }
        entered.wait_pumping(&|| {});
        // The only worker is parked in the blocking section; submitting another
        // task's job must spawn a replacement rather than queue forever.
        let done = Arc::new(Gate::new(1));
        {
            let done = Arc::clone(&done);
            other.submit(move || done.done_one());
        }
        done.wait_pumping(&|| {});
        assert!(pool.threads_spawned_total() >= 2, "replacement was spawned");
        release.done_one();
    }

    #[test]
    fn spawn_counter_is_monotonic_and_idle_workers_are_reused() {
        let pool = WorkerPool::new();
        pool.ensure_available(2);
        let after = pool.threads_spawned_total();
        assert!(after >= 2);
        assert!(after <= MAX_POOL_THREADS);
        // Once the workers park, an identical request spawns nothing new.
        for _ in 0..100 {
            if pool.inner.state.lock().unwrap().idle >= 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        pool.ensure_available(2);
        assert_eq!(pool.threads_spawned_total(), after);
    }

    #[test]
    fn a_pool_at_its_requested_size_never_spawns_for_busy_workers() {
        // Both workers are held inside jobs, so none is idle: a request for the
        // size the pool already has must still spawn nothing, and a larger one
        // grows it by exactly the difference.
        let pool = WorkerPool::new();
        pool.ensure_available(2);
        assert_eq!(pool.threads_spawned_total(), 2);
        let task = pool.register(1);
        let hold = Arc::new(Gate::new(1));
        let entered = Arc::new(Gate::new(2));
        let done = Arc::new(Gate::new(2));
        for _ in 0..2 {
            let (hold, entered, done) = (Arc::clone(&hold), Arc::clone(&entered), Arc::clone(&done));
            task.submit(move || {
                entered.done_one();
                hold.wait_pumping(&|| {});
                done.done_one();
            });
        }
        entered.wait_pumping(&|| {});
        for _ in 0..10 {
            pool.ensure_available(2);
            pool.ensure_available(1);
        }
        assert_eq!(pool.threads_spawned_total(), 2);
        pool.ensure_available(3);
        assert_eq!(pool.threads_spawned_total(), 3);
        hold.done_one();
        done.wait_pumping(&|| {});
    }
}
