//! The shared worker-pool runtime: one fixed-size team of OS threads,
//! created once and sized to the host, that multiplexes the mapper /
//! reducer / coordinator work of *many* concurrent operators and plans.
//!
//! This module decides the pool, its scopes, the worker loop, and the
//! scheduling policy: which job a worker polls next, which deque a
//! spawned, yielded or woken job lands on, and when a worker parks — one
//! set of functions on the pool, and nowhere else. It must not
//! decide a task's park/wake handshake (`waker`), when a timer is due
//! (`timers`), or which queries may run (`admission`).
//!
//! * **Tasks, not threads.** An engine task is a resumable state machine
//!   behind a `FnMut(&TaskCx) -> Poll` closure. A task that would block — a
//!   full reducer queue, an empty exchange, a coordinator between polls —
//!   returns [`Poll::Pending`] instead of parking an OS thread, so a
//!   fixed-size pool can interleave any number of queries without
//!   deadlocking on its own size. [`Poll::Yielded`] marks "made progress,
//!   more to do": the task goes straight back on the queue.
//! * **Event-driven parking, not polling.** `Pending` is a contract, not a
//!   hint: before returning it the task must have registered its
//!   [`Waker`] (via [`TaskCx::waker`]) with whichever resource blocked it —
//!   a [`Channel`](super::channel::Channel) slot or item (a reducer's
//!   queue, an [`Exchange`](super::exchange::Exchange)), a [`WakeSet`]
//!   countdown, a [`CancelToken`], or a [`TaskCx::sleep`] timer. The job is
//!   then *parked*: it leaves the deques entirely and is re-enqueued only
//!   when the resource transitions and wakes it. Workers holding no
//!   runnable work park indefinitely on the injector condvar — there is no
//!   blind re-poll sweep and no idle nap.
//! * **Lost-wakeup protocol.** A resource transition racing between a
//!   task's last failed `try_*` and its waker registration must still wake
//!   the task. Resources with their own lock (queues, exchanges) register
//!   the waker *under the same lock* as the failed try, closing the window
//!   outright. Lock-free conditions (seal countdowns, cancellation,
//!   quiescence) go through a [`WakeSet`], whose wake-generation counter is
//!   read *before* the condition check and re-checked at registration: if a
//!   wake slipped in between, registration fails and the task re-polls
//!   ([`Poll::Yielded`]) instead of parking on a stale condition. The
//!   worker-level analogue — a job enqueued while a worker is deciding to
//!   park — is closed by a runnable-job count checked under the injector
//!   lock, which every enqueue path takes before notifying.
//! * **Per-worker deques plus work-stealing.** Each worker owns a deque;
//!   freshly spawned tasks land on a global injector, rescheduled and woken
//!   tasks on the worker that last ran them (locality), and an idle worker
//!   steals from its siblings before parking. Steals are counted
//!   ([`RuntimeMetrics::tasks_stolen`]) — the observable trace of the
//!   load-balancing the paper's shared-resource model assumes.
//! * **Scoped submission.** [`EngineRuntime::scope`] mirrors
//!   `std::thread::scope`: tasks may borrow from the caller's stack, and
//!   the scope does not return until every spawned task has completed (or
//!   panicked — the first panic is resent at the join, after all tasks
//!   finished). A task's closure is dropped on the worker that completed
//!   it, before the scope counts it done, so what a task does as it drops
//!   — the engine ends its phases there — happens inside the scope.
//! * **Admission** ([`EngineRuntime::admit`]) gates *queries*, not tasks,
//!   on the client thread, and **timers** ([`TaskCx::sleep`]) are the one
//!   legitimately timed wait: idle workers bound their park by the earliest
//!   armed deadline.

mod admission;
mod timers;
mod waker;

pub use admission::QueryTicket;
pub use waker::{CancelToken, WakeSet, Waker};

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use super::pool::BatchPool;
use admission::AdmissionGate;
use timers::TimerHeap;

/// What one task poll reports back to its worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Poll {
    /// The task is finished; drop it and signal its scope.
    Ready,
    /// The task did useful work and has more; reschedule it.
    Yielded,
    /// The task cannot progress until some *other* event (a queue pop, an
    /// exchange push, a countdown, a timer) and has registered its
    /// [`Waker`] with that resource. The job is parked off the deques and
    /// re-enqueued by the wake. A `Pending` without any registration is
    /// tolerated (the worker falls back to rescheduling it like
    /// [`Poll::Yielded`]) but defeats event-driven parking — every blocking
    /// edge in the engine registers.
    Pending,
}

/// The per-poll context handed to every task closure: its [`Waker`] (to
/// register with blocking resources, or to arm a [`TaskCx::sleep`] timer)
/// and the polling worker's batch-recycling pool.
pub struct TaskCx<'a> {
    waker: &'a Waker,
    pool: &'a BatchPool,
}

impl TaskCx<'_> {
    /// This task's wake handle, for registering with blocking resources.
    pub fn waker(&self) -> &Waker {
        self.waker
    }

    /// The polling worker's [`BatchPool`]: recycled `ColumnBatch`
    /// allocations for fragment, outbox and spill-reload buffers.
    pub fn pool(&self) -> &BatchPool {
        self.pool
    }
}

/// Construction knobs for [`EngineRuntime`].
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Pool size: the total OS threads executing engine tasks, for every
    /// query sharing this runtime.
    pub workers: usize,
    /// Admission limit: queries holding a [`QueryTicket`] at once. Further
    /// `admit` calls block (on the client thread) until a ticket drops.
    pub max_concurrent_queries: usize,
    /// Optional runtime-global memory budget, in tuples. Each admitted
    /// query carves its slice out of this (see [`EngineRuntime::admit`]);
    /// `None` disables budget gating (tickets still carry a gauge).
    pub memory_budget_tuples: Option<u64>,
}

impl RuntimeConfig {
    /// A pool of `workers` threads, admitting up to `workers` concurrent
    /// queries (at least 2 so pipelines of two operators can always
    /// overlap), with no memory budget.
    pub fn for_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        RuntimeConfig {
            workers,
            max_concurrent_queries: workers.max(2),
            memory_budget_tuples: None,
        }
    }
}

/// A point-in-time snapshot of the runtime's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeMetrics {
    pub workers: usize,
    /// Tasks submitted over the runtime's lifetime.
    pub tasks_spawned: u64,
    /// Tasks that ran to `Ready` (or panicked).
    pub tasks_completed: u64,
    /// Tasks a worker took from a *sibling's* deque — the work-stealing
    /// traffic that keeps skewed task batches from stranding idle workers.
    pub tasks_stolen: u64,
    /// Individual `poll` invocations across all tasks.
    pub polls: u64,
    /// Polls that returned [`Poll::Pending`]: a genuine block costs exactly
    /// one of these (register, park, wake).
    pub spurious_polls: u64,
    /// Parked jobs re-enqueued by a [`Waker::wake`].
    pub wakeups: u64,
    /// Summed wall time parked jobs spent waiting for their wake.
    pub parked_secs: f64,
    /// Summed wall time workers spent inside task polls.
    pub busy_secs: f64,
    /// Wall time since the runtime was built.
    pub uptime_secs: f64,
    /// Queries admitted so far.
    pub admissions: u64,
    /// Summed time queries waited in the admission queue.
    pub admission_wait_secs: f64,
    /// Queries currently holding a ticket.
    pub active_queries: usize,
    /// Tuple budget currently carved out by admitted queries.
    pub budget_in_use_tuples: u64,
}

impl RuntimeMetrics {
    /// Fraction of the pool's capacity spent inside task polls since the
    /// runtime was built (1.0 = every worker busy the whole time).
    pub fn utilization(&self) -> f64 {
        let capacity = self.workers as f64 * self.uptime_secs;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_secs / capacity).min(1.0)
        }
    }
}

/// One schedulable unit: the type-erased task closure, the completion
/// latch of the scope that spawned it, and its [`Waker`].
///
/// The closure's true lifetime is the spawning scope's `'env`; it is
/// transmuted to `'static` so it can sit in the pool's queues. Soundness
/// rests on the scope invariant: [`EngineRuntime::scope`] does not return
/// until `outstanding == 0`, and a job's closure is dropped *before* its
/// completion is signalled, so no job can touch (or drop) its borrows
/// after the borrowed stack frame is gone. A *parked* job still counts as
/// outstanding (the waker's slot owns it), so the invariant holds across
/// parks.
struct Job {
    run: Box<dyn FnMut(&TaskCx<'_>) -> Poll + Send + 'static>,
    scope: Arc<Latch>,
    waker: Waker,
}

/// A scope's countdown of outstanding tasks, which keeps the first panic
/// among them.
#[derive(Default)]
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

#[derive(Default)]
struct LatchState {
    outstanding: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn add(&self) {
        self.state.lock().expect("latch poisoned").outstanding += 1;
    }

    fn done(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut st = self.state.lock().expect("latch poisoned");
        st.outstanding -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        if st.outstanding == 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until the count reaches zero; returns the first panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut st = self.state.lock().expect("latch poisoned");
        while st.outstanding > 0 {
            st = self.cv.wait(st).expect("latch poisoned");
        }
        st.panic.take()
    }
}

#[derive(Default)]
struct PoolShared {
    /// Per-worker deques. Plain mutexed deques, not lock-free Chase–Lev:
    /// every slot holds a coarse unit of work (a morsel route, a queue
    /// drain), so contention on these locks is noise next to the work.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Global submission queue; also the condvar workers park on.
    injector: Mutex<VecDeque<Job>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    /// Jobs currently sitting in *any* deque or the injector (not parked,
    /// not mid-poll). Checked under the injector lock before a worker
    /// parks: every enqueue path bumps this, then takes and releases the
    /// injector lock before notifying, so a worker can never park with a
    /// runnable job it failed to observe.
    runnable: AtomicUsize,
    /// Armed [`TaskCx::sleep`] deadlines; idle workers bound their park by
    /// the earliest.
    timers: TimerHeap,
    admission: AdmissionGate,
    // Counters (all relaxed: they are metrics, never synchronization).
    tasks_spawned: AtomicU64,
    tasks_completed: AtomicU64,
    tasks_stolen: AtomicU64,
    polls: AtomicU64,
    spurious_polls: AtomicU64,
    wakeups: AtomicU64,
    parked_nanos: AtomicU64,
    busy_nanos: AtomicU64,
}

// ---------------------------------------------------------------------------
// Scheduling policy: where a job is queued, which job a worker polls next,
// and when a worker parks.
// ---------------------------------------------------------------------------

impl PoolShared {
    /// A freshly spawned job goes on the global injector.
    fn spawned(&self, job: Job) {
        self.tasks_spawned.fetch_add(1, Ordering::Relaxed);
        self.runnable.fetch_add(1, Ordering::Relaxed);
        self.injector
            .lock()
            .expect("injector poisoned")
            .push_back(job);
        self.work_cv.notify_one();
    }

    /// A runnable job goes on worker `to`'s deque: the worker that just
    /// polled it, when it yielded or its `Pending` could not park. The
    /// empty acquire/release of the injector lock before the notify is the
    /// lost-wakeup fence: a parker holds that lock from its runnable-count
    /// check through its condvar wait, so either it sees the bumped count
    /// or the notification reaches its wait.
    fn requeue(&self, to: usize, job: Job) {
        self.runnable.fetch_add(1, Ordering::Relaxed);
        self.deques[to]
            .lock()
            .expect("deque poisoned")
            .push_back(job);
        drop(self.injector.lock().expect("injector poisoned"));
        self.work_cv.notify_one();
    }

    /// A woken job goes on the deque of the worker that last polled it
    /// (locality).
    fn woken(&self, job: Job) {
        let to = job.waker.last_worker() % self.deques.len();
        self.requeue(to, job);
    }

    /// Picks the next job for worker `me`: own deque first (locality), then
    /// the injector (fresh work), then the back of a sibling's deque
    /// (stealing).
    fn next_job(&self, me: usize) -> Option<Job> {
        let pop = |q: &Mutex<VecDeque<Job>>, back: bool| {
            let mut q = q.lock().expect("deque poisoned");
            if back {
                q.pop_back()
            } else {
                q.pop_front()
            }
        };
        let n = self.deques.len();
        let job = pop(&self.deques[me], false)
            .or_else(|| pop(&self.injector, false))
            .or_else(|| {
                let job = (1..n).find_map(|off| pop(&self.deques[(me + off) % n], true))?;
                self.tasks_stolen.fetch_add(1, Ordering::Relaxed);
                Some(job)
            })?;
        self.runnable.fetch_sub(1, Ordering::Relaxed);
        Some(job)
    }

    /// Parks a worker that found no job, until an enqueue (wake, spawn,
    /// requeue) or an arming sleep notifies, or the earliest armed timer is
    /// due. Returns `false` once the pool shuts down.
    fn park_worker(&self) -> bool {
        if self.shutdown.load(Ordering::Acquire) {
            return false;
        }
        let guard = self.injector.lock().expect("injector poisoned");
        if self.shutdown.load(Ordering::Acquire) {
            return false;
        }
        // Every enqueue bumps `runnable` *before* acquiring this lock to
        // notify, so a zero read here means any job that appears later
        // comes with a notification we cannot miss.
        if self.runnable.load(Ordering::Acquire) == 0 {
            match self.timers.until_next() {
                None => drop(self.work_cv.wait(guard).expect("injector poisoned")),
                Some(wait) if !wait.is_zero() => {
                    let _ = self
                        .work_cv
                        .wait_timeout(guard, wait)
                        .expect("injector poisoned");
                }
                // A timer is already due: loop and fire it.
                Some(_) => {}
            }
        }
        true
    }

    /// Wakes every parked worker to re-derive its park: a new earliest
    /// deadline, or shutdown. The injector lock orders this against their
    /// runnable-check-then-wait.
    fn rouse_all(&self) {
        drop(self.injector.lock().expect("injector poisoned"));
        self.work_cv.notify_all();
    }
}

/// The persistent shared worker-pool runtime (see the module docs). Build
/// one per process — or per experiment, when a benchmark wants a pool of a
/// specific size — and pass it to every `run_operator` / `run_plan` call;
/// [`EngineRuntime::global`] offers a lazily built host-sized default.
///
/// Dropping the runtime shuts the pool down (all scopes have necessarily
/// completed first, because they borrow the runtime).
pub struct EngineRuntime {
    shared: Arc<PoolShared>,
    cfg: RuntimeConfig,
    started: Instant,
    workers: Vec<JoinHandle<()>>,
}

impl EngineRuntime {
    /// A runtime with [`RuntimeConfig::for_workers`] defaults.
    pub fn new(workers: usize) -> Self {
        Self::with_config(RuntimeConfig::for_workers(workers))
    }

    pub fn with_config(cfg: RuntimeConfig) -> Self {
        let workers = cfg.workers.max(1);
        // A zero budget would make admit's clamp-to-total panic (and means
        // "no query ever fits"); treat it as the smallest real budget.
        let memory_budget_tuples = cfg.memory_budget_tuples.map(|t| t.max(1));
        let shared = Arc::new(PoolShared {
            deques: (0..workers).map(|_| Mutex::default()).collect(),
            ..PoolShared::default()
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ewh-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        EngineRuntime {
            shared,
            cfg: RuntimeConfig {
                workers,
                memory_budget_tuples,
                ..cfg
            },
            started: Instant::now(),
            workers: handles,
        }
    }

    /// The process-wide default runtime, built on first use and sized to
    /// the host (at least 2 workers, so a two-operator pipeline overlaps
    /// even on a single-core machine).
    pub fn global() -> &'static EngineRuntime {
        static GLOBAL: OnceLock<EngineRuntime> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(2)
                .max(2);
            EngineRuntime::new(workers)
        })
    }

    /// Pool size.
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Snapshot of the runtime counters.
    pub fn metrics(&self) -> RuntimeMetrics {
        let sh = &self.shared;
        RuntimeMetrics {
            workers: self.cfg.workers,
            tasks_spawned: sh.tasks_spawned.load(Ordering::Relaxed),
            tasks_completed: sh.tasks_completed.load(Ordering::Relaxed),
            tasks_stolen: sh.tasks_stolen.load(Ordering::Relaxed),
            polls: sh.polls.load(Ordering::Relaxed),
            spurious_polls: sh.spurious_polls.load(Ordering::Relaxed),
            wakeups: sh.wakeups.load(Ordering::Relaxed),
            parked_secs: sh.parked_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            busy_secs: sh.busy_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            uptime_secs: self.started.elapsed().as_secs_f64(),
            ..sh.admission.metrics()
        }
    }

    /// Runs `f` with a [`RuntimeScope`] through which borrowed tasks can be
    /// spawned onto the pool; returns only after every spawned task
    /// completed. Mirrors `std::thread::scope`: if a task panicked, the
    /// first panic is resent here (after all tasks finished); if `f` itself
    /// panics, the scope still waits before unwinding.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'s> FnOnce(&'s RuntimeScope<'s, 'env>) -> R,
    {
        let scope = RuntimeScope {
            rt: self,
            sync: Arc::default(),
            _env: PhantomData,
            _scope: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        let task_panic = scope.sync.wait();
        match result {
            Err(p) => resume_unwind(p),
            Ok(r) => {
                if let Some(p) = task_panic {
                    resume_unwind(p);
                }
                r
            }
        }
    }
}

impl Drop for EngineRuntime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Workers park indefinitely now: the store must be ordered against
        // their check-then-wait.
        self.shared.rouse_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Scoped task submission handle (see [`EngineRuntime::scope`]). The two
/// lifetimes mirror `std::thread::Scope`: `'scope` is the scope's own
/// region, `'env` the environment tasks may borrow from.
pub struct RuntimeScope<'scope, 'env: 'scope> {
    rt: &'scope EngineRuntime,
    sync: Arc<Latch>,
    _env: PhantomData<&'env mut &'env ()>,
    _scope: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope, 'env> RuntimeScope<'scope, 'env> {
    /// Spawns one task onto the pool. The closure is polled repeatedly
    /// until it returns [`Poll::Ready`]; it must never block the worker on
    /// another task's progress — register the poll's [`TaskCx::waker`]
    /// with the blocking resource and return [`Poll::Pending`] instead.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnMut(&TaskCx<'_>) -> Poll + Send + 'env,
    {
        let boxed: Box<dyn FnMut(&TaskCx<'_>) -> Poll + Send + 'env> = Box::new(f);
        // SAFETY: the closure only ever runs — and is dropped — before
        // `scope` returns (`Latch::wait`), so its `'env` borrows are
        // live for every use. See the `Job` docs.
        let boxed: Box<dyn FnMut(&TaskCx<'_>) -> Poll + Send + 'static> =
            unsafe { std::mem::transmute(boxed) };
        self.sync.add();
        self.rt.shared.spawned(Job {
            run: boxed,
            scope: Arc::clone(&self.sync),
            waker: Waker::new(Arc::clone(&self.rt.shared)),
        });
    }
}

fn complete_job(shared: &PoolShared, job: Job, panic: Option<Box<dyn Any + Send>>) {
    let Job { run, scope, .. } = job;
    // Drop the task closure *before* signalling: the moment the scope's
    // counter hits zero the borrowed stack frame may unwind. A panic in
    // the drop is the task's, and must not take the worker down with it.
    let dropped = catch_unwind(AssertUnwindSafe(|| drop(run))).err();
    shared.tasks_completed.fetch_add(1, Ordering::Relaxed);
    scope.done(panic.or(dropped));
}

fn worker_loop(shared: &Arc<PoolShared>, me: usize) {
    // This worker's batch-recycling stash; every task polled here shares
    // it through the `TaskCx`, so buffers circulate across the tasks that
    // happen to land on this worker.
    let pool = BatchPool::new();
    loop {
        shared.timers.fire_due();
        let Some(mut job) = shared.next_job(me) else {
            if !shared.park_worker() {
                return;
            }
            continue;
        };
        let start = Instant::now();
        job.waker.begin_poll(me);
        let waker = job.waker.clone();
        let cx = TaskCx {
            waker: &waker,
            pool: &pool,
        };
        let polled = catch_unwind(AssertUnwindSafe(|| (job.run)(&cx)));
        shared
            .busy_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.polls.fetch_add(1, Ordering::Relaxed);
        match polled {
            Ok(Poll::Ready) => complete_job(shared, job, None),
            Err(panic) => complete_job(shared, job, Some(panic)),
            Ok(Poll::Yielded) => shared.requeue(me, job),
            Ok(Poll::Pending) => {
                shared.spurious_polls.fetch_add(1, Ordering::Relaxed);
                if waker.is_armed() {
                    if let Err(job) = waker.try_park(job) {
                        // A wake latched mid-poll: the awaited transition
                        // already happened, so run again instead.
                        shared.requeue(me, job);
                    }
                } else {
                    // Pending without any registration: nothing would ever
                    // wake it, so fall back to rescheduling. Correct but
                    // poll-driven — engine tasks always register.
                    shared.requeue(me, job);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn scope_runs_borrowed_tasks_to_completion() {
        let rt = EngineRuntime::new(3);
        let counter = AtomicUsize::new(0);
        rt.scope(|s| {
            for _ in 0..20 {
                let counter = &counter;
                let mut left = 3u32; // each task yields a few times first
                s.spawn(move |_| {
                    if left > 0 {
                        left -= 1;
                        return Poll::Yielded;
                    }
                    counter.fetch_add(1, Ordering::Relaxed);
                    Poll::Ready
                });
            }
        });
        assert_eq!(counter.into_inner(), 20);
        let m = rt.metrics();
        assert_eq!(m.tasks_spawned, 20);
        assert_eq!(m.tasks_completed, 20);
        assert!(m.polls >= 80, "each task polls at least 4 times");
    }

    #[test]
    fn parked_tasks_are_woken_by_their_registered_wake_set() {
        // A single-worker pool must still complete a dependency chain where
        // task B parks until task A flips a flag: B registers with a
        // WakeSet and parks off the deques, A runs, flips the flag and
        // wakes the set, B is re-enqueued and completes — if the wake is
        // lost, this test hangs.
        let rt = EngineRuntime::new(1);
        let flag = AtomicBool::new(false);
        let wake = WakeSet::new();
        rt.scope(|s| {
            {
                let (flag, wake) = (&flag, &wake);
                s.spawn(move |cx| {
                    // Generation before the condition check: a wake racing
                    // in between fails the registration and we re-poll.
                    let gen = wake.generation();
                    if flag.load(Ordering::Acquire) {
                        Poll::Ready
                    } else if wake.register(cx.waker(), gen) {
                        Poll::Pending
                    } else {
                        Poll::Yielded
                    }
                });
            }
            let (flag, wake) = (&flag, &wake);
            let mut spins = 5u32;
            s.spawn(move |_| {
                if spins > 0 {
                    spins -= 1;
                    return Poll::Yielded;
                }
                flag.store(true, Ordering::Release);
                wake.wake_all();
                Poll::Ready
            });
        });
        assert!(flag.into_inner());
        let m = rt.metrics();
        assert!(
            m.wakeups >= 1,
            "the parked task must be woken, not re-polled"
        );
        assert!(
            m.spurious_polls <= 3,
            "a parked task re-polls only on its wake, got {}",
            m.spurious_polls
        );
    }

    #[test]
    fn stale_generation_refuses_registration() {
        // If the wake fires between the condition check and the
        // registration, the stale generation must make register() refuse —
        // parking would sleep through a transition that already happened.
        let rt = EngineRuntime::new(1);
        let wake = WakeSet::new();
        let refused = AtomicBool::new(false);
        rt.scope(|s| {
            let (wake, refused) = (&wake, &refused);
            s.spawn(move |cx| {
                let gen = wake.generation();
                wake.wake_all(); // the race, made deterministic
                if wake.register(cx.waker(), gen) {
                    Poll::Pending
                } else {
                    refused.store(true, Ordering::Release);
                    Poll::Ready
                }
            });
        });
        assert!(refused.into_inner());
    }

    #[test]
    fn wakes_from_client_threads_unpark_and_time_the_park() {
        // The scope's caller thread (not a pool worker) wakes a parked
        // task after ~20ms; parked_secs must record the wait.
        let rt = EngineRuntime::new(2);
        let stop = AtomicBool::new(false);
        let wake = WakeSet::new();
        rt.scope(|s| {
            {
                let (stop, wake) = (&stop, &wake);
                s.spawn(move |cx| {
                    let gen = wake.generation();
                    if stop.load(Ordering::Acquire) {
                        Poll::Ready
                    } else if wake.register(cx.waker(), gen) {
                        Poll::Pending
                    } else {
                        Poll::Yielded
                    }
                });
            }
            thread::sleep(Duration::from_millis(20));
            stop.store(true, Ordering::Release);
            wake.wake_all();
        });
        let m = rt.metrics();
        assert!(m.wakeups >= 1);
        assert!(
            m.parked_secs >= 0.010,
            "the task parked ~20ms, recorded {}",
            m.parked_secs
        );
    }

    #[test]
    fn sleep_timers_wake_parked_workers() {
        let rt = EngineRuntime::new(1);
        let started = Instant::now();
        let mut slept = false;
        rt.scope(|s| {
            s.spawn(move |cx| {
                if slept {
                    Poll::Ready
                } else {
                    slept = true;
                    cx.sleep(Duration::from_millis(10));
                    Poll::Pending
                }
            });
        });
        assert!(
            started.elapsed() >= Duration::from_millis(10),
            "the timer must gate completion"
        );
        assert!(rt.metrics().wakeups >= 1, "timer expiry is a wake");
    }

    #[test]
    fn cancel_token_wakes_its_parked_waiters() {
        let rt = EngineRuntime::new(1);
        let token = CancelToken::new();
        let observed = AtomicBool::new(false);
        rt.scope(|s| {
            {
                let (token, observed) = (&token, &observed);
                s.spawn(move |cx| {
                    if token.is_cancelled() {
                        observed.store(true, Ordering::Release);
                        Poll::Ready
                    } else if token.park(cx.waker()) {
                        Poll::Pending
                    } else {
                        Poll::Yielded
                    }
                });
            }
            thread::sleep(Duration::from_millis(10));
            token.cancel();
        });
        assert!(observed.into_inner());
        assert!(token.is_cancelled());
    }

    #[test]
    fn unregistered_pending_is_rescheduled_not_stranded() {
        // A task that returns Pending without registering anywhere must
        // still complete (the worker falls back to rescheduling it).
        let rt = EngineRuntime::new(1);
        let mut naps = 3u32;
        rt.scope(|s| {
            s.spawn(move |_| {
                if naps > 0 {
                    naps -= 1;
                    Poll::Pending
                } else {
                    Poll::Ready
                }
            });
        });
        assert!(rt.metrics().spurious_polls >= 3);
    }

    #[test]
    fn work_is_stolen_when_one_worker_hoards_tasks() {
        // All tasks yield many times; with several workers and one injector
        // the deques end up imbalanced enough that someone steals. This is
        // probabilistic in principle but deterministic in practice: the
        // first worker drains the injector into its own deque faster than
        // siblings wake.
        let rt = EngineRuntime::new(4);
        rt.scope(|s| {
            for _ in 0..64 {
                let mut left = 50u32;
                s.spawn(move |_| {
                    if left > 0 {
                        left -= 1;
                        std::hint::black_box(left);
                        Poll::Yielded
                    } else {
                        Poll::Ready
                    }
                });
            }
        });
        let m = rt.metrics();
        assert_eq!(m.tasks_completed, 64);
        assert!(m.busy_secs >= 0.0 && m.uptime_secs > 0.0);
        assert!(m.utilization() >= 0.0 && m.utilization() <= 1.0);
    }

    #[test]
    fn task_panic_propagates_at_the_scope_join() {
        let rt = EngineRuntime::new(2);
        let survived = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| {
                let survived = &survived;
                s.spawn(move |_| {
                    survived.fetch_add(1, Ordering::Relaxed);
                    Poll::Ready
                });
                s.spawn(|_| panic!("task exploded"));
            });
        }));
        assert!(result.is_err(), "scope must resend the task panic");
        assert_eq!(survived.load(Ordering::Relaxed), 1);
        // The runtime survives a panicked task: later scopes still run.
        let after = AtomicUsize::new(0);
        rt.scope(|s| {
            let after = &after;
            s.spawn(move |_| {
                after.fetch_add(1, Ordering::Relaxed);
                Poll::Ready
            });
        });
        assert_eq!(after.into_inner(), 1);
    }

    #[test]
    fn admission_limits_concurrent_tickets() {
        let rt = EngineRuntime::with_config(RuntimeConfig {
            workers: 2,
            max_concurrent_queries: 1,
            memory_budget_tuples: None,
        });
        let t1 = rt.admit(None);
        assert_eq!(rt.metrics().active_queries, 1);
        // A second admit must wait until t1 drops.
        thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t2 = rt.admit(None);
                t2.admission_wait_secs()
            });
            thread::sleep(Duration::from_millis(20));
            drop(t1);
            let waited = waiter.join().expect("waiter panicked");
            assert!(
                waited >= 0.010,
                "second ticket should have waited ~20ms, waited {waited}"
            );
        });
        let m = rt.metrics();
        assert_eq!(m.admissions, 2);
        assert!(m.admission_wait_secs >= 0.010);
        assert_eq!(m.active_queries, 0);
    }

    #[test]
    fn budget_is_carved_and_returned() {
        let rt = EngineRuntime::with_config(RuntimeConfig {
            workers: 1,
            max_concurrent_queries: 4,
            memory_budget_tuples: Some(1000),
        });
        let a = rt.admit(Some(600));
        assert_eq!(a.budget_tuples(), Some(600));
        assert_eq!(rt.metrics().budget_in_use_tuples, 600);
        // Unrequested budget defaults to an equal share of the total.
        let b = rt.admit(None);
        assert_eq!(b.budget_tuples(), Some(250));
        // An over-sized request clamps to the whole budget instead of
        // deadlocking the queue.
        drop(a);
        drop(b);
        let c = rt.admit(Some(10_000));
        assert_eq!(c.budget_tuples(), Some(1000));
        drop(c);
        assert_eq!(rt.metrics().budget_in_use_tuples, 0);
    }

    #[test]
    fn ticket_spill_dirs_are_unique_and_removed_on_drop() {
        let rt = EngineRuntime::new(1);
        let a = rt.admit(None);
        let b = rt.admit(None);
        let da = a.spill_dir(None).to_path_buf();
        let db = b.spill_dir(None).to_path_buf();
        assert_ne!(da, db, "concurrent tickets must not share a spill dir");
        assert_eq!(
            a.spill_dir(None),
            da.as_path(),
            "name is fixed on first call"
        );
        assert!(!da.exists(), "nothing touches disk until a run is written");
        std::fs::create_dir_all(&da).expect("create spill dir");
        std::fs::write(da.join("run-0.spill"), b"x").expect("write run");
        drop(a);
        assert!(!da.exists(), "ticket drop removes the spill dir");
        drop(b);
    }

    #[test]
    fn zero_budget_runtimes_normalize_instead_of_panicking() {
        // A budget that rounds to zero (e.g. a sub-tuple byte capacity)
        // must not violate clamp's precondition inside admit.
        let rt = EngineRuntime::with_config(RuntimeConfig {
            workers: 1,
            max_concurrent_queries: 1,
            memory_budget_tuples: Some(0),
        });
        let t = rt.admit(Some(10));
        assert_eq!(t.budget_tuples(), Some(1));
        drop(t);
        assert_eq!(rt.metrics().budget_in_use_tuples, 0);
    }

    #[test]
    fn ungated_requests_do_not_count_as_carved_budget() {
        let rt = EngineRuntime::with_config(RuntimeConfig {
            workers: 1,
            max_concurrent_queries: 2,
            memory_budget_tuples: None,
        });
        let t = rt.admit(Some(5000));
        // The request sizes the ticket's over-budget check but carves
        // nothing from a budget that does not exist.
        assert_eq!(t.budget_tuples(), Some(5000));
        assert_eq!(rt.metrics().budget_in_use_tuples, 0);
    }

    #[test]
    fn global_runtime_is_shared_and_sized_to_the_host() {
        let a = EngineRuntime::global();
        let b = EngineRuntime::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.workers() >= 2);
    }
}
