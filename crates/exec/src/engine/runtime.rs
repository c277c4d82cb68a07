//! The shared worker-pool runtime: one fixed-size team of OS threads,
//! created once and sized to the host, that multiplexes the mapper /
//! reducer / coordinator work of *many* concurrent operators and plans.
//!
//! Before this module existed every `run_operator` / `run_plan` call
//! spawned a dedicated thread team, so two concurrent queries oversubscribed
//! the host instead of sharing it. The runtime replaces per-query spawning
//! with per-query *task batches*:
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
//!   finished). [`TaskGroup`]s let the orchestrating (non-worker) thread
//!   wait for a subset — the engine waits for its mappers before deciding
//!   whether the seal chain broke — while the rest keep running.
//! * **Admission.** [`EngineRuntime::admit`] gates *queries* (not tasks):
//!   at most `max_concurrent_queries` tickets are outstanding, and when the
//!   runtime is built with a global memory budget each ticket carves a
//!   tuple budget out of it — the per-query [`MemGauge`] hangs off the
//!   ticket, so a query's peak is measured against the slice it was
//!   granted. Admission blocks the *client* thread, never a pool worker;
//!   calling it from inside a task would deadlock the pool and is the one
//!   usage rule this module imposes.
//!
//! Timers are the one legitimately *timed* wait left: [`TaskCx::sleep`]
//! arms an entry in a shared deadline heap, idle workers bound their park
//! by the earliest armed deadline, and every worker fires due timers at the
//! top of its loop — so a cadence task (the coordinator) wakes on schedule
//! even when every worker is parked, without any worker busy-polling.

use std::any::Any;
use std::collections::{BinaryHeap, VecDeque};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use super::morsel::MemGauge;
use super::pool::BatchPool;

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

// ---------------------------------------------------------------------------
// Wakers
// ---------------------------------------------------------------------------

/// Waker lifecycle states (`WakerInner::state`).
const WAKER_RUNNING: u8 = 0;
/// The job is stored in the waker's slot, off the deques, awaiting a wake.
const WAKER_PARKED: u8 = 1;
/// A wake arrived while the task was being polled; consume it by re-running
/// the task instead of parking it.
const WAKER_NOTIFIED: u8 = 2;

struct WakerInner {
    state: AtomicU8,
    /// Did the current poll register this waker with any resource? Cleared
    /// at poll start; set by [`Waker::arm`]. A `Pending` poll that never
    /// armed is rescheduled rather than parked (nothing would wake it).
    armed: AtomicBool,
    /// The worker that last polled the job — wakes re-enqueue there.
    home: AtomicUsize,
    /// The parked job itself (plus when it parked, for `parked_time`).
    /// Invariant: `Some` whenever `state == WAKER_PARKED`; the slot is
    /// filled *before* the state CAS publishes `PARKED`.
    slot: Mutex<Option<(Job, Instant)>>,
    pool: Arc<PoolShared>,
}

/// The wake handle of one pool task. Clones are registered with blocking
/// resources; [`Waker::wake`] re-enqueues the parked job on its home
/// worker's deque and unparks a worker through the injector condvar.
///
/// Wakes are idempotent and may come from pool workers or client threads
/// alike. A wake that lands *during* a poll is latched (`NOTIFIED`) and
/// converts that poll's `Pending` into an immediate reschedule, so a
/// transition can never slip between a failed `try_*` and the park.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker")
            .field("state", &self.inner.state.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Waker {
    fn new(pool: Arc<PoolShared>) -> Self {
        Waker {
            inner: Arc::new(WakerInner {
                state: AtomicU8::new(WAKER_RUNNING),
                armed: AtomicBool::new(false),
                home: AtomicUsize::new(0),
                slot: Mutex::new(None),
                pool,
            }),
        }
    }

    /// Marks that the current poll registered this waker somewhere, making
    /// a `Pending` return eligible for parking. Resource registries
    /// (queues, exchanges, [`WakeSet`]) call this for you.
    pub fn arm(&self) {
        self.inner.armed.store(true, Ordering::Relaxed);
    }

    fn is_armed(&self) -> bool {
        self.inner.armed.load(Ordering::Relaxed)
    }

    /// Do `self` and `other` wake the same task? (Registries dedupe on
    /// this, mirroring `std::task::Waker::will_wake`.)
    pub fn will_wake(&self, other: &Waker) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Registers this waker in a resource's waiter list (deduped per task)
    /// and arms it. Must be called under the resource's own mutex — that
    /// lock, shared with the failed `try_*`, is what closes the
    /// lost-wakeup window for mutex-guarded resources.
    pub fn register_in(&self, list: &mut Vec<Waker>) {
        if !list.iter().any(|w| w.will_wake(self)) {
            list.push(self.clone());
        }
        self.arm();
    }

    /// Wakes the task: a parked job is re-enqueued on its home worker's
    /// deque; a wake during a poll is latched so that poll's `Pending`
    /// reschedules instead of parking; a wake of an already-woken (or
    /// completed) task is a no-op. Returns whether a parked job was
    /// actually re-enqueued.
    pub fn wake(&self) -> bool {
        let inner = &self.inner;
        loop {
            match inner.state.compare_exchange(
                WAKER_PARKED,
                WAKER_RUNNING,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    let (job, since) = inner
                        .slot
                        .lock()
                        .expect("waker slot poisoned")
                        .take()
                        .expect("parked waker without a stored job");
                    let pool = &inner.pool;
                    pool.wakeups.fetch_add(1, Ordering::Relaxed);
                    pool.parked_nanos
                        .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    let home = inner.home.load(Ordering::Relaxed) % pool.deques.len();
                    enqueue_local(pool, home, job);
                    return true;
                }
                Err(state) if state == WAKER_RUNNING => {
                    if inner
                        .state
                        .compare_exchange(
                            WAKER_RUNNING,
                            WAKER_NOTIFIED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return false;
                    }
                    // Lost the race to a concurrent park or wake; re-read.
                }
                Err(_) => return false, // already NOTIFIED
            }
        }
    }

    /// Resets per-poll state before the job's closure runs: pin the home
    /// worker, clear the armed flag, and consume a notification aimed at
    /// the *previous* poll (this poll will re-observe whatever that wake
    /// advertised).
    fn begin_poll(&self, me: usize) {
        self.inner.home.store(me, Ordering::Relaxed);
        self.inner.armed.store(false, Ordering::Relaxed);
        let _ = self.inner.state.compare_exchange(
            WAKER_NOTIFIED,
            WAKER_RUNNING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Parks `job` in the waker's slot. Fails — handing the job back for an
    /// immediate reschedule — if a wake latched during the poll. The slot
    /// is filled before the state CAS so a concurrent [`Waker::wake`] that
    /// observes `PARKED` always finds the job.
    fn try_park(&self, job: Job) -> Result<(), Job> {
        let inner = &self.inner;
        *inner.slot.lock().expect("waker slot poisoned") = Some((job, Instant::now()));
        match inner.state.compare_exchange(
            WAKER_RUNNING,
            WAKER_PARKED,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(_) => {
                // NOTIFIED during the poll: the wake-worthy transition
                // already happened; take the job back and re-run it.
                inner.state.store(WAKER_RUNNING, Ordering::Release);
                let (job, _) = inner
                    .slot
                    .lock()
                    .expect("waker slot poisoned")
                    .take()
                    .expect("job stored just above");
                Err(job)
            }
        }
    }
}

/// A registry of parked waiters on one lock-free condition (a seal
/// countdown hitting zero, cancellation, quiescence). The embedded
/// *wake generation* closes the check-then-register race: read
/// [`WakeSet::generation`] **before** testing the condition, then hand it
/// to [`WakeSet::register`] — if any wake fired in between, registration
/// refuses and the caller re-polls instead of parking on a state change it
/// missed. Resources guarded by their own mutex (queues, exchanges) don't
/// need the generation dance: they register under the same lock as the
/// failed try.
pub struct WakeSet {
    inner: Mutex<WakeSetInner>,
}

struct WakeSetInner {
    generation: u64,
    waiters: Vec<Waker>,
}

impl WakeSet {
    pub const fn new() -> Self {
        WakeSet {
            inner: Mutex::new(WakeSetInner {
                generation: 0,
                waiters: Vec::new(),
            }),
        }
    }

    /// The current wake generation. Read it *before* checking the condition
    /// this set guards.
    pub fn generation(&self) -> u64 {
        self.inner.lock().expect("wake set poisoned").generation
    }

    /// Registers `waker` to be woken by the next [`WakeSet::wake_all`],
    /// unless the generation moved since `generation` was read — then no
    /// registration happens and `false` is returned: the condition may have
    /// transitioned, re-poll instead of parking. Duplicate registrations of
    /// the same task are coalesced.
    pub fn register(&self, waker: &Waker, generation: u64) -> bool {
        let mut inner = self.inner.lock().expect("wake set poisoned");
        if inner.generation != generation {
            return false;
        }
        if !inner.waiters.iter().any(|w| w.will_wake(waker)) {
            inner.waiters.push(waker.clone());
        }
        drop(inner);
        waker.arm();
        true
    }

    /// Advances the generation and wakes every registered waiter. Safe from
    /// any thread; waiters that already completed ignore the wake.
    pub fn wake_all(&self) {
        let waiters = {
            let mut inner = self.inner.lock().expect("wake set poisoned");
            inner.generation += 1;
            std::mem::take(&mut inner.waiters)
        };
        for w in &waiters {
            w.wake();
        }
    }
}

impl Default for WakeSet {
    fn default() -> Self {
        WakeSet::new()
    }
}

/// A cancellation flag that *wakes* its waiters. Under event-driven
/// parking a plain `AtomicBool` cannot cancel a parked task — nothing
/// re-polls it — so every park site in the engine dual-registers with the
/// query's `CancelToken`: the resource wake delivers progress, the cancel
/// wake delivers the abort.
#[derive(Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    wake: WakeSet,
}

impl CancelToken {
    pub const fn new() -> Self {
        CancelToken {
            cancelled: AtomicBool::new(false),
            wake: WakeSet::new(),
        }
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Raises the flag and wakes every task parked through
    /// [`CancelToken::park`]. Idempotent; callable from client threads.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        self.wake.wake_all();
    }

    /// Registers `waker` to be woken on cancellation. Returns `false` — do
    /// **not** park, re-poll instead — if the token is already cancelled
    /// (or a cancel raced the registration).
    pub fn park(&self, waker: &Waker) -> bool {
        let generation = self.wake.generation();
        if self.is_cancelled() {
            return false;
        }
        self.wake.register(waker, generation)
    }
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

/// One armed [`TaskCx::sleep`] deadline (nanoseconds since the pool's
/// epoch). Ordered for a min-heap on (deadline, seq).
struct TimerEntry {
    deadline: u64,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline
        // on top.
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Timers {
    heap: BinaryHeap<TimerEntry>,
    seq: u64,
}

/// Sentinel for "no timer armed" in `PoolShared::next_deadline`.
const NO_DEADLINE: u64 = u64::MAX;

/// The per-poll context handed to every task closure: its [`Waker`] (to
/// register with blocking resources), the pool's timer wheel, and the
/// polling worker's batch-recycling pool.
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

    /// Arms a one-shot timer `after` from now and marks the waker armed:
    /// return `Pending` and the task is woken when the deadline passes.
    /// This is the pool's only sanctioned timed wait — idle workers bound
    /// their park by the earliest armed deadline, so the wake needs no
    /// dedicated timer thread.
    pub fn sleep(&self, after: Duration) {
        let pool = &self.waker.inner.pool;
        let deadline = pool
            .nanos_since_epoch()
            .saturating_add(after.as_nanos().min(u64::MAX as u128) as u64);
        {
            let mut timers = pool.timers.lock().expect("timers poisoned");
            timers.seq += 1;
            let seq = timers.seq;
            timers.heap.push(TimerEntry {
                deadline,
                seq,
                waker: self.waker.clone(),
            });
            // Published under the timers lock (fire_due_timers recomputes
            // under the same lock), read lock-free by the hot path.
            if deadline < pool.next_deadline.load(Ordering::Relaxed) {
                pool.next_deadline.store(deadline, Ordering::Release);
            }
        }
        self.waker.arm();
        // Parked workers must re-derive their park timeout from the new
        // deadline; the injector lock orders this against their
        // runnable-check-then-wait.
        drop(pool.injector.lock().expect("injector poisoned"));
        pool.work_cv.notify_all();
    }
}

/// Pops and wakes every timer whose deadline has passed. Called by every
/// worker at the top of its loop; the lock-free `next_deadline` check makes
/// the no-timers-due case two atomic loads.
fn fire_due_timers(shared: &PoolShared) {
    let now = shared.nanos_since_epoch();
    if shared.next_deadline.load(Ordering::Acquire) > now {
        return;
    }
    let mut due = Vec::new();
    {
        let mut timers = shared.timers.lock().expect("timers poisoned");
        while timers.heap.peek().is_some_and(|e| e.deadline <= now) {
            due.push(timers.heap.pop().expect("peeked entry"));
        }
        let next = timers.heap.peek().map_or(NO_DEADLINE, |e| e.deadline);
        shared.next_deadline.store(next, Ordering::Release);
    }
    for entry in &due {
        entry.waker.wake();
    }
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

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
/// hooks of the scope (and optional group) that spawned it, and its
/// [`Waker`].
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
    scope: Arc<ScopeSync>,
    group: Option<Arc<GroupSync>>,
    waker: Waker,
}

struct ScopeSync {
    state: Mutex<ScopeState>,
    cv: Condvar,
}

struct ScopeState {
    outstanding: usize,
    /// First panic payload from any task of this scope.
    panic: Option<Box<dyn Any + Send>>,
}

impl ScopeSync {
    fn new() -> Self {
        ScopeSync {
            state: Mutex::new(ScopeState {
                outstanding: 0,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn register(&self) {
        self.state.lock().expect("scope poisoned").outstanding += 1;
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut st = self.state.lock().expect("scope poisoned");
        st.outstanding -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        if st.outstanding == 0 {
            self.cv.notify_all();
        }
    }

    fn wait_all(&self) -> Option<Box<dyn Any + Send>> {
        let mut st = self.state.lock().expect("scope poisoned");
        while st.outstanding > 0 {
            st = self.cv.wait(st).expect("scope poisoned");
        }
        st.panic.take()
    }
}

struct GroupSync {
    outstanding: Mutex<usize>,
    cv: Condvar,
}

/// A handle over a subset of a scope's tasks, so the orchestrating thread
/// can wait for just that subset (the engine waits for its mappers while
/// reducers and the coordinator keep running). Waiting from *inside* a
/// pool task would deadlock the pool; only the scope's caller thread may
/// wait.
pub struct TaskGroup {
    sync: Arc<GroupSync>,
}

impl TaskGroup {
    /// Blocks the calling (non-worker) thread until every task spawned
    /// into this group has completed.
    pub fn wait(&self) {
        let mut n = self.sync.outstanding.lock().expect("group poisoned");
        while *n > 0 {
            n = self.sync.cv.wait(n).expect("group poisoned");
        }
    }
}

struct Admission {
    active: usize,
    budget_in_use: u64,
}

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
    /// Armed [`TaskCx::sleep`] deadlines (min-heap) …
    timers: Mutex<Timers>,
    /// … and the earliest of them, cached for lock-free checks
    /// ([`NO_DEADLINE`] when the heap is empty). Idle workers bound their
    /// park by this.
    next_deadline: AtomicU64,
    /// Zero point of the timer clock.
    epoch: Instant,
    // Counters (all relaxed: they are metrics, never synchronization).
    tasks_spawned: AtomicU64,
    tasks_completed: AtomicU64,
    tasks_stolen: AtomicU64,
    polls: AtomicU64,
    spurious_polls: AtomicU64,
    wakeups: AtomicU64,
    parked_nanos: AtomicU64,
    busy_nanos: AtomicU64,
    admissions: AtomicU64,
    admission_wait_nanos: AtomicU64,
    admission: Mutex<Admission>,
    admission_cv: Condvar,
}

impl PoolShared {
    fn nanos_since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

/// Enqueues a runnable job on worker `to`'s deque and unparks a worker.
/// The empty acquire/release of the injector lock before the notify is the
/// lost-wakeup fence: a parker holds that lock from its runnable-count
/// check through its condvar wait, so either it sees the bumped count or
/// the notification reaches its wait.
fn enqueue_local(pool: &PoolShared, to: usize, job: Job) {
    pool.runnable.fetch_add(1, Ordering::Relaxed);
    pool.deques[to]
        .lock()
        .expect("deque poisoned")
        .push_back(job);
    drop(pool.injector.lock().expect("injector poisoned"));
    pool.work_cv.notify_one();
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
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            runnable: AtomicUsize::new(0),
            timers: Mutex::new(Timers {
                heap: BinaryHeap::new(),
                seq: 0,
            }),
            next_deadline: AtomicU64::new(NO_DEADLINE),
            epoch: Instant::now(),
            tasks_spawned: AtomicU64::new(0),
            tasks_completed: AtomicU64::new(0),
            tasks_stolen: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            spurious_polls: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            parked_nanos: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            admissions: AtomicU64::new(0),
            admission_wait_nanos: AtomicU64::new(0),
            admission: Mutex::new(Admission {
                active: 0,
                budget_in_use: 0,
            }),
            admission_cv: Condvar::new(),
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
        let adm = sh.admission.lock().expect("admission poisoned");
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
            admissions: sh.admissions.load(Ordering::Relaxed),
            admission_wait_secs: sh.admission_wait_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            active_queries: adm.active,
            budget_in_use_tuples: adm.budget_in_use,
        }
    }

    /// Admits one query, blocking the *client* thread until an admission
    /// slot — and, under a global memory budget, enough unreserved budget —
    /// is available. `requested_tuples` is the query's own estimate (e.g.
    /// its configured memory capacity); with a global budget and no
    /// request, the query gets an equal `total / max_concurrent` slice. A
    /// request larger than the whole budget is clamped to it rather than
    /// rejected, and waits for the pool to drain.
    ///
    /// Must never be called from inside a pool task: it would park the
    /// worker the unblocking query needs.
    pub fn admit(&self, requested_tuples: Option<u64>) -> QueryTicket<'_> {
        let start = Instant::now();
        let sh = &self.shared;
        let max_q = self.cfg.max_concurrent_queries.max(1);
        let total = self.cfg.memory_budget_tuples;
        let budget = match total {
            Some(total) => Some(match requested_tuples {
                Some(r) => r.clamp(1, total),
                None => (total / max_q as u64).max(1),
            }),
            None => requested_tuples,
        };
        // Only a budget-gated runtime carves anything: a bare request on an
        // un-budgeted runtime is advisory (it sizes the ticket's
        // over-budget check) and must not show up as budget "in use".
        let carved = if total.is_some() {
            budget.unwrap_or(0)
        } else {
            0
        };
        let mut adm = sh.admission.lock().expect("admission poisoned");
        // Budget gating only defers while someone else holds budget to
        // return — an empty pool always admits, so one oversized query
        // can never wedge the queue.
        while adm.active >= max_q
            || total.is_some_and(|t| adm.active > 0 && adm.budget_in_use + carved > t)
        {
            adm = sh.admission_cv.wait(adm).expect("admission poisoned");
        }
        adm.active += 1;
        adm.budget_in_use += carved;
        drop(adm);
        let wait = start.elapsed();
        sh.admissions.fetch_add(1, Ordering::Relaxed);
        sh.admission_wait_nanos
            .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        QueryTicket {
            rt: self,
            budget_tuples: budget,
            carved,
            gauge: MemGauge::default(),
            wait,
            spill_dir: OnceLock::new(),
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
            sync: Arc::new(ScopeSync::new()),
            _env: PhantomData,
            _scope: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        let task_panic = scope.sync.wait_all();
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

    fn inject(&self, job: Job) {
        let sh = &self.shared;
        sh.tasks_spawned.fetch_add(1, Ordering::Relaxed);
        sh.runnable.fetch_add(1, Ordering::Relaxed);
        sh.injector
            .lock()
            .expect("injector poisoned")
            .push_back(job);
        sh.work_cv.notify_one();
    }
}

impl Drop for EngineRuntime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Workers park indefinitely now: the store must be ordered against
        // their check-then-wait, which holds the injector lock.
        drop(self.shared.injector.lock().expect("injector poisoned"));
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// An admitted query's handle: its carved memory budget and the per-query
/// [`MemGauge`] the engine charges. Dropping the ticket releases the
/// admission slot and returns the budget to the runtime.
pub struct QueryTicket<'rt> {
    rt: &'rt EngineRuntime,
    budget_tuples: Option<u64>,
    /// Tuples actually reserved against the runtime's global budget
    /// (0 on an un-budgeted runtime, where requests are advisory).
    carved: u64,
    gauge: MemGauge,
    wait: Duration,
    /// Lazily named per-query spill directory; removed wholesale when the
    /// ticket drops (success, cancel and panic paths alike), so spilled
    /// runs can never outlive their query.
    spill_dir: OnceLock<PathBuf>,
}

impl QueryTicket<'_> {
    /// The per-query gauge; pass it to the engine so this query's peak is
    /// measured against its own budget slice.
    pub fn gauge(&self) -> &MemGauge {
        &self.gauge
    }

    /// Tuple budget carved for this query (`None`: admission was not
    /// budget-gated and the query made no request).
    pub fn budget_tuples(&self) -> Option<u64> {
        self.budget_tuples
    }

    /// How long this query sat in the admission queue.
    pub fn admission_wait_secs(&self) -> f64 {
        self.wait.as_secs_f64()
    }

    /// Did the query's realized peak exceed its carved budget?
    pub fn over_budget(&self) -> bool {
        self.budget_tuples
            .map(|b| self.gauge.peak_tuples() > b)
            .unwrap_or(false)
    }

    /// This query's private spill directory, a uniquely named child of
    /// `base` (the system temp dir when `None`). The name is fixed on
    /// first call; nothing is created on disk here — the engine's spill
    /// writer makes the directory on the first actual spill — but whatever
    /// ends up inside is removed when the ticket drops.
    pub fn spill_dir(&self, base: Option<&Path>) -> &Path {
        self.spill_dir.get_or_init(|| {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            // A pid alone is not unique across time: a worker process that
            // fork-spawns after a sibling died can recycle its pid while
            // the dead sibling's spill directory still exists (or worse,
            // while a survivor still reads from it). The startup nonce —
            // wall-clock nanos mixed with ASLR entropy, fixed once per
            // process — keeps directory names distinct across pid reuse.
            static NONCE: OnceLock<u64> = OnceLock::new();
            let nonce = *NONCE.get_or_init(|| {
                let clock = std::time::SystemTime::now()
                    .duration_since(std::time::SystemTime::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0);
                let aslr = &NONCE as *const _ as u64;
                clock ^ aslr.rotate_left(32)
            });
            let base = base
                .map(Path::to_path_buf)
                .unwrap_or_else(std::env::temp_dir);
            base.join(format!(
                "ewh-spill-{}-{:016x}-{}",
                std::process::id(),
                nonce,
                SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        })
    }
}

impl Drop for QueryTicket<'_> {
    fn drop(&mut self) {
        // Tmpfile hygiene: the spill directory (if any run was ever
        // written) dies with the ticket, on every exit path.
        if let Some(dir) = self.spill_dir.get() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let sh = &self.rt.shared;
        let mut adm = sh.admission.lock().expect("admission poisoned");
        adm.active -= 1;
        adm.budget_in_use -= self.carved;
        drop(adm);
        sh.admission_cv.notify_all();
    }
}

/// Scoped task submission handle (see [`EngineRuntime::scope`]). The two
/// lifetimes mirror `std::thread::Scope`: `'scope` is the scope's own
/// region, `'env` the environment tasks may borrow from.
pub struct RuntimeScope<'scope, 'env: 'scope> {
    rt: &'scope EngineRuntime,
    sync: Arc<ScopeSync>,
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
        self.spawn_impl(None, f);
    }

    /// A new (empty) task group for [`RuntimeScope::spawn_in`].
    pub fn group(&self) -> TaskGroup {
        TaskGroup {
            sync: Arc::new(GroupSync {
                outstanding: Mutex::new(0),
                cv: Condvar::new(),
            }),
        }
    }

    /// Spawns a task whose completion also counts toward `group`.
    pub fn spawn_in<F>(&self, group: &TaskGroup, f: F)
    where
        F: FnMut(&TaskCx<'_>) -> Poll + Send + 'env,
    {
        self.spawn_impl(Some(Arc::clone(&group.sync)), f);
    }

    fn spawn_impl<F>(&self, group: Option<Arc<GroupSync>>, f: F)
    where
        F: FnMut(&TaskCx<'_>) -> Poll + Send + 'env,
    {
        let boxed: Box<dyn FnMut(&TaskCx<'_>) -> Poll + Send + 'env> = Box::new(f);
        // SAFETY: the closure only ever runs — and is dropped — before
        // `scope` returns (ScopeSync::wait_all), so its `'env` borrows are
        // live for every use. See the `Job` docs.
        let boxed: Box<dyn FnMut(&TaskCx<'_>) -> Poll + Send + 'static> =
            unsafe { std::mem::transmute(boxed) };
        self.sync.register();
        if let Some(g) = &group {
            *g.outstanding.lock().expect("group poisoned") += 1;
        }
        self.rt.inject(Job {
            run: boxed,
            scope: Arc::clone(&self.sync),
            group,
            waker: Waker::new(Arc::clone(&self.rt.shared)),
        });
    }
}

fn complete_job(shared: &PoolShared, job: Job, panic: Option<Box<dyn Any + Send>>) {
    let Job {
        run, scope, group, ..
    } = job;
    // Drop the task closure *before* signalling: the moment the scope's
    // counter hits zero the borrowed stack frame may unwind.
    drop(run);
    if let Some(g) = group {
        let mut n = g.outstanding.lock().expect("group poisoned");
        *n -= 1;
        if *n == 0 {
            g.cv.notify_all();
        }
    }
    shared.tasks_completed.fetch_add(1, Ordering::Relaxed);
    scope.complete(panic);
}

/// Picks the next job for worker `me`: own deque first (locality), then
/// the injector (fresh work), then a sweep over sibling deques (stealing).
fn next_job(shared: &PoolShared, me: usize) -> Option<Job> {
    if let Some(job) = shared.deques[me]
        .lock()
        .expect("deque poisoned")
        .pop_front()
    {
        shared.runnable.fetch_sub(1, Ordering::Relaxed);
        return Some(job);
    }
    steal_job(shared, me)
}

/// Fresh or stealable work from anywhere but `me`'s own deque.
fn steal_job(shared: &PoolShared, me: usize) -> Option<Job> {
    if let Some(job) = shared
        .injector
        .lock()
        .expect("injector poisoned")
        .pop_front()
    {
        shared.runnable.fetch_sub(1, Ordering::Relaxed);
        return Some(job);
    }
    let n = shared.deques.len();
    for off in 1..n {
        let victim = (me + off) % n;
        if let Some(job) = shared.deques[victim]
            .lock()
            .expect("deque poisoned")
            .pop_back()
        {
            shared.runnable.fetch_sub(1, Ordering::Relaxed);
            shared.tasks_stolen.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
    }
    None
}

fn worker_loop(shared: &Arc<PoolShared>, me: usize) {
    // This worker's batch-recycling stash; every task polled here shares
    // it through the `TaskCx`, so buffers circulate across the tasks that
    // happen to land on this worker.
    let pool = BatchPool::new();
    loop {
        fire_due_timers(shared);
        let Some(mut job) = next_job(shared, me) else {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let guard = shared.injector.lock().expect("injector poisoned");
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Every enqueue bumps `runnable` *before* acquiring this lock
            // to notify, so a zero read here means any job that appears
            // later comes with a notification we cannot miss.
            if shared.runnable.load(Ordering::Acquire) == 0 {
                let next = shared.next_deadline.load(Ordering::Acquire);
                if next == NO_DEADLINE {
                    // Nothing runnable, no timer armed: park until an
                    // enqueue (wake, spawn, requeue) or an arming sleep
                    // notifies.
                    drop(shared.work_cv.wait(guard).expect("injector poisoned"));
                } else {
                    let now = shared.nanos_since_epoch();
                    if next > now {
                        let _ = shared
                            .work_cv
                            .wait_timeout(guard, Duration::from_nanos(next - now))
                            .expect("injector poisoned");
                    }
                    // else: a timer is already due — loop and fire it.
                }
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
            Ok(Poll::Yielded) => enqueue_local(shared, me, job),
            Ok(Poll::Pending) => {
                shared.spurious_polls.fetch_add(1, Ordering::Relaxed);
                if waker.is_armed() {
                    if let Err(job) = waker.try_park(job) {
                        // A wake latched mid-poll: the awaited transition
                        // already happened, so run again instead.
                        enqueue_local(shared, me, job);
                    }
                } else {
                    // Pending without any registration: nothing would ever
                    // wake it, so fall back to rescheduling. Correct but
                    // poll-driven — engine tasks always register.
                    enqueue_local(shared, me, job);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
    fn groups_complete_independently_of_the_scope() {
        let rt = EngineRuntime::new(2);
        let stop = AtomicBool::new(false);
        let wake = WakeSet::new();
        rt.scope(|s| {
            // A long-runner that parks until told to exit.
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
            let group = s.group();
            for _ in 0..4 {
                s.spawn_in(&group, |_| Poll::Ready);
            }
            group.wait(); // must return while the long-runner is parked
            stop.store(true, Ordering::Release);
            wake.wake_all();
        });
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
        c.gauge().add(1500);
        assert!(c.over_budget());
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
