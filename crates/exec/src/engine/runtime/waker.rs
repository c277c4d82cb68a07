//! Wake handles: a task's [`Waker`], the [`WakeSet`] registry of tasks
//! parked on one lock-free condition, and the [`CancelToken`] built on it.
//!
//! This module decides the park/wake handshake of one task: when a
//! `Pending` poll may park its job, how a wake that lands during a poll is
//! latched, and how a waiter on a lock-free condition closes the
//! check-then-register race. It must not decide where a woken job runs or
//! when a worker sleeps: [`Waker::wake`] hands the job back to the pool,
//! whose scheduling policy picks the deque.

use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use super::{Job, PoolShared};

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
    /// The worker that last polled the job.
    last_worker: AtomicUsize,
    /// The parked job itself (plus when it parked, for `parked_time`).
    /// Invariant: `Some` whenever `state == WAKER_PARKED`; the slot is
    /// filled *before* the state CAS publishes `PARKED`.
    slot: Mutex<Option<(Job, Instant)>>,
    pool: Arc<PoolShared>,
}

/// The wake handle of one pool task. Clones are registered with blocking
/// resources; [`Waker::wake`] hands the parked job back to the pool, which
/// re-enqueues it and unparks a worker.
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
    pub(super) fn new(pool: Arc<PoolShared>) -> Self {
        Waker {
            inner: Arc::new(WakerInner {
                state: AtomicU8::new(WAKER_RUNNING),
                armed: AtomicBool::new(false),
                last_worker: AtomicUsize::new(0),
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

    pub(super) fn is_armed(&self) -> bool {
        self.inner.armed.load(Ordering::Relaxed)
    }

    /// The pool this task runs on.
    pub(super) fn pool(&self) -> &PoolShared {
        &self.inner.pool
    }

    /// The worker that last polled the task.
    pub(super) fn last_worker(&self) -> usize {
        self.inner.last_worker.load(Ordering::Relaxed)
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

    /// Wakes the task: a parked job goes back to the pool to be
    /// re-enqueued; a wake during a poll is latched so that poll's
    /// `Pending` reschedules instead of parking; a wake of an already-woken
    /// (or completed) task is a no-op. Returns whether a parked job was
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
                    let (job, since) = self.take_job();
                    let pool = &inner.pool;
                    pool.wakeups.fetch_add(1, Ordering::Relaxed);
                    pool.parked_nanos
                        .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    pool.woken(job);
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

    /// Resets per-poll state before the job's closure runs: record the
    /// polling worker, clear the armed flag, and consume a notification
    /// aimed at the *previous* poll (this poll will re-observe whatever
    /// that wake advertised).
    pub(super) fn begin_poll(&self, me: usize) {
        self.inner.last_worker.store(me, Ordering::Relaxed);
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
    pub(super) fn try_park(&self, job: Job) -> Result<(), Job> {
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
                Err(self.take_job().0)
            }
        }
    }

    /// Takes the job out of the slot, which holds it while `PARKED`.
    fn take_job(&self) -> (Job, Instant) {
        let mut slot = self.inner.slot.lock().expect("waker slot poisoned");
        slot.take().expect("parked waker without a stored job")
    }
}

/// A registry of parked waiters on one lock-free condition (a seal
/// countdown hitting zero, cancellation, quiescence). The embedded
/// *wake generation* closes the check-then-register race: read
/// [`WakeSet::generation`] **before** testing the condition, then hand it
/// to [`WakeSet::register`] — if any wake fired in between, registration
/// refuses and the caller re-polls instead of parking on a state change it
/// missed ([`WakeSet::park_unless`] is that dance for a condition with
/// nothing to claim in between). Resources guarded by their own mutex
/// (queues, exchanges) don't need the generation dance: they register
/// under the same lock as the failed try.
#[derive(Default)]
pub struct WakeSet {
    inner: Mutex<WakeSetInner>,
}

#[derive(Default)]
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

    /// Registers `waker` unless `done` holds, testing it between reading
    /// the generation and registering. `false` — do **not** park, re-poll
    /// instead — if `done` held or a wake raced the registration.
    pub fn park_unless(&self, waker: &Waker, done: impl FnOnce() -> bool) -> bool {
        let generation = self.generation();
        !done() && self.register(waker, generation)
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

/// The query's one failure latch: a cancellation flag that *wakes* its
/// waiters and carries the first reason it was failed with. Under
/// event-driven parking a plain `AtomicBool` cannot cancel a parked task —
/// nothing re-polls it — so every park site in the engine dual-registers
/// with the query's token: the resource wake delivers progress, the cancel
/// wake delivers the abort. A clone is the same token: the links' `'static`
/// I/O threads hold one, and a caller, a failed spill write or reload, or
/// a dead or corrupt wire all trip it.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Default)]
struct TokenInner {
    cancelled: AtomicBool,
    reason: Mutex<Option<String>>,
    wake: WakeSet,
}

impl CancelToken {
    pub fn new() -> Self {
        CancelToken::default()
    }

    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Raises the flag and wakes every task parked through
    /// [`CancelToken::park`]. Idempotent; callable from client threads.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
        self.inner.wake.wake_all();
    }

    /// Cancels with a reason; the first reason wins. The reason is stored
    /// before the flag, so whoever observes the cancel finds it.
    pub fn fail(&self, why: String) {
        // Every update leaves the slot valid, so a poisoned lock is taken
        // over rather than propagated into a failure path.
        let mut reason = self.inner.reason.lock().unwrap_or_else(|e| e.into_inner());
        reason.get_or_insert(why);
        drop(reason);
        self.cancel();
    }

    /// Why the token was failed; `None` while it stands or after a
    /// reasonless [`cancel`](Self::cancel).
    pub fn reason(&self) -> Option<String> {
        let reason = self.inner.reason.lock().unwrap_or_else(|e| e.into_inner());
        reason.clone()
    }

    /// Registers `waker` to be woken on cancellation. Returns `false` — do
    /// **not** park, re-poll instead — if the token is already cancelled
    /// (or a cancel raced the registration).
    pub fn park(&self, waker: &Waker) -> bool {
        self.inner.wake.park_unless(waker, || self.is_cancelled())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::thread;
    use std::time::Duration;

    use super::super::{EngineRuntime, Poll};
    use super::*;

    #[test]
    fn the_first_failure_reason_wins() {
        let token = CancelToken::new();
        assert_eq!(token.reason(), None);
        token.fail("boom".into());
        assert!(token.is_cancelled());
        token.fail("later".into());
        assert_eq!(token.clone().reason().as_deref(), Some("boom"));
    }

    #[test]
    fn a_reasonless_cancel_leaves_no_reason() {
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), None);
    }

    /// Every task parked on the token — through a clone, as a link's I/O
    /// thread holds one — is woken by a failure from a client thread.
    #[test]
    fn a_failure_wakes_every_parked_waker() {
        const TASKS: usize = 4;
        let rt = EngineRuntime::new(2);
        let token = CancelToken::new();
        let observed = AtomicUsize::new(0);
        rt.scope(|s| {
            for _ in 0..TASKS {
                let (token, observed) = (token.clone(), &observed);
                s.spawn(move |cx| {
                    if token.is_cancelled() {
                        observed.fetch_add(1, Ordering::Relaxed);
                        Poll::Ready
                    } else if token.park(cx.waker()) {
                        Poll::Pending
                    } else {
                        Poll::Yielded
                    }
                });
            }
            thread::sleep(Duration::from_millis(10));
            token.fail("wire cut".into());
        });
        assert_eq!(observed.into_inner(), TASKS);
        assert_eq!(token.reason().as_deref(), Some("wire cut"));
    }
}
