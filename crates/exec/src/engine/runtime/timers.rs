//! The pool's deadline heap and [`TaskCx::sleep`], its one sanctioned
//! timed wait.
//!
//! This module decides when an armed timer is due and wakes it; idle
//! workers bound their park by the earliest armed deadline, and every
//! worker fires due timers at the top of its loop — so a cadence task (the
//! coordinator) wakes on schedule even when every worker is parked, without
//! any worker busy-polling and without a timer thread. It must not decide
//! where a woken task runs or when a worker parks: a due timer is an
//! ordinary [`Waker::wake`](super::Waker::wake).

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::{TaskCx, Waker};

/// One armed [`TaskCx::sleep`] deadline (nanoseconds since the heap's
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

#[derive(Default)]
struct Timers {
    heap: BinaryHeap<TimerEntry>,
    seq: u64,
}

/// Sentinel for "no timer armed" in `TimerHeap::next_deadline`.
const NO_DEADLINE: u64 = u64::MAX;

/// The armed deadlines of one pool.
pub(super) struct TimerHeap {
    /// Armed deadlines (min-heap) …
    timers: Mutex<Timers>,
    /// … and the earliest of them, cached for lock-free checks
    /// ([`NO_DEADLINE`] when the heap is empty).
    next_deadline: AtomicU64,
    /// Zero point of the timer clock.
    epoch: Instant,
}

impl Default for TimerHeap {
    fn default() -> Self {
        TimerHeap {
            timers: Mutex::default(),
            next_deadline: AtomicU64::new(NO_DEADLINE),
            epoch: Instant::now(),
        }
    }
}

impl TimerHeap {
    fn nanos_since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Arms a one-shot wake of `waker` `after` from now.
    fn arm(&self, after: Duration, waker: Waker) {
        let deadline = self
            .nanos_since_epoch()
            .saturating_add(after.as_nanos().min(u64::MAX as u128) as u64);
        let mut timers = self.timers.lock().expect("timers poisoned");
        timers.seq += 1;
        let seq = timers.seq;
        timers.heap.push(TimerEntry {
            deadline,
            seq,
            waker,
        });
        // Published under the timers lock (`fire_due` recomputes under the
        // same lock), read lock-free by the hot path.
        if deadline < self.next_deadline.load(Ordering::Relaxed) {
            self.next_deadline.store(deadline, Ordering::Release);
        }
    }

    /// Pops and wakes every timer whose deadline has passed. Called by
    /// every worker at the top of its loop; the lock-free `next_deadline`
    /// check makes the no-timers-due case two atomic loads.
    pub(super) fn fire_due(&self) {
        let now = self.nanos_since_epoch();
        if self.next_deadline.load(Ordering::Acquire) > now {
            return;
        }
        let mut due = Vec::new();
        {
            let mut timers = self.timers.lock().expect("timers poisoned");
            while timers.heap.peek().is_some_and(|e| e.deadline <= now) {
                due.push(timers.heap.pop().expect("peeked entry"));
            }
            let next = timers.heap.peek().map_or(NO_DEADLINE, |e| e.deadline);
            self.next_deadline.store(next, Ordering::Release);
        }
        for entry in &due {
            entry.waker.wake();
        }
    }

    /// How long until the earliest armed timer is due (zero when one
    /// already is); `None` when no timer is armed.
    pub(super) fn until_next(&self) -> Option<Duration> {
        let next = self.next_deadline.load(Ordering::Acquire);
        (next != NO_DEADLINE)
            .then(|| Duration::from_nanos(next.saturating_sub(self.nanos_since_epoch())))
    }
}

impl TaskCx<'_> {
    /// Arms a one-shot timer `after` from now and marks the waker armed:
    /// return `Pending` and the task is woken when the deadline passes.
    /// This is the pool's only sanctioned timed wait — idle workers bound
    /// their park by the earliest armed deadline, so the wake needs no
    /// dedicated timer thread.
    pub fn sleep(&self, after: Duration) {
        let pool = self.waker.pool();
        pool.timers.arm(after, self.waker.clone());
        self.waker.arm();
        // Parked workers must re-derive their park timeout from the new
        // deadline.
        pool.rouse_all();
    }
}
