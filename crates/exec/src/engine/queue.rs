//! Bounded MPMC-safe delivery queues: the engine's stand-in for a network
//! channel between mapper and reducer tasks.
//!
//! Each reducer owns one queue; mappers push per-region tuple batches into
//! the queue of the reducer owning the target region (resolved through the
//! shared [`ewh_core::RoutingTable`] at push time). The queue is bounded
//! (in tuples), so a reducer that falls behind exerts *backpressure*: the
//! pushing mapper task parks (yielding its pool worker — see
//! [`BoundedQueue::try_push`]), and the blocked time is accounted so runs
//! can report where the pipeline stalled. Control traffic — seals,
//! migration handshakes, finish/abort — bypasses the bound via
//! [`BoundedQueue::push_unbounded`], so coordination can never deadlock
//! behind a full queue.
//!
//! Engine tasks run on the shared worker-pool runtime and therefore use
//! the waker-registering [`BoundedQueue::try_push_or_park`] /
//! [`BoundedQueue::try_pop_or_park`] pair — a task that cannot make
//! progress registers its [`Waker`] and returns
//! [`Poll::Pending`](super::runtime::Poll) instead of parking an OS
//! thread or being blindly re-polled. Registration happens under the same
//! mutex as the failed try, so a transition racing the registration can
//! never be lost: whoever frees capacity (a pop) or delivers data (a push)
//! drains the matching waiter list and wakes every parked task. The
//! blocking [`BoundedQueue::push`] / [`BoundedQueue::pop`] remain for
//! client threads and tests — their pushes and pops wake parked tasks the
//! same way.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use ewh_core::{ColumnBatch, Rel};

use super::runtime::Waker;
use super::spill::SpillRun;

/// One message on a reducer's queue.
#[derive(Debug)]
pub enum Delivery {
    /// Tuples of one relation routed to one region.
    Batch(RegionBatch),
    /// Every `R1` tuple of every morsel has been enqueued (broadcast by the
    /// mapper that routes the last `R1` morsel). Regions may sort their
    /// `R1` runs into the build side and start sweeping probe chunks.
    SealR1,
    /// Every tuple of both relations has been enqueued; flush buffered probe
    /// chunks. The reducer keeps draining until [`Delivery::Finish`],
    /// because migrated state and fenced-off fragments may still arrive.
    SealAll,
    /// Coordinator → current region owner: pack the region's state and ship
    /// it to the routing table's (already updated) new owner.
    Migrate { region: u32 },
    /// Old owner → new owner: the packed state of a migrated region.
    Adopt {
        region: u32,
        state: Box<MigratedRegion>,
    },
    /// Coordinator → every reducer: the run is quiescent (mappers done, no
    /// data or migration state in flight) — flush, report, exit.
    Finish,
    /// The run was cancelled: discard all region state and exit.
    Abort,
}

/// A routed fragment: the tuples of one relation that one morsel sent to one
/// region.
#[derive(Debug)]
pub struct RegionBatch {
    pub region: u32,
    pub rel: Rel,
    /// Routing epoch observed when the owning reducer was resolved — the
    /// engine's per-region migration fence (see `reducer.rs`).
    pub epoch: u64,
    /// The fragment's tuples, in columnar layout end to end: gathered from
    /// the morsel's columns by the mapper, sorted and swept column-wise by
    /// the reducer.
    pub tuples: ColumnBatch,
}

/// The shipped state of one migrated region: the sealed, sorted build side,
/// any probe tuples buffered below a chunk, and the region's running
/// tallies. Produced by the old owner on [`Delivery::Migrate`], installed by
/// the new owner on [`Delivery::Adopt`].
#[derive(Debug, Default)]
pub struct MigratedRegion {
    pub build: ColumnBatch,
    pub pending: ColumnBatch,
    /// Descriptors of the region's spilled build runs: the records stay
    /// where they are (the per-query spill segment is shared by every
    /// reducer of the query, so offsets stay valid across owners).
    pub spilled_build: Vec<SpillRun>,
    /// Descriptors of the region's spilled pre-seal probe runs.
    pub spilled_pending: Vec<SpillRun>,
    pub sealed: bool,
    pub input: u64,
    pub output: u64,
    pub checksum: u64,
}

impl MigratedRegion {
    /// Resident tuples shipped with this message. Spilled runs are
    /// descriptors only — they occupy disk, not queue memory, so they are
    /// deliberately excluded from both the queue weight and the engine's
    /// `in_flight` accounting.
    pub fn tuples(&self) -> u64 {
        (self.build.len() + self.pending.len()) as u64
    }
}

/// A bounded FIFO of [`Delivery`] messages. Multiple producers (mappers),
/// one logical consumer (the owning reducer). The bound is in *tuples*, the
/// unit that actually occupies memory — bounding in batches would let many
/// small-region batches pile up unchecked.
pub struct BoundedQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity_tuples: usize,
    /// Nanoseconds producers spent blocked on a full queue (backpressure).
    blocked_nanos: AtomicU64,
}

struct Inner {
    queue: VecDeque<Delivery>,
    /// Tuples currently enqueued.
    used: usize,
    /// Tasks parked on an empty queue (the owning reducer); woken by any
    /// push. Registered under this mutex, so a push can never slip between
    /// a failed pop and the registration.
    consumer_waiters: Vec<Waker>,
    /// Tasks parked on a full queue (pushing mappers); woken by any pop.
    producer_waiters: Vec<Waker>,
}

fn weight(item: &Delivery) -> usize {
    match item {
        // An empty batch still occupies a queue slot's worth of space.
        Delivery::Batch(b) => b.tuples.len().max(1),
        // Shipped migration state is real resident memory in the queue.
        Delivery::Adopt { state, .. } => state.tuples() as usize,
        _ => 0,
    }
}

/// The backpressure weight of one delivery — exposed so the transport
/// layer's credit gate charges exactly what the in-process queue would.
pub(crate) fn delivery_weight(item: &Delivery) -> usize {
    weight(item)
}

impl BoundedQueue {
    pub fn new(capacity_tuples: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                used: 0,
                consumer_waiters: Vec::new(),
                producer_waiters: Vec::new(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity_tuples: capacity_tuples.max(1),
            blocked_nanos: AtomicU64::new(0),
        }
    }

    /// Blocking push; waits while the queue is at capacity. A batch larger
    /// than the whole capacity is admitted once the queue is empty (it could
    /// never fit otherwise), and zero-weight control messages bypass the
    /// bound entirely so late coordination can never deadlock behind a full
    /// queue.
    pub fn push(&self, item: Delivery) {
        let w = weight(&item);
        let mut inner = self.inner.lock().expect("queue poisoned");
        if w > 0 && inner.used > 0 && inner.used + w > self.capacity_tuples {
            let start = Instant::now();
            while inner.used > 0 && inner.used + w > self.capacity_tuples {
                inner = self.not_full.wait(inner).expect("queue poisoned");
            }
            self.blocked_nanos
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        inner.used += w;
        inner.queue.push_back(item);
        let waiters = std::mem::take(&mut inner.consumer_waiters);
        drop(inner);
        self.not_empty.notify_one();
        for w in &waiters {
            w.wake();
        }
    }

    /// Non-blocking bounded push: enqueues and returns `Ok(())`, or hands
    /// the item back when the queue is at capacity so the caller can park
    /// itself (a pool task returns `Pending` and retries next poll). The
    /// admission rules match [`BoundedQueue::push`]: an oversized batch is
    /// admitted once the queue is empty, and zero-weight control messages
    /// always pass.
    pub fn try_push(&self, item: Delivery) -> Result<(), Delivery> {
        self.try_push_impl(item, None)
    }

    /// [`try_push`](Self::try_push) that, on a full queue, registers
    /// `waker` to be woken by the next pop — under the same lock as the
    /// failed attempt, so the freeing pop can never race past
    /// unobserved. `Err` means "parked: return `Pending`" (after also
    /// registering with the query's cancel token).
    pub fn try_push_or_park(&self, item: Delivery, waker: &Waker) -> Result<(), Delivery> {
        self.try_push_impl(item, Some(waker))
    }

    fn try_push_impl(&self, item: Delivery, park: Option<&Waker>) -> Result<(), Delivery> {
        let w = weight(&item);
        let mut inner = self.inner.lock().expect("queue poisoned");
        if w > 0 && inner.used > 0 && inner.used + w > self.capacity_tuples {
            if let Some(waker) = park {
                waker.register_in(&mut inner.producer_waiters);
            }
            return Err(item);
        }
        inner.used += w;
        inner.queue.push_back(item);
        let waiters = std::mem::take(&mut inner.consumer_waiters);
        drop(inner);
        self.not_empty.notify_one();
        for w in &waiters {
            w.wake();
        }
        Ok(())
    }

    /// Non-blocking pop: `None` when the queue is momentarily empty (the
    /// consuming task parks itself; termination is still driven by the
    /// control messages described on [`BoundedQueue::pop`]).
    pub fn try_pop(&self) -> Option<Delivery> {
        self.try_pop_impl(None)
    }

    /// [`try_pop`](Self::try_pop) that, on an empty queue, registers
    /// `waker` to be woken by the next push (bounded, unbounded or
    /// blocking alike). `None` means "parked: return `Pending`".
    pub fn try_pop_or_park(&self, waker: &Waker) -> Option<Delivery> {
        self.try_pop_impl(Some(waker))
    }

    fn try_pop_impl(&self, park: Option<&Waker>) -> Option<Delivery> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let Some(item) = inner.queue.pop_front() else {
            if let Some(waker) = park {
                waker.register_in(&mut inner.consumer_waiters);
            }
            return None;
        };
        inner.used -= weight(&item);
        // Freed capacity can unblock every parked producer whose batch now
        // fits — wake them all; those still blocked re-register.
        let waiters = std::mem::take(&mut inner.producer_waiters);
        drop(inner);
        self.not_full.notify_all();
        for w in &waiters {
            w.wake();
        }
        Some(item)
    }

    /// Charges producer-side blocked time observed *outside* the queue —
    /// a mapper task that parked on a full [`try_push`](Self::try_push)
    /// reports the stall here once it unblocks, keeping
    /// [`blocked_secs`](Self::blocked_secs) meaningful under cooperative
    /// scheduling.
    pub fn note_blocked(&self, nanos: u64) {
        self.blocked_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Non-blocking push that ignores the capacity bound (weight is still
    /// accounted). Used for reducer → reducer traffic — forwarded fragments
    /// and migration handshakes — where a blocking push could form a cycle
    /// of reducers waiting on each other's full queues.
    pub fn push_unbounded(&self, item: Delivery) {
        let w = weight(&item);
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.used += w;
        inner.queue.push_back(item);
        let waiters = std::mem::take(&mut inner.consumer_waiters);
        drop(inner);
        self.not_empty.notify_one();
        for w in &waiters {
            w.wake();
        }
    }

    /// Blocking pop. Termination is driven by [`Delivery::Finish`] /
    /// [`Delivery::SealAll`] / [`Delivery::Abort`] messages, which the
    /// orchestration layer guarantees to deliver.
    pub fn pop(&self) -> Delivery {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.queue.pop_front() {
                inner.used -= weight(&item);
                let waiters = std::mem::take(&mut inner.producer_waiters);
                drop(inner);
                self.not_full.notify_all();
                for w in &waiters {
                    w.wake();
                }
                return item;
            }
            inner = self.not_empty.wait(inner).expect("queue poisoned");
        }
    }

    /// Tuples currently enqueued — the queue-depth heartbeat the migration
    /// coordinator reads when hunting for stragglers.
    pub fn used_tuples(&self) -> usize {
        self.inner.lock().expect("queue poisoned").used
    }

    /// Total time producers spent blocked on this queue.
    pub fn blocked_secs(&self) -> f64 {
        self.blocked_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// A columnar batch of `n` identical tuples.
    fn cols(n: usize) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(n);
        for _ in 0..n {
            b.push(1, 2);
        }
        b
    }

    #[test]
    fn fifo_order_and_backpressure() {
        let q = Arc::new(BoundedQueue::new(2));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..50u32 {
                    q.push(Delivery::Batch(RegionBatch {
                        region: i,
                        rel: Rel::R1,
                        epoch: 0,
                        tuples: ColumnBatch::new(),
                    }));
                }
                q.push(Delivery::SealAll);
            })
        };
        let mut next = 0u32;
        loop {
            match q.pop() {
                Delivery::Batch(b) => {
                    assert_eq!(b.region, next, "FIFO violated");
                    next += 1;
                }
                Delivery::SealAll => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(next, 50);
        producer.join().unwrap();
        // With capacity 2 and a fast producer, some blocking is all but
        // guaranteed; the accounting must at least be non-negative and
        // finite.
        assert!(q.blocked_secs() >= 0.0 && q.blocked_secs().is_finite());
    }

    #[test]
    fn control_messages_bypass_the_bound() {
        let q = BoundedQueue::new(1);
        q.push(Delivery::Batch(RegionBatch {
            region: 0,
            rel: Rel::R2,
            epoch: 0,
            tuples: ColumnBatch::new(),
        }));
        // A second data push would block; a seal must not.
        q.push(Delivery::SealAll);
        assert!(matches!(q.pop(), Delivery::Batch(_)));
        assert!(matches!(q.pop(), Delivery::SealAll));
    }

    #[test]
    fn unbounded_push_skips_backpressure_but_keeps_accounting() {
        let q = BoundedQueue::new(1);
        for i in 0..5 {
            q.push_unbounded(Delivery::Batch(RegionBatch {
                region: i,
                rel: Rel::R2,
                epoch: 0,
                tuples: cols(3),
            }));
        }
        assert_eq!(q.used_tuples(), 15);
        for _ in 0..5 {
            assert!(matches!(q.pop(), Delivery::Batch(_)));
        }
        assert_eq!(q.used_tuples(), 0);
    }

    #[test]
    fn try_push_bounces_at_capacity_and_try_pop_drains() {
        let q = BoundedQueue::new(4);
        let batch = |n: usize| {
            Delivery::Batch(RegionBatch {
                region: 0,
                rel: Rel::R2,
                epoch: 0,
                tuples: cols(n),
            })
        };
        assert!(q.try_push(batch(3)).is_ok());
        // 3 + 3 > 4 with a non-empty queue: bounced, item handed back.
        let bounced = q.try_push(batch(3));
        assert!(matches!(bounced, Err(Delivery::Batch(ref b)) if b.tuples.len() == 3));
        // Control always passes; empty queue admits oversized batches.
        assert!(q.try_push(Delivery::SealR1).is_ok());
        assert!(q.try_pop().is_some());
        assert!(q.try_pop().is_some());
        assert!(q.try_pop().is_none());
        assert!(q.try_push(batch(99)).is_ok(), "oversized on empty");
        q.note_blocked(5_000_000);
        assert!(q.blocked_secs() >= 0.005);
    }

    #[test]
    fn parked_producers_and_consumers_are_woken_by_the_opposite_side() {
        use super::super::runtime::{EngineRuntime, Poll};
        let rt = EngineRuntime::new(2);
        let q = BoundedQueue::new(2);
        let batch = |n: usize| {
            Delivery::Batch(RegionBatch {
                region: 0,
                rel: Rel::R2,
                epoch: 0,
                tuples: cols(n),
            })
        };
        // Fill the queue so the producer task must park, then have a
        // consumer task drain everything; both sides finish only if the
        // cross wakes (pop→producer, push→consumer) actually fire.
        assert!(q.try_push(batch(2)).is_ok());
        let pushed = std::sync::atomic::AtomicUsize::new(0);
        let popped = std::sync::atomic::AtomicUsize::new(0);
        rt.scope(|s| {
            {
                let (q, pushed) = (&q, &pushed);
                let mut left = 3usize;
                s.spawn(move |cx| {
                    while left > 0 {
                        match q.try_push_or_park(batch(2), cx.waker()) {
                            Ok(()) => {
                                left -= 1;
                                pushed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => return Poll::Pending,
                        }
                    }
                    Poll::Ready
                });
            }
            let (q, popped) = (&q, &popped);
            s.spawn(move |cx| match q.try_pop_or_park(cx.waker()) {
                Some(_) => {
                    if popped.fetch_add(1, Ordering::Relaxed) + 1 == 4 {
                        Poll::Ready
                    } else {
                        Poll::Yielded
                    }
                }
                None => Poll::Pending,
            });
        });
        assert_eq!(pushed.into_inner(), 3);
        assert_eq!(popped.into_inner(), 4);
    }

    #[test]
    fn adopt_messages_carry_their_tuple_weight() {
        let q = BoundedQueue::new(4);
        q.push_unbounded(Delivery::Adopt {
            region: 3,
            state: Box::new(MigratedRegion {
                build: cols(7),
                pending: cols(2),
                sealed: true,
                input: 9,
                ..Default::default()
            }),
        });
        assert_eq!(q.used_tuples(), 9);
        assert!(matches!(q.pop(), Delivery::Adopt { .. }));
        assert_eq!(q.used_tuples(), 0);
    }
}
