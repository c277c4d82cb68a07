//! Per-worker recycling of [`ColumnBatch`] allocations.
//!
//! The engine's hot paths retire column buffers constantly: a mapper's
//! routed fragment is absorbed and its probe-side allocation emptied, a
//! swept probe chunk is freed, an outbox batch ships and its buffer comes
//! back from the downstream mapper, a spill reload buffer lives for one
//! sweep. Without recycling every one of those is a fresh
//! `malloc`/`free` pair per poll. A [`BatchPool`] keeps a small stash of
//! cleared batches on each pool worker — tasks reach it through
//! [`TaskCx::pool`](super::TaskCx::pool) — so allocations circulate
//! between the tasks a worker happens to poll instead of round-tripping
//! through the allocator.
//!
//! The pool is deliberately *not* part of the memory-budget story: it only
//! ever holds **empty** batches, and the [`MemGauge`](super::MemGauge)
//! counts tuples, so pooled capacity is invisible to budget enforcement
//! (exactly like the allocator's own free lists it replaces). The stash is
//! capacity-bounded so a skew spike can't strand an unbounded hoard.

use std::cell::RefCell;

use ewh_core::ColumnBatch;

/// Batches kept per worker before `put` starts dropping on the floor.
const POOL_MAX_BATCHES: usize = 64;

/// A worker-local stash of cleared, reusable [`ColumnBatch`] allocations.
/// `RefCell`, not a lock: the pool is owned by one OS worker thread and
/// only touched from tasks that worker is currently polling.
#[derive(Debug, Default)]
pub struct BatchPool {
    spare: RefCell<Vec<ColumnBatch>>,
}

impl BatchPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with at least `cap` capacity — a recycled allocation
    /// when one is big enough, a fresh one otherwise.
    pub fn take(&self, cap: usize) -> ColumnBatch {
        let mut spare = self.spare.borrow_mut();
        if let Some(i) = spare.iter().rposition(|b| b.capacity() >= cap) {
            return spare.swap_remove(i);
        }
        drop(spare);
        ColumnBatch::with_capacity(cap)
    }

    /// Returns a batch's allocation to the stash (cleared). Capacity-less
    /// batches carry nothing worth keeping and a full stash drops the
    /// donation instead of growing.
    pub fn put(&self, mut batch: ColumnBatch) {
        if batch.capacity() == 0 {
            return;
        }
        batch.clear();
        let mut spare = self.spare.borrow_mut();
        if spare.len() < POOL_MAX_BATCHES {
            spare.push(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_a_big_enough_donation() {
        let pool = BatchPool::new();
        let mut donated = ColumnBatch::with_capacity(100);
        donated.push(1, 1);
        pool.put(donated);
        assert_eq!(pool.spare.borrow().len(), 1);

        let got = pool.take(50);
        assert!(got.is_empty(), "recycled batches come back cleared");
        assert!(got.capacity() >= 100);
        assert_eq!(pool.spare.borrow().len(), 0);

        // Nothing big enough stashed: a fresh allocation, stash untouched.
        pool.put(ColumnBatch::with_capacity(10));
        let fresh = pool.take(1000);
        assert!(fresh.capacity() >= 1000);
        assert_eq!(pool.spare.borrow().len(), 1);
    }

    #[test]
    fn capacityless_batches_are_not_stashed() {
        let pool = BatchPool::new();
        pool.put(ColumnBatch::new());
        assert_eq!(pool.spare.borrow().len(), 0);
    }
}
