//! The inter-operator exchange: a bounded batch queue connecting one
//! operator's probe output to the next operator's mappers.
//!
//! An [`Exchange`] is a `Channel<ColumnBatch>` (see the `channel` module
//! for the bound and the wake protocol). Upstream reducers push output
//! batches as they sweep probe chunks; downstream mappers pop batches and
//! route them like morsels. A slow downstream operator therefore exerts
//! backpressure all the way up the chain (upstream reducers park pushing,
//! their queues fill, upstream mappers park). Because query plans are DAGs
//! this can only slow the pipeline down, never deadlock it.
//! [`Channel::close`] — called by the upstream stage's last reducer as it
//! drops, after `Finish` (or `Abort`) — is what lets the downstream seal
//! protocol fire: a closed, fully routed exchange is the streamed
//! equivalent of "the last morsel was claimed". Its consumer's last mapper
//! abandons it as it drops ([`Channel::abandon`]), so a producer whose
//! consumer is gone — a cancel, a panic — never waits on it again. Every
//! batch in it is charged to the query's gauge: the consumer releases what
//! the exchange held when it left, the producer's last reducer what it
//! discarded since.
//!
//! Under a memory budget, an upstream reducer may spill batches *staged
//! for* this exchange (its outbox — the last rung of the spill ladder, see
//! the `spill` module) rather than hold them resident behind a full
//! exchange; they are reloaded and pushed, in whatever order, once the
//! exchange drains. The exchange itself never spills: its bounded buffer
//! is already the backpressure mechanism, and batch order across it
//! carries no semantics (downstream mappers re-route per tuple).
//!
//! Nothing is learned from the stream: the downstream operator's scheme was
//! built at plan time, from the census of this intermediate propagated
//! through the upstream join (see [`crate::run_plan`]).

use ewh_core::ColumnBatch;

use super::channel::{Channel, Weigh};

/// The bounded channel of intermediate-tuple batches between two chained
/// operators.
pub type Exchange = Channel<ColumnBatch>;

/// A batch occupies its tuples; an empty one is never enqueued.
impl Weigh for ColumnBatch {
    fn weight(&self) -> usize {
        self.len()
    }

    fn is_void(&self) -> bool {
        self.is_empty()
    }
}

/// Where a pipelined operator ships its probe output: the downstream
/// exchange. A reducer materializes a sweep's pairs in batches of at most
/// `batch_tuples`, charges each to the shared memory gauge and stages it on
/// its outbox, which it drains into the exchange without ever blocking a
/// pool worker. A hot chunk can join to orders of magnitude more output
/// than any bounded buffer, so a sweep takes only as much of its chunk as
/// fills the exchange once (its capacity is the bound, read off the
/// channel) and goes on when the outbox has drained: downstream
/// backpressure throttles the sweep a slice at a time.
#[derive(Clone, Copy, Debug)]
pub struct StageSink<'a> {
    pub exchange: &'a Exchange,
    /// Emission batch size (a morsel's worth; always ≥ 1).
    pub batch_tuples: usize,
}

#[cfg(test)]
mod tests {
    use super::super::port::FragmentPort;
    use super::*;
    use ewh_core::Key;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    fn batch(keys: &[Key]) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(keys.len());
        for &k in keys {
            b.push(k, k as u64);
        }
        b
    }

    #[test]
    fn exchange_delivers_in_fifo_order_and_ends_cleanly() {
        let ex = Exchange::new(8);
        let consumed = AtomicU64::new(0);
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..20i64 {
                    ex.push(batch(&[i]));
                }
                ex.close();
            });
            s.spawn(|| {
                let mut next = 0i64;
                while let Some(b) = ex.pop() {
                    assert_eq!(b.keys()[0], next, "FIFO violated");
                    next += 1;
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(consumed.into_inner(), 20);
        assert!(ex.drained(20));
        assert!(!ex.drained(19));
        assert_eq!(ex.used_tuples(), 0);
    }

    #[test]
    fn abandon_unblocks_a_producer_stuck_in_push() {
        let ex = Exchange::new(2);
        ex.push(batch(&[1, 2])); // at capacity: the next push would block
        thread::scope(|s| {
            let producer = s.spawn(|| {
                ex.push(batch(&[3, 4])); // blocks until abandon
                ex.push(batch(&[5])); // discarded post-abandon, no block
            });
            thread::sleep(std::time::Duration::from_millis(10));
            ex.abandon();
            producer.join().expect("producer must unblock");
        });
    }
}
