//! Delivery messages: what travels on a reducer's queue, the engine's
//! stand-in for a network channel between mapper and reducer tasks.
//!
//! Each reducer owns one `Channel<Delivery>` (or, over a framed transport,
//! a [`RemoteQueue`](super::RemoteQueue)); mappers push per-region tuple
//! batches into the queue of the reducer owning the target region,
//! resolved through the shared [`ewh_core::RoutingTable`] at push time. A
//! reducer that falls behind exerts *backpressure* through the channel's
//! tuple bound (see the `channel` module): the pushing mapper task parks,
//! and the blocked time is accounted so runs can report where the pipeline
//! stalled. Control traffic — seals, migration handshakes, finish/abort —
//! weighs nothing and so bypasses the bound ([`Weigh`]).

use ewh_core::{ColumnBatch, Rel};

use super::channel::Weigh;
use super::reducer::RegionState;

/// One message on a reducer's queue.
#[derive(Debug)]
pub enum Delivery {
    /// Tuples of one relation routed to one region, or to several of this
    /// reducer's regions that take the same tuples (see [`RegionBatch`]).
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
    /// Old owner → new owner: a migrated region's state, sealed.
    Adopt {
        region: u32,
        state: Box<RegionState>,
    },
    /// Coordinator → every reducer: the run is quiescent (mappers done, no
    /// data or migration state in flight) — flush, report, exit.
    Finish,
    /// The run was cancelled: discard all region state and exit.
    Abort,
}

/// A routed fragment: the tuples of one relation that one morsel sent to
/// `region` and, when they hold the same tuples, to each of `siblings` —
/// the other regions of a replicated line that the receiving reducer owned
/// when the mapper resolved them. One copy travels; the reducer makes the
/// siblings' own.
#[derive(Debug)]
pub struct RegionBatch {
    pub region: u32,
    pub rel: Rel,
    /// Routing epoch observed before the owners of `region` and every
    /// sibling were resolved — the engine's per-region migration fence (see
    /// the `reducer` module).
    pub epoch: u64,
    /// The fragment's tuples, in columnar layout end to end: gathered from
    /// the morsel's columns by the mapper, sorted and swept column-wise by
    /// the reducer.
    pub tuples: ColumnBatch,
    /// Further regions that take a copy of `tuples`, distinct from `region`
    /// and from each other (empty: `region` alone).
    pub siblings: Vec<u32>,
}

impl Weigh for Delivery {
    fn weight(&self) -> usize {
        match self {
            // What the receiver will hold: a copy of the tuples a region (an
            // empty batch still occupies a queue slot's worth of space).
            Delivery::Batch(b) => b.tuples.len().max(1) * (1 + b.siblings.len()),
            // Shipped migration state is real resident memory in the queue.
            Delivery::Adopt { state, .. } => state.resident_tuples() as usize,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::channel::Channel;
    use super::super::port::{FragmentPort, PortPop};
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A columnar batch of `n` identical tuples.
    fn cols(n: usize) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(n);
        for _ in 0..n {
            b.push(1, 2);
        }
        b
    }

    #[test]
    fn parked_producers_and_consumers_are_woken_by_the_opposite_side() {
        use super::super::runtime::{EngineRuntime, Poll};
        let rt = EngineRuntime::new(2);
        let q = Channel::new(2);
        let batch = |n: usize| {
            Delivery::Batch(RegionBatch {
                region: 0,
                rel: Rel::R2,
                epoch: 0,
                tuples: cols(n),
                siblings: Vec::new(),
            })
        };
        // Fill the queue so the producer task must park, then have a
        // consumer task drain everything; both sides finish only if the
        // cross wakes (pop→producer, push→consumer) actually fire.
        assert!(q.offer(batch(2), None).is_ok());
        let pushed = AtomicUsize::new(0);
        let popped = AtomicUsize::new(0);
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
                PortPop::Item(_) => {
                    if popped.fetch_add(1, Ordering::Relaxed) + 1 == 4 {
                        Poll::Ready
                    } else {
                        Poll::Yielded
                    }
                }
                _ => Poll::Pending,
            });
        });
        assert_eq!(pushed.into_inner(), 3);
        assert_eq!(popped.into_inner(), 4);
    }

    #[test]
    fn adopt_messages_carry_their_tuple_weight() {
        let q = Channel::new(4);
        let mut state = RegionState::default();
        (state.build, state.pending) = (cols(7), cols(2));
        q.push_unbounded(Delivery::Adopt {
            region: 3,
            state: Box::new(state),
        });
        assert_eq!(q.used_tuples(), 9);
        assert!(matches!(q.try_pop(), PortPop::Item(Delivery::Adopt { .. })));
        assert_eq!(q.used_tuples(), 0);
    }

    #[test]
    fn a_grouped_batch_weighs_a_copy_per_region() {
        let q = Channel::new(64);
        let grouped = |n: usize, siblings: Vec<u32>| {
            Delivery::Batch(RegionBatch {
                region: 0,
                rel: Rel::R1,
                epoch: 0,
                tuples: cols(n),
                siblings,
            })
        };
        q.push_unbounded(grouped(5, vec![1, 2, 3]));
        assert_eq!(q.used_tuples(), 20);
        q.push_unbounded(grouped(0, vec![4]));
        assert_eq!(
            q.used_tuples(),
            22,
            "an empty group still holds a slot a region"
        );
        // The window bounces what the regions would hold, not the one copy.
        assert!(q.try_push(grouped(11, vec![5, 6, 7])).is_err());
        assert!(matches!(q.try_pop(), PortPop::Item(Delivery::Batch(_))));
        assert!(matches!(q.try_pop(), PortPop::Item(Delivery::Batch(_))));
        assert_eq!(q.used_tuples(), 0);
    }
}
