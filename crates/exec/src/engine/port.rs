//! The `FragmentPort` trait: the push/pop/park surface every delivery
//! channel in the engine speaks, so mapper, reducer, coordinator and run
//! code never names a concrete channel type.
//!
//! Two families implement it:
//!
//! * [`Channel<T>`](super::channel::Channel) — the in-process bounded
//!   channel, one generic impl: `Channel<Delivery>` is a reducer's delivery
//!   queue (its lifecycle is the in-band `SealAll` / `Finish` / `Abort`, so
//!   it never reports [`PortPop::Closed`]), `Channel<ColumnBatch>` is the
//!   inter-operator [`Exchange`](super::Exchange).
//! * [`RemoteQueue`](super::RemoteQueue) — the same contract carried over a
//!   framed link on one TCP connection, with credit-based flow control
//!   standing in for the shared-memory bound.
//!
//! The contract: a bounced [`offer`](FragmentPort::offer) hands the item
//! back untouched and, given a waker, registered it *under the same lock*
//! as the failed attempt, so the freeing transition can never race past
//! unobserved (likewise an empty [`take`](FragmentPort::take));
//! [`push_unbounded`](FragmentPort::push_unbounded) bypasses the bound for
//! traffic that must never deadlock behind it. Parking is the only way to
//! wait on a port: none has a blocking push or pop.
//!
//! A port also owns what it holds once its consumer is gone. Every item
//! handed to it is charged to the query's gauge by its producer, and that
//! charge passes to whoever takes the item. [`abandon`](FragmentPort::abandon)
//! returns the weight no consumer will take now, and
//! [`close`](FragmentPort::close) the weight the port discarded instead of
//! carrying it, so the run releases both without knowing what kind of
//! port it holds.

use super::queue::Delivery;
use super::runtime::Waker;

/// One observation from a non-blocking port pop.
#[derive(Debug)]
pub enum PortPop<T> {
    /// The next item.
    Item(T),
    /// Momentarily empty but still open; a parked caller will be woken.
    Empty,
    /// Closed and drained — the end of the stream. Ports whose lifecycle is
    /// in-band (delivery queues) never report this.
    Closed,
}

/// A bounded MPMC fragment channel: the engine's abstraction over local
/// channels and framed network links.
pub trait FragmentPort: Send + Sync {
    /// What travels through the port (delivery messages or raw batches).
    type Item;

    /// Non-blocking bounded push; hands the item back when at capacity,
    /// with `park` (if any) registered to be woken by the next freeing
    /// transition. `Err` after parking means "return `Pending`".
    fn offer(&self, item: Self::Item, park: Option<&Waker>) -> Result<(), Self::Item>;

    /// Non-blocking push that bypasses the capacity bound (weight still
    /// accounted) — for control traffic and reducer→reducer forwarding
    /// where blocking could form a waiting cycle.
    fn push_unbounded(&self, item: Self::Item);

    /// Non-blocking pop; on an empty-but-open port `park` (if any) is
    /// registered to be woken by the next push (or close/abandon). `Empty`
    /// after parking means "return `Pending`".
    fn take(&self, park: Option<&Waker>) -> PortPop<Self::Item>;

    /// Producer-side end of stream: no item will ever be pushed again, and
    /// parked consumers observe it. Returns the weight the port discarded —
    /// pushed after [`abandon`](Self::abandon), or, on a link, offered once
    /// its token was cancelled — whose charges the producers are to
    /// release.
    fn close(&self) -> usize;

    /// Consumer-side teardown: the consumer is gone, so producers must
    /// never wait again — parked ones wake, and every later push is
    /// discarded (reported as accepted) and counted for
    /// [`close`](Self::close). Harmless after normal completion. Returns
    /// the weight handed to the port that no consumer took, whose charges
    /// are to be released now.
    fn abandon(&self) -> usize;

    /// Tuples currently occupying the port — the queue-depth heartbeat the
    /// migration coordinator reads when hunting for stragglers. For a
    /// remote port this includes tuples in flight on the wire (sent but
    /// not yet credited back), so backpressure accounting stays
    /// end-to-end.
    fn used_tuples(&self) -> usize;

    /// Charges producer-side blocked time observed outside the port: a task
    /// that parked on a bounced push reports the stall once it unblocks.
    fn note_blocked(&self, nanos: u64);

    /// Total time producers spent blocked on this port.
    fn blocked_secs(&self) -> f64;

    /// Bytes the port put on a wire, frame headers included (an
    /// in-process port: none).
    fn wire_bytes(&self) -> u64 {
        0
    }

    /// [`offer`](Self::offer) without parking.
    fn try_push(&self, item: Self::Item) -> Result<(), Self::Item> {
        self.offer(item, None)
    }

    /// [`offer`](Self::offer) that parks `waker` on a bounce.
    fn try_push_or_park(&self, item: Self::Item, waker: &Waker) -> Result<(), Self::Item> {
        self.offer(item, Some(waker))
    }

    /// [`take`](Self::take) without parking.
    fn try_pop(&self) -> PortPop<Self::Item> {
        self.take(None)
    }

    /// [`take`](Self::take) that parks `waker` on an empty port.
    fn try_pop_or_park(&self, waker: &Waker) -> PortPop<Self::Item> {
        self.take(Some(waker))
    }
}

/// The engine's delivery channel as a trait object — what a run's queues
/// hold instead of a concrete channel type.
pub type DeliveryPort = dyn FragmentPort<Item = Delivery>;
