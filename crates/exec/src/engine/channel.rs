//! The engine's one bounded channel: every hop that stands in for the
//! network — mapper → reducer deliveries, the stage → stage
//! [`Exchange`](super::Exchange) of a chained plan, the producer side of a
//! framed link — is a [`Window`] of tuples with waiter lists, written once
//! here.
//!
//! * [`Window`] is the admission window: `used` tuples of `capacity`, the
//!   producers parked on it, and the one admission rule ([`Window::admit`]):
//!   an item of weight `w` bounces iff the window is non-empty and `w` would
//!   overrun it. An oversized item is therefore admitted alone (it could
//!   never fit otherwise), and a zero-weight item — control traffic — always
//!   passes, so coordination can never deadlock behind a full window. The
//!   bound is in *tuples*, the unit that occupies memory.
//! * [`Channel<T>`] is one mutex over a window, a FIFO of `T`, the consumers
//!   parked on it and the `closed` / `pushed` end-of-stream state. What an
//!   item weighs is the item's own business ([`Weigh`]).
//! * [`CreditGate`] is the same window without the FIFO: the producer side of
//!   a byte stream, where the consumer's pop arrives as a `CREDIT` frame.
//!
//! ## The wake protocol (lock-merge)
//!
//! Engine tasks never block a pool worker: a task that cannot make progress
//! passes its [`Waker`], which is registered **under the same lock as the
//! failed attempt**, and returns `Pending`. The opposite transition takes
//! that lock too, so it is serialized either before the attempt (which then
//! succeeds) or after the registration (which it then drains) — a wake-up
//! cannot be lost, and there is no generation counter to get wrong. Every
//! freeing transition takes the *whole* matching list and fires it after the
//! lock drops: a push wakes every parked consumer, a pop or a credit wakes
//! every parked producer (a big freed weight may admit several small
//! waiters; those still blocked re-register), close and abandon wake both
//! sides. A parked task is the only waiter there is: nothing blocks a
//! thread on a channel or a gate, so no transition signals anything but
//! the wakers it took.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use super::port::{FragmentPort, PortPop};
use super::runtime::Waker;

/// What an item costs the window it travels through — the one per-item
/// policy of a [`Channel`].
pub trait Weigh {
    /// Tuples of window the item occupies until it is popped. Zero bypasses
    /// the bound.
    fn weight(&self) -> usize;

    /// The item carries nothing and is dropped instead of enqueued.
    fn is_void(&self) -> bool {
        false
    }
}

/// A tuple-weighted admission window and the producers parked on it. Lives
/// behind its owner's mutex; every method that frees producers returns
/// their wakers, to be fired once that lock is dropped.
#[derive(Debug)]
struct Window {
    used: usize,
    capacity: usize,
    /// The consumer is gone: producers must never wait again. Everything is
    /// admitted, nothing is charged, and the caller discards the item.
    abandoned: bool,
    producers: Vec<Waker>,
}

impl Window {
    fn new(capacity_tuples: usize) -> Self {
        Window {
            used: 0,
            capacity: capacity_tuples.max(1),
            abandoned: false,
            producers: Vec::new(),
        }
    }

    /// The admission rule: charges `w` and returns `true`, or — on the
    /// `bounded` lane only — bounces when the window is non-empty and `w`
    /// would overrun it.
    fn admit(&mut self, w: usize, bounded: bool) -> bool {
        if self.abandoned {
            return true;
        }
        if bounded && w > 0 && self.used > 0 && self.used + w > self.capacity {
            return false;
        }
        self.used += w;
        true
    }

    /// Bounded [`admit`](Self::admit) that registers `park` iff it bounced.
    fn admit_or_park(&mut self, w: usize, park: Option<&Waker>) -> bool {
        if self.admit(w, true) {
            return true;
        }
        if let Some(waker) = park {
            waker.register_in(&mut self.producers);
        }
        false
    }

    fn release(&mut self, w: usize) -> Vec<Waker> {
        self.used -= w;
        std::mem::take(&mut self.producers)
    }

    fn abandon(&mut self) -> Vec<Waker> {
        self.abandoned = true;
        std::mem::take(&mut self.producers)
    }
}

fn wake_all(wakers: Vec<Waker>) {
    for waker in &wakers {
        waker.wake();
    }
}

/// The time producers spent parked on a window (backpressure), charged by
/// each task once it unparks.
#[derive(Debug, Default)]
struct Stall(AtomicU64);

impl Stall {
    fn note(&self, nanos: u64) {
        self.0.fetch_add(nanos, Ordering::Relaxed);
    }

    fn secs(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// A bounded FIFO of `T`: multiple producers, multiple consumers, bounded in
/// tuples (see the module docs for the admission rule and the wake
/// protocol). `Channel::new(capacity_tuples)` is the whole configuration.
///
/// Items go in and out through the [`FragmentPort`] impl only: a task that
/// cannot push or pop parks. A delivery queue, whose end of stream is the in-band
/// `Finish` / `Abort`, is closed only once its run is over, so it never
/// reports [`PortPop::Closed`] to its reducer.
#[derive(Debug)]
pub struct Channel<T> {
    state: Mutex<State<T>>,
    stall: Stall,
}

#[derive(Debug)]
struct State<T> {
    window: Window,
    queue: VecDeque<T>,
    /// Items ever enqueued (stable once `closed`).
    pushed: u64,
    /// Weight pushed after the consumer abandoned the channel, discarded.
    discarded: usize,
    closed: bool,
    consumers: Vec<Waker>,
}

impl<T: Weigh> Channel<T> {
    pub fn new(capacity_tuples: usize) -> Self {
        Channel {
            state: Mutex::new(State {
                window: Window::new(capacity_tuples),
                queue: VecDeque::new(),
                pushed: 0,
                discarded: 0,
                closed: false,
                consumers: Vec::new(),
            }),
            stall: Stall::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("channel poisoned")
    }

    /// The bound, in tuples, this channel was built with.
    pub fn capacity(&self) -> usize {
        self.lock().window.capacity
    }

    /// Enqueues an admitted item and wakes the consumers. On an abandoned
    /// channel the item is discarded instead (its weight counted for
    /// [`close`](FragmentPort::close)), so the producer runs to completion
    /// and the failure surfaces at the query's join rather than as a
    /// deadlock.
    fn enqueue(&self, mut state: MutexGuard<'_, State<T>>, item: T) {
        debug_assert!(!state.closed, "push after close");
        if state.window.abandoned {
            state.discarded += item.weight();
            return;
        }
        state.pushed += 1;
        state.queue.push_back(item);
        let consumers = std::mem::take(&mut state.consumers);
        drop(state);
        wake_all(consumers);
    }

    /// Pops the head, returns its weight to the window and wakes the
    /// producers; hands the lock back when there is nothing to pop.
    fn dequeue<'a>(
        &self,
        mut state: MutexGuard<'a, State<T>>,
    ) -> Result<T, MutexGuard<'a, State<T>>> {
        let Some(item) = state.queue.pop_front() else {
            return Err(state);
        };
        let producers = state.window.release(item.weight());
        drop(state);
        wake_all(producers);
        Ok(item)
    }

    /// Whether the producer closed the channel, and whether the consumer
    /// abandoned it.
    #[cfg(test)]
    pub(crate) fn ended(&self) -> (bool, bool) {
        let state = self.lock();
        (state.closed, state.window.abandoned)
    }

    /// Is the stream complete *and* has the consumer finished every item?
    /// `routed` is the consumer's count of items it finished processing —
    /// the downstream seal protocol's end-of-relation test.
    pub fn drained(&self, routed: u64) -> bool {
        let state = self.lock();
        state.closed && state.queue.is_empty() && routed == state.pushed
    }
}

impl<T: Weigh + Send> FragmentPort for Channel<T> {
    type Item = T;

    fn offer(&self, item: T, park: Option<&Waker>) -> Result<(), T> {
        if item.is_void() {
            return Ok(());
        }
        let mut state = self.lock();
        if !state.window.admit_or_park(item.weight(), park) {
            return Err(item);
        }
        self.enqueue(state, item);
        Ok(())
    }

    fn push_unbounded(&self, item: T) {
        if item.is_void() {
            return;
        }
        let mut state = self.lock();
        state.window.admit(item.weight(), false);
        self.enqueue(state, item);
    }

    fn take(&self, park: Option<&Waker>) -> PortPop<T> {
        match self.dequeue(self.lock()) {
            Ok(item) => PortPop::Item(item),
            Err(state) if state.closed => PortPop::Closed,
            Err(mut state) => {
                if let Some(waker) = park {
                    waker.register_in(&mut state.consumers);
                }
                PortPop::Empty
            }
        }
    }

    /// Wakes both sides so parked consumers observe the end of stream.
    fn close(&self) -> usize {
        let mut state = self.lock();
        state.closed = true;
        let discarded = state.discarded;
        let mut wakers = std::mem::take(&mut state.consumers);
        wakers.append(&mut state.window.producers);
        drop(state);
        wake_all(wakers);
        discarded
    }

    /// What the channel holds is what its window charged: a pop releases
    /// an item's weight.
    fn abandon(&self) -> usize {
        let mut state = self.lock();
        let held = state.window.used;
        let mut wakers = state.window.abandon();
        wakers.append(&mut state.consumers);
        drop(state);
        wake_all(wakers);
        held
    }

    fn used_tuples(&self) -> usize {
        self.lock().window.used
    }

    fn note_blocked(&self, nanos: u64) {
        self.stall.note(nanos);
    }

    fn blocked_secs(&self) -> f64 {
        self.stall.secs()
    }
}

/// The producer side of a framed link: a [`Window`] charged on send and
/// released by the `CREDIT` frames the consumer returns, so `used` counts
/// tuples in flight end to end. A failed link is an abandoned window.
#[derive(Debug)]
pub(crate) struct CreditGate {
    window: Mutex<Window>,
    stall: Stall,
}

impl CreditGate {
    pub(crate) fn new(capacity_tuples: usize) -> Arc<Self> {
        Arc::new(CreditGate {
            window: Mutex::new(Window::new(capacity_tuples)),
            stall: Stall::default(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Window> {
        self.window.lock().expect("credit gate poisoned")
    }

    /// Non-blocking bounded admission; `false` is a bounce, with `park`
    /// registered under the gate lock.
    pub(crate) fn admit_or_park(&self, w: usize, park: Option<&Waker>) -> bool {
        self.lock().admit_or_park(w, park)
    }

    pub(crate) fn admit_unbounded(&self, w: usize) {
        self.lock().admit(w, false);
    }

    /// Returns `w` credited tuples to the window. A `CREDIT` frame is
    /// outside input, so a weight beyond what is outstanding saturates.
    pub(crate) fn release(&self, w: usize) {
        let producers = {
            let mut window = self.lock();
            let w = w.min(window.used);
            window.release(w)
        };
        wake_all(producers);
    }

    /// Every parked producer wakes, and every later admission passes
    /// uncharged (the caller discards).
    pub(crate) fn abandon(&self) {
        wake_all(self.lock().abandon());
    }

    pub(crate) fn used(&self) -> usize {
        self.lock().used
    }

    pub(crate) fn note_blocked(&self, nanos: u64) {
        self.stall.note(nanos);
    }

    pub(crate) fn blocked_secs(&self) -> f64 {
        self.stall.secs()
    }
}

#[cfg(test)]
mod tests {
    use super::super::queue::{Delivery, RegionBatch};
    use super::super::reducer::RegionState;
    use super::super::runtime::{EngineRuntime, Poll};
    use super::*;
    use ewh_core::{ColumnBatch, Rel};
    use proptest::prelude::*;

    /// The sequential model all three instantiations are checked against:
    /// `(id, weight)` in FIFO order; wakers are indices into the test's pool.
    #[derive(Default)]
    struct Model {
        cap: usize,
        used: usize,
        queue: VecDeque<(u32, usize)>,
        pushed: u64,
        closed: bool,
        abandoned: bool,
        producers: Vec<usize>,
        consumers: Vec<usize>,
    }

    #[derive(Debug, PartialEq)]
    enum Taken {
        Item(u32),
        Empty,
        Closed,
    }

    fn park(list: &mut Vec<usize>, waker: Option<usize>) {
        if let Some(w) = waker.filter(|w| !list.contains(w)) {
            list.push(w);
        }
    }

    impl Model {
        /// `w`: `None` for a void item. `false` iff the push bounced.
        fn push(&mut self, id: u32, w: Option<usize>, bounded: bool, waker: Option<usize>) -> bool {
            let Some(w) = w else { return true };
            if self.abandoned {
                return true;
            }
            let fits = !bounded || w == 0 || self.used == 0 || self.used + w <= self.cap;
            if fits {
                self.used += w;
                self.pushed += 1;
                self.queue.push_back((id, w));
                self.consumers.clear();
            } else {
                park(&mut self.producers, waker);
            }
            fits
        }

        fn take(&mut self, waker: Option<usize>) -> Taken {
            match self.queue.pop_front() {
                Some((id, w)) => {
                    self.release(w);
                    Taken::Item(id)
                }
                None if self.closed => Taken::Closed,
                None => {
                    park(&mut self.consumers, waker);
                    Taken::Empty
                }
            }
        }

        fn release(&mut self, w: usize) {
            self.used = self.used.saturating_sub(w);
            self.producers.clear();
        }

        fn end(&mut self, closed: bool) {
            self.closed |= closed;
            self.abandoned |= !closed;
            self.producers.clear();
            self.consumers.clear();
        }

        fn drained(&self, routed: u64) -> bool {
            self.closed && self.queue.is_empty() && routed == self.pushed
        }
    }

    /// One instantiation of the window under test. An item is `(id, n,
    /// kind)`; what that weighs is the instantiation's policy.
    trait Subject {
        /// Has a FIFO, a consumer side and a close (the gate has none).
        const QUEUE: bool = true;
        fn new(cap: usize) -> Self;
        fn weigh(n: usize, kind: u8) -> Option<usize>;
        fn offer(&mut self, id: u32, n: usize, kind: u8, waker: Option<&Waker>) -> bool;
        fn push_unbounded(&mut self, id: u32, n: usize, kind: u8);
        fn take(&mut self, waker: Option<&Waker>) -> Taken;
        fn credit(&mut self, _w: usize) {}
        fn close(&mut self) {}
        fn abandon(&mut self);
        fn used(&self) -> usize;
        fn drained(&self, _routed: u64) -> Option<bool> {
            None
        }
        fn parked(&self) -> (Vec<Waker>, Option<Vec<Waker>>);
        fn blocked_secs(&self) -> f64;
    }

    trait TestItem: Weigh + Send {
        fn make(id: u32, n: usize, kind: u8) -> Self;
        fn id(&self) -> u32;
        fn weigh(n: usize, kind: u8) -> Option<usize>;
    }

    fn cols(id: u32, n: usize) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(n);
        for _ in 0..n {
            b.push(id as i64, 0);
        }
        b
    }

    impl TestItem for Delivery {
        fn make(id: u32, n: usize, kind: u8) -> Self {
            match kind {
                0 => Delivery::Batch(RegionBatch {
                    region: id,
                    rel: Rel::R2,
                    epoch: 0,
                    tuples: cols(id, n),
                    siblings: Vec::new(),
                }),
                1 => {
                    let mut state = RegionState::default();
                    (state.build, state.pending) = (cols(id, n), cols(id, 1));
                    Delivery::Adopt {
                        region: id,
                        state: Box::new(state),
                    }
                }
                _ => Delivery::Migrate { region: id },
            }
        }

        fn id(&self) -> u32 {
            match self {
                Delivery::Batch(b) => b.region,
                Delivery::Adopt { region, .. } | Delivery::Migrate { region } => *region,
                other => panic!("never pushed: {other:?}"),
            }
        }

        /// A batch occupies its tuples (an empty one a slot), an `Adopt` its
        /// shipped state, control nothing.
        fn weigh(n: usize, kind: u8) -> Option<usize> {
            Some(match kind {
                0 => n.max(1),
                1 => n + 1,
                _ => 0,
            })
        }
    }

    impl TestItem for ColumnBatch {
        fn make(id: u32, n: usize, _kind: u8) -> Self {
            cols(id, n)
        }

        fn id(&self) -> u32 {
            self.keys()[0] as u32
        }

        /// A batch occupies its tuples; an empty one is never enqueued.
        fn weigh(n: usize, _kind: u8) -> Option<usize> {
            (n > 0).then_some(n)
        }
    }

    impl<T: TestItem> Subject for Channel<T> {
        fn new(cap: usize) -> Self {
            Channel::new(cap)
        }

        fn weigh(n: usize, kind: u8) -> Option<usize> {
            T::weigh(n, kind)
        }

        fn offer(&mut self, id: u32, n: usize, kind: u8, waker: Option<&Waker>) -> bool {
            match FragmentPort::offer(self, T::make(id, n, kind), waker) {
                Ok(()) => true,
                Err(back) => {
                    assert_eq!(back.id(), id, "a bounced item comes back untouched");
                    assert_eq!(Some(back.weight()), T::weigh(n, kind));
                    false
                }
            }
        }

        fn push_unbounded(&mut self, id: u32, n: usize, kind: u8) {
            FragmentPort::push_unbounded(self, T::make(id, n, kind));
        }

        fn take(&mut self, waker: Option<&Waker>) -> Taken {
            match FragmentPort::take(self, waker) {
                PortPop::Item(item) => Taken::Item(item.id()),
                PortPop::Empty => Taken::Empty,
                PortPop::Closed => Taken::Closed,
            }
        }

        fn close(&mut self) {
            FragmentPort::close(self);
        }

        fn abandon(&mut self) {
            FragmentPort::abandon(self);
        }

        fn used(&self) -> usize {
            self.used_tuples()
        }

        fn drained(&self, routed: u64) -> Option<bool> {
            Some(Channel::drained(self, routed))
        }

        fn parked(&self) -> (Vec<Waker>, Option<Vec<Waker>>) {
            let state = self.lock();
            (
                state.window.producers.clone(),
                Some(state.consumers.clone()),
            )
        }

        fn blocked_secs(&self) -> f64 {
            FragmentPort::blocked_secs(self)
        }
    }

    /// The credit gate with the wire it guards: what was admitted, in order,
    /// so a `take` credits the oldest delivery back as its consumer would.
    struct GateRig {
        gate: Arc<CreditGate>,
        wire: VecDeque<(u32, usize)>,
        failed: bool,
    }

    impl GateRig {
        /// The caller of a failed gate discards what it admits.
        fn send(&mut self, id: u32, w: usize) {
            if !self.failed {
                self.wire.push_back((id, w));
            }
        }
    }

    impl Subject for GateRig {
        const QUEUE: bool = false;

        fn new(cap: usize) -> Self {
            GateRig {
                gate: CreditGate::new(cap),
                wire: VecDeque::new(),
                failed: false,
            }
        }

        fn weigh(n: usize, _kind: u8) -> Option<usize> {
            Some(n)
        }

        fn offer(&mut self, id: u32, n: usize, _kind: u8, waker: Option<&Waker>) -> bool {
            let admitted = self.gate.admit_or_park(n, waker);
            if admitted {
                self.send(id, n);
            }
            admitted
        }

        fn push_unbounded(&mut self, id: u32, n: usize, _kind: u8) {
            self.gate.admit_unbounded(n);
            self.send(id, n);
        }

        fn take(&mut self, _waker: Option<&Waker>) -> Taken {
            match self.wire.pop_front() {
                Some((id, w)) => {
                    self.gate.release(w);
                    Taken::Item(id)
                }
                None => Taken::Empty,
            }
        }

        fn credit(&mut self, w: usize) {
            self.gate.release(w);
        }

        fn abandon(&mut self) {
            self.gate.abandon();
            self.failed = true;
        }

        fn used(&self) -> usize {
            self.gate.used()
        }

        fn parked(&self) -> (Vec<Waker>, Option<Vec<Waker>>) {
            (self.gate.lock().producers.clone(), None)
        }

        fn blocked_secs(&self) -> f64 {
            self.gate.blocked_secs()
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Offer(usize, u8, Option<usize>),
        PushUnbounded(usize, u8),
        Take(Option<usize>),
        /// A `CREDIT` frame of arbitrary weight (the gate only).
        Credit(usize),
        Close,
        Abandon,
    }

    const WAKERS: usize = 3;

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let waker = || (0..WAKERS + 1).prop_map(|w| (w < WAKERS).then_some(w));
        let item = || (0..7usize, 0..3u8);
        prop::collection::vec(
            prop_oneof![
                (item(), waker()).prop_map(|((n, kind), w)| Op::Offer(n, kind, w)),
                (item(), waker()).prop_map(|((n, kind), w)| Op::Offer(n, kind, w)),
                (item(), waker()).prop_map(|((n, kind), w)| Op::Offer(n, kind, w)),
                item().prop_map(|(n, kind)| Op::PushUnbounded(n, kind)),
                waker().prop_map(Op::Take),
                waker().prop_map(Op::Take),
                waker().prop_map(Op::Take),
                (0..12usize).prop_map(Op::Credit),
                (0..24u8).prop_map(|x| if x == 0 { Op::Close } else { Op::Take(None) }),
                (0..24u8).prop_map(|x| if x == 0 { Op::Abandon } else { Op::Take(None) }),
            ],
            0..80,
        )
    }

    /// `WAKERS` distinct wakers of tasks that already completed: registering
    /// and waking them is inert, which is all a sequential driver needs.
    fn waker_pool() -> Vec<Waker> {
        let pool = Mutex::new(Vec::new());
        EngineRuntime::new(1).scope(|s| {
            for _ in 0..WAKERS {
                let pool = &pool;
                s.spawn(move |cx| {
                    pool.lock().expect("pool").push(cx.waker().clone());
                    Poll::Ready
                });
            }
        });
        pool.into_inner().expect("pool")
    }

    fn same_wakers(actual: &[Waker], expected: &[usize], pool: &[Waker]) -> bool {
        actual.len() == expected.len()
            && expected
                .iter()
                .all(|&i| actual.iter().any(|w| w.will_wake(&pool[i])))
    }

    /// Runs `ops` against a fresh `S` and the model.
    fn check<S: Subject>(cap: usize, ops: &[Op]) -> Result<(), TestCaseError> {
        let pool = &waker_pool();
        let mut subject = S::new(cap);
        let mut model = Model {
            cap: cap.max(1),
            ..Model::default()
        };
        let mut routed = 0u64;
        for (id, &op) in ops.iter().enumerate() {
            let id = id as u32;
            match op {
                // A push after close is a producer bug (debug-asserted).
                Op::Offer(..) | Op::PushUnbounded(..) if model.closed => {}
                Op::Offer(n, kind, waker) => {
                    let admitted = model.push(id, S::weigh(n, kind), true, waker);
                    let got = subject.offer(id, n, kind, waker.map(|w| &pool[w]));
                    prop_assert_eq!(got, admitted, "{:?}", op);
                }
                Op::PushUnbounded(n, kind) => {
                    model.push(id, S::weigh(n, kind), false, None);
                    subject.push_unbounded(id, n, kind);
                }
                Op::Take(waker) => {
                    let got = subject.take(waker.map(|w| &pool[w]));
                    routed += matches!(got, Taken::Item(_)) as u64;
                    prop_assert_eq!(got, model.take(waker), "{:?}", op);
                }
                Op::Credit(w) if !S::QUEUE => {
                    model.release(w);
                    subject.credit(w);
                }
                Op::Close if S::QUEUE => {
                    model.end(true);
                    subject.close();
                }
                Op::Abandon => {
                    model.end(false);
                    subject.abandon();
                }
                Op::Credit(_) | Op::Close => {}
            }
            prop_assert_eq!(subject.used(), model.used, "after {:?}", op);
            let (producers, consumers) = subject.parked();
            prop_assert!(
                same_wakers(&producers, &model.producers, pool),
                "producers parked after {:?}",
                op
            );
            if let Some(consumers) = consumers {
                prop_assert!(
                    same_wakers(&consumers, &model.consumers, pool),
                    "consumers parked after {:?}",
                    op
                );
            }
            for routed in [routed, routed + 1] {
                if let Some(drained) = subject.drained(routed) {
                    prop_assert_eq!(drained, model.drained(routed), "after {:?}", op);
                }
            }
        }
        // No push ever waited, so none may have been charged for waiting.
        prop_assert_eq!(subject.blocked_secs(), 0.0);
        Ok(())
    }

    proptest! {
        #[test]
        fn the_delivery_channel_matches_the_model(cap in 1..9usize, ops in ops()) {
            check::<Channel<Delivery>>(cap, &ops)?;
        }

        #[test]
        fn the_batch_channel_matches_the_model(cap in 1..9usize, ops in ops()) {
            check::<Channel<ColumnBatch>>(cap, &ops)?;
        }

        #[test]
        fn the_credit_gate_matches_the_model(cap in 1..9usize, ops in ops()) {
            check::<GateRig>(cap, &ops)?;
        }
    }
}
