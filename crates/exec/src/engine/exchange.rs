//! The inter-operator exchange: a bounded batch queue connecting one
//! operator's probe output to the next operator's mappers, plus the online
//! statistics collector that lets the downstream partitioning scheme be
//! built *while the intermediate streams* — no second pass over a
//! materialized result.
//!
//! ## Exchange
//!
//! An [`Exchange`] is a `Channel<ColumnBatch>` (see the `channel` module
//! for the bound and the wake protocol). Upstream reducers push output
//! batches as they sweep probe chunks; downstream mappers pop batches and
//! route them like morsels. A slow downstream operator therefore exerts
//! backpressure all the way up the chain (upstream reducers park pushing,
//! their queues fill, upstream mappers park). Because query plans are DAGs
//! this can only slow the pipeline down, never deadlock it.
//! [`Channel::close`] (called once the upstream operator has quiesced) is
//! what lets the downstream seal protocol fire: a closed, fully routed
//! exchange is the streamed equivalent of "the last morsel was claimed".
//!
//! Under a memory budget, an upstream reducer may spill batches *staged
//! for* this exchange (its outbox — the last rung of the spill ladder, see
//! the `spill` module) rather than hold them resident behind a full
//! exchange; they are reloaded and pushed, in whatever order, once the
//! exchange drains. The exchange itself never spills: its bounded buffer
//! is already the backpressure mechanism, and batch order across it
//! carries no semantics (downstream mappers re-route per tuple).
//!
//! ## Online statistics
//!
//! Every pushed batch is offered to an [`OnlineStats`] collector: a
//! [`WeightedReservoir`] over the intermediate's join keys (uniform weights
//! — a uniform sample of the stream seen so far) plus an exact tuple count.
//! The plan driver blocks in [`OnlineStats::wait_cutoff`] until either a
//! configured number of tuples has been observed or the stream closed
//! (tiny intermediates), then freezes the sample and builds the downstream
//! scheme from it. The cutoff is clamped below the exchange capacity by the
//! caller, so the scheme is always ready before backpressure could reach
//! the producer — the construction is deadlock-free by design.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ewh_core::{ColumnBatch, Key};
use ewh_sampling::WeightedReservoir;

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

/// The frozen result of online statistics collection: a uniform sample of
/// the intermediate's join keys and the exact count observed up to the
/// freeze.
#[derive(Clone, Debug)]
pub struct IntermediateStats {
    /// Uniform (weight-1 reservoir) sample of intermediate join keys.
    pub sample: Vec<Key>,
    /// Intermediate tuples observed before the sample froze.
    pub seen: u64,
    /// Whether the stream had already closed when the sample froze (the
    /// sample then covers the *whole* intermediate, not a prefix).
    pub complete: bool,
}

/// Online statistics over an intermediate stream: a weighted reservoir of
/// join keys fed by the upstream probe as it produces output, plus the
/// exact produced-tuple count. One writer-side call per pushed batch; one
/// blocking reader ([`wait_cutoff`](OnlineStats::wait_cutoff)).
#[derive(Debug)]
pub struct OnlineStats {
    /// Tuples to observe before the cutoff fires.
    target: u64,
    /// Set once the sample is taken; later offers only bump `seen`.
    frozen: AtomicBool,
    inner: Mutex<StatsInner>,
    ready: Condvar,
}

#[derive(Debug)]
struct StatsInner {
    reservoir: WeightedReservoir<Key>,
    rng: SmallRng,
    seen: u64,
    closed: bool,
}

impl OnlineStats {
    pub fn new(reservoir_tuples: usize, cutoff_tuples: usize, seed: u64) -> Self {
        OnlineStats {
            target: cutoff_tuples.max(1) as u64,
            frozen: AtomicBool::new(false),
            inner: Mutex::new(StatsInner {
                reservoir: WeightedReservoir::new(reservoir_tuples.max(1)),
                rng: SmallRng::seed_from_u64(seed ^ 0x0511_57A7),
                seen: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Feeds one produced batch's key column. Cheap after the freeze (a
    /// count bump) — and the columnar layout means the reservoir scan
    /// never touches payloads at all.
    pub fn offer(&self, keys: &[Key]) {
        let frozen = self.frozen.load(Ordering::Acquire);
        let mut inner = self.inner.lock().expect("stats poisoned");
        inner.seen += keys.len() as u64;
        if !frozen {
            let StatsInner { reservoir, rng, .. } = &mut *inner;
            for &k in keys {
                reservoir.offer(k, 1, rng);
            }
            if inner.seen >= self.target {
                drop(inner);
                self.ready.notify_all();
            }
        }
    }

    /// Marks the stream complete (wakes the waiting plan driver).
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("stats poisoned");
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Tuples observed so far (keeps counting after the freeze — by the end
    /// of the run this is the exact intermediate cardinality).
    pub fn seen(&self) -> u64 {
        self.inner.lock().expect("stats poisoned").seen
    }

    /// Blocks until the cutoff target is reached or the stream closes, then
    /// freezes and returns the sample. Single-shot by design (the plan
    /// driver calls it once per stage boundary).
    pub fn wait_cutoff(&self) -> IntermediateStats {
        let mut inner = self.inner.lock().expect("stats poisoned");
        while inner.seen < self.target && !inner.closed {
            inner = self.ready.wait(inner).expect("stats poisoned");
        }
        self.frozen.store(true, Ordering::Release);
        let reservoir = std::mem::replace(&mut inner.reservoir, WeightedReservoir::new(1));
        IntermediateStats {
            sample: reservoir.into_items().into_iter().map(|(k, _)| k).collect(),
            seen: inner.seen,
            complete: inner.closed,
        }
    }
}

/// Where a pipelined operator ships its probe output: the downstream
/// exchange plus the online statistics collector riding on it. Reducers
/// emit in batches of at most `batch_tuples`, flushed from *inside* the
/// probe sweep — a hot region's single sweep can produce orders of
/// magnitude more output than any bounded buffer, and pushing it whole
/// would bypass the exchange bound (oversized batches are admitted when
/// the queue is empty). Each batch is offered to the stats, charged to the
/// shared memory gauge, and pushed; downstream backpressure therefore
/// throttles the sweep itself.
#[derive(Clone, Copy, Debug)]
pub struct StageSink<'a> {
    pub exchange: &'a Exchange,
    pub stats: &'a OnlineStats,
    /// Emission batch size (a morsel's worth; always ≥ 1).
    pub batch_tuples: usize,
}

impl StageSink<'_> {
    /// Closes both the exchange and the stats stream. Called (via
    /// [`CloseOnDrop`]) when the producing operator finishes — or unwinds.
    pub fn close(&self) {
        self.stats.close();
        self.exchange.close();
    }
}

/// Closes a [`StageSink`] on drop, so a panicking upstream operator still
/// releases the downstream consumers (they drain and finish; the panic then
/// propagates at scope join).
pub struct CloseOnDrop<'a>(pub StageSink<'a>);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Abandons a stage's *input* exchange on drop — the consumer-side
/// counterpart of [`CloseOnDrop`]: if the consuming operator unwinds, its
/// upstream producer must not stay blocked in [`Channel::push`] forever.
/// Running it after normal completion is harmless (the stream is already
/// closed and drained).
pub struct AbandonOnDrop<'a>(pub Option<&'a Exchange>);

impl Drop for AbandonOnDrop<'_> {
    fn drop(&mut self) {
        if let Some(ex) = self.0 {
            ex.abandon();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::port::FragmentPort;
    use super::*;
    use std::sync::atomic::AtomicU64;
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

    #[test]
    fn stats_cutoff_fires_at_the_target() {
        let stats = OnlineStats::new(64, 10, 7);
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..6i64 {
                    stats.offer(&[2 * i, 2 * i + 1]);
                }
            });
            let cut = stats.wait_cutoff();
            assert!(cut.seen >= 10);
            assert!(!cut.sample.is_empty());
            // Reservoir capacity 64 > stream: the sample is the full prefix.
            assert_eq!(cut.sample.len() as u64, cut.seen);
        });
        // Offers after the freeze still count tuples.
        stats.offer(&[99]);
        assert_eq!(stats.seen(), 13);
    }

    #[test]
    fn stats_cutoff_fires_on_close_for_tiny_streams() {
        let stats = OnlineStats::new(16, 1_000_000, 3);
        stats.offer(&[1, 2, 3]);
        stats.close();
        let cut = stats.wait_cutoff();
        assert_eq!(cut.seen, 3);
        assert!(cut.complete);
        assert_eq!(cut.sample.len(), 3);
    }

    #[test]
    fn reservoir_keeps_hot_keys_proportional() {
        // A 50%-hot stream must stay roughly 50% hot in the frozen sample —
        // the property the downstream scheme build depends on.
        let stats = OnlineStats::new(512, 20_000, 11);
        let mut stream = Vec::new();
        for i in 0..20_000i64 {
            stream.push(if i % 2 == 0 { 42 } else { i % 257 });
        }
        stats.offer(&stream);
        let cut = stats.wait_cutoff();
        assert_eq!(cut.sample.len(), 512);
        let hot = cut.sample.iter().filter(|&&k| k == 42).count();
        assert!(
            (hot as f64) > 0.35 * 512.0 && (hot as f64) < 0.65 * 512.0,
            "hot fraction {hot}/512 drifted from the stream's 50%"
        );
    }
}
