//! Mapper tasks: claim morsels, batch-route them through the scheme's
//! router, and push per-region fragments into the owning reducers' bounded
//! queues.
//!
//! A scan morsel is a range of the caller's tuples. The mapper that claims
//! it transposes that range into one pair of scratch columns it owns for
//! the whole query, and routes those; the transpose is routing work, timed
//! on the same clock. No scan is ever transposed whole. A morsel whose key
//! bounds fall on grid lines no region takes ([`Router::routes_nowhere`])
//! is not transposed or routed at all: it counts down the seal like any
//! other, and since routing RNGs are seeded per morsel, no other morsel's
//! stream moves. A pipelined query's root probe side is scanned in key
//! order when it was counted (see [`crate::plan`]), so its morsels are key
//! ranges. An exchange batch arrives in columns already and is routed as
//! it is.
//!
//! Ownership is *not* baked into the plan: every fragment resolves its
//! destination through the shared epoch-versioned
//! [`RoutingTable`](ewh_core::RoutingTable) at push time, so a region the
//! migration coordinator reassigns mid-run re-routes all subsequent
//! fragments immediately. Each fragment is stamped with the routing epoch
//! observed *before* the owner lookup — the reducer-side migration fence
//! relies on the table's ordering contract (owner stored before the epoch
//! bump) to tell pre-migration stragglers from post-migration traffic.
//!
//! Replication is shipped once per reducer, not once per region. The
//! regions of a line that hold its tuples alone — a content-insensitive row
//! band or column, a hot key's block within one grid row — share one
//! fragment in the scatter ([`RouteScatter::take_group`]). The mapper sends
//! it to each reducer owning some of them as one delivery, naming that
//! reducer's other regions of the line as the delivery's siblings, and
//! copies it once per extra reducer; the reducer makes the siblings' copies.
//!
//! Mappers coordinate the *seal protocol* without a central barrier
//! ([`SealState`]): atomic countdowns track unrouted scan morsels, and for
//! an exchange-fed probe side a routed-batch counter is checked against the
//! (closed) exchange's push count. Because every mapper finishes pushing a
//! unit's fragments *before* publishing its completion, FIFO queue order
//! guarantees a reducer never sees relation data after that relation's
//! seal. Once the scan plan drains, mappers keep pulling intermediate
//! batches from the upstream exchange until it closes — this is how a
//! downstream operator's shuffle overlaps the upstream operator's probe.
//!
//! ## Cooperative scheduling
//!
//! A mapper is a task on the shared worker-pool runtime, not an OS thread:
//! [`MapperTask::poll`] routes (at most) one unit — a scan morsel or an
//! exchange batch — per invocation and *yields* between units, so many
//! queries' mappers interleave on a fixed pool. Its three wait points park
//! the task (register a waker, return `Pending`) instead of the worker:
//!
//! * a full reducer queue — the waker is registered with that queue's
//!   producer list under the queue's own lock
//!   ([`FragmentPort::try_push_or_park`]); the in-progress unit keeps its
//!   routed fragments and the one bounced delivery's tuples across polls,
//!   and the accumulated stall is reported to the queue's backpressure
//!   account when the push finally lands;
//! * the `R2` gate while the build phase is still shipping — the waker
//!   registers with [`SealState::r1_wake`], woken by the mapper that
//!   routes the last `R1` morsel (generation read before the countdown
//!   check, so the last decrement can never race past the registration);
//! * an empty (but open) upstream exchange during the drain phase
//!   ([`FragmentPort::try_pop_or_park`] on the [`Exchange`]).
//!
//! Every park also registers with the query's [`CancelToken`]: a parked
//! task is never re-polled, so cancellation must *wake* it to be observed.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

#[cfg(doc)]
use ewh_core::Router;
use ewh_core::{ColumnBatch, Key, Rel, RouteBatch, RouteScatter};

use super::exchange::Exchange;
use super::morsel::Claim;
use super::port::{DeliveryPort, FragmentPort, PortPop};
use super::queue::{Delivery, RegionBatch};
use super::runtime::{Poll, TaskCx, WakeSet, Waker};
use super::Run;

/// The engine's distributed end-of-input detector, shared by every mapper
/// (and consulted by the last mapper to drop: a run whose mappers are all
/// gone unsealed is cancelled).
///
/// * `SealR1` fires when the last `R1` scan morsel is routed (`R1` is
///   always a scan; streamed build sides would need bushy plans).
/// * `SealAll` fires when every scan morsel is routed **and** the probe
///   exchange — if the probe side streams — is closed and fully routed.
///   The upstream operator closes its output exchange at quiescence, so
///   *upstream quiescence is what drives the downstream seal*.
pub struct SealState<'a> {
    /// Unrouted `R1` scan morsels; zero enables migrations and `SealR1`.
    pub r1_remaining: AtomicUsize,
    /// Unrouted scan morsels of both relations.
    pub scan_remaining: AtomicUsize,
    /// Streaming probe side, if any.
    pub exchange: Option<&'a Exchange>,
    /// Claim sequence for exchange batches (deterministic RNG streams).
    pub exchange_claims: AtomicU64,
    /// Exchange batches fully routed (fragments pushed).
    pub routed_batches: AtomicU64,
    /// Waiters parked on the `R2` gate (the `R1` countdown); woken by the
    /// mapper whose decrement takes `r1_remaining` to zero.
    pub r1_wake: WakeSet,
    /// Dedupes the `SealAll` broadcast.
    sealed_all: AtomicBool,
}

impl<'a> SealState<'a> {
    pub fn new(r1_morsels: usize, scan_morsels: usize, exchange: Option<&'a Exchange>) -> Self {
        SealState {
            r1_remaining: AtomicUsize::new(r1_morsels),
            scan_remaining: AtomicUsize::new(scan_morsels),
            exchange,
            exchange_claims: AtomicU64::new(0),
            routed_batches: AtomicU64::new(0),
            r1_wake: WakeSet::new(),
            sealed_all: AtomicBool::new(false),
        }
    }

    /// Did `SealAll` fire? A completed run must have sealed; a cancelled
    /// run never seals (the last mapper's broken-pipeline test).
    pub fn sealed_all(&self) -> bool {
        self.sealed_all.load(Ordering::Acquire)
    }

    /// Broadcasts `SealAll` once the whole input — scan morsels and, if the
    /// probe streams, the closed exchange — has been routed. Safe to call
    /// from any task at any time; deduplicated internally.
    pub fn maybe_seal_all(&self, queues: &[Arc<DeliveryPort>]) {
        if self.scan_remaining.load(Ordering::Acquire) != 0 {
            return;
        }
        if let Some(ex) = self.exchange {
            if !ex.drained(self.routed_batches.load(Ordering::Acquire)) {
                return;
            }
        }
        if !self.sealed_all.swap(true, Ordering::AcqRel) {
            broadcast(queues, || Delivery::SealAll);
        }
    }
}

/// What the in-progress unit is routing — a claimed scan morsel, or an
/// exchange batch (owned here until its fragments ship, because the
/// shared gauge releases it only once the whole batch is routed).
enum UnitSource {
    Scan { rel: Rel },
    Batch { tuples: ColumnBatch },
}

/// One unit of routing work in flight across polls: the scatter's touched
/// snapshot, the ship cursor and the group being shipped.
struct InFlightUnit {
    source: UnitSource,
    /// Snapshot of the touched region list (fragments stay parked in
    /// `MapperTask::scatter` until taken for shipping).
    touched: Vec<u32>,
    /// Next slot of `touched` to take from the scatter.
    next: usize,
    /// Regions of the group being shipped that no delivery carried yet:
    /// the slots sharing one fragment, or a single region.
    group: Vec<u32>,
    /// The group's tuples, while a delivery still needs them.
    tuples: Option<ColumnBatch>,
    /// Tuples whose delivery bounced off a full queue, and what that
    /// delivery was charged to the gauge and volume counters.
    bounced: Option<(ColumnBatch, u64)>,
}

/// One mapper task. Routes the scan plan, then drains the probe exchange
/// (if any); finishes when both are done or the run is cancelled.
pub struct MapperTask<'a> {
    run: &'a Run<'a>,
    /// Two-pass write-combining routing scratch: histogram + staging
    /// lanes + the current unit's built fragments (see
    /// [`RouteScatter`]).
    scatter: RouteScatter,
    /// The claimed scan morsel, transposed: one pair of columns the task
    /// refills for every morsel it routes.
    scratch: ColumnBatch,
    unit: Option<InFlightUnit>,
    /// Scan plan exhausted; now pulling from the exchange (if any).
    draining: bool,
    /// Start of the current backpressure stall: (queue index, when).
    blocked: Option<(usize, Instant)>,
    /// Returned `Ready`. A mapper dropped without it panicked, maybe with
    /// a claimed `R1` morsel that would keep the others parked on the `R2`
    /// gate forever, so it cancels the run.
    ready: bool,
}

impl<'a> MapperTask<'a> {
    pub fn new(run: &'a Run<'a>) -> Self {
        MapperTask {
            run,
            scatter: RouteScatter::new(run.io.table.n_regions()),
            scratch: ColumnBatch::new(),
            unit: None,
            draining: false,
            blocked: None,
            ready: false,
        }
    }

    /// Advances the mapper by (at most) one routed unit. Yields after each
    /// completed unit so concurrent queries' mappers interleave fairly on
    /// the shared pool; parks (`Pending`, waker registered) on a full
    /// reducer queue, the un-sealed `R2` gate, or an empty upstream
    /// exchange.
    pub fn poll(&mut self, cx: &TaskCx<'_>) -> Poll {
        let run = self.run;
        if run.io.cancel.is_cancelled() {
            // Seals never fire; the last sender to drop aborts the
            // reducers, and the drop undoes the accounting of anything
            // routed but never shipped.
            self.ready = true;
            return Poll::Ready;
        }
        if self.unit.is_some() {
            // One clock pair around the whole ship pass — per-fragment
            // timing costs more than the pushes it would measure. A full
            // queue bounces `try_push_or_park` immediately, so the park
            // stall itself never lands in this account (it is
            // backpressure, tracked by the queue); a link's frame encode
            // and socket write do.
            let start = Instant::now();
            let shipped = self.ship_fragments(cx.waker());
            run.counters.route_secs.add_since(start);
            if !shipped {
                // The waker is registered with the full queue; add the
                // cancel registration so an abort also wakes us. A raced
                // cancel re-polls instead of parking.
                return if run.io.cancel.park(cx.waker()) {
                    Poll::Pending
                } else {
                    Poll::Yielded
                };
            }
            self.complete_unit();
            return Poll::Yielded;
        }
        if !self.draining {
            // Gate R2 claims on the R1 seal countdown: probe fragments
            // routed before every R1 morsel has *shipped* can only pile up
            // in unbounded pre-seal `pending` buffers (see
            // `MorselPlan::try_claim`), and a mapper racing ahead into R2
            // competes for queue space with the mapper still shipping the
            // final R1 fragments. Generation before the countdown read:
            // if the final decrement fires in between, registration
            // refuses and we re-poll with the gate open.
            let r1_gen = run.seal.r1_wake.generation();
            let allow_r2 = run.seal.r1_remaining.load(Ordering::Acquire) == 0;
            match run.plan.try_claim(allow_r2) {
                Claim::Claimed(morsel) => {
                    // The bounds check and the transpose into the task's
                    // columns are routing work.
                    let start = Instant::now();
                    let side = match morsel.rel {
                        Rel::R1 => run.io.r1,
                        Rel::R2 => run.io.r2.scan(),
                    };
                    let tuples = &side[morsel.range()];
                    let (lo, hi) = tuples.iter().fold((Key::MAX, Key::MIN), |(lo, hi), t| {
                        (lo.min(t.key), hi.max(t.key))
                    });
                    if run.io.router.routes_nowhere(morsel.rel, lo, hi) {
                        // No region takes a tuple of it: done, unrouted.
                        run.counters.route_secs.add_since(start);
                        scan_done(run, morsel.rel);
                        return Poll::Yielded;
                    }
                    self.scratch.refill_from_tuples(tuples);
                    let source = UnitSource::Scan { rel: morsel.rel };
                    self.route_unit(start, morsel.index as u64, source);
                    return Poll::Yielded;
                }
                Claim::Blocked => {
                    return if run.seal.r1_wake.register(cx.waker(), r1_gen)
                        && run.io.cancel.park(cx.waker())
                    {
                        Poll::Pending
                    } else {
                        Poll::Yielded
                    };
                }
                Claim::Drained => self.draining = true,
            }
        }
        // Scan plan drained: pull streamed probe batches until the upstream
        // operator closes the exchange.
        let Some(exchange) = run.seal.exchange else {
            self.ready = true;
            return Poll::Ready;
        };
        match exchange.try_pop_or_park(cx.waker()) {
            PortPop::Item(batch) => {
                let seq = run.seal.exchange_claims.fetch_add(1, Ordering::Relaxed);
                // Disjoint RNG stream space from plan morsel indices.
                let source = UnitSource::Batch { tuples: batch };
                self.route_unit(Instant::now(), u64::MAX - seq, source);
                Poll::Yielded
            }
            PortPop::Closed => {
                // Closed and empty. Re-check the seal: the mapper that
                // routed the final batch may have observed the exchange
                // still open.
                run.seal.maybe_seal_all(&run.queues);
                self.ready = true;
                Poll::Ready
            }
            PortPop::Empty => {
                // Consumer waker is registered with the exchange; a raced
                // cancel re-polls instead of parking.
                if run.io.cancel.park(cx.waker()) {
                    Poll::Pending
                } else {
                    Poll::Yielded
                }
            }
        }
    }

    /// Routes one unit's columns — a scan morsel's, transposed into
    /// `self.scratch`, or an exchange batch's — into `self.scatter`'s
    /// per-region fragments (retained until the unit's fragments have all
    /// shipped), on the route clock from `start`, and makes it the unit in
    /// flight. Two passes: a histogram pass records destinations, then a
    /// write-combining scatter builds every fragment exact-sized in one
    /// sweep over the columns.
    fn route_unit(&mut self, start: Instant, stream: u64, source: UnitSource) {
        let run = self.run;
        let (rel, batch) = match &source {
            UnitSource::Scan { rel } => (*rel, &self.scratch),
            UnitSource::Batch { tuples } => (Rel::R2, tuples),
        };
        // Seed the routing RNG per morsel/batch (not per task) so content-
        // insensitive routing is identical no matter which mapper claims the
        // unit — network volume stays deterministic per seed for scans.
        let stream = stream << 1 | matches!(rel, Rel::R2) as u64;
        let mut rng =
            SmallRng::seed_from_u64(run.cfg.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (keys, payloads) = (batch.keys(), batch.payloads());
        run.io
            .router
            .route_scatter(rel, keys, payloads, &mut rng, &mut self.scatter);
        run.counters.route_secs.add_since(start);
        self.unit = Some(InFlightUnit::new(source, self.scatter.touched()));
    }

    /// Ships the in-progress unit's fragments, group by group: one delivery
    /// per owning reducer, the first unshipped region of the group with the
    /// others that reducer owns as its siblings, resolving ownership at
    /// push time. Returns `false` (and leaves the cursor where it was) when
    /// a push bounces off a full queue — with `waker` registered on that
    /// queue's producer list, so the consumer's next pop re-polls us.
    fn ship_fragments(&mut self, waker: &Waker) -> bool {
        let run = self.run;
        let unit = self.unit.as_mut().expect("ship without a unit");
        loop {
            if unit.group.is_empty() {
                if unit.next == unit.touched.len() {
                    // Every fragment shipped; account the final stall (if
                    // any) and report the unit complete.
                    if let Some((q, since)) = self.blocked.take() {
                        run.queues[q].note_blocked(since.elapsed().as_nanos() as u64);
                    }
                    return true;
                }
                let (slots, tuples) = self.scatter.take_group(unit.next);
                unit.group.extend_from_slice(&unit.touched[slots.clone()]);
                unit.next = slots.end;
                unit.tuples = Some(tuples);
            }
            // Epoch before owners: the table's ordering contract makes a
            // stale-owner push always carry a pre-migration stamp, for the
            // head and every sibling. All are re-read on every retry, so a
            // delivery parked behind a full queue regroups if one of its
            // regions migrated meanwhile.
            let epoch = run.io.table.epoch();
            let owner = run.io.table.owner_of(unit.group[0]);
            // The head's owner's regions to the front: `group[..n]` ride.
            let mut n = 1;
            for i in 1..unit.group.len() {
                if run.io.table.owner_of(unit.group[i]) == owner {
                    unit.group.swap(n, i);
                    n += 1;
                }
            }
            // The last delivery of a group takes its tuples; any other
            // takes a copy. Whatever regroups on a retry, some copy stays in
            // hand until the group's last delivery.
            let last = n == unit.group.len();
            let (tuples, charged) = match unit.bounced.take() {
                Some(bounced) => bounced,
                None if last => (unit.tuples.take().expect("the group's tuples"), 0),
                None => (unit.tuples.clone().expect("the group's tuples"), 0),
            };
            if last {
                if let Some(spare) = unit.tuples.take() {
                    self.scatter.recycle(spare);
                }
            } else if unit.tuples.is_none() {
                unit.tuples = Some(tuples.clone());
            }
            // Charged as it leaves for the wire: what its regions will hold.
            let charge = (tuples.len() * n) as u64;
            recharge(run, charged, charge);
            let delivery = Delivery::Batch(RegionBatch {
                region: unit.group[0],
                rel: unit.rel(),
                epoch,
                tuples,
                siblings: unit.group[1..n].to_vec(),
            });
            match run.queues[owner as usize].try_push_or_park(delivery, waker) {
                Ok(()) => {
                    unit.group.drain(..n);
                    if let Some((q, since)) = self.blocked.take() {
                        run.queues[q].note_blocked(since.elapsed().as_nanos() as u64);
                    }
                }
                Err(Delivery::Batch(b)) => {
                    unit.bounced = Some((b.tuples, charge));
                    if self.blocked.is_none() {
                        self.blocked = Some((owner as usize, Instant::now()));
                    }
                    return false;
                }
                Err(_) => unreachable!("try_push_or_park hands back what it was given"),
            }
        }
    }

    /// Publishes a fully shipped unit's completion: seal countdowns for
    /// scan morsels, the routed-batch count (and the exchange-buffer gauge
    /// release) for streamed batches.
    fn complete_unit(&mut self) {
        let run = self.run;
        let unit = self.unit.take().expect("complete without a unit");
        self.scatter.clear();
        run.counters.morsels_routed.fetch_add(1, Ordering::Relaxed);
        match unit.source {
            UnitSource::Scan { rel, .. } => scan_done(run, rel),
            UnitSource::Batch { tuples } => {
                // The batch leaves the exchange buffer only now — its
                // routed copies were charged fragment by fragment above.
                // Its allocation is recycled into future fragment columns.
                run.io.gauge.sub(tuples.len() as u64);
                self.scatter.recycle(tuples);
                run.seal.routed_batches.fetch_add(1, Ordering::AcqRel);
                run.seal.maybe_seal_all(&run.queues);
            }
        }
    }
}

/// Counts a scan morsel of `rel` down, routed and shipped or routed
/// nowhere. AcqRel: the last decrement must observe every other mapper's
/// queue pushes as already completed. The R1 seal is broadcast *before*
/// this morsel's `scan_remaining` decrement, so in every queue's FIFO order
/// SealR1 precedes SealAll.
fn scan_done(run: &Run<'_>, rel: Rel) {
    if rel == Rel::R1 && run.seal.r1_remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        broadcast(&run.queues, || Delivery::SealR1);
        // The R2 gate just opened: wake every mapper parked on
        // `Claim::Blocked` (generation bump also refuses any registration
        // racing this decrement).
        run.seal.r1_wake.wake_all();
    }
    if run.seal.scan_remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        run.seal.maybe_seal_all(&run.queues);
    }
}

/// A mapper that exits holding a unit — cancelled, or panicked — rolls
/// back its accounting: the bounced delivery (charged to the gauge and
/// volume counters) and, for an exchange batch, the batch's own gauge
/// charge. One that panicked cancels the run. Then it counts itself out.
impl Drop for MapperTask<'_> {
    fn drop(&mut self) {
        let run = self.run;
        if !self.ready {
            run.io.cancel.cancel();
        }
        if let Some(unit) = self.unit.take() {
            if let Some((_, charged)) = unit.bounced {
                recharge(run, charged, 0);
            }
            if let UnitSource::Batch { tuples } = unit.source {
                run.io.gauge.sub(tuples.len() as u64);
            }
        }
        run.mapper_exited();
    }
}

/// Moves a delivery's charge to the gauge, the volume counter and the
/// in-flight count from `from` tuples to `to`.
fn recharge(run: &Run<'_>, from: u64, to: u64) {
    if to > from {
        let more = to - from;
        run.io.gauge.add(more);
        run.counters
            .network_tuples
            .fetch_add(more, Ordering::Relaxed);
        run.in_flight.fetch_add(more, Ordering::AcqRel);
    } else if from > to {
        let less = from - to;
        run.io.gauge.sub(less);
        run.counters
            .network_tuples
            .fetch_sub(less, Ordering::Relaxed);
        run.in_flight.fetch_sub(less, Ordering::AcqRel);
    }
}

impl InFlightUnit {
    fn new(source: UnitSource, touched: &[u32]) -> Self {
        InFlightUnit {
            source,
            touched: touched.to_vec(),
            next: 0,
            group: Vec::new(),
            tuples: None,
            bounced: None,
        }
    }

    fn rel(&self) -> Rel {
        match &self.source {
            UnitSource::Scan { rel, .. } => *rel,
            UnitSource::Batch { .. } => Rel::R2,
        }
    }
}

/// Pushes one control message to every reducer queue (bypassing the bound —
/// control must never deadlock behind a full queue).
pub fn broadcast(queues: &[Arc<DeliveryPort>], mut make: impl FnMut() -> Delivery) {
    for q in queues {
        q.push_unbounded(make());
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use ewh_core::{build_csio, CostModel, HistogramParams, JoinCondition, Key, SchemeKind};

    use super::super::testkit::{tuples, Fault, Kit};
    use super::super::{EngineConfig, EngineRuntime};
    use super::*;
    use crate::{run_operator, ExecMode, OperatorConfig};

    /// The first mapper to claim a morsel panics holding it. The morsel
    /// never completes, so the run cannot seal: the last mapper to drop
    /// cancels it, the panic reaches the scope's join, every charge is
    /// released, and the pool runs the next query as the batch oracle does.
    #[test]
    fn a_mapper_that_panics_mid_run_cancels_the_run_and_the_pool_serves_the_next_query() {
        let k1: Vec<Key> = (0..6000).map(|i| i * 7 % 900).collect();
        let k2: Vec<Key> = (0..6000).map(|i| i * 11 % 900).collect();
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let cond = JoinCondition::Band { beta: 2 };
        let params = HistogramParams {
            j: 6,
            ..Default::default()
        };
        let scheme = build_csio(&k1, &k2, &cond, &CostModel::band(), &params);
        let cfg = EngineConfig {
            queue_tuples: 512,
            ..EngineConfig::for_tasks(2, 256, 3)
        };
        let kit = Kit::new(&r1, &r2, &scheme, cond, cfg);
        let rt = EngineRuntime::new(4);
        let exploded = AtomicBool::new(false);
        let holding =
            |task: &MapperTask<'_>| task.unit.is_some() && !exploded.swap(true, Ordering::AcqRel);
        let joined = kit.join(&rt, Some(Fault::Mapper(&holding)), |_| {});
        let payload = joined.panic.expect("the mapper's panic reaches the join");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a mapper exploded"));
        assert!(joined.outs[0].cancelled);
        assert_eq!(kit.gauge.current_tuples(), 0, "every charge is released");

        let pipelined = OperatorConfig {
            j: 6,
            threads: 2,
            ..Default::default()
        };
        let batch = OperatorConfig {
            mode: ExecMode::Batch,
            ..pipelined.clone()
        };
        let [pipe, oracle] = [pipelined, batch]
            .map(|cfg| run_operator(&rt, SchemeKind::Csio, &r1, &r2, &cond, &cfg).join);
        assert!(oracle.output_total > 0);
        assert_eq!(
            (pipe.output_total, pipe.checksum),
            (oracle.output_total, oracle.checksum)
        );
    }
}
