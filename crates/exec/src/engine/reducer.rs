//! Reducer tasks: consume routed fragments from a bounded queue, collect
//! each owned region's `R1` fragments, sort them into the region's build
//! side once at the seal, and sweep probe (`R2`) chunks against it from
//! then on. Order is made where it is needed and nowhere else: at the seal,
//! and on the way to disk for a run that spills before it.
//!
//! Memory discipline is the point: a sealed region buffers probe fragments
//! until they make a chunk worth sweeping — an eighth of its build, and
//! never fewer than `probe_chunk` tuples — and frees them right
//! after their sweep, and a region's build state is freed the moment the
//! region completes — the engine never holds the full shuffle
//! materialization the batch path does. The buffer is what pays for the
//! sweep: a chunk of `c` sorted probe tuples against `b` build tuples costs
//! about `c` gallops across the build while `c ≪ b`, each a cache miss, and
//! a walk of the build in order once `c` reaches `b / 8` (about eight build
//! tuples a probe tuple, the per-input cost the paper's region weight
//! charges). While the query sits over its spill budget a region sweeps at
//! the floor, since the sweep then frees memory that would otherwise go to
//! disk.
//!
//! Under a budget the spill ladder sheds a whole region's build at a time,
//! and a spilled build comes back once, whole, as soon as it and its merge
//! fit under the budget — the policy of hybrid hash join (DeWitt et al.,
//! SIGMOD 1984): spill whole partitions, and bring each back once. Only a
//! build that cannot come back is replayed run by run under every chunk,
//! and its chunks wait for an eighth of the whole build, spilled runs
//! included, since each then pays for reloading them too.
//!
//! A replicated fragment arrives once per reducer: a delivery names the
//! sibling regions of this reducer that take the same tuples, and the
//! reducer makes their copies, each of which goes through the same
//! per-region path (absorb, park or forward) as the delivery's own region.
//!
//! ## Cooperative scheduling
//!
//! A reducer is a task on the shared worker-pool runtime: each
//! [`ReducerTask::poll`] drains a bounded number of deliveries and then
//! yields its worker, and an empty queue parks the task (`Pending`, waker
//! registered on the queue's consumer list) instead of an OS thread. When
//! the stage ships output downstream ([`StageSink`]), swept batches go
//! through an *outbox*: a sweep's output is staged locally and pushed to
//! the inter-operator exchange with the non-blocking
//! [`FragmentPort::try_push_or_park`] — a
//! blocking push would suspend a pool worker the downstream consumer may
//! need, which on a shared pool is a deadlock, not just a stall. While the
//! outbox is non-empty the reducer processes no further deliveries, so
//! upstream backpressure still propagates (its queue fills, mappers park);
//! the price is that at most one *slice's* output can sit staged beyond the
//! exchange bound, and the shared gauge charges it honestly. A slice is as
//! much of a sorted probe chunk as joins to one exchange of output — a
//! single tuple if its partners alone are more — because a hot chunk's
//! whole output can be twenty exchanges, and every reducer of a stage may
//! hold one.
//!
//! No handler sweeps: a fragment that fills a chunk, a seal, an adoption
//! only *queue* the regions that need a sweep (`sweep_queue`), and the poll
//! loop is the one place a sweep starts — one slice a turn, after the
//! outbox has drained, before the next delivery is popped; a region with
//! more to sweep keeps the head of the queue. So `SealAll` over a dozen
//! buffered regions stages one slice at a time, not all their output at
//! once, and no fragment or `Migrate` reaches a half-swept chunk. The spill
//! ladder can: what is left of a chunk is pending probe state like any
//! other, spilled sorted and replayed as a run.
//!
//! A parked reducer is woken by a push to its queue (including the
//! unbounded control pushes: `Abort`, `Adopt`, forwards) or, when parked
//! on a full downstream exchange, by that exchange's consumer popping or
//! abandoning — which is also how cancellation reaches a reducer parked
//! there, so the reducer never registers with the cancel token itself.
//!
//! ## Region migration (the reducer's side of the protocol)
//!
//! Ownership is dynamic: the coordinator can reassign a region mid-run by
//! updating the shared routing table and sending the old owner
//! [`Delivery::Migrate`]. The old owner packs the region's sealed state and
//! ships it to the new owner as [`Delivery::Adopt`]. Fragments caught on
//! the wrong side of the reassignment are handled by a *per-region epoch
//! fence*:
//!
//! * a fragment that reaches a reducer which no longer owns the region was
//!   necessarily routed before the migration (its epoch stamp is strictly
//!   below the region's migration epoch — the routing table's ordering
//!   contract) and is **forwarded** to the current owner;
//! * a fragment that reaches the *new* owner before the `Adopt` message is
//!   **parked** and absorbed the moment the state installs — queue FIFO
//!   guarantees the old owner's forwards arrive after its `Adopt`, so
//!   parking is only ever a short race with the coordinator's epoch bump.
//!
//! Every absorbed tuple decrements the engine-wide in-flight counter; the
//! coordinator broadcasts [`Delivery::Finish`] only at quiescence, which is
//! what lets reducers keep draining after `SealAll` without ever dropping a
//! late fragment. `Finish` is the one way a run completes, whether or not
//! any region ever moves.

use std::collections::VecDeque;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ewh_core::{ColumnBatch, JoinCondition, KeyRange, Rel, RoutingTable};

use crate::local_join::{sweep_columns, sweep_columns_each, tail_within, KeyFrom, OutputWork};

use super::board::ProgressBoard;
use super::exchange::StageSink;
use super::morsel::MemGauge;
use super::pool::BatchPool;
use super::port::{DeliveryPort, FragmentPort, PortPop};
use super::queue::{Delivery, MigratedRegion, RegionBatch};
use super::runtime::{CancelToken, TaskCx, WakeSet, Waker};
use super::spill::{SpillContext, SpillRun};
use super::Straggler;

/// Deliveries processed per poll before the task yields its worker, so a
/// firehosed reducer cannot monopolize a pool slot against other queries.
const DELIVERIES_PER_POLL: usize = 32;

/// Resident build tuples per buffered probe tuple at which a sealed region
/// sweeps (see the module docs for why).
const BUILD_PER_PROBE: usize = 8;

/// Per-region accumulator.
#[derive(Debug, Default)]
struct RegionState {
    /// `R1` fragments in arrival order, unsorted: the seal sorts their
    /// concatenation once, and a run that spills first is sorted on its
    /// way out (see `take_sorted_run`).
    runs: Vec<ColumnBatch>,
    /// The sorted build columns (valid once `sealed` is set).
    build: ColumnBatch,
    /// Probe tuples waiting for the seal or for a sweep to be due
    /// (`sweep_due`).
    pending: ColumnBatch,
    /// Build-side runs spilled to disk under budget pressure. They come
    /// back once, merged into `build`, as soon as they fit under the budget
    /// (`bring_build_back`); until then each is reloaded transiently and
    /// swept against every probe chunk (a sort-merge join distributes over
    /// any run partition of its build side). Retired on coming back or
    /// when the region completes.
    spilled_build: Vec<SpillRun>,
    /// Tuples in `spilled_build`, kept as a running count so `sweep_due`
    /// does not sum descriptors on every delivery.
    spilled_build_tuples: u64,
    /// The build came back from disk since it was last shed: shedding it
    /// again is a re-spill (`SpillTotals::respills`). A migration does not
    /// carry it, so an adopter counts no re-spill of what it adopted.
    came_back: bool,
    /// Probe tuples spilled pre-sweep; replayed as extra probe chunks at
    /// the next flush (or at finish), then retired.
    spilled_pending: Vec<SpillRun>,
    sealed: bool,
    input: u64,
    output: u64,
    checksum: u64,
}

impl RegionState {
    /// Removes pre-seal run `i` as a spill victim, sorted: every build or
    /// probe run in the segment is key-sorted (the replay sweeps each as
    /// it stands), and arrival order does not make it so.
    fn take_sorted_run(&mut self, i: usize) -> ColumnBatch {
        let mut run = self.runs.swap_remove(i);
        run.sort_by_key();
        run
    }

    /// Resident build-side tuples: the pre-seal runs plus the sealed build.
    fn build_side_tuples(&self) -> usize {
        self.runs.iter().map(ColumnBatch::len).sum::<usize>() + self.build.len()
    }

    fn resident_tuples(&self) -> u64 {
        (self.build_side_tuples() + self.pending.len()) as u64
    }

    /// Whether the sealed region's probe buffer is due for a sweep: at
    /// least `floor` tuples and, unless the query is `pressed` over its
    /// spill budget (a sweep then frees what would otherwise go to disk),
    /// an eighth of the whole build, resident and spilled: a chunk swept
    /// against a spilled build pays for reloading it as well as for
    /// walking it.
    fn sweep_due(&self, floor: usize, pressed: bool) -> bool {
        let due = if pressed {
            floor
        } else {
            let build = self.build.len() + self.spilled_build_tuples as usize;
            floor.max(build / BUILD_PER_PROBE)
        };
        self.sealed && self.pending.len() >= due
    }
}

/// Final tallies of one region.
#[derive(Clone, Debug)]
pub struct RegionResult {
    pub region: u32,
    pub input: u64,
    pub output: u64,
    pub checksum: u64,
}

/// What one reducer produced.
#[derive(Debug)]
pub struct ReducerOutcome {
    pub results: Vec<RegionResult>,
    /// Time spent processing deliveries.
    pub busy_secs: f64,
    /// Time spent parked on an empty queue (or a full downstream
    /// exchange).
    pub idle_secs: f64,
    pub aborted: bool,
}

/// What one [`ReducerTask::poll`] reports to the orchestration layer.
#[derive(Debug)]
pub enum ReducerStep {
    /// Made progress; poll again soon.
    Working,
    /// Nothing to do right now (empty queue / full downstream exchange).
    Parked,
    /// Terminal delivery processed and outbox drained.
    Done(ReducerOutcome),
}

/// State shared (by reference) between all reducer tasks of one run.
pub struct ReducerShared<'a> {
    pub queues: &'a [Arc<DeliveryPort>],
    pub table: &'a RoutingTable,
    pub board: &'a ProgressBoard,
    pub gauge: &'a MemGauge,
    pub cond: &'a JoinCondition,
    pub work: OutputWork,
    /// The fewest probe tuples a region buffers before a sweep (normalized
    /// to ≥ 1 by the orchestrator); a region waits for an eighth of its
    /// build, resident and spilled, unless the query is over its budget.
    /// Also the cap on every spilled run.
    pub probe_chunk: usize,
    /// Tuples routed but not yet absorbed into region state.
    pub in_flight: &'a AtomicU64,
    /// Migration handshakes completed (incremented by the adopting side).
    pub adoptions: &'a AtomicU64,
    /// Tuples shipped between reducers by migrations.
    pub migration_tuples: &'a AtomicU64,
    /// Fault-injection: slow down one reducer's absorption path.
    pub straggler: Option<Straggler>,
    /// Chained plans: ship each swept chunk's output downstream instead of
    /// folding it into a checksum only.
    pub sink: Option<StageSink<'a>>,
    /// Which side's key the emitted intermediate carries (see [`KeyFrom`]).
    pub key_from: KeyFrom,
    /// Spill trigger, in tuples: while the query's gauge sits above this,
    /// reducers shed state through `spill` (`None` disables the trigger).
    pub budget_tuples: Option<u64>,
    /// Per-query spill context; `None` disables out-of-core execution.
    pub spill: Option<&'a SpillContext>,
    /// Engine-wide cancel token. A failed spill write cancels it, which
    /// makes the mappers exit, breaks the seal chain, and tears the whole
    /// query down cooperatively — a bare panic inside a pool task would
    /// instead leave the query's other tasks parked forever on a shared
    /// pool. Cancelling also *wakes* every task parked on it.
    pub cancel: &'a CancelToken,
    /// Quiescence watchers (the coordinator between timed polls): woken
    /// when the routed-but-unabsorbed count crosses zero after the mappers
    /// are done, and after every completed adoption handshake.
    pub quiesce: &'a WakeSet,
    /// Set by the orchestrator once every mapper task has finished; gates
    /// the zero-crossing wake above (an in-flight dip to zero mid-run is
    /// not quiescence).
    pub mappers_done: &'a AtomicBool,
    /// Cumulative seal-sort wall time (one clock pair per `merge_gauged`
    /// pass), aggregated across reducers into `JoinStats::merge_secs`.
    pub merge_nanos: &'a AtomicU64,
    /// Cumulative sweep wall time (one clock pair per build×chunk sweep
    /// pass), aggregated across reducers into `JoinStats::sweep_secs`.
    pub sweep_nanos: &'a AtomicU64,
}

impl ReducerShared<'_> {
    /// The query's gauge sits over its spill budget.
    fn pressed(&self) -> bool {
        self.budget_tuples
            .is_some_and(|b| self.gauge.current_tuples() > b)
    }
}

/// One reducer task: drains queue `me` until finished or aborted.
pub struct ReducerTask<'a> {
    sh: &'a ReducerShared<'a>,
    me: usize,
    /// Region id → live state for regions this reducer currently owns.
    states: Vec<Option<RegionState>>,
    /// Per-region fence buffer: fragments that arrived ahead of the
    /// region's `Adopt` message.
    parked: Vec<Vec<RegionBatch>>,
    /// Output batches staged for the downstream exchange (see module
    /// docs); drained before any further delivery is processed.
    outbox: VecDeque<ColumnBatch>,
    /// Outbox batches spilled under budget pressure (the last rung of the
    /// spill ladder); reloaded one at a time once the resident outbox
    /// drains into the exchange.
    spilled_outbox: VecDeque<SpillRun>,
    /// Regions with buffered probe tuples to sweep, queued by the delivery
    /// that filled a chunk or sealed them; [`poll`](Self::poll) sweeps one
    /// slice of the head per loop turn. Always empty when a delivery is
    /// popped, so an entry's region is still owned, sealed and untouched by
    /// any fragment when its turn comes.
    sweep_queue: VecDeque<u32>,
    /// `Finish` arrived: tally the regions once `sweep_queue` and the
    /// outbox have drained.
    finishing: bool,
    busy_secs: f64,
    idle_secs: f64,
    /// Start of the current park (empty queue / blocked outbox).
    idle_since: Option<Instant>,
}

impl<'a> ReducerTask<'a> {
    pub fn new(sh: &'a ReducerShared<'a>, me: usize, owned: &[u32]) -> Self {
        let n_regions = sh.table.n_regions();
        let mut states: Vec<Option<RegionState>> = (0..n_regions).map(|_| None).collect();
        for &r in owned {
            states[r as usize] = Some(RegionState::default());
        }
        ReducerTask {
            sh,
            me,
            states,
            parked: (0..n_regions).map(|_| Vec::new()).collect(),
            outbox: VecDeque::new(),
            spilled_outbox: VecDeque::new(),
            sweep_queue: VecDeque::new(),
            finishing: false,
            busy_secs: 0.0,
            idle_secs: 0.0,
            idle_since: None,
        }
    }

    /// Takes up to [`DELIVERIES_PER_POLL`] steps — one slice of a queued
    /// region's sweep if there is one, else a delivery — flushing the outbox
    /// between them, and reports how the orchestrator should reschedule the
    /// task. A `Parked` step always leaves the task's waker registered with
    /// whichever resource refused it (the downstream exchange or this
    /// reducer's own queue).
    pub fn poll(&mut self, cx: &TaskCx<'_>) -> ReducerStep {
        let start = Instant::now();
        let queue = &self.sh.queues[self.me];
        let mut processed = 0usize;
        let pool = cx.pool();
        let step = loop {
            if !self.flush_outbox(cx.waker(), pool) {
                // Downstream exchange full: stop consuming so backpressure
                // reaches the mappers through our queue. The waker is on
                // the exchange's producer list; its consumer (or its
                // abandonment at cancel) wakes us.
                break self.park(queue.as_ref(), processed);
            }
            if processed >= DELIVERIES_PER_POLL {
                break ReducerStep::Working;
            }
            if let Some(region) = self.sweep_queue.pop_front() {
                let st = self.states[region as usize]
                    .as_mut()
                    .expect("a queued region stays owned until its sweep");
                if Self::flush(st, self.sh, self.me, region, &mut self.outbox, pool) {
                    // More to sweep: its next slice goes before any other
                    // region's, so a half-swept chunk is finished first.
                    self.sweep_queue.push_front(region);
                }
                processed += 1;
                self.maybe_spill();
                continue;
            }
            if self.finishing {
                // Terminal already processed; its last sweep's output just
                // drained.
                let results = self.tally(pool);
                break ReducerStep::Done(self.outcome(results, false));
            }
            let delivery = match queue.try_pop_or_park(cx.waker()) {
                PortPop::Item(d) => d,
                PortPop::Empty => break self.park(queue.as_ref(), processed),
                // A remote link that died mid-stream closes its port; the
                // transport has already cancelled the query, so tear down
                // exactly like an in-band abort.
                PortPop::Closed => Delivery::Abort,
            };
            self.unpark();
            processed += 1;
            match delivery {
                Delivery::Batch(batch) => self.on_delivery(batch, pool),
                Delivery::SealR1 => self.on_seal_r1(),
                Delivery::SealAll => self.on_seal_all(),
                Delivery::Migrate { region } => self.on_migrate(region),
                Delivery::Adopt { region, state } => self.on_adopt(region, *state, pool),
                Delivery::Finish => self.on_finish(),
                Delivery::Abort => {
                    self.discard();
                    self.busy_secs += start.elapsed().as_secs_f64();
                    return ReducerStep::Done(self.outcome(Vec::new(), true));
                }
            }
            // Budget enforcement rides on the delivery cadence: after each
            // absorbed message, shed state while the query gauge sits over
            // its slice (bounded file I/O inside a cooperative poll, like
            // the straggler injection above — never a wait on another
            // task).
            self.maybe_spill();
        };
        if processed > 0 || !matches!(step, ReducerStep::Parked) {
            self.busy_secs += start.elapsed().as_secs_f64();
        }
        step
    }

    /// Parks the task: publish the idle heartbeat (the migration
    /// coordinator treats an idle reducer as a migration target) and start
    /// the idle clock.
    fn park(&mut self, queue: &DeliveryPort, processed: usize) -> ReducerStep {
        self.sh.board.set_idle(
            self.me,
            queue.used_tuples() == 0
                && self.outbox.is_empty()
                && self.spilled_outbox.is_empty()
                && self.sweep_queue.is_empty(),
        );
        if self.idle_since.is_none() {
            self.idle_since = Some(Instant::now());
        }
        if processed > 0 {
            ReducerStep::Working
        } else {
            ReducerStep::Parked
        }
    }

    fn unpark(&mut self) {
        self.sh.board.set_idle(self.me, false);
        if let Some(since) = self.idle_since.take() {
            self.idle_secs += since.elapsed().as_secs_f64();
        }
    }

    fn outcome(&mut self, results: Vec<RegionResult>, aborted: bool) -> ReducerOutcome {
        if let Some(since) = self.idle_since.take() {
            self.idle_secs += since.elapsed().as_secs_f64();
        }
        ReducerOutcome {
            results,
            busy_secs: self.busy_secs,
            idle_secs: self.idle_secs,
            aborted,
        }
    }

    /// Pushes staged output batches to the downstream exchange until it
    /// fills, reloading spilled outbox runs as the resident outbox drains;
    /// `true` when both are empty. On a full exchange, `waker` is left
    /// registered with its producer list.
    fn flush_outbox(&mut self, waker: &Waker, pool: &BatchPool) -> bool {
        let Some(sink) = self.sh.sink else {
            debug_assert!(self.outbox.is_empty(), "outbox without a sink");
            debug_assert!(
                self.spilled_outbox.is_empty(),
                "spilled outbox without a sink"
            );
            return true;
        };
        loop {
            while let Some(batch) = self.outbox.pop_front() {
                match sink.exchange.try_push_or_park(batch, waker) {
                    Ok(()) => {}
                    Err(batch) => {
                        self.outbox.push_front(batch);
                        return false;
                    }
                }
            }
            // Resident outbox drained: pull one spilled run back in (the
            // reload transient is one run; the gauge charge is released by
            // the downstream mapper, exactly as for a never-spilled
            // batch).
            let Some(run) = self.spilled_outbox.pop_front() else {
                return true;
            };
            let ctx = self
                .sh
                .spill
                .expect("spilled outbox without a spill context");
            self.outbox
                .extend(Self::reload(ctx, self.sh, &run, pool, "outbox"));
        }
    }

    /// A routed delivery: each sibling's fragment, then the head's, one
    /// region at a time through [`on_batch`](Self::on_batch). An owned probe
    /// sibling appends straight from the head's columns; any other sibling
    /// gets a copy of its own (a build run, or a parked or forwarded
    /// fragment, which never carries siblings).
    fn on_delivery(&mut self, mut batch: RegionBatch, pool: &BatchPool) {
        for region in mem::take(&mut batch.siblings) {
            if batch.rel == Rel::R2 && self.states[region as usize].is_some() {
                self.absorb_probe(region, &batch.tuples);
                continue;
            }
            let mut tuples = pool.take(batch.tuples.len());
            tuples.extend_from_slices(batch.tuples.keys(), batch.tuples.payloads());
            let sibling = RegionBatch {
                region,
                tuples,
                siblings: Vec::new(),
                ..batch
            };
            self.on_batch(sibling, pool);
        }
        self.on_batch(batch, pool);
    }

    /// Data fragment: absorb if owned, otherwise apply the migration fence
    /// (park ahead of an adoption, or forward a pre-migration straggler to
    /// the current owner).
    fn on_batch(&mut self, batch: RegionBatch, pool: &BatchPool) {
        let region = batch.region;
        if self.states[region as usize].is_some() {
            self.absorb(batch, pool);
            return;
        }
        let owner = self.sh.table.owner_of(region);
        if owner as usize == self.me {
            // We are the region's next owner; its state is still in flight.
            self.parked[region as usize].push(batch);
        } else {
            // Routed before the region migrated away from us: the stamp
            // must predate the region's migration epoch (table ordering
            // contract — see `RoutingTable`).
            debug_assert!(
                batch.epoch < self.sh.table.migrated_at(region),
                "post-migration fragment for region {region} reached a past owner"
            );
            self.sh.queues[owner as usize].push_unbounded(Delivery::Batch(batch));
        }
    }

    /// Folds an owned region's fragment into its state.
    fn absorb(&mut self, batch: RegionBatch, pool: &BatchPool) {
        let RegionBatch {
            region,
            rel,
            tuples,
            ..
        } = batch;
        if rel == Rel::R2 {
            self.absorb_probe(region, &tuples);
            // The fragment's allocation feeds the next outbox buffer or
            // spill reload on this worker.
            pool.put(tuples);
            return;
        }
        let n = tuples.len() as u64;
        self.straggle(n);
        let sh = self.sh;
        let st = self.states[region as usize]
            .as_mut()
            .expect("absorb of an unowned region");
        debug_assert!(!st.sealed, "R1 fragment after the R1 seal");
        st.input += n;
        st.runs.push(tuples);
        sh.board.add_build(region, n);
        Self::sub_in_flight(sh, n);
    }

    /// Appends probe tuples to an owned region's buffer, queueing the
    /// region's sweep once one is due.
    fn absorb_probe(&mut self, region: u32, tuples: &ColumnBatch) {
        let n = tuples.len() as u64;
        self.straggle(n);
        let sh = self.sh;
        let st = self.states[region as usize]
            .as_mut()
            .expect("absorb of an unowned region");
        st.input += n;
        st.pending
            .extend_from_slices(tuples.keys(), tuples.payloads());
        sh.board.add_probe(region, n);
        if st.sweep_due(sh.probe_chunk, sh.pressed()) {
            self.queue_sweep(region);
        }
        Self::sub_in_flight(sh, n);
    }

    /// The injected straggler's cost of absorbing `n` tuples. The fault
    /// really does occupy the pool worker — exactly what a slow node does
    /// to a shared cluster.
    fn straggle(&self, n: u64) {
        if let Some(s) = self.sh.straggler {
            if s.reducer == self.me && n > 0 {
                std::thread::sleep(Duration::from_nanos(n.saturating_mul(s.nanos_per_tuple)));
            }
        }
    }

    /// Queues `region` for a sweep turn of the poll loop, once.
    fn queue_sweep(&mut self, region: u32) {
        if !self.sweep_queue.contains(&region) {
            self.sweep_queue.push_back(region);
        }
    }

    /// Decrements the routed-but-unabsorbed counter, waking the quiescence
    /// watchers on the final crossing to zero once the mappers are done —
    /// the event the coordinator's termination check waits on.
    fn sub_in_flight(sh: &ReducerShared<'_>, n: u64) {
        if sh.in_flight.fetch_sub(n, Ordering::AcqRel) == n
            && sh.mappers_done.load(Ordering::Acquire)
        {
            sh.quiesce.wake_all();
        }
    }

    fn on_seal_r1(&mut self) {
        let sh = self.sh;
        let me = self.me;
        for (region, slot) in self.states.iter_mut().enumerate() {
            let Some(st) = slot.as_mut() else { continue };
            // Adopted regions arrive pre-sealed, and a region sealed early
            // by a racing migration is equally fine — skip, don't re-merge.
            if st.sealed {
                continue;
            }
            Self::seal(st, sh, region as u32);
            sh.board.note_region_sealed(me);
            if st.sweep_due(sh.probe_chunk, sh.pressed()) {
                self.sweep_queue.push_back(region as u32);
            }
        }
    }

    /// `SealAll`: every mapper-routed tuple is enqueued somewhere, but
    /// migrated state and fenced fragments may still arrive — eagerly sweep
    /// what is buffered (freeing the memory early) and keep draining until
    /// `Finish`.
    fn on_seal_all(&mut self) {
        for (region, slot) in self.states.iter().enumerate() {
            let Some(st) = slot.as_ref() else { continue };
            if st.sealed && !(st.pending.is_empty() && st.spilled_pending.is_empty()) {
                self.sweep_queue.push_back(region as u32);
            }
        }
    }

    /// Coordinator asked us to hand the region to its (already published)
    /// new owner: seal if the `SealR1` broadcast is still in flight, pack,
    /// and ship.
    fn on_migrate(&mut self, region: u32) {
        let sh = self.sh;
        let mut st = self.states[region as usize]
            .take()
            .expect("Migrate for a region this reducer does not own");
        if !st.sealed {
            Self::seal(&mut st, sh, region);
            sh.board.note_region_sealed(self.me);
        }
        let state = MigratedRegion {
            build: mem::take(&mut st.build),
            pending: mem::take(&mut st.pending),
            // Spilled runs ship as descriptors: the per-query segment is
            // shared, so the new owner reloads the same records. Their
            // tuples stay out of `in_flight` (they are not resident), and
            // the coordinator already charged their re-read cost into the
            // move decision.
            spilled_build: mem::take(&mut st.spilled_build),
            spilled_pending: mem::take(&mut st.spilled_pending),
            sealed: true,
            input: st.input,
            output: st.output,
            checksum: st.checksum,
        };
        let shipped = state.tuples();
        sh.migration_tuples.fetch_add(shipped, Ordering::Relaxed);
        sh.in_flight.fetch_add(shipped, Ordering::AcqRel);
        let owner = sh.table.owner_of(region);
        debug_assert_ne!(owner as usize, self.me, "migration to self");
        sh.queues[owner as usize].push_unbounded(Delivery::Adopt {
            region,
            state: Box::new(state),
        });
    }

    /// Install a migrated region's state, then absorb any fragments the
    /// fence parked while the state was in flight.
    fn on_adopt(&mut self, region: u32, state: MigratedRegion, pool: &BatchPool) {
        let sh = self.sh;
        debug_assert!(
            self.states[region as usize].is_none(),
            "adoption of a region already owned"
        );
        debug_assert_eq!(
            sh.table.owner_of(region) as usize,
            self.me,
            "adoption does not match the routing table"
        );
        let shipped = state.tuples();
        self.states[region as usize] = Some(RegionState {
            runs: Vec::new(),
            build: state.build,
            pending: state.pending,
            spilled_build_tuples: state.spilled_build.iter().map(SpillRun::tuples).sum(),
            spilled_build: state.spilled_build,
            came_back: false,
            spilled_pending: state.spilled_pending,
            sealed: state.sealed,
            input: state.input,
            output: state.output,
            checksum: state.checksum,
        });
        Self::sub_in_flight(sh, shipped);
        for batch in mem::take(&mut self.parked[region as usize]) {
            self.absorb(batch, pool);
        }
        let st = self.states[region as usize]
            .as_ref()
            .expect("just installed");
        if st.sweep_due(sh.probe_chunk, sh.pressed()) {
            self.queue_sweep(region);
        }
        // Publish completion last: the coordinator may start the next
        // handshake (or declare quiescence) the moment it sees this.
        sh.adoptions.fetch_add(1, Ordering::Release);
        sh.quiesce.wake_all();
    }

    /// Seals a region's build side — the one path `SealR1`, a migration
    /// that overtakes it, and `finish` all take: shed what the budget
    /// cannot hold through the sort, then sort the rest into `build`.
    fn seal(st: &mut RegionState, sh: &ReducerShared<'_>, region: u32) {
        Self::shed_runs_before_merge(st, sh, region);
        st.build = Self::merge_gauged(mem::take(&mut st.runs), sh);
        st.sealed = true;
    }

    /// Sorts a region's runs into one, charging the memory transient to
    /// the gauge: the sorted output (and the sort's scratch) coexists with
    /// the source runs, so the region briefly holds up to 2× its build
    /// side. Charging the full size for the whole pass is a (slight)
    /// overestimate of the instantaneous extra — the gauge must never
    /// under-report the high-water mark it exists to measure.
    fn merge_gauged(runs: Vec<ColumnBatch>, sh: &ReducerShared<'_>) -> ColumnBatch {
        let transient = runs.iter().map(ColumnBatch::len).sum::<usize>() as u64;
        sh.gauge.add(transient);
        let start = Instant::now();
        let build = merge_sorted_runs(runs);
        sh.merge_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        sh.gauge.sub(transient);
        build
    }

    /// Sheds state to disk while the query's gauge sits above its budget
    /// slice. Each iteration writes one victim (largest-first down the
    /// spill ladder); the loop stops when the gauge fits, nothing
    /// spillable remains on *this* reducer (other reducers of the same
    /// query shed their own share on their own polls), or a write failed —
    /// the failure is recorded on the spill context and the cooperative
    /// cancel flag tears the query down.
    fn maybe_spill(&mut self) {
        let sh = self.sh;
        let (Some(ctx), Some(budget)) = (sh.spill, sh.budget_tuples) else {
            return;
        };
        while sh.gauge.current_tuples() > budget {
            if ctx.failed() {
                return;
            }
            if !self.spill_once(ctx) {
                return;
            }
        }
    }

    /// Sheds a region's runs to disk, each sorted on its way out, until
    /// the seal's transient (`merge_gauged` briefly holds the sorted copy
    /// alongside its sources) fits under the query's budget. Without
    /// this, sealing a hot region while the gauge already sits at the
    /// spill trigger would spike resident memory to roughly twice that
    /// region's state — the one place the budget could silently leak.
    /// Shed runs skip the seal and stay on disk as capped sub-runs the
    /// sweep replays like any other spilled build run.
    fn shed_runs_before_merge(st: &mut RegionState, sh: &ReducerShared<'_>, region: u32) {
        let (Some(ctx), Some(budget)) = (sh.spill, sh.budget_tuples) else {
            return;
        };
        loop {
            let transient: u64 = st.runs.iter().map(|r| r.len() as u64).sum();
            if transient == 0 || sh.gauge.current_tuples() + transient <= budget || ctx.failed() {
                return;
            }
            let i = st
                .runs
                .iter()
                .enumerate()
                .max_by_key(|(_, r)| r.len())
                .map(|(i, _)| i)
                .expect("transient > 0 implies a non-empty run");
            let victim = st.take_sorted_run(i);
            let tail = Self::spill_build_run(ctx, sh, st, region, victim);
            if !tail.is_empty() {
                st.runs.push(tail);
                return;
            }
        }
    }

    /// Writes one sorted build-side victim of `region` through
    /// [`write_capped`](Self::write_capped), counting what reached disk in
    /// the region's spilled build, and returns the unwritten tail.
    fn spill_build_run(
        ctx: &SpillContext,
        sh: &ReducerShared<'_>,
        st: &mut RegionState,
        region: u32,
        victim: ColumnBatch,
    ) -> ColumnBatch {
        let n = victim.len();
        let tail = Self::write_capped(ctx, sh, victim, Some(region), &mut st.spilled_build);
        st.spilled_build_tuples += (n - tail.len()) as u64;
        tail
    }

    /// Writes one victim (sorted, unless it is an outbox batch, which
    /// nothing reads in order) as a sequence of runs of at most
    /// `probe_chunk` tuples each — capping run granularity keeps the
    /// reload transient during replay one chunk wide instead of the whole
    /// victim wide, which is what lets a budgeted run's realized peak
    /// stay near its trigger. The gauge is debited per written slice.
    /// Descriptors go to `out` (and, for a region's state, onto the spill
    /// board). Returns the unwritten tail: empty on success, the
    /// still-resident remainder when a write failed (the failure is
    /// recorded and the cooperative cancel flag raised here).
    fn write_capped(
        ctx: &SpillContext,
        sh: &ReducerShared<'_>,
        mut victim: ColumnBatch,
        region: Option<u32>,
        out: &mut impl Extend<SpillRun>,
    ) -> ColumnBatch {
        let cap = sh.probe_chunk.max(1);
        let mut off = 0;
        while off < victim.len() {
            let end = (off + cap).min(victim.len());
            match ctx.write_run(&victim.keys()[off..end], &victim.payloads()[off..end]) {
                Ok(run) => {
                    sh.gauge.sub((end - off) as u64);
                    if let Some(region) = region {
                        sh.board.add_spilled(region, run.tuples());
                    }
                    out.extend([run]);
                    off = end;
                }
                Err(e) => {
                    ctx.record_failure(format!("spill write failed: {e}"));
                    sh.cancel.cancel();
                    break;
                }
            }
        }
        victim.split_off(off)
    }

    /// Reloads a spilled run into a pooled buffer and charges it to the
    /// gauge; a failed read is recorded and cancels the query.
    fn reload(
        ctx: &SpillContext,
        sh: &ReducerShared<'_>,
        run: &SpillRun,
        pool: &BatchPool,
        what: &str,
    ) -> Option<ColumnBatch> {
        match ctx.read_run_into(run, pool.take(run.tuples() as usize)) {
            Ok(batch) => {
                sh.gauge.add(batch.len() as u64);
                Some(batch)
            }
            Err(e) => {
                ctx.record_failure(format!("{what} reload failed: {e}"));
                sh.cancel.cancel();
                None
            }
        }
    }

    /// Sheds one victim to disk and drops it from resident state. The
    /// ladder: a whole region's build-side state first (the region holding
    /// the most of it — its pre-seal runs and its sealed build — so spilled
    /// state sits in few regions and the rest never touch the disk; it
    /// stays out of memory longest, coming back once when it fits), then
    /// the largest pending probe buffer (replayed as an extra probe chunk
    /// at the next flush), then a staged outbox batch (reloaded once the
    /// exchange drains). Returns `false` when nothing spillable remains or
    /// a write failed; the gauge is only debited for what was actually
    /// written, so an error leaves the rest of the victim resident and the
    /// discard accounting balanced.
    fn spill_once(&mut self, ctx: &SpillContext) -> bool {
        let sh = self.sh;

        // Rung 1: the region with the most resident build-side tuples,
        // ties to the lowest id.
        let victim = self
            .states
            .iter()
            .enumerate()
            .filter_map(|(region, slot)| Some((region, slot.as_ref()?.build_side_tuples())))
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(region, n)| (n, std::cmp::Reverse(region)));
        if let Some((region, _)) = victim {
            let st = self.states[region]
                .as_mut()
                .expect("chosen from live states");
            if mem::take(&mut st.came_back) {
                ctx.note_respill();
            }
            // Each run is sorted on its way out and slicing keeps each slice
            // sorted — the segment's contract, which the replay relies on —
            // and the sealed build already is. They are written one by one:
            // a concatenation would be an uncharged copy of the region.
            let region = region as u32;
            while let Some(last) = st.runs.len().checked_sub(1) {
                let victim = st.take_sorted_run(last);
                let tail = Self::spill_build_run(ctx, sh, st, region, victim);
                if !tail.is_empty() {
                    st.runs.push(tail);
                    return false;
                }
            }
            let build = mem::take(&mut st.build);
            let tail = Self::spill_build_run(ctx, sh, st, region, build);
            if tail.is_empty() {
                return true;
            }
            // The tail of a sorted build is a valid build again; the query
            // is being cancelled regardless.
            st.build = tail;
            return false;
        }

        // Rung 2: largest pending probe buffer.
        let mut best: Option<(usize, usize)> = None;
        for (region, slot) in self.states.iter().enumerate() {
            let Some(st) = slot.as_ref() else { continue };
            if st.pending.len() > best.map_or(0, |(_, len)| len) {
                best = Some((region, st.pending.len()));
            }
        }
        if let Some((region, _)) = best {
            let st = self.states[region]
                .as_mut()
                .expect("chosen from live states");
            let mut victim = mem::take(&mut st.pending);
            // Probe runs must land sorted: the replay sweeps each run as a
            // self-contained, pre-sorted probe chunk.
            victim.sort_by_key();
            let region_id = Some(region as u32);
            let tail = Self::write_capped(ctx, sh, victim, region_id, &mut st.spilled_pending);
            if tail.is_empty() {
                return true;
            }
            st.pending = tail;
            return false;
        }

        // Rung 3: largest staged outbox batch, written as it stands. Batch
        // and tuple order across the exchange are immaterial (the
        // downstream mapper re-routes per tuple), so pulling one out of
        // the middle is safe and sorting it would be wasted work.
        let Some((i, _)) = self
            .outbox
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.len()))
            .filter(|&(_, len)| len > 0)
            .max_by_key(|&(_, len)| len)
        else {
            return false;
        };
        let victim = self.outbox.remove(i).expect("indexed above");
        let tail = Self::write_capped(ctx, sh, victim, None, &mut self.spilled_outbox);
        if tail.is_empty() {
            return true;
        }
        self.outbox.push_back(tail);
        false
    }

    /// Sweeps and frees one chunk of the region's buffered probe state and
    /// reports whether more is left, in which case the poll loop gives the
    /// region the next turn too. A spilled build that fits under the budget
    /// comes back first ([`bring_build_back`](Self::bring_build_back)), so
    /// the chunk sweeps from memory. The chunk is the resident pending
    /// tuples or, once those are gone, one probe run spilled under budget
    /// pressure (replayed one a turn, so the reload transient stays one
    /// chunk wide). It is swept against the resident build *and* every
    /// build run still on disk — a sort-merge join distributes over any
    /// partition of its build side into sorted runs and of its probe side
    /// into chunks, and the order-invariant XOR checksum makes the
    /// recombination bit-identical to the in-memory sweep.
    ///
    /// With a sink, the same distributivity bounds what a turn stages: only
    /// the chunk's tail whose pairs fit the downstream exchange is swept
    /// ([`tail_within`]; the tail, so a slice copies itself and not the
    /// remainder) and the sorted rest stays in `pending`. The slice is sized
    /// from the resident build alone: build runs left on disk exist only
    /// under a budget, which then bounds the outbox too (the ladder's last
    /// rung).
    fn flush(
        st: &mut RegionState,
        sh: &ReducerShared<'_>,
        me: usize,
        region: u32,
        outbox: &mut VecDeque<ColumnBatch>,
        pool: &BatchPool,
    ) -> bool {
        debug_assert!(st.sealed);
        if !st.spilled_build.is_empty() {
            Self::bring_build_back(st, sh, region, pool);
        }
        let mut chunk = mem::take(&mut st.pending);
        chunk.sort_by_key();
        if chunk.is_empty() && !st.spilled_pending.is_empty() {
            let ctx = sh.spill.expect("spilled pending without a spill context");
            let build_zone = Self::build_zone(st);
            while let Some(run) = st.spilled_pending.pop() {
                sh.board.sub_spilled(region, run.tuples());
                // Zone fence: a spilled probe run whose fence can't join any
                // build key is dropped without reloading a byte — only its
                // spill-board bookkeeping runs. `candidate` on the
                // conservative union fence is exact in the negative
                // direction, so the skipped run provably contributes no pairs.
                if !sh.cond.candidate(&build_zone, run.key_range()) {
                    continue;
                }
                if let Some(probe) = Self::reload(ctx, sh, &run, pool, "probe") {
                    chunk = probe;
                    break;
                }
            }
        }
        if let Some(sink) = sh.sink {
            // At most an exchange of tuples is looked at, so the count costs
            // what a slice may hold, not what a long chunk still does.
            let cap = sink.exchange.capacity();
            let tail = &chunk.keys()[chunk.len().saturating_sub(cap)..];
            let keep = tail_within(&st.build, tail, sh.cond, cap);
            if keep < chunk.len() {
                let slice = chunk.split_off(chunk.len() - keep);
                st.pending = mem::replace(&mut chunk, slice);
            }
        }
        if !chunk.is_empty() {
            Self::sweep_chunk(st, sh, me, chunk, outbox, pool);
        }
        !(st.pending.is_empty() && st.spilled_pending.is_empty())
    }

    /// Reloads a region's spilled build runs once each and merges them with
    /// its resident build, when the whole build and `merge_gauged`'s
    /// transient fit under the budget beside the query's gauge; the region
    /// then sweeps from memory. The runs' extents become dead space in the
    /// segment (its high-water is `spill_bytes` anyway). If they do not
    /// fit, the build stays where it is and every chunk replays its runs
    /// ([`sweep_chunk`](Self::sweep_chunk)). After a failed reload the
    /// runs read so far are merged and the rest stay on disk; the query is
    /// being cancelled.
    fn bring_build_back(
        st: &mut RegionState,
        sh: &ReducerShared<'_>,
        region: u32,
        pool: &BatchPool,
    ) {
        let (Some(ctx), Some(budget)) = (sh.spill, sh.budget_tuples) else {
            return;
        };
        let whole = st.spilled_build_tuples + st.build.len() as u64;
        if sh.gauge.current_tuples() + 2 * whole > budget {
            return;
        }
        let mut runs = vec![mem::take(&mut st.build)];
        while let Some(run) = st.spilled_build.pop() {
            let Some(build) = Self::reload(ctx, sh, &run, pool, "build") else {
                st.spilled_build.push(run);
                break;
            };
            sh.board.sub_spilled(region, run.tuples());
            st.spilled_build_tuples -= run.tuples();
            runs.push(build);
        }
        st.build = Self::merge_gauged(runs, sh);
        st.came_back = true;
    }

    /// Sweeps one sorted probe chunk against the region's full build side
    /// (resident build plus each build run still on disk, reloaded
    /// transiently), then frees the chunk. Chunk-outer / build-run-inner
    /// keeps peak memory at one chunk + one reloaded run, at the price of
    /// re-reading each spilled run once per chunk — the fallback for a
    /// build that cannot come back, and the re-read cost the coordinator
    /// charges into migration decisions.
    fn sweep_chunk(
        st: &mut RegionState,
        sh: &ReducerShared<'_>,
        me: usize,
        probe: ColumnBatch,
        outbox: &mut VecDeque<ColumnBatch>,
        pool: &BatchPool,
    ) {
        // Zone fences: a build side (resident or spilled run) whose key
        // fence can't join this chunk is skipped without touching its
        // columns — for a spilled run that means no disk reload at all.
        let probe_zone = Self::zone_of(&probe);
        let (mut count, mut checksum) = if sh.cond.candidate(&Self::zone_of(&st.build), &probe_zone)
        {
            Self::sweep_one(&st.build, &probe, sh, outbox, pool)
        } else {
            (0, 0)
        };
        if let Some(ctx) = sh.spill {
            for run in &st.spilled_build {
                if !sh.cond.candidate(run.key_range(), &probe_zone) {
                    continue;
                }
                if let Some(build) = Self::reload(ctx, sh, run, pool, "build") {
                    let (c, x) = Self::sweep_one(&build, &probe, sh, outbox, pool);
                    sh.gauge.sub(build.len() as u64);
                    pool.put(build);
                    count += c;
                    checksum ^= x;
                }
            }
        }
        st.output += count;
        st.checksum ^= checksum;
        sh.board.note_chunk_swept(me);
        sh.gauge.sub(probe.len() as u64);
        pool.put(probe);
    }

    /// A sorted batch's zone fence: its first and last key (empty batches
    /// fence nothing).
    fn zone_of(batch: &ColumnBatch) -> KeyRange {
        match (batch.keys().first(), batch.keys().last()) {
            (Some(&lo), Some(&hi)) => KeyRange::new(lo, hi),
            _ => KeyRange::empty(),
        }
    }

    /// The region's whole build-side fence: the union of the resident
    /// build's range and every spilled build run's recorded fence. The
    /// union may cover gaps, so it is conservative — `candidate` returning
    /// false against it is exact (no key in the probe range can join), and
    /// that is the only direction the fence is used in.
    fn build_zone(st: &RegionState) -> KeyRange {
        let mut zone = Self::zone_of(&st.build);
        for run in &st.spilled_build {
            let r = run.key_range();
            if !r.is_empty() {
                zone = if zone.is_empty() {
                    *r
                } else {
                    KeyRange::new(zone.lo.min(r.lo), zone.hi.max(r.hi))
                };
            }
        }
        zone
    }

    /// One build × probe sweep. With a sink, the swept pairs are
    /// materialized in emission-sized batches, charged to the shared gauge,
    /// and staged on the outbox for the downstream exchange (see the module
    /// docs — the outbox is what keeps a full exchange from suspending a
    /// pool worker). The gauge charge is released by the downstream mapper
    /// once it has routed the batch.
    fn sweep_one(
        build: &ColumnBatch,
        probe: &ColumnBatch,
        sh: &ReducerShared<'_>,
        outbox: &mut VecDeque<ColumnBatch>,
        pool: &BatchPool,
    ) -> (u64, u64) {
        let start = Instant::now();
        let out = match sh.sink {
            None => sweep_columns(build, probe, sh.cond, sh.work),
            Some(sink) => {
                let cap = sink.batch_tuples.max(1);
                let mut buf = pool.take(cap);
                let mut ship = |batch: ColumnBatch| {
                    sh.gauge.add(batch.len() as u64);
                    outbox.push_back(batch);
                };
                let (count, checksum) =
                    sweep_columns_each(build, probe, sh.cond, sh.key_from, |k, p| {
                        buf.push(k, p);
                        if buf.len() >= cap {
                            ship(mem::replace(&mut buf, pool.take(cap)));
                        }
                    });
                if !buf.is_empty() {
                    ship(buf);
                } else {
                    pool.put(buf);
                }
                (count, checksum)
            }
        };
        sh.sweep_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// `Finish`: queue the last sweeps; the poll loop tallies once they are
    /// through.
    fn on_finish(&mut self) {
        let sh = self.sh;
        debug_assert!(
            self.parked.iter().all(Vec::is_empty),
            "finish with fenced fragments still parked"
        );
        for (region, slot) in self.states.iter_mut().enumerate() {
            let Some(st) = slot.as_mut() else { continue };
            // A region that saw no R1 seal can only mean an empty plan where
            // the orchestrator pre-sealed; seal whatever is there.
            if !st.sealed {
                Self::seal(st, sh, region as u32);
            }
            if !st.pending.is_empty() || !st.spilled_pending.is_empty() {
                self.sweep_queue.push_back(region as u32);
            }
        }
        self.finishing = true;
    }

    /// Frees every owned region's build side and reports its tallies.
    fn tally(&mut self, pool: &BatchPool) -> Vec<RegionResult> {
        let sh = self.sh;
        let mut results = Vec::new();
        for (region, slot) in self.states.iter_mut().enumerate() {
            let Some(st) = slot.as_mut() else { continue };
            debug_assert!(st.pending.is_empty() && st.spilled_pending.is_empty());
            sh.gauge.sub(st.build.len() as u64);
            pool.put(mem::take(&mut st.build));
            // Build runs that never came back persist across flushes (each
            // probe chunk re-reads them); the region completing retires them.
            for run in st.spilled_build.drain(..) {
                sh.board.sub_spilled(region as u32, run.tuples());
            }
            results.push(RegionResult {
                region: region as u32,
                input: st.input,
                output: st.output,
                checksum: st.checksum,
            });
        }
        results
    }

    fn discard(&mut self) {
        let gauge = self.sh.gauge;
        for slot in self.states.iter_mut() {
            if let Some(st) = slot.take() {
                // Spilled tuples are not in the gauge, and their records
                // die with the ticket's spill dir.
                gauge.sub(st.resident_tuples());
            }
        }
        for parked in self.parked.iter_mut() {
            for batch in parked.drain(..) {
                gauge.sub(batch.tuples.len() as u64);
            }
        }
        for batch in self.outbox.drain(..) {
            gauge.sub(batch.len() as u64);
        }
        self.spilled_outbox.clear();
    }
}

/// Seals a set of runs into one key-sorted batch: the runs are appended in
/// order and the concatenation is sorted once, stably — which *is* the
/// stable k-way merge (equal keys keep run order, then position within the
/// run), whether or not each run arrived sorted. One
/// [`ColumnBatch::sort_by_key`] over `n` tuples is a few radix passes over
/// two contiguous columns; a tournament over hundreds of fragment-sized
/// runs pays a cache-missing comparison chain per tuple instead.
pub fn merge_sorted_runs(runs: Vec<ColumnBatch>) -> ColumnBatch {
    let mut out = ColumnBatch::with_capacity(runs.iter().map(ColumnBatch::len).sum());
    for mut run in runs {
        out.append(&mut run);
    }
    out.sort_by_key();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Channel, EngineRuntime, Poll};
    use std::sync::Mutex;

    /// Polls reducer `me` on `rt` until its terminal delivery.
    fn drive(
        rt: &EngineRuntime,
        sh: &ReducerShared<'_>,
        me: usize,
        owned: &[u32],
    ) -> ReducerOutcome {
        drive_with(rt, sh, me, owned, |_| {})
    }

    /// [`drive`], with a look at the task after every poll.
    fn drive_with(
        rt: &EngineRuntime,
        sh: &ReducerShared<'_>,
        me: usize,
        owned: &[u32],
        mut after_poll: impl FnMut(&ReducerTask<'_>) + Send,
    ) -> ReducerOutcome {
        let slot = Mutex::new(None);
        rt.scope(|s| {
            let mut task = ReducerTask::new(sh, me, owned);
            let slot = &slot;
            let after_poll = &mut after_poll;
            s.spawn(move |cx| {
                let step = task.poll(cx);
                after_poll(&task);
                match step {
                    ReducerStep::Working => Poll::Yielded,
                    ReducerStep::Parked => Poll::Pending,
                    ReducerStep::Done(outcome) => {
                        *slot.lock().expect("outcome slot") = Some(outcome);
                        Poll::Ready
                    }
                }
            });
        });
        slot.into_inner()
            .expect("outcome slot")
            .expect("reducer finished")
    }

    /// Everything a hand-built [`ReducerShared`] borrows.
    struct Rig {
        queues: Vec<Arc<DeliveryPort>>,
        table: RoutingTable,
        board: ProgressBoard,
        gauge: MemGauge,
        cond: JoinCondition,
        cancel: CancelToken,
        quiesce: WakeSet,
        counters: [AtomicU64; 5],
        mappers_done: AtomicBool,
    }

    impl Rig {
        fn new(reducers: usize, owners: &[u32], cond: JoinCondition) -> Self {
            Rig {
                queues: (0..reducers)
                    .map(|_| Arc::new(Channel::new(1 << 16)) as Arc<DeliveryPort>)
                    .collect(),
                table: RoutingTable::new(owners),
                board: ProgressBoard::new(reducers, owners.len()),
                gauge: MemGauge::default(),
                cond,
                cancel: CancelToken::new(),
                quiesce: WakeSet::new(),
                counters: Default::default(),
                mappers_done: AtomicBool::new(false),
            }
        }

        fn shared<'a>(
            &'a self,
            probe_chunk: usize,
            sink: Option<StageSink<'a>>,
        ) -> ReducerShared<'a> {
            let [in_flight, adoptions, migration_tuples, merge_nanos, sweep_nanos] = &self.counters;
            ReducerShared {
                queues: &self.queues,
                table: &self.table,
                board: &self.board,
                gauge: &self.gauge,
                cond: &self.cond,
                work: OutputWork::Touch,
                probe_chunk,
                in_flight,
                adoptions,
                migration_tuples,
                straggler: None,
                sink,
                key_from: KeyFrom::Probe,
                budget_tuples: None,
                spill: None,
                cancel: &self.cancel,
                quiesce: &self.quiesce,
                mappers_done: &self.mappers_done,
                merge_nanos,
                sweep_nanos,
            }
        }

        /// What a mapper does per shipped fragment.
        fn ship(&self, to: usize, region: u32, rel: Rel, tuples: ColumnBatch) {
            let n = tuples.len() as u64;
            self.gauge.add(n);
            self.counters[0].fetch_add(n, Ordering::AcqRel);
            self.queues[to].push_unbounded(Delivery::Batch(RegionBatch {
                region,
                rel,
                epoch: self.table.epoch(),
                tuples,
                siblings: Vec::new(),
            }));
        }
    }

    #[test]
    fn a_seal_sweeps_one_region_a_turn_so_the_outbox_holds_one_regions_output() {
        // 16 regions, each 20 build × 20 probe tuples on one key, every
        // probe buffer under the chunk size: all 16 wait for `SealAll`, and
        // each then sweeps to 400 output tuples. Swept inside the one
        // delivery, all 6 400 sit staged at once; swept a turn at a time
        // behind a 256-tuple exchange, never much more than one region's.
        const REGIONS: u32 = 16;
        let rt = EngineRuntime::new(2);
        let rig = Rig::new(1, &[0; REGIONS as usize], JoinCondition::Equi);
        let exchange = super::super::Exchange::new(256);
        let sink = StageSink {
            exchange: &exchange,
            batch_tuples: 64,
        };
        let sh = rig.shared(64, Some(sink));
        let side = |tag: u64| -> ColumnBatch {
            (0..20)
                .map(|i| ewh_core::Tuple::new(7, tag << 8 | i))
                .collect()
        };
        for region in 0..REGIONS {
            rig.ship(0, region, Rel::R1, side(1));
        }
        rig.queues[0].push_unbounded(Delivery::SealR1);
        for region in 0..REGIONS {
            rig.ship(0, region, Rel::R2, side(2));
        }
        rig.queues[0].push_unbounded(Delivery::SealAll);
        rig.queues[0].push_unbounded(Delivery::Finish);
        let state = REGIONS as u64 * 40;
        assert_eq!(rig.gauge.current_tuples(), state);

        let owned: Vec<u32> = (0..REGIONS).collect();
        let (outcome, emitted) = std::thread::scope(|s| {
            // The downstream mapper: take a batch, release its charge.
            let consumer = s.spawn(|| {
                let mut emitted = 0u64;
                while let Some(batch) = exchange.pop() {
                    emitted += batch.len() as u64;
                    rig.gauge.sub(batch.len() as u64);
                }
                emitted
            });
            let outcome = drive(&rt, &sh, 0, &owned);
            exchange.close();
            (outcome, consumer.join().expect("consumer"))
        });
        assert_eq!(emitted, REGIONS as u64 * 400);
        assert_eq!(outcome.results.len(), REGIONS as usize);
        assert!(outcome.results.iter().all(|r| r.output == 400));
        assert_eq!(rig.gauge.current_tuples(), 0);
        // Resident state, a full exchange, one region's sweep, the batch in
        // the consumer's hands.
        let bound = state + 256 + 400 + 64;
        let peak = rig.gauge.peak_tuples();
        assert!(
            peak <= bound,
            "peak {peak} tuples: the seal staged more than a region"
        );
    }

    #[test]
    fn a_sweep_stages_one_exchange_of_output_a_turn_whatever_the_chunk_joins_with() {
        // One region, 300 build tuples on key 7, one 256-tuple probe chunk.
        // Swept whole, the chunk's output sits in the outbox at once (all
        // 76 800 pairs of the first shape); swept by slices sized to the
        // exchange, never more than one exchange of it — or one tuple's
        // partners, where those alone exceed the exchange.
        const BUILD: u64 = 300;
        const BATCH: usize = 64;
        let rt = EngineRuntime::new(2);
        let hot_between = |cold: usize| -> Vec<i64> {
            let below = (0..cold / 2).map(|i| i as i64 % 7);
            let above = (0..cold - cold / 2).map(|i| 1000 + i as i64);
            below.chain(above).chain((cold..256).map(|_| 7)).collect()
        };
        // (exchange capacity, probe keys): every tuple hot; a run of hot
        // tuples between cold ones, which an average over the chunk would
        // sweep in one slice; partners that outnumber the exchange.
        for (cap, probe_keys) in [
            (1024, hot_between(0)),
            (1024, hot_between(200)),
            (256, hot_between(128)),
        ] {
            let rig = Rig::new(1, &[0], JoinCondition::Equi);
            let exchange = super::super::Exchange::new(cap);
            let sink = StageSink {
                exchange: &exchange,
                batch_tuples: BATCH,
            };
            let sh = rig.shared(probe_keys.len(), Some(sink));
            // Payloads that make `pair_payload` injective.
            let build: ColumnBatch = (0..BUILD)
                .map(|i| ewh_core::Tuple::new(7, (i + 1) << 12))
                .collect();
            let probe: ColumnBatch = probe_keys
                .iter()
                .enumerate()
                .map(|(j, &k)| ewh_core::Tuple::new(k, j as u64 + 1))
                .collect();
            rig.ship(0, 0, Rel::R1, build.clone());
            rig.queues[0].push_unbounded(Delivery::SealR1);
            rig.ship(0, 0, Rel::R2, probe.clone());
            rig.queues[0].push_unbounded(Delivery::SealAll);
            rig.queues[0].push_unbounded(Delivery::Finish);
            let state = BUILD + probe_keys.len() as u64;

            let mut emitted = Vec::new();
            let mut take = |batch: ColumnBatch| {
                rig.gauge.sub(batch.len() as u64);
                emitted.extend_from_slice(batch.payloads());
            };
            let mut most_staged = 0;
            // The downstream mapper, one batch a turn.
            let outcome = drive_with(&rt, &sh, 0, &[0], |task| {
                let staged: usize = task.outbox.iter().map(ColumnBatch::len).sum();
                most_staged = most_staged.max(staged);
                if let PortPop::Item(batch) = exchange.try_pop() {
                    take(batch);
                }
            });
            exchange.close();
            while let Some(batch) = exchange.pop() {
                take(batch);
            }

            let mut expect = Vec::new();
            let mut sorted_probe = probe.clone();
            sorted_probe.sort_by_key();
            sweep_columns_each(&build, &sorted_probe, &rig.cond, KeyFrom::Probe, |_, p| {
                expect.push(p)
            });
            assert!(expect.len() as u64 >= 56 * BUILD);
            expect.sort_unstable();
            emitted.sort_unstable();
            assert_eq!(emitted, expect, "cap {cap}");
            assert_eq!(outcome.results[0].output, expect.len() as u64);
            assert_eq!(rig.gauge.current_tuples(), 0);

            let slice = cap + BUILD as usize + BATCH;
            assert!(
                most_staged <= slice,
                "cap {cap}: {most_staged} tuples staged beyond the exchange"
            );
            let peak = rig.gauge.peak_tuples();
            assert!(
                peak <= state + (cap + slice) as u64,
                "cap {cap}: peak {peak} tuples"
            );
        }
    }

    #[test]
    fn a_migrate_that_overtakes_seal_r1_sorts_the_arrival_order_runs_it_ships() {
        // The coordinator starts moving regions once `r1_remaining` reads
        // zero, which the last mapper publishes *before* its `SealR1`
        // broadcast reaches every queue: a `Migrate` can overtake the seal,
        // and the old owner must then seal on its own — over runs that are
        // no longer sorted on arrival. No schedule forces that order from
        // outside, so the deliveries are queued by hand.
        let rt = EngineRuntime::new(2);
        let rig = Rig::new(2, &[0], JoinCondition::Band { beta: 1 });
        let sh = rig.shared(4, None);
        let Rig {
            queues,
            table,
            gauge,
            cond,
            ..
        } = &rig;
        let in_flight = &rig.counters[0];
        let ship = |to: usize, rel: Rel, tuples: ColumnBatch| rig.ship(to, 0, rel, tuples);
        let tagged = |tag: u64, keys: &[i64]| -> ColumnBatch {
            keys.iter()
                .enumerate()
                .map(|(i, &k)| ewh_core::Tuple::new(k, tag << 16 | i as u64))
                .collect()
        };
        let build_runs = [
            tagged(1, &[9, 1, 5, 1]),
            tagged(2, &[2, 8, 2]),
            tagged(3, &[5, 5, 0]),
        ];
        let probe_runs = [tagged(4, &[6, 0, 3, 9, 1]), tagged(5, &[2, 2, 7])];

        for run in &build_runs {
            ship(0, Rel::R1, run.clone());
        }
        table.migrate(0, 1);
        queues[0].push_unbounded(Delivery::Migrate { region: 0 });
        queues[0].push_unbounded(Delivery::SealR1);
        queues[0].push_unbounded(Delivery::Finish);
        let donor = drive(&rt, &sh, 0, &[0]);
        assert!(!donor.aborted && donor.results.is_empty());

        // The shipped state is the stable sort of the arrival-order runs.
        let PortPop::Item(Delivery::Adopt { region: 0, state }) = queues[1].try_pop() else {
            panic!("the donor ships exactly one Adopt");
        };
        assert!(state.sealed);
        assert_eq!(state.build, merge_sorted_runs(build_runs.to_vec()));
        assert!(state.build.is_sorted_by_key());
        queues[1].push_unbounded(Delivery::Adopt { region: 0, state });

        queues[1].push_unbounded(Delivery::SealR1);
        for run in &probe_runs {
            ship(1, Rel::R2, run.clone());
        }
        queues[1].push_unbounded(Delivery::Finish);
        let adopter = drive(&rt, &sh, 1, &[]);
        let [result] = &adopter.results[..] else {
            panic!("the adopter owns the one region");
        };
        let (mut count, mut checksum) = (0u64, 0u64);
        for b in build_runs.iter().flat_map(ColumnBatch::iter_tuples) {
            for p in probe_runs.iter().flat_map(ColumnBatch::iter_tuples) {
                if cond.matches(b.key, p.key) {
                    count += 1;
                    checksum ^= crate::local_join::pair_payload(b.payload, p.payload);
                }
            }
        }
        assert!(count > 0);
        assert_eq!((result.output, result.checksum), (count, checksum));
        assert_eq!(result.input, 18);
        assert_eq!(in_flight.load(Ordering::Acquire), 0);
        assert_eq!(
            gauge.current_tuples(),
            0,
            "every charged tuple was released"
        );
    }

    #[test]
    fn a_sibling_that_migrates_between_a_bounced_push_and_its_retry_is_regrouped() {
        use super::super::mapper::{MapperShared, MapperTask, SealState};
        use super::super::morsel::MorselPlan;
        use ewh_core::{RandomRouter, Router};

        // A 2 × 1 matrix: an `R1` tuple goes to its row's region, an `R2`
        // tuple to both regions — one group, both on reducer 0, whose queue
        // holds 8 tuples. The probe morsel's grouped push bounces; region 1
        // moves to reducer 1; the retry must split the group and stamp the
        // moved region's delivery after the migration.
        let rt = EngineRuntime::new(2);
        let rig = Rig {
            queues: [8, 64]
                .map(|cap| Arc::new(Channel::new(cap)) as Arc<DeliveryPort>)
                .to_vec(),
            ..Rig::new(2, &[0, 0], JoinCondition::Equi)
        };
        let sh = rig.shared(4, None);
        let side = |tag: u64| -> ColumnBatch {
            (0..8)
                .map(|i| ewh_core::Tuple::new(i as i64 % 3, tag << 8 | i))
                .collect()
        };
        let (r1, r2) = (side(1), side(2));
        let plan = MorselPlan::new(r1.len(), r2.len(), 8);
        let router = Router::Random(RandomRouter { rows: 2, cols: 1 });
        let seal = SealState::new(plan.r1_morsels(), plan.total(), None);
        let [network_tuples, morsels_routed, route_nanos] = [0; 3].map(AtomicU64::new);
        let mappers = MapperShared {
            plan: &plan,
            r1: &r1,
            r2: &r2,
            router: &router,
            table: &rig.table,
            queues: &rig.queues,
            seal: &seal,
            gauge: &rig.gauge,
            network_tuples: &network_tuples,
            morsels_routed: &morsels_routed,
            in_flight: &rig.counters[0],
            route_nanos: &route_nanos,
            seed: 5,
            cancel: &rig.cancel,
        };
        let mut mapper = MapperTask::new(&mappers);
        let mut reducers = [
            ReducerTask::new(&sh, 0, &[0, 1]),
            ReducerTask::new(&sh, 1, &[]),
        ];
        let results = Mutex::new(Vec::new());
        rt.scope(|s| {
            let (rig, results) = (&rig, &results);
            s.spawn(move |cx| {
                // Route and ship the build morsel (8 tuples fill queue 0),
                // then route the probe morsel: its group bounces.
                let steps: Vec<Poll> = (0..4).map(|_| mapper.poll(cx)).collect();
                assert!(matches!(steps[3], Poll::Pending), "{steps:?}");
                rig.table.migrate(1, 1);
                rig.queues[0].push_unbounded(Delivery::Migrate { region: 1 });
                // Reducer 0 drains its queue and ships region 1 away; the
                // retry finds room and regroups.
                reducers[0].poll(cx);
                assert!(matches!(mapper.poll(cx), Poll::Yielded));
                let mut probes = Vec::new();
                for q in &rig.queues {
                    let mut items = Vec::new();
                    while let PortPop::Item(d) = q.try_pop() {
                        if let Delivery::Batch(b) = &d {
                            probes.push((b.region, b.epoch, b.siblings.clone()));
                        }
                        items.push(d);
                    }
                    items.push(Delivery::Finish);
                    for d in items {
                        q.push_unbounded(d);
                    }
                }
                let moved = rig.table.migrated_at(1);
                assert_eq!(probes, vec![(0, moved, vec![]), (1, moved, vec![])]);
                for reducer in &mut reducers {
                    let outcome = loop {
                        if let ReducerStep::Done(outcome) = reducer.poll(cx) {
                            break outcome;
                        }
                    };
                    results.lock().expect("results").push(outcome.results);
                }
                Poll::Ready
            });
        });
        let results = results.into_inner().expect("results");
        let regions: Vec<Vec<u32>> = results
            .iter()
            .map(|r| r.iter().map(|r| r.region).collect())
            .collect();
        assert_eq!(
            regions,
            [vec![0], vec![1]],
            "region 1 ended at its new owner"
        );
        let (mut count, mut checksum) = (0u64, 0u64);
        for b in r1.iter_tuples() {
            for p in r2.iter_tuples().filter(|p| p.key == b.key) {
                count += 1;
                checksum ^= crate::local_join::pair_payload(b.payload, p.payload);
            }
        }
        let tallies = results.iter().flatten();
        let got = tallies.fold((0, 0), |(c, x), r| (c + r.output, x ^ r.checksum));
        assert_eq!(got, (count, checksum));
        assert_eq!(network_tuples.into_inner(), 8 + 2 * 8);
        assert_eq!(
            rig.counters[0].load(Ordering::Acquire),
            0,
            "nothing in flight"
        );
        assert_eq!(rig.gauge.current_tuples(), 0, "every charge released");
    }

    /// Probe tuples a fragment carries in the cadence tests below.
    const FRAGMENT: usize = 64;

    /// Queues, for each `(build, probe)` size pair, one region's build
    /// side, `SealR1`, then every region's probe side in interleaved
    /// [`FRAGMENT`]-tuple fragments, `SealAll` and `Finish`. Build keys
    /// cycle over 1 024 values; probe keys visit the same values out of
    /// order. Returns each region's `(count, checksum)` as one sweep of its
    /// whole sorted probe side computes it.
    fn stream_after_seal(rig: &Rig, sizes: &[(usize, usize)]) -> Vec<(u64, u64)> {
        let side = |region: usize, rel: u64, n: usize, stride: u64| -> ColumnBatch {
            (0..n as u64)
                .map(|i| {
                    let key = (i * stride % 1024) as i64;
                    ewh_core::Tuple::new(key, (region as u64) << 40 | rel << 32 | i)
                })
                .collect()
        };
        let builds: Vec<ColumnBatch> = (0..sizes.len())
            .map(|r| side(r, 1, sizes[r].0, 1))
            .collect();
        let probes: Vec<ColumnBatch> = (0..sizes.len())
            .map(|r| side(r, 2, sizes[r].1, 7919))
            .collect();
        for (r, build) in builds.iter().enumerate() {
            rig.ship(0, r as u32, Rel::R1, build.clone());
        }
        rig.queues[0].push_unbounded(Delivery::SealR1);
        let longest = sizes.iter().map(|&(_, p)| p).max().unwrap_or(0);
        for off in (0..longest).step_by(FRAGMENT) {
            for (r, probe) in probes.iter().enumerate() {
                if off < probe.len() {
                    let mut fragment = ColumnBatch::new();
                    fragment.extend_from_range(probe, off..(off + FRAGMENT).min(probe.len()));
                    rig.ship(0, r as u32, Rel::R2, fragment);
                }
            }
        }
        rig.queues[0].push_unbounded(Delivery::SealAll);
        rig.queues[0].push_unbounded(Delivery::Finish);
        builds
            .into_iter()
            .zip(probes)
            .map(|(mut build, mut probe)| {
                build.sort_by_key();
                probe.sort_by_key();
                sweep_columns(&build, &probe, &rig.cond, OutputWork::Touch)
            })
            .collect()
    }

    /// Drives reducer 0 over the regions `stream_after_seal` queued and
    /// checks, after every poll, that no region buffers more than `limit`
    /// (its probe tuples due for a sweep) plus one fragment and that no
    /// spilled run exceeds the floor; returns the outcome once the tallies
    /// equal one whole-probe sweep per region.
    fn drive_within(
        rt: &EngineRuntime,
        sh: &ReducerShared<'_>,
        expect: &[(u64, u64)],
        limit: impl Fn(usize) -> usize + Send,
    ) -> ReducerOutcome {
        let owned: Vec<u32> = (0..expect.len() as u32).collect();
        let mut most = vec![0; expect.len()];
        let mut longest_run = 0;
        let outcome = drive_with(rt, sh, 0, &owned, |task| {
            for (r, most) in most.iter_mut().enumerate() {
                let st = task.states[r].as_ref().expect("the region stays owned");
                *most = (*most).max(st.pending.len());
                for run in st.spilled_build.iter().chain(&st.spilled_pending) {
                    longest_run = longest_run.max(run.tuples());
                }
            }
        });
        for (r, &most) in most.iter().enumerate() {
            let bound = limit(r) + FRAGMENT;
            assert!(
                most <= bound,
                "region {r} buffered {most} > {bound} probe tuples"
            );
        }
        assert!(
            longest_run <= sh.probe_chunk as u64,
            "a spilled run of {longest_run} tuples"
        );
        let tallies: Vec<(u64, u64)> = outcome
            .results
            .iter()
            .map(|r| (r.output, r.checksum))
            .collect();
        assert_eq!(tallies, expect);
        assert!(expect.iter().all(|&(count, _)| count > 0));
        outcome
    }

    #[test]
    fn a_region_sweeps_once_its_probe_buffer_holds_an_eighth_of_its_build() {
        // Region 0 holds a build of B = 4 096 and is probed by P = 16 384
        // tuples; beside it on the same reducer, region 1's build of 256 has
        // an eighth under the floor of 64. At the floor, region 0 would
        // sweep P / 64 = 256 chunks, each a gallop across its whole build;
        // at an eighth of its build, 32 of 512 tuples walk it in order.
        const FLOOR: usize = 64;
        let sizes = [(4096, 16_384), (256, 2048)];
        let rt = EngineRuntime::new(2);
        let rig = Rig::new(1, &[0, 0], JoinCondition::Band { beta: 1 });
        let sh = rig.shared(FLOOR, None);
        let expect = stream_after_seal(&rig, &sizes);
        let due = |r: usize| FLOOR.max(sizes[r].0 / BUILD_PER_PROBE);
        drive_within(&rt, &sh, &expect, due);
        let most: u64 = (0..sizes.len())
            .map(|r| sizes[r].1.div_ceil(due(r)) as u64 + 1)
            .sum();
        let swept = rig.board.chunks_swept(0);
        assert!(swept <= most, "{swept} sweeps, at most {most} are due");
        assert_eq!(rig.gauge.current_tuples(), 0);
    }

    #[test]
    fn a_query_over_its_budget_sweeps_at_the_floor() {
        // The same region under a budget of half its build. Without a spill
        // context nothing sheds, so the gauge sits over the budget from the
        // first delivery to the last and only the pressure clause keeps the
        // buffer at the floor.
        const FLOOR: usize = 64;
        let sizes = [(4096, 16_384)];
        {
            let rt = EngineRuntime::new(2);
            let rig = Rig::new(1, &[0], JoinCondition::Band { beta: 1 });
            let sh = ReducerShared {
                budget_tuples: Some(2048),
                spill: None,
                ..rig.shared(FLOOR, None)
            };
            let expect = stream_after_seal(&rig, &sizes);
            drive_within(&rt, &sh, &expect, |_| FLOOR);
            let swept = rig.board.chunks_swept(0);
            let fewest = (sizes[0].1 / (FLOOR + FRAGMENT)) as u64;
            assert!(swept >= fewest, "{swept} sweeps under pressure");
            assert_eq!(rig.gauge.current_tuples(), 0);
        }

        // With one, the ladder sheds the whole build in runs of at most the
        // floor. The build and its merge never fit a budget of half the
        // build, so every chunk replays the runs: at the floor while the
        // gauge is over the budget, and at an eighth of the whole build,
        // resident and spilled, once the draining queue takes it under. The
        // gauge only falls between deliveries, so a poll that ends pressed
        // absorbed every fragment pressed.
        let dir = std::env::temp_dir().join(format!("ewh-reducer-pressed-{}", std::process::id()));
        let ctx = SpillContext::new(dir.clone(), None);
        let rt = EngineRuntime::new(2);
        let rig = Rig::new(1, &[0], JoinCondition::Band { beta: 1 });
        let sh = ReducerShared {
            budget_tuples: Some(2048),
            spill: Some(&ctx),
            ..rig.shared(FLOOR, None)
        };
        let expect = stream_after_seal(&rig, &sizes);
        let (mut pressed_most, mut eased_most, mut longest_run) = (0, 0, 0);
        let outcome = drive_with(&rt, &sh, 0, &[0], |task| {
            let st = task.states[0].as_ref().expect("the region stays owned");
            if sh.pressed() {
                pressed_most = pressed_most.max(st.pending.len());
            } else {
                let build = st.build.len() + st.spilled_build_tuples as usize;
                let due = FLOOR.max(build / BUILD_PER_PROBE);
                assert!(
                    st.pending.len() <= due + FRAGMENT,
                    "{} probe tuples buffered, {due} due",
                    st.pending.len()
                );
                eased_most = eased_most.max(st.pending.len());
            }
            for run in st.spilled_build.iter().chain(&st.spilled_pending) {
                longest_run = longest_run.max(run.tuples());
            }
        });
        assert!(
            pressed_most <= FLOOR + FRAGMENT,
            "{pressed_most} buffered pressed"
        );
        assert!(
            eased_most > FLOOR + FRAGMENT,
            "{eased_most} buffered under the budget: the spilled build set no cadence"
        );
        assert!(
            longest_run <= FLOOR as u64,
            "a spilled run of {longest_run} tuples"
        );
        let tallies: Vec<(u64, u64)> = outcome
            .results
            .iter()
            .map(|r| (r.output, r.checksum))
            .collect();
        assert_eq!(tallies, expect);
        let swept = rig.board.chunks_swept(0);
        let fewest = (sizes[0].1 / (FLOOR + FRAGMENT)) as u64;
        assert!(swept >= fewest, "{swept} sweeps under pressure");
        assert_eq!(rig.gauge.current_tuples(), 0);
        assert!(ctx.totals().runs > 0, "the build went to disk");
        assert_eq!(ctx.failure(), None);
        drop(ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Build tuples in the spill replay tests below, on keys cycling over
    /// 1 024 values, and probe tuples on the same values.
    const SPILL_BUILD: usize = 4096;
    const SPILL_PROBE: usize = 2048;

    /// The replay tests' build and probe sides. Every probe fragment holds
    /// key 0 and key 1 023, so every chunk's zone spans every spilled run's
    /// and no zone fence skips a reload.
    fn spill_sides() -> (ColumnBatch, ColumnBatch) {
        let build = (0..SPILL_BUILD as u64)
            .map(|i| ewh_core::Tuple::new((i % 1024) as i64, 1 << 32 | i))
            .collect();
        let probe = (0..SPILL_PROBE as u64)
            .map(|i| {
                let key = match i as usize % FRAGMENT {
                    0 => 0,
                    1 => 1023,
                    _ => (i * 751 % 1024) as i64,
                };
                ewh_core::Tuple::new(key, 2 << 32 | i)
            })
            .collect();
        (build, probe)
    }

    /// Queues `probe` for region 0 in [`FRAGMENT`]-tuple fragments, then
    /// `SealAll` and `Finish`.
    fn ship_probe(rig: &Rig, probe: &ColumnBatch) {
        for off in (0..probe.len()).step_by(FRAGMENT) {
            let mut fragment = ColumnBatch::new();
            fragment.extend_from_range(probe, off..(off + FRAGMENT).min(probe.len()));
            rig.ship(0, 0, Rel::R2, fragment);
        }
        rig.queues[0].push_unbounded(Delivery::SealAll);
        rig.queues[0].push_unbounded(Delivery::Finish);
    }

    /// One whole-probe sweep of the replay tests' sides.
    fn whole_sweep(rig: &Rig, build: &ColumnBatch, probe: &ColumnBatch) -> (u64, u64) {
        let (mut build, mut probe) = (build.clone(), probe.clone());
        build.sort_by_key();
        probe.sort_by_key();
        sweep_columns(&build, &probe, &rig.cond, OutputWork::Touch)
    }

    #[test]
    fn a_spilled_build_comes_back_once_it_fits() {
        // Ballast elsewhere in the query holds the gauge so that the build's
        // delivery takes it one tuple over the budget: the ladder sheds the
        // build as it arrives. The ballast is then released and the probe
        // side queued. The build and its merge transient now fit beside the
        // probe tuples in the gauge, so the first sweep brings every run
        // back once and the rest sweep from memory.
        const FLOOR: usize = 64;
        const BUDGET: u64 = 12_288;
        let ballast = BUDGET - SPILL_BUILD as u64 + 1;
        let dir = std::env::temp_dir().join(format!("ewh-reducer-back-{}", std::process::id()));
        let ctx = SpillContext::new(dir.clone(), None);
        let rt = EngineRuntime::new(2);
        let rig = Rig::new(1, &[0], JoinCondition::Band { beta: 1 });
        let sh = ReducerShared {
            budget_tuples: Some(BUDGET),
            spill: Some(&ctx),
            ..rig.shared(FLOOR, None)
        };
        let (build, probe) = spill_sides();
        rig.gauge.add(ballast);
        rig.ship(0, 0, Rel::R1, build.clone());
        rig.queues[0].push_unbounded(Delivery::SealR1);
        let mut shed = None;
        let outcome = drive_with(&rt, &sh, 0, &[0], |task| {
            let st = task.states[0].as_ref().expect("the region stays owned");
            if shed.is_none() && st.sealed {
                shed = Some((st.spilled_build_tuples, st.build_side_tuples()));
                rig.gauge.sub(ballast);
                ship_probe(&rig, &probe);
            }
        });
        assert_eq!(
            shed,
            Some((SPILL_BUILD as u64, 0)),
            "the build was shed whole"
        );
        let runs = SPILL_BUILD.div_ceil(FLOOR) as u64;
        let totals = ctx.totals();
        assert_eq!(totals.runs, runs);
        assert_eq!(totals.reloads, runs, "each run came back once");
        assert_eq!(totals.respills, 0);
        assert!(rig.board.chunks_swept(0) > 1);
        let [result] = &outcome.results[..] else {
            panic!("one region");
        };
        let expect = whole_sweep(&rig, &build, &probe);
        assert!(expect.0 > 0);
        assert_eq!((result.output, result.checksum), expect);
        assert_eq!(rig.board.spilled_tuples(0), 0);
        assert_eq!(rig.gauge.current_tuples(), 0);
        let peak = rig.gauge.peak_tuples();
        assert!(
            peak <= BUDGET + 1,
            "peak {peak} over the build's own delivery"
        );
        assert_eq!(ctx.failure(), None);
        drop(ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_spilled_build_that_never_fits_is_replayed_by_every_chunk() {
        // The fallback: the build and its merge never fit beside the probe
        // side, so every chunk reloads every spilled run, as the replay
        // always did, and the output is that of one whole-probe sweep.
        const FLOOR: usize = 64;
        const BUDGET: u64 = 3000;
        let dir = std::env::temp_dir().join(format!("ewh-reducer-replay-{}", std::process::id()));
        let ctx = SpillContext::new(dir.clone(), None);
        let rt = EngineRuntime::new(2);
        let rig = Rig::new(1, &[0], JoinCondition::Band { beta: 1 });
        let sh = ReducerShared {
            budget_tuples: Some(BUDGET),
            spill: Some(&ctx),
            ..rig.shared(FLOOR, None)
        };
        let (build, probe) = spill_sides();
        rig.ship(0, 0, Rel::R1, build.clone());
        rig.queues[0].push_unbounded(Delivery::SealR1);
        ship_probe(&rig, &probe);
        let outcome = drive(&rt, &sh, 0, &[0]);
        let runs = SPILL_BUILD.div_ceil(FLOOR) as u64;
        let totals = ctx.totals();
        assert_eq!(totals.runs, runs, "only the build went to disk");
        let chunks = rig.board.chunks_swept(0);
        assert!(chunks > 1);
        assert_eq!(
            totals.reloads,
            chunks * runs,
            "every chunk replays every run"
        );
        let [result] = &outcome.results[..] else {
            panic!("one region");
        };
        assert_eq!(
            (result.output, result.checksum),
            whole_sweep(&rig, &build, &probe)
        );
        assert_eq!(rig.gauge.current_tuples(), 0);
        assert_eq!(ctx.failure(), None);
        drop(ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_ladder_sheds_a_whole_region() {
        // Region 0 holds the largest single run, region 1 the most build-side
        // tuples in four smaller runs, region 2 a sealed build as large as
        // region 0's run. Rung 1 sheds region 1 whole and touches nothing
        // else; the next tie goes to the lower id. A build that came back
        // and is shed again is a re-spill.
        let dir = std::env::temp_dir().join(format!("ewh-reducer-ladder-{}", std::process::id()));
        let ctx = SpillContext::new(dir.clone(), None);
        let rig = Rig::new(1, &[0, 0, 0], JoinCondition::Equi);
        let sh = ReducerShared {
            budget_tuples: Some(0),
            spill: Some(&ctx),
            ..rig.shared(64, None)
        };
        let run = |n: i64, tag: u64| -> ColumnBatch {
            (0..n)
                .map(|i| ewh_core::Tuple::new((n - i) * 3 % 17, tag << 16 | i as u64))
                .collect()
        };
        let mut task = ReducerTask::new(&sh, 0, &[0, 1, 2]);
        let [r0, r1, r2] = [0, 1, 2].map(|_| RegionState::default());
        task.states = vec![Some(r0), Some(r1), Some(r2)];
        fn state<'t>(task: &'t mut ReducerTask<'_>, r: usize) -> &'t mut RegionState {
            task.states[r].as_mut().expect("owned")
        }
        state(&mut task, 0).runs.push(run(100, 0));
        for tag in 1..=4 {
            state(&mut task, 1).runs.push(run(30, tag));
        }
        let mut sealed = run(100, 5);
        sealed.sort_by_key();
        let st = state(&mut task, 2);
        st.build = sealed;
        st.sealed = true;
        rig.gauge.add(320);

        assert!(task.spill_once(&ctx));
        let st = state(&mut task, 1);
        assert!(st.runs.is_empty() && st.build.is_empty());
        assert_eq!(st.spilled_build_tuples, 120);
        let mut back = Vec::new();
        for run in &st.spilled_build {
            let batch = ctx.read_run(run).expect("reload");
            assert!(batch.is_sorted_by_key(), "each run lands sorted");
            back.push(batch);
        }
        let multiset = |runs: Vec<ColumnBatch>| {
            let mut tuples = merge_sorted_runs(runs).to_tuples();
            tuples.sort_by_key(|t| (t.key, t.payload));
            tuples
        };
        let shed = (1..=4).map(|tag| run(30, tag)).collect();
        assert_eq!(multiset(back), multiset(shed));
        assert_eq!(rig.board.spilled_tuples(1), 120);
        let untouched = |task: &mut ReducerTask<'_>, r: usize, runs: usize, build: usize| {
            let st = state(task, r);
            assert_eq!((st.runs.len(), st.build.len()), (runs, build), "region {r}");
            assert!(st.spilled_build.is_empty(), "region {r}");
        };
        untouched(&mut task, 0, 1, 0);
        untouched(&mut task, 2, 0, 100);
        assert_eq!(rig.gauge.current_tuples(), 200);

        assert!(task.spill_once(&ctx));
        assert_eq!(state(&mut task, 0).spilled_build_tuples, 100);
        untouched(&mut task, 2, 0, 100);

        // Region 1 comes back whole under a roomy budget, then is shed again.
        let roomy = ReducerShared {
            budget_tuples: Some(10_000),
            spill: Some(&ctx),
            ..rig.shared(64, None)
        };
        let pool = BatchPool::new();
        let st = state(&mut task, 1);
        st.sealed = true;
        ReducerTask::bring_build_back(st, &roomy, 1, &pool);
        assert!(st.spilled_build.is_empty() && st.build.len() == 120);
        assert!(st.build.is_sorted_by_key());
        assert_eq!(ctx.totals().respills, 0);
        assert!(task.spill_once(&ctx));
        assert_eq!(state(&mut task, 1).spilled_build_tuples, 120);
        assert_eq!(ctx.totals().respills, 1);
        assert_eq!(ctx.failure(), None);
        drop(ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn cols(keys: &[i64]) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(keys.len());
        for (i, &k) in keys.iter().enumerate() {
            b.push(k, i as u64);
        }
        b
    }

    #[test]
    fn merge_runs_produces_one_sorted_run() {
        let runs = vec![
            cols(&[1, 5, 9]),
            cols(&[2, 2, 8]),
            cols(&[0]),
            ColumnBatch::new(),
            cols(&[3, 4, 10, 11]),
        ];
        let merged = merge_sorted_runs(runs);
        assert_eq!(merged.keys(), &[0, 1, 2, 2, 3, 4, 5, 8, 9, 10, 11]);
        assert_eq!(merged.payloads().len(), merged.keys().len());
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert!(merge_sorted_runs(Vec::new()).is_empty());
        assert!(merge_sorted_runs(vec![ColumnBatch::new(), ColumnBatch::new()]).is_empty());
    }

    #[test]
    fn merge_is_stable_across_runs_sorted_or_not() {
        // Payloads encode (run, position) so any stability slip — equal
        // keys emitted in the wrong run order — flips the comparison with
        // a std stable sort of the concatenation.
        let make = |runs: &[&[i64]]| -> Vec<ColumnBatch> {
            runs.iter()
                .enumerate()
                .map(|(r, keys)| {
                    keys.iter()
                        .enumerate()
                        .map(|(i, &k)| ewh_core::Tuple::new(k, (r as u64) << 32 | i as u64))
                        .collect()
                })
                .collect()
        };
        let cases: Vec<Vec<ColumnBatch>> = vec![
            make(&[&[1, 5, 9], &[2, 2, 8], &[0], &[], &[3, 4, 10, 11]]),
            make(&[&[7, 7, 7], &[7, 7], &[7], &[7, 7, 7, 7]]),
            make(&[&[-3, 0, 0, 2], &[0, 0], &[-3, 5], &[0], &[1, 1], &[], &[2]]),
            // Arrival order, as `absorb` now leaves it.
            make(&[&[9, 1, 5, 1], &[2, 8, 2], &[], &[5, 5, 0]]),
            make(&[&[3, 1, 2]]),
        ];
        for runs in cases {
            let mut expect: Vec<ewh_core::Tuple> =
                runs.iter().flat_map(ColumnBatch::iter_tuples).collect();
            expect.sort_by_key(|t| t.key);
            assert_eq!(merge_sorted_runs(runs).to_tuples(), expect);
        }
    }
}
