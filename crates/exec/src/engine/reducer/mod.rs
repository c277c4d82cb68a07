//! Reducer tasks: consume routed fragments from a bounded queue, collect
//! each owned region's `R1` fragments, merge them into the region's build
//! side once at the seal, and sweep probe (`R2`) chunks against it from
//! then on. Order is made where it is needed and nowhere else: at the seal,
//! and on the way to disk for a run that spills before it. A region's
//! build state is freed the moment the region completes — the engine never
//! holds the full shuffle materialization the batch path does.
//!
//! This module decides the protocol: the poll loop, what each delivery
//! does to region state, the migration fence, the seals, migrate and
//! adopt, finish and abort, and the tallies. It must not decide when a
//! region's probe buffer is due for a sweep or how much of it a turn
//! sweeps (`sweep`), nor what the budget sheds, when a spilled build comes
//! back or what a chunk replays (`spill`): a handler here only asks them.
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
//! the price is that at most one slice's output can sit staged beyond the
//! exchange bound, and the shared gauge charges it honestly.
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
//! [`Delivery::Migrate`]. The old owner seals the region if the `SealR1`
//! broadcast has not reached it yet and ships its [`RegionState`] as it is
//! to the new owner in a [`Delivery::Adopt`]. Fragments caught on the
//! wrong side of the reassignment are handled by a *per-region epoch
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

mod spill;
mod sweep;

use std::collections::VecDeque;
use std::mem;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use ewh_core::{ColumnBatch, Rel};

use super::pool::BatchPool;
use super::port::{DeliveryPort, FragmentPort, PortPop};
use super::queue::{Delivery, RegionBatch};
use super::runtime::{Poll, TaskCx, Waker};
use super::spill::SpillRun;
use super::Run;

/// Deliveries processed per poll before the task yields its worker, so a
/// firehosed reducer cannot monopolize a pool slot against other queries.
const DELIVERIES_PER_POLL: usize = 32;

/// One region's state at its owner. Sealed, it is also what a migration
/// ships to the next owner ([`Delivery::Adopt`]), as it is. The default is
/// an empty sealed region, which a shipped one off the wire is filled in
/// from: it is sealed by construction. Only an owner's fresh region starts
/// with runs, unsealed, and only this module sees the runs and the counts
/// kept beside the spilled build.
#[derive(Debug, Default)]
pub struct RegionState {
    /// `R1` fragments in arrival order, until the seal merges them into
    /// `build` — concatenated when sorted and disjoint, else sorted once
    /// (a run that spills first is sorted on its way out). `None` once
    /// sealed.
    runs: Option<Vec<ColumnBatch>>,
    /// The sorted build columns (valid once sealed).
    pub(crate) build: ColumnBatch,
    /// Probe tuples waiting for the seal or for a sweep to be due.
    pub(crate) pending: ColumnBatch,
    /// Build-side runs spilled to disk under budget pressure. They come
    /// back once, merged into `build`, as soon as they fit under the
    /// budget; until then each chunk replays them. A migration ships them
    /// as descriptors: the per-query spill segment is shared by every
    /// reducer of the query, so offsets stay valid across owners.
    pub(crate) spilled_build: Vec<SpillRun>,
    /// Tuples in `spilled_build`, kept as a running count so the sweep
    /// cadence does not sum descriptors on every delivery. The adopter of
    /// a migrated region recounts it.
    spilled_build_tuples: u64,
    /// The build came back from disk since it was last shed: shedding it
    /// again is a re-spill (`SpillTotals::respills`). An adopter starts
    /// without it, so it counts no re-spill of what it adopted.
    came_back: bool,
    /// Probe tuples spilled pre-sweep; replayed as extra probe chunks at
    /// the next flush (or at finish), then retired.
    pub(crate) spilled_pending: Vec<SpillRun>,
    pub(crate) input: u64,
    pub(crate) output: u64,
    pub(crate) checksum: u64,
}

impl RegionState {
    pub(crate) fn is_sealed(&self) -> bool {
        self.runs.is_none()
    }

    /// Resident build-side tuples: the pre-seal runs plus the sealed build.
    fn build_side_tuples(&self) -> usize {
        self.runs
            .iter()
            .flatten()
            .map(ColumnBatch::len)
            .sum::<usize>()
            + self.build.len()
    }

    /// Resident tuples. A shipped region's weigh its `Adopt` message and
    /// count as in flight; its spilled runs travel as descriptors and
    /// occupy disk, not queue memory.
    pub(crate) fn resident_tuples(&self) -> u64 {
        (self.build_side_tuples() + self.pending.len()) as u64
    }

    /// Probe tuples wait for a sweep, resident or spilled.
    fn has_buffered(&self) -> bool {
        !(self.pending.is_empty() && self.spilled_pending.is_empty())
    }
}

/// One reducer task: drains queue `me` until finished or aborted.
pub struct ReducerTask<'a> {
    run: &'a Run<'a>,
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
    /// Folded into the run's outcome; a reducer dropped without it
    /// panicked, and cancels the run.
    reported: bool,
}

impl<'a> ReducerTask<'a> {
    pub fn new(run: &'a Run<'a>, me: usize, owned: &[u32]) -> Self {
        let n_regions = run.io.table.n_regions();
        let mut states: Vec<Option<RegionState>> = (0..n_regions).map(|_| None).collect();
        for &r in owned {
            let runs = Some(Vec::new());
            states[r as usize] = Some(RegionState {
                runs,
                ..RegionState::default()
            });
        }
        ReducerTask {
            run,
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
            reported: false,
        }
    }

    /// Takes up to [`DELIVERIES_PER_POLL`] steps — one slice of a queued
    /// region's sweep if there is one, else a delivery — flushing the outbox
    /// between them. A `Pending` poll always leaves the task's waker
    /// registered with whichever resource refused it (the downstream
    /// exchange or this reducer's own queue); a `Ready` one has reported
    /// the task into the run.
    pub fn poll(&mut self, cx: &TaskCx<'_>) -> Poll {
        let start = Instant::now();
        let queue = &self.run.queues[self.me];
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
                break Poll::Yielded;
            }
            if self.sweep_turn(pool) {
                processed += 1;
                self.maybe_spill();
                continue;
            }
            if self.finishing {
                // Terminal already processed; its last sweep's output just
                // drained.
                self.free_regions(pool);
                break Poll::Ready;
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
                    self.report(true);
                    return Poll::Ready;
                }
            }
            // Budget enforcement rides on the delivery cadence: after each
            // absorbed message, shed state while the query gauge sits over
            // its slice (bounded file I/O inside a cooperative poll, like
            // the straggler injection above — never a wait on another
            // task).
            self.maybe_spill();
        };
        if processed > 0 || !matches!(step, Poll::Pending) {
            self.busy_secs += start.elapsed().as_secs_f64();
        }
        if matches!(step, Poll::Ready) {
            self.report(false);
        }
        step
    }

    /// Parks the task: publish the idle heartbeat (the migration
    /// coordinator treats an idle reducer as a migration target) and start
    /// the idle clock.
    fn park(&mut self, queue: &DeliveryPort, processed: usize) -> Poll {
        self.run.board.set_idle(
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
            Poll::Yielded
        } else {
            Poll::Pending
        }
    }

    fn unpark(&mut self) {
        self.run.board.set_idle(self.me, false);
        if let Some(since) = self.idle_since.take() {
            self.idle_secs += since.elapsed().as_secs_f64();
        }
    }

    /// Folds the task into the run's outcome under one lock: the tallies
    /// of every region it still owns, its busy and idle clocks, and
    /// whether it aborted. The one report of a finished reducer.
    fn report(&mut self, aborted: bool) {
        self.reported = true;
        if let Some(since) = self.idle_since.take() {
            self.idle_secs += since.elapsed().as_secs_f64();
        }
        let mut out = self.run.outcome();
        out.stats.reducer_busy_secs[self.me] = self.busy_secs;
        out.stats.reducer_idle_secs[self.me] = self.idle_secs;
        out.cancelled |= aborted;
        for (region, st) in self.states.iter().enumerate() {
            if let Some(st) = st {
                out.per_region_input[region] = st.input;
                out.per_region_output[region] = st.output;
                out.per_region_checksum[region] = st.checksum;
            }
        }
    }

    /// Pushes staged output batches to the downstream exchange until it
    /// fills, reloading spilled outbox runs as the resident outbox drains;
    /// `true` when both are empty. On a full exchange, `waker` is left
    /// registered with its producer list.
    fn flush_outbox(&mut self, waker: &Waker, pool: &BatchPool) -> bool {
        let Some(sink) = self.run.io.sink else {
            debug_assert!(self.outbox.is_empty() && self.spilled_outbox.is_empty());
            return true;
        };
        loop {
            while let Some(batch) = self.outbox.pop_front() {
                if let Err(batch) = sink.exchange.try_push_or_park(batch, waker) {
                    self.outbox.push_front(batch);
                    return false;
                }
            }
            if !self.reload_outbox_run(pool) {
                return true;
            }
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
        let owner = self.run.io.table.owner_of(region);
        if owner as usize == self.me {
            // We are the region's next owner; its state is still in flight.
            self.parked[region as usize].push(batch);
        } else {
            // Routed before the region migrated away from us: the stamp
            // must predate the region's migration epoch (table ordering
            // contract — see `RoutingTable`).
            debug_assert!(
                batch.epoch < self.run.io.table.migrated_at(region),
                "post-migration fragment for region {region} reached a past owner"
            );
            self.run.queues[owner as usize].push_unbounded(Delivery::Batch(batch));
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
        let run = self.run;
        let st = self.states[region as usize]
            .as_mut()
            .expect("absorb of an unowned region");
        st.input += n;
        st.runs
            .as_mut()
            .expect("R1 fragment after the R1 seal")
            .push(tuples);
        run.board.add_build(region, n);
        Self::sub_in_flight(run, n);
    }

    /// Appends probe tuples to an owned region's buffer, queueing the
    /// region's sweep once one is due.
    fn absorb_probe(&mut self, region: u32, tuples: &ColumnBatch) {
        let n = tuples.len() as u64;
        self.straggle(n);
        let run = self.run;
        let st = self.states[region as usize]
            .as_mut()
            .expect("absorb of an unowned region");
        st.input += n;
        st.pending
            .extend_from_slices(tuples.keys(), tuples.payloads());
        run.board.add_probe(region, n);
        self.queue_if_due(region);
        Self::sub_in_flight(run, n);
    }

    /// The injected straggler's cost of absorbing `n` tuples. The fault
    /// really does occupy the pool worker — exactly what a slow node does
    /// to a shared cluster.
    fn straggle(&self, n: u64) {
        if let Some(s) = self.run.cfg.straggler {
            if s.reducer == self.me && n > 0 {
                std::thread::sleep(Duration::from_nanos(n.saturating_mul(s.nanos_per_tuple)));
            }
        }
    }

    /// Decrements the routed-but-unabsorbed counter, waking the quiescence
    /// watchers on the final crossing to zero once the mappers are done —
    /// the event the coordinator's termination check waits on.
    fn sub_in_flight(run: &Run<'_>, n: u64) {
        if run.in_flight.fetch_sub(n, Ordering::AcqRel) == n
            && run.mappers_done.load(Ordering::Acquire)
        {
            run.quiesce.wake_all();
        }
    }

    fn on_seal_r1(&mut self) {
        for region in 0..self.states.len() {
            // Adopted regions arrive sealed, and a region sealed early by a
            // racing migration is equally fine — skip, don't re-merge.
            if let Some(st) = self.states[region].as_mut().filter(|st| !st.is_sealed()) {
                Self::seal(st, self.run, region as u32);
                self.queue_if_due(region as u32);
            }
        }
    }

    /// `SealAll`: every mapper-routed tuple is enqueued somewhere, but
    /// migrated state and fenced fragments may still arrive — eagerly sweep
    /// what is buffered (freeing the memory early) and keep draining until
    /// `Finish`.
    fn on_seal_all(&mut self) {
        for region in 0..self.states.len() {
            self.queue_if_buffered(region as u32);
        }
    }

    /// Coordinator asked us to hand the region to its (already published)
    /// new owner: seal if the `SealR1` broadcast is still in flight, and
    /// ship the state as it is.
    fn on_migrate(&mut self, region: u32) {
        let run = self.run;
        let mut st = self.states[region as usize]
            .take()
            .expect("Migrate for a region this reducer does not own");
        if !st.is_sealed() {
            Self::seal(&mut st, run, region);
        }
        // Spilled runs stay out of `in_flight` (they are not resident), and
        // the coordinator already charged their re-read cost into the move
        // decision.
        let shipped = st.resident_tuples();
        run.counters
            .migration_tuples
            .fetch_add(shipped, Ordering::Relaxed);
        run.in_flight.fetch_add(shipped, Ordering::AcqRel);
        let owner = run.io.table.owner_of(region);
        debug_assert_ne!(owner as usize, self.me, "migration to self");
        run.queues[owner as usize].push_unbounded(Delivery::Adopt {
            region,
            state: Box::new(st),
        });
    }

    /// Install a migrated region's state, then absorb any fragments the
    /// fence parked while the state was in flight.
    fn on_adopt(&mut self, region: u32, mut state: RegionState, pool: &BatchPool) {
        let run = self.run;
        debug_assert!(
            self.states[region as usize].is_none(),
            "adoption of a region already owned"
        );
        debug_assert_eq!(
            run.io.table.owner_of(region) as usize,
            self.me,
            "adoption does not match the routing table"
        );
        debug_assert!(state.is_sealed(), "an unsealed region shipped");
        state.spilled_build_tuples = state.spilled_build.iter().map(SpillRun::tuples).sum();
        state.came_back = false;
        let shipped = state.resident_tuples();
        self.states[region as usize] = Some(state);
        Self::sub_in_flight(run, shipped);
        for batch in mem::take(&mut self.parked[region as usize]) {
            self.absorb(batch, pool);
        }
        self.queue_if_due(region);
        // Publish completion last: the coordinator may start the next
        // handshake (or declare quiescence) the moment it sees this.
        run.adoptions.fetch_add(1, Ordering::Release);
        run.quiesce.wake_all();
    }

    /// Seals a region's build side — the one path `SealR1`, a migration
    /// that overtakes it, and `finish` all take: shed what the budget
    /// cannot hold through the merge, then merge the rest into `build`.
    fn seal(st: &mut RegionState, run: &Run<'_>, region: u32) {
        Self::make_room_to_seal(st, run, region);
        st.build = Self::merge_gauged(st.runs.take().unwrap_or_default(), run);
    }

    /// Merges a region's runs into one, charging the memory transient to
    /// the gauge: the merged output (and a sort's scratch) coexists with
    /// the source runs, so the region briefly holds up to 2× its build
    /// side. Charging the full size for the whole pass is a (slight)
    /// overestimate of the instantaneous extra — the gauge must never
    /// under-report the high-water mark it exists to measure.
    fn merge_gauged(runs: Vec<ColumnBatch>, run: &Run<'_>) -> ColumnBatch {
        let transient = runs.iter().map(ColumnBatch::len).sum::<usize>() as u64;
        run.io.gauge.add(transient);
        let start = Instant::now();
        let build = merge_sorted_runs(runs);
        run.counters.merge_secs.add_since(start);
        run.io.gauge.sub(transient);
        build
    }

    /// `Finish`: queue the last sweeps; the poll loop tallies once they are
    /// through.
    fn on_finish(&mut self) {
        debug_assert!(
            self.parked.iter().all(Vec::is_empty),
            "finish with fenced fragments still parked"
        );
        for region in 0..self.states.len() {
            // A region that saw no R1 seal can only mean an empty plan where
            // the engine pre-sealed; seal whatever is there.
            if let Some(st) = self.states[region].as_mut().filter(|st| !st.is_sealed()) {
                Self::seal(st, self.run, region as u32);
            }
            self.queue_if_buffered(region as u32);
        }
        self.finishing = true;
    }

    /// Frees every owned region's build side; the tallies stay for the
    /// report.
    fn free_regions(&mut self, pool: &BatchPool) {
        let run = self.run;
        for (region, slot) in self.states.iter_mut().enumerate() {
            let Some(st) = slot.as_mut() else { continue };
            debug_assert!(!st.has_buffered());
            run.io.gauge.sub(st.build.len() as u64);
            pool.put(mem::take(&mut st.build));
            // Build runs that never came back persist across flushes (each
            // probe chunk re-reads them); the region completing retires them.
            for spilled in st.spilled_build.drain(..) {
                run.board.sub_spilled(region as u32, spilled.tuples());
            }
        }
    }

    fn discard(&mut self) {
        let gauge = self.run.io.gauge;
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

/// Counts the reducer out of the run (see [`Run::reducer_exited`]). One
/// that did not report panicked: what it held is discarded, as on `Abort`.
impl Drop for ReducerTask<'_> {
    fn drop(&mut self) {
        if !self.reported {
            self.discard();
        }
        self.run.reducer_exited(self.me, self.reported);
    }
}

/// Seals a set of runs into one key-sorted batch, stably: equal keys keep
/// run order, then position within the run. When every non-empty run is
/// sorted and, taken by first key, each ends strictly below the next one's
/// first key, the runs are concatenated in that order and nothing is
/// sorted — a key-sorted `R1` routes such runs to every region. Otherwise
/// they are appended in arrival order and the concatenation is sorted
/// once with [`ColumnBatch::sort_by_key`], which *is* the stable k-way
/// merge whether or not each run arrived sorted: a few radix passes over
/// two contiguous columns, where a tournament over hundreds of
/// fragment-sized runs pays a cache-missing comparison chain per tuple.
pub fn merge_sorted_runs(mut runs: Vec<ColumnBatch>) -> ColumnBatch {
    let mut out = ColumnBatch::with_capacity(runs.iter().map(ColumnBatch::len).sum());
    match disjoint_order(&runs) {
        Some(order) => order.into_iter().for_each(|i| out.append(&mut runs[i])),
        None => {
            runs.iter_mut().for_each(|run| out.append(run));
            out.sort_by_key();
        }
    }
    out
}

/// The order (by index) in which `runs` concatenate into one sorted
/// batch, if they are each sorted and strictly disjoint: ordered by first
/// key, each non-empty run's last key lies below the next one's first.
/// Runs that touch at an equal key get `None`, since only a sort keeps
/// equal keys in run order there.
fn disjoint_order(runs: &[ColumnBatch]) -> Option<Vec<usize>> {
    let first = |i: usize| runs[i].keys()[0];
    let last = |i: usize| runs[i].keys()[runs[i].len() - 1];
    let mut order: Vec<usize> = (0..runs.len()).filter(|&i| !runs[i].is_empty()).collect();
    order.sort_unstable_by_key(|&i| first(i));
    let disjoint = order.windows(2).all(|w| last(w[0]) < first(w[1]));
    (disjoint && order.iter().all(|&i| runs[i].is_sorted_by_key())).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{drive, drive_with, nested_loop, ship, spawn, tallies, Fault, Kit};
    use super::*;
    use crate::engine::{Channel, EngineRuntime};
    use crate::local_join::{sweep_columns, sweep_columns_each, KeyFrom, OutputWork};
    use ewh_core::{JoinCondition, Tuple};
    use std::sync::Arc;

    #[test]
    fn a_seal_sweeps_one_region_a_turn_so_the_outbox_holds_one_regions_output() {
        // 16 regions, each 20 build × 20 probe tuples on one key, every
        // probe buffer under the chunk size: all 16 wait for `SealAll`, and
        // each then sweeps to 400 output tuples. Swept inside the one
        // delivery, all 6 400 sit staged at once; swept a turn at a time
        // behind a 256-tuple exchange, never much more than one region's.
        const REGIONS: u32 = 16;
        let rt = EngineRuntime::new(2);
        let kit = Kit::by_hand(1, &[0; REGIONS as usize], JoinCondition::Equi, 64).sink(256, 64);
        let run = kit.hand_run();
        let side =
            |tag: u64| -> ColumnBatch { (0..20).map(|i| Tuple::new(7, tag << 8 | i)).collect() };
        for region in 0..REGIONS {
            ship(&run, 0, region, Rel::R1, side(1));
        }
        run.queues[0].push_unbounded(Delivery::SealR1);
        for region in 0..REGIONS {
            ship(&run, 0, region, Rel::R2, side(2));
        }
        run.queues[0].push_unbounded(Delivery::SealAll);
        run.queues[0].push_unbounded(Delivery::Finish);
        let state = REGIONS as u64 * 40;
        assert_eq!(kit.gauge.current_tuples(), state);

        let owned: Vec<u32> = (0..REGIONS).collect();
        // The downstream mapper takes the sink until the reducer's drop
        // closes it.
        std::thread::scope(|s| {
            s.spawn(|| kit.take_rest());
            drive(&rt, &run, 0, &owned);
        });
        assert_eq!(kit.emitted().len() as u64, REGIONS as u64 * 400);
        assert_eq!(run.outcome().per_region_output, [400; REGIONS as usize]);
        kit.assert_balanced();
        // Resident state, a full exchange, one region's sweep, the batch in
        // the consumer's hands.
        let bound = state + 256 + 400 + 64;
        let peak = kit.gauge.peak_tuples();
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
            let cond = JoinCondition::Equi;
            let kit = Kit::by_hand(1, &[0], cond, probe_keys.len()).sink(cap, BATCH);
            let run = kit.hand_run();
            // Payloads that make `pair_payload` injective.
            let build: ColumnBatch = (0..BUILD).map(|i| Tuple::new(7, (i + 1) << 12)).collect();
            let probe: ColumnBatch = probe_keys
                .iter()
                .enumerate()
                .map(|(j, &k)| Tuple::new(k, j as u64 + 1))
                .collect();
            ship(&run, 0, 0, Rel::R1, build.clone());
            run.queues[0].push_unbounded(Delivery::SealR1);
            ship(&run, 0, 0, Rel::R2, probe.clone());
            run.queues[0].push_unbounded(Delivery::SealAll);
            run.queues[0].push_unbounded(Delivery::Finish);
            let state = BUILD + probe_keys.len() as u64;

            let mut most_staged = 0;
            // The downstream mapper, one batch a turn.
            drive_with(&rt, &run, 0, &[0], |task| {
                let staged: usize = task.outbox.iter().map(ColumnBatch::len).sum();
                most_staged = most_staged.max(staged);
                kit.take_one();
            });
            kit.take_rest();

            let mut expect = Vec::new();
            let mut sorted_probe = probe.clone();
            sorted_probe.sort_by_key();
            sweep_columns_each(&build, &sorted_probe, &cond, KeyFrom::Probe, |_, p| {
                expect.push(p)
            });
            assert!(expect.len() as u64 >= 56 * BUILD);
            expect.sort_unstable();
            let mut emitted = kit.emitted();
            emitted.sort_unstable();
            assert_eq!(emitted, expect, "cap {cap}");
            assert_eq!(run.outcome().per_region_output[0], expect.len() as u64);
            kit.assert_balanced();

            let slice = cap + BUILD as usize + BATCH;
            assert!(
                most_staged <= slice,
                "cap {cap}: {most_staged} tuples staged beyond the exchange"
            );
            let peak = kit.gauge.peak_tuples();
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
        let cond = JoinCondition::Band { beta: 1 };
        let kit = Kit::by_hand(2, &[0], cond, 4);
        let run = kit.hand_run();
        let queues = &run.queues;
        let ship = |to: usize, rel: Rel, tuples: ColumnBatch| ship(&run, to, 0, rel, tuples);
        let tagged = |tag: u64, keys: &[i64]| -> ColumnBatch {
            keys.iter()
                .enumerate()
                .map(|(i, &k)| Tuple::new(k, tag << 16 | i as u64))
                .collect()
        };
        let build_runs = [
            tagged(1, &[9, 1, 5, 1]),
            tagged(2, &[2, 8, 2]),
            tagged(3, &[5, 5, 0]),
        ];
        let probe_runs = [tagged(4, &[6, 0, 3, 9, 1]), tagged(5, &[2, 2, 7])];

        for build in &build_runs {
            ship(0, Rel::R1, build.clone());
        }
        kit.table().migrate(0, 1);
        queues[0].push_unbounded(Delivery::Migrate { region: 0 });
        queues[0].push_unbounded(Delivery::SealR1);
        queues[0].push_unbounded(Delivery::Finish);
        drive(&rt, &run, 0, &[0]);
        let donor = run.outcome().clone();
        assert!(!donor.cancelled && donor.per_region_input == [0]);

        // The shipped state is the stable sort of the arrival-order runs.
        let PortPop::Item(Delivery::Adopt { region: 0, state }) = queues[1].try_pop() else {
            panic!("the donor ships exactly one Adopt");
        };
        assert!(state.is_sealed());
        assert_eq!(state.build, merge_sorted_runs(build_runs.to_vec()));
        assert!(state.build.is_sorted_by_key());
        queues[1].push_unbounded(Delivery::Adopt { region: 0, state });

        queues[1].push_unbounded(Delivery::SealR1);
        for probe in &probe_runs {
            ship(1, Rel::R2, probe.clone());
        }
        queues[1].push_unbounded(Delivery::Finish);
        drive(&rt, &run, 1, &[]);
        let flat = |runs: &[ColumnBatch]| -> Vec<Tuple> {
            runs.iter().flat_map(ColumnBatch::iter_tuples).collect()
        };
        let expect = nested_loop(&flat(&build_runs), &flat(&probe_runs), &cond);
        assert!(expect.0 > 0);
        assert_eq!(tallies(&run), [expect]);
        assert_eq!(run.outcome().per_region_input, [18]);
        assert_eq!(run.in_flight.load(Ordering::Acquire), 0);
        kit.assert_balanced();
    }

    #[test]
    fn a_sibling_that_migrates_between_a_bounced_push_and_its_retry_is_regrouped() {
        use super::super::mapper::MapperTask;

        // A 2 × 1 matrix: an `R1` tuple goes to its row's region, an `R2`
        // tuple to both regions — one group, both on reducer 0, whose queue
        // holds 8 tuples. The probe morsel's grouped push bounces; region 1
        // moves to reducer 1; the retry must split the group and stamp the
        // moved region's delivery after the migration.
        let rt = EngineRuntime::new(2);
        let side = |tag: u64| -> Vec<Tuple> {
            (0..8)
                .map(|i| Tuple::new(i as i64 % 3, tag << 8 | i))
                .collect()
        };
        let (r1, r2) = (side(1), side(2));
        let kit = Kit::by_hand(2, &[0, 0], JoinCondition::Equi, 4)
            .relations(&r1, &r2)
            .with(|cfg| (cfg.morsel_tuples, cfg.seed) = (8, 5));
        let mut run = kit.hand_run();
        run.queues = [8, 64]
            .map(|cap| Arc::new(Channel::new(cap)) as Arc<DeliveryPort>)
            .to_vec();
        let run = &run;
        let mut mapper = MapperTask::new(run);
        let mut reducers = [
            ReducerTask::new(run, 0, &[0, 1]),
            ReducerTask::new(run, 1, &[]),
        ];
        let mut reported = Vec::new();
        let (table, reported_by) = (kit.table(), &mut reported);
        spawn(
            &rt,
            vec![Box::new(move |cx| {
                // Route and ship the build morsel (8 tuples fill queue 0),
                // then route the probe morsel: its group bounces.
                let steps: Vec<Poll> = (0..4).map(|_| mapper.poll(cx)).collect();
                assert!(matches!(steps[3], Poll::Pending), "{steps:?}");
                table.migrate(1, 1);
                run.queues[0].push_unbounded(Delivery::Migrate { region: 1 });
                // Reducer 0 drains its queue and ships region 1 away; the
                // retry finds room and regroups.
                reducers[0].poll(cx);
                assert!(matches!(mapper.poll(cx), Poll::Yielded));
                let mut probes = Vec::new();
                for q in &run.queues {
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
                let moved = table.migrated_at(1);
                assert_eq!(probes, vec![(0, moved, vec![]), (1, moved, vec![])]);
                // The regions each reducer's report adds.
                for reducer in &mut reducers {
                    while !matches!(reducer.poll(cx), Poll::Ready) {}
                    let input = run.outcome().per_region_input.clone();
                    reported_by.push(input.iter().map(|&n| n > 0).collect::<Vec<_>>());
                }
                Poll::Ready
            })],
        );
        assert_eq!(
            reported,
            [[true, false], [true, true]],
            "region 1 ended at its new owner"
        );
        let got = tallies(run)
            .into_iter()
            .fold((0, 0), |(c, x), (n, y)| (c + n, x ^ y));
        assert_eq!(got, nested_loop(&r1, &r2, &JoinCondition::Equi));
        assert_eq!(
            run.counters.network_tuples.load(Ordering::Relaxed),
            8 + 2 * 8
        );
        assert_eq!(
            run.in_flight.load(Ordering::Acquire),
            0,
            "nothing in flight"
        );
        kit.assert_balanced();
    }

    /// Probe tuples a fragment carries in the cadence tests below.
    const FRAGMENT: usize = 64;

    /// Queues, for each `(build, probe)` size pair, one region's build
    /// side, `SealR1`, then every region's probe side in interleaved
    /// [`FRAGMENT`]-tuple fragments, `SealAll` and `Finish`. Build keys
    /// cycle over 1 024 values; probe keys visit the same values out of
    /// order. Returns each region's `(count, checksum)` as one sweep of its
    /// whole sorted probe side computes it.
    fn stream_after_seal(run: &Run<'_>, sizes: &[(usize, usize)]) -> Vec<(u64, u64)> {
        let side = |region: usize, rel: u64, n: usize, stride: u64| -> ColumnBatch {
            (0..n as u64)
                .map(|i| {
                    let key = (i * stride % 1024) as i64;
                    Tuple::new(key, (region as u64) << 40 | rel << 32 | i)
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
            ship(run, 0, r as u32, Rel::R1, build.clone());
        }
        run.queues[0].push_unbounded(Delivery::SealR1);
        let longest = sizes.iter().map(|&(_, p)| p).max().unwrap_or(0);
        for off in (0..longest).step_by(FRAGMENT) {
            for (r, probe) in probes.iter().enumerate() {
                if off < probe.len() {
                    let mut fragment = ColumnBatch::new();
                    fragment.extend_from_range(probe, off..(off + FRAGMENT).min(probe.len()));
                    ship(run, 0, r as u32, Rel::R2, fragment);
                }
            }
        }
        run.queues[0].push_unbounded(Delivery::SealAll);
        run.queues[0].push_unbounded(Delivery::Finish);
        builds
            .iter()
            .zip(&probes)
            .map(|(build, probe)| whole_sweep(run, build, probe))
            .collect()
    }

    /// Drives reducer 0 over the regions `stream_after_seal` queued and
    /// checks, after every poll, that no region buffers more than `limit`
    /// (its probe tuples due for a sweep) plus one fragment and that no
    /// spilled run exceeds the floor; then checks that the tallies equal
    /// one whole-probe sweep per region.
    fn drive_within(
        rt: &EngineRuntime,
        run: &Run<'_>,
        expect: &[(u64, u64)],
        limit: impl Fn(usize) -> usize + Send,
    ) {
        let owned: Vec<u32> = (0..expect.len() as u32).collect();
        let mut most = vec![0; expect.len()];
        let mut longest_run = 0;
        drive_with(rt, run, 0, &owned, |task| {
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
            longest_run <= run.cfg.probe_chunk as u64,
            "a spilled run of {longest_run} tuples"
        );
        assert_eq!(tallies(run), expect);
        assert!(expect.iter().all(|&(count, _)| count > 0));
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
        let kit = Kit::by_hand(1, &[0, 0], JoinCondition::Band { beta: 1 }, FLOOR);
        let run = kit.hand_run();
        let expect = stream_after_seal(&run, &sizes);
        let due = |r: usize| sweep::due_at(FLOOR, sizes[r].0);
        drive_within(&rt, &run, &expect, due);
        let most: u64 = (0..sizes.len())
            .map(|r| sizes[r].1.div_ceil(due(r)) as u64 + 1)
            .sum();
        let swept = run.board.chunks_swept(0);
        assert!(swept <= most, "{swept} sweeps, at most {most} are due");
        kit.assert_balanced();
    }

    #[test]
    fn a_query_over_its_budget_sweeps_at_the_floor() {
        // The same region under a budget of half its build. The ladder
        // sheds the whole build in runs of at most the floor. The build and
        // its merge never fit a budget of half the build, so every chunk
        // replays the runs: at the floor while the gauge is over the budget,
        // and at an eighth of the whole build, resident and spilled, once
        // the draining queue takes it under. The gauge only falls between
        // deliveries, so a poll that ends pressed absorbed every fragment
        // pressed.
        const FLOOR: usize = 64;
        let sizes = [(4096, 16_384)];
        let rt = EngineRuntime::new(2);
        let kit = Kit::by_hand(1, &[0], JoinCondition::Band { beta: 1 }, FLOOR).spill(2048);
        let run = kit.hand_run();
        let expect = stream_after_seal(&run, &sizes);
        let (mut pressed_most, mut eased_most, mut longest_run) = (0, 0, 0);
        drive_with(&rt, &run, 0, &[0], |task| {
            let st = task.states[0].as_ref().expect("the region stays owned");
            if run.pressed() {
                pressed_most = pressed_most.max(st.pending.len());
            } else {
                let build = st.build.len() + st.spilled_build_tuples as usize;
                let due = sweep::due_at(FLOOR, build);
                assert!(
                    st.pending.len() <= due + FRAGMENT,
                    "{} probe tuples buffered, {due} due",
                    st.pending.len()
                );
                eased_most = eased_most.max(st.pending.len());
            }
            for spilled in st.spilled_build.iter().chain(&st.spilled_pending) {
                longest_run = longest_run.max(spilled.tuples());
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
        assert_eq!(tallies(&run), expect);
        let swept = run.board.chunks_swept(0);
        let fewest = (sizes[0].1 / (FLOOR + FRAGMENT)) as u64;
        assert!(swept >= fewest, "{swept} sweeps under pressure");
        kit.assert_balanced();
        assert!(kit.spill_ctx().totals().runs > 0, "the build went to disk");
        assert_eq!(run.io.cancel.reason(), None);
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
            .map(|i| Tuple::new((i % 1024) as i64, 1 << 32 | i))
            .collect();
        let probe = (0..SPILL_PROBE as u64)
            .map(|i| {
                let key = match i as usize % FRAGMENT {
                    0 => 0,
                    1 => 1023,
                    _ => (i * 751 % 1024) as i64,
                };
                Tuple::new(key, 2 << 32 | i)
            })
            .collect();
        (build, probe)
    }

    /// Queues `probe` for region 0 in [`FRAGMENT`]-tuple fragments, then
    /// `SealAll` and `Finish`.
    fn ship_probe(run: &Run<'_>, probe: &ColumnBatch) {
        for off in (0..probe.len()).step_by(FRAGMENT) {
            let mut fragment = ColumnBatch::new();
            fragment.extend_from_range(probe, off..(off + FRAGMENT).min(probe.len()));
            ship(run, 0, 0, Rel::R2, fragment);
        }
        run.queues[0].push_unbounded(Delivery::SealAll);
        run.queues[0].push_unbounded(Delivery::Finish);
    }

    /// One whole-probe sweep of `build` and `probe`.
    fn whole_sweep(run: &Run<'_>, build: &ColumnBatch, probe: &ColumnBatch) -> (u64, u64) {
        let (mut build, mut probe) = (build.clone(), probe.clone());
        build.sort_by_key();
        probe.sort_by_key();
        sweep_columns(&build, &probe, run.io.cond, OutputWork::Touch)
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
        let rt = EngineRuntime::new(2);
        let kit = Kit::by_hand(1, &[0], JoinCondition::Band { beta: 1 }, FLOOR).spill(BUDGET);
        let run = kit.hand_run();
        let (build, probe) = spill_sides();
        kit.gauge.add(ballast);
        ship(&run, 0, 0, Rel::R1, build.clone());
        run.queues[0].push_unbounded(Delivery::SealR1);
        let mut shed = None;
        drive_with(&rt, &run, 0, &[0], |task| {
            let st = task.states[0].as_ref().expect("the region stays owned");
            if shed.is_none() && st.is_sealed() {
                shed = Some((st.spilled_build_tuples, st.build_side_tuples()));
                kit.gauge.sub(ballast);
                ship_probe(&run, &probe);
            }
        });
        assert_eq!(
            shed,
            Some((SPILL_BUILD as u64, 0)),
            "the build was shed whole"
        );
        let runs = SPILL_BUILD.div_ceil(FLOOR) as u64;
        let totals = kit.spill_ctx().totals();
        assert_eq!(totals.runs, runs);
        assert_eq!(totals.reloads, runs, "each run came back once");
        assert_eq!(totals.respills, 0);
        assert!(run.board.chunks_swept(0) > 1);
        let expect = whole_sweep(&run, &build, &probe);
        assert!(expect.0 > 0);
        assert_eq!(tallies(&run), [expect]);
        assert_eq!(run.board.spilled_tuples(0), 0);
        kit.assert_balanced();
        let peak = kit.gauge.peak_tuples();
        assert!(
            peak <= BUDGET + 1,
            "peak {peak} over the build's own delivery"
        );
        assert_eq!(run.io.cancel.reason(), None);
    }

    #[test]
    fn a_key_sorted_build_shed_whole_comes_back_as_one_concatenation() {
        // A key-sorted `R1` as the mappers route it: the region's fragments
        // are each sorted, disjoint, and arrive shuffled. Ballast holds the
        // gauge over the budget while they land, so the ladder sheds each
        // one as it arrives, and the region seals empty. With the ballast
        // released, the first sweep brings every run back once; reloaded
        // last-written first, the runs are still disjoint, so the merge
        // concatenates them. The segment holds only key-sorted runs, the
        // join is the batch engine's, and the gauge ends at zero.
        const FLOOR: usize = 64;
        const BUDGET: u64 = 12_288;
        let rt = EngineRuntime::new(2);
        let cond = JoinCondition::Band { beta: 1 };
        let kit = Kit::by_hand(1, &[0], cond, FLOOR).spill(BUDGET);
        let run = kit.hand_run();
        let r1: Vec<Tuple> = (0..SPILL_BUILD as u64)
            .map(|i| Tuple::new(2 * i as i64, 1 << 32 | i))
            .collect();
        let r2: Vec<Tuple> = (0..SPILL_PROBE as u64)
            .map(|i| Tuple::new((i * 7_919 % 8_192) as i64, 2 << 32 | i))
            .collect();
        let fragments: Vec<ColumnBatch> = r1.chunks(96).map(ColumnBatch::from_tuples).collect();
        kit.gauge.add(BUDGET);
        for i in 0..fragments.len() {
            let fragment = fragments[i * 17 % fragments.len()].clone();
            ship(&run, 0, 0, Rel::R1, fragment);
        }
        run.queues[0].push_unbounded(Delivery::SealR1);
        let mut shed = None;
        drive_with(&rt, &run, 0, &[0], |task| {
            let st = task.states[0].as_ref().expect("the region stays owned");
            if shed.is_none() && st.is_sealed() {
                shed = Some((st.spilled_build_tuples, st.build_side_tuples()));
                kit.gauge.sub(BUDGET);
                ship_probe(&run, &ColumnBatch::from_tuples(&r2));
            }
        });
        assert_eq!(
            shed,
            Some((SPILL_BUILD as u64, 0)),
            "the build was shed whole"
        );
        let totals = kit.spill_ctx().totals();
        assert!(totals.runs >= fragments.len() as u64);
        assert_eq!(totals.reloads, totals.runs, "each run came back once");
        assert_eq!(totals.respills, 0);

        let segment = kit.segment();
        for (i, (keys, _)) in segment.iter().enumerate() {
            assert!(keys.is_sorted(), "spilled run {i} is not key-sorted");
        }
        assert_eq!(segment.len() as u64, totals.runs);

        let batch = crate::run_operator(
            &rt,
            ewh_core::SchemeKind::Ci,
            &r1,
            &r2,
            &cond,
            &crate::OperatorConfig {
                j: 1,
                mode: crate::ExecMode::Batch,
                ..Default::default()
            },
        );
        assert!(batch.join.output_total > 0);
        assert_eq!(
            tallies(&run),
            [(batch.join.output_total, batch.join.checksum)]
        );
        assert_eq!(run.board.spilled_tuples(0), 0);
        kit.assert_balanced();
        assert_eq!(run.io.cancel.reason(), None);
    }

    #[test]
    fn a_spilled_build_that_never_fits_is_replayed_by_every_chunk() {
        // The fallback: the build and its merge never fit beside the probe
        // side, so every chunk reloads every spilled run, as the replay
        // always did, and the output is that of one whole-probe sweep.
        const FLOOR: usize = 64;
        let rt = EngineRuntime::new(2);
        let kit = Kit::by_hand(1, &[0], JoinCondition::Band { beta: 1 }, FLOOR).spill(3000);
        let run = kit.hand_run();
        let (build, probe) = spill_sides();
        ship(&run, 0, 0, Rel::R1, build.clone());
        run.queues[0].push_unbounded(Delivery::SealR1);
        ship_probe(&run, &probe);
        drive(&rt, &run, 0, &[0]);
        let runs = SPILL_BUILD.div_ceil(FLOOR) as u64;
        let totals = kit.spill_ctx().totals();
        assert_eq!(totals.runs, runs, "only the build went to disk");
        let chunks = run.board.chunks_swept(0);
        assert!(chunks > 1);
        assert_eq!(
            totals.reloads,
            chunks * runs,
            "every chunk replays every run"
        );
        assert_eq!(tallies(&run), [whole_sweep(&run, &build, &probe)]);
        kit.assert_balanced();
        assert_eq!(run.io.cancel.reason(), None);
    }

    #[test]
    fn a_sink_fed_build_comes_back_only_with_room_for_the_slice_it_comes_back_for() {
        // One region of 300 build × 256 probe tuples on one key, behind a
        // 1 024-tuple exchange that the consumer empties after every poll,
        // under a budget of 700: the seal fits (300 beside its 300-tuple
        // sort), the chunk fits beside the build, and a 3-tuple slice's
        // 900 pairs do not. That slice sends the build and the rest of the
        // chunk to disk. Thirty empty probe fragments ahead of the probe end
        // the poll right after the slice's output is flushed, so the next
        // turn finds the exchange emptied and the gauge at zero. The build
        // and its merge alone would fit then (600 ≤ 700); brought back, it
        // is shed again by the next slice's 900 pairs, and the rest of the
        // chunk with it, once per slice. With room left for an exchange of
        // output it stays on disk, and no probe tuple is written twice.
        const BUILD: u64 = 300;
        const PROBE: u64 = 256;
        let rt = EngineRuntime::new(2);
        let kit = Kit::by_hand(1, &[0], JoinCondition::Equi, PROBE as usize)
            .sink(1024, 64)
            .spill(700);
        let run = kit.hand_run();
        // Tagged payloads: a build tuple's carry 1 above bit 40, a probe
        // tuple's 2, an output pair's 33 (`pair_payload` is 31 b + p).
        let side = |tag: u64, n: u64| -> ColumnBatch {
            (0..n).map(|i| Tuple::new(7, tag << 40 | i)).collect()
        };
        let probe = side(2, PROBE);
        ship(&run, 0, 0, Rel::R1, side(1, BUILD));
        run.queues[0].push_unbounded(Delivery::SealR1);
        let mut shipped = false;
        drive_with(&rt, &run, 0, &[0], |task| {
            let st = task.states[0].as_ref().expect("the region stays owned");
            if !shipped && st.is_sealed() {
                shipped = true;
                for _ in 0..30 {
                    ship(&run, 0, 0, Rel::R2, ColumnBatch::new());
                }
                ship(&run, 0, 0, Rel::R2, probe.clone());
                run.queues[0].push_unbounded(Delivery::SealAll);
                run.queues[0].push_unbounded(Delivery::Finish);
            }
            while kit.take_one() {}
        });
        kit.take_rest();
        assert_eq!(run.outcome().per_region_output, [BUILD * PROBE]);
        assert_eq!(kit.emitted().len() as u64, BUILD * PROBE);
        kit.assert_balanced();
        let respills = kit.spill_ctx().totals().respills;
        assert_eq!(respills, 0, "the build came back to be shed");

        // Every probe tuple in the segment's records.
        let mut probe_written: Vec<u64> = kit
            .segment()
            .into_iter()
            .flat_map(|(_, payloads)| payloads)
            .filter(|p| p >> 40 == 2)
            .collect();
        let written = probe_written.len();
        probe_written.sort_unstable();
        probe_written.dedup();
        assert_eq!(probe_written.len(), written, "a probe tuple written twice");
        assert!(
            (1..PROBE as usize).contains(&written),
            "{written} probe tuples written: the rest of the first slice"
        );
        assert_eq!(run.io.cancel.reason(), None);
    }

    #[test]
    fn the_ladder_sheds_a_whole_region() {
        // Region 0 holds the largest single run, region 1 the most build-side
        // tuples in four smaller runs, region 2 a sealed build as large as
        // region 0's run. Rung 1 sheds region 1 whole and touches nothing
        // else; the next tie goes to the lower id. A build that came back
        // and is shed again is a re-spill.
        let kit = Kit::by_hand(1, &[0, 0, 0], JoinCondition::Equi, 64).spill(0);
        // A run over the ladder's budget and one over a roomy budget, both
        // charging the kit's gauge.
        let (run, roomy) = (kit.hand_run(), kit.hand_run_under(10_000));
        let (gauge, ctx) = (&kit.gauge, kit.spill_ctx());
        let batch = |n: i64, tag: u64| -> ColumnBatch {
            (0..n)
                .map(|i| Tuple::new((n - i) * 3 % 17, tag << 16 | i as u64))
                .collect()
        };
        let mut task = ReducerTask::new(&run, 0, &[0, 1, 2]);
        fn state<'t>(task: &'t mut ReducerTask<'_>, r: usize) -> &'t mut RegionState {
            task.states[r].as_mut().expect("owned")
        }
        state(&mut task, 0).runs = Some(vec![batch(100, 0)]);
        state(&mut task, 1).runs = Some((1..=4).map(|tag| batch(30, tag)).collect());
        let mut sealed = batch(100, 5);
        sealed.sort_by_key();
        let st = state(&mut task, 2);
        st.build = sealed;
        st.runs = None;
        gauge.add(320);

        assert!(task.spill_once(ctx));
        let st = state(&mut task, 1);
        assert_eq!(st.build_side_tuples(), 0);
        assert_eq!(st.spilled_build_tuples, 120);
        let mut back = Vec::new();
        for spilled in &st.spilled_build {
            let reloaded = ctx.read_run(spilled).expect("reload");
            assert!(reloaded.is_sorted_by_key(), "each run lands sorted");
            back.push(reloaded);
        }
        let multiset = |runs: Vec<ColumnBatch>| {
            let mut tuples = merge_sorted_runs(runs).to_tuples();
            tuples.sort_by_key(|t| (t.key, t.payload));
            tuples
        };
        let shed = (1..=4).map(|tag| batch(30, tag)).collect();
        assert_eq!(multiset(back), multiset(shed));
        assert_eq!(run.board.spilled_tuples(1), 120);
        let untouched = |task: &mut ReducerTask<'_>, r: usize, runs: usize, build: usize| {
            let st = state(task, r);
            let pre_seal = st.runs.iter().flatten().count();
            assert_eq!((pre_seal, st.build.len()), (runs, build), "region {r}");
            assert!(st.spilled_build.is_empty(), "region {r}");
        };
        untouched(&mut task, 0, 1, 0);
        untouched(&mut task, 2, 0, 100);
        assert_eq!(gauge.current_tuples(), 200);

        assert!(task.spill_once(ctx));
        assert_eq!(state(&mut task, 0).spilled_build_tuples, 100);
        untouched(&mut task, 2, 0, 100);

        // Region 1 comes back whole under a roomy budget, then is shed again.
        let pool = BatchPool::new();
        let st = state(&mut task, 1);
        st.runs = None;
        // A reducer dropped unreported cancels its run (it panicked), so
        // the one bringing the build back lives to the end of the test.
        let adopter = ReducerTask::new(&roomy, 0, &[]);
        adopter.bring_build_back(st, 1, &pool);
        assert!(st.spilled_build.is_empty() && st.build.len() == 120);
        assert!(st.build.is_sorted_by_key());
        assert_eq!(ctx.totals().respills, 0);
        assert!(task.spill_once(ctx));
        assert_eq!(state(&mut task, 1).spilled_build_tuples, 120);
        assert_eq!(ctx.totals().respills, 1);
        assert_eq!([&run, &roomy].map(|r| r.io.cancel.reason()), [None, None]);
    }

    /// Reducer 0 panics on its second poll, mid-run, with its small queue
    /// filling behind it. Nothing drains that queue again, so the mappers
    /// park on it: the panic must cancel the run, which wakes them, and the
    /// scope joins with the panic instead of hanging.
    #[test]
    fn a_reducer_that_panics_mid_run_cancels_the_run_instead_of_hanging() {
        let tuples: Vec<Tuple> = (0..8000).map(|i| Tuple::new(i % 500, i as u64)).collect();
        let kit = Kit::by_hand(2, &[0, 1, 0, 1], JoinCondition::Equi, 64)
            .relations(&tuples, &tuples)
            .with(|cfg| cfg.queue_tuples = 256);
        let fault = Fault::Reducer {
            reducer: 0,
            poll: 2,
        };
        let joined = kit.join(&EngineRuntime::new(4), Some(fault), |_| {});
        let payload = joined.panic.expect("the reducer's panic reaches the join");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a reducer exploded"));
        assert!(kit.cancel.is_cancelled());
        assert!(joined.outs[0].cancelled);
        kit.assert_balanced();
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

    #[test]
    fn merge_concatenates_only_sorted_runs_that_do_not_touch() {
        // Payloads encode (run, position), and the oracle is a std stable
        // sort of the concatenation in arrival order, as above.
        let tagged = |runs: &[&[i64]]| -> Vec<ColumnBatch> {
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
        let cases: [(&str, Vec<ColumnBatch>, bool); 5] = [
            (
                "disjoint sorted runs, shuffled",
                tagged(&[&[20, 21, 25], &[-4, 0, 3], &[40], &[7, 7, 9, 12]]),
                true,
            ),
            // Key order puts run 1 first, so concatenating would emit its
            // 5 ahead of run 0's: only the fallback keeps run order.
            (
                "two runs touching at one key",
                tagged(&[&[5, 9], &[1, 5]]),
                false,
            ),
            (
                "sorted runs that overlap",
                tagged(&[&[10, 20, 30], &[0, 15, 40]]),
                false,
            ),
            (
                "one unsorted run among sorted ones",
                tagged(&[&[30, 31], &[12, 10, 11], &[-1, 2]]),
                false,
            ),
            (
                "empty runs interleaved",
                tagged(&[&[], &[8, 9], &[], &[], &[1, 2, 2], &[]]),
                true,
            ),
        ];
        for (name, runs, concatenated) in cases {
            assert_eq!(disjoint_order(&runs).is_some(), concatenated, "{name}");
            let mut expect: Vec<ewh_core::Tuple> =
                runs.iter().flat_map(ColumnBatch::iter_tuples).collect();
            expect.sort_by_key(|t| t.key);
            assert_eq!(merge_sorted_runs(runs).to_tuples(), expect, "{name}");
        }
    }
}
