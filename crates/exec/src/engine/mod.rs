//! # The morsel-driven pipelined execution engine
//!
//! Replaces the two global barriers of the batch path (full shuffle
//! materialization, then joins) with a pipeline of mapper and reducer tasks
//! connected by bounded queues. Tasks are *schedulable units* on the
//! shared worker-pool [`EngineRuntime`] (the `runtime` module), not OS
//! threads: a fixed pool multiplexes the tasks of every concurrently
//! admitted query, and a task that would block — a full queue, an empty
//! exchange — parks itself instead of a worker. A stage submits as many
//! mappers as reducers ([`EngineConfig::for_tasks`]), each count enough to
//! fill the pool, so a worker freed by a parked task of one side always
//! finds a runnable task of the other:
//!
//! * **Mappers** claim fixed-size [`Morsel`]s of either relation from a
//!   shared [`MorselPlan`], transpose each into columns of their own and
//!   batch-route them through the scheme's [`Router`]
//!   ([`ewh_core::RouteBatch`]), pushing per-region fragments to the owning
//!   reducer's bounded queue (backpressure: a full queue blocks the
//!   mapper). Ownership is resolved per fragment through the shared
//!   epoch-versioned [`ewh_core::RoutingTable`] — never baked into the plan.
//! * **Reducers** collect each owned region's `R1` fragments as they
//!   arrive. When the last `R1` morsel is routed, the finishing mapper
//!   broadcasts a seal; reducers sort each region's fragments into its
//!   build side once, and from then on sweep `R2` probe chunks
//!   immediately, freeing each chunk after its sweep. The full probe side
//!   is never resident.
//! * A **migration coordinator** (`coordinator` module) watches reducer
//!   heartbeats on the shared [`ProgressBoard`] after the `R1` seal and
//!   reassigns regions from backlogged reducers to idle ones at run time —
//!   the paper's §V adaptive skew handling made real inside the engine. Its
//!   behavior is driven by the same [`AdaptiveConfig`] as the bench crate's
//!   discrete-event simulation (`ewh_bench::simulate`), so predicted and
//!   realized reassignment counts can be compared.
//!
//! Peak resident memory is tracked by a cluster-wide [`MemGauge`]; a
//! completed run reports it alongside per-reducer busy/idle time,
//! backpressure stalls, routed-morsel counts, and migration tallies.
//!
//! ## One failure latch
//!
//! A run stops one way: its [`CancelToken`] — the query's, shared by every
//! stage of a plan — is tripped. A caller cancels it; a failed spill write
//! or reload and a dead or corrupt link fail it with their reason; a task
//! that panics trips it as it drops. Parked mappers and the coordinator
//! are woken by it and exit; the last of them to drop aborts the reducers
//! in-band, and the run reports [`EngineOutcome::cancelled`] with the
//! token's reason as [`EngineOutcome::failure`].
//!
//! ## Every actor is a pool task
//!
//! A query's stages run as the tasks of one [`EngineRuntime::scope`], and
//! nothing else drives them: each step that ends a phase is done by the
//! task whose exit makes it due, in that task's `Drop`, so it holds on a
//! normal exit, a cancel and a panic alike. The last mapper to drop marks
//! the mappers done (or, if `SealAll` never fired, cancels the run) and
//! abandons an input exchange; the last of {mappers, coordinator} to drop
//! aborts the reducers of a cancelled run; the last reducer to drop closes
//! the stage's output exchange, which ends the downstream stage's input.
//!
//! ## Composable operators
//!
//! The engine's inputs are [`Source`]s, not bare slices: a base-relation
//! scan (morselized through the [`MorselPlan`]) or a bounded [`Exchange`]
//! fed by an upstream operator's probe output. With an exchange probe side,
//! mappers drain the scan plan first (the build relation) and then pull
//! intermediate batches as the upstream produces them; the upstream
//! operator's quiescence — it closes the exchange after its own `Finish` —
//! is what drives the downstream `SealAll`. A [`StageSink`] on the
//! producing side ships swept output downstream, a slice of a chunk sized
//! to the exchange at a time. The next operator's
//! partitioning scheme does not wait for any of it: the plan-level driver
//! ([`crate::run_plan`]) builds every stage's scheme before the first stage
//! starts, from the base relations' censuses propagated through each join.

mod board;
mod channel;
mod coordinator;
mod exchange;
mod mapper;
mod morsel;
mod pool;
mod port;
mod queue;
mod reducer;
mod runtime;
mod spill;
mod transport;

pub use board::ProgressBoard;
pub use channel::{Channel, Weigh};
pub use exchange::{Exchange, StageSink};
pub use morsel::{Claim, MemGauge, Morsel, MorselPlan, Source};
pub use pool::BatchPool;
pub use port::{DeliveryPort, FragmentPort, PortPop};
pub use queue::{Delivery, RegionBatch};
pub use reducer::merge_sorted_runs;
pub use runtime::{
    CancelToken, EngineRuntime, Poll, QueryTicket, RuntimeConfig, RuntimeMetrics, RuntimeScope,
    TaskCx, WakeSet, Waker,
};
pub use spill::{SpillBinding, SpillConfig, SpillContext, SpillRun, SpillTotals};
pub use transport::{Framed, LinkProfile, LinkReceiver, LinkSender, RemoteQueue, TransportConfig};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use ewh_core::{JoinCondition, Router, RoutingTable, Tuple};

use crate::adaptive::AdaptiveConfig;
use crate::local_join::{KeyFrom, OutputWork};
use crate::JoinStats;

use coordinator::CoordinatorTask;
use mapper::{broadcast, MapperTask, SealState};
use reducer::ReducerTask;

/// Fault injection: slow one reducer's absorption path down by a fixed cost
/// per tuple, emulating a straggling node. Used by benchmarks and tests to
/// demonstrate (and assert) that run-time region migration recovers the
/// makespan a straggler would otherwise dominate.
#[derive(Clone, Copy, Debug)]
pub struct Straggler {
    /// Index of the reducer task to slow down.
    pub reducer: usize,
    /// Injected processing cost per absorbed tuple.
    pub nanos_per_tuple: u64,
}

/// Engine tuning knobs (derived from `OperatorConfig` by the operator
/// layer).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Mapper task count.
    pub mappers: usize,
    /// Reducer task count.
    pub reducers: usize,
    /// Tuples per scan morsel — the mappers' scheduling quantum.
    pub morsel_tuples: usize,
    /// Bounded queue capacity, in tuples, per reducer.
    pub queue_tuples: usize,
    /// The floor of a region's probe buffer: a sealed region sweeps once
    /// it buffers this many tuples and an eighth of its build, resident and
    /// spilled (the floor alone while the query is over its spill budget).
    /// Also the cap on every spilled run, so a reload reads at most this
    /// many tuples.
    pub probe_chunk: usize,
    pub seed: u64,
    pub work: OutputWork,
    /// Run-time migration knobs (shared with the adaptive simulation).
    /// With `adaptive.reassign` off the coordinator never moves a region;
    /// it terminates the run at quiescence either way.
    pub adaptive: AdaptiveConfig,
    /// Optional injected straggler (see [`Straggler`]).
    pub straggler: Option<Straggler>,
    /// Carry mapper→reducer deliveries over framed links, one localhost
    /// TCP connection each, instead of in-process queues: the full
    /// distributed data plane — encode, credit flow control, incremental
    /// decode — behind the same [`FragmentPort`] contract.
    /// `None`: plain in-process [`Channel`]s.
    pub transport: Option<TransportConfig>,
}

impl EngineConfig {
    /// A stage of `tasks` mapper tasks *and* `tasks` reducer tasks (at
    /// least one of each). These are *schedulable tasks* on the shared
    /// [`EngineRuntime`], not OS threads: the pool multiplexes them, so
    /// more tasks than workers just means finer interleaving, never host
    /// oversubscription. Both sides get the full count because the two
    /// sides of the pipeline rarely weigh the same: with as many reducers
    /// as workers, a worker whose mapper parks on a full queue picks up a
    /// reducer (and the other way round), so every worker stays busy
    /// whichever side is the heavy one.
    pub fn for_tasks(tasks: usize, morsel_tuples: usize, seed: u64) -> Self {
        let tasks = tasks.max(1);
        EngineConfig {
            mappers: tasks,
            reducers: tasks,
            morsel_tuples: morsel_tuples.max(1),
            queue_tuples: 4 * morsel_tuples.max(1),
            // A fraction of the morsel size: the floor under a region's
            // probe buffer (its build sets the rest, see the reducer) and
            // the spill-run cap, which bounds a replay's reload transient.
            probe_chunk: (morsel_tuples / 4).max(64),
            seed,
            work: OutputWork::Touch,
            adaptive: AdaptiveConfig::default(),
            straggler: None,
            transport: None,
        }
    }
}

/// Everything a completed (or cancelled) engine run reports: the
/// [`JoinStats`] counters the engine measures, plus what `JoinStats` has no
/// field for. `run_stages` completes `stats` from the per-region
/// tallies (per-worker loads, output total, max weight).
#[derive(Clone, Debug, Default)]
pub struct EngineOutcome {
    /// What the run measured: every counter its tasks bump, each
    /// reducer's busy and idle time, the migration tally, wall time,
    /// backpressure, this run's spill I/O and wire bytes. Tallies
    /// `run_stages` derives are left at zero.
    pub stats: JoinStats,
    /// Input tuples received per region (replication included).
    pub per_region_input: Vec<u64>,
    pub per_region_output: Vec<u64>,
    pub per_region_checksum: Vec<u64>,
    /// High-water mark of resident routed tuples across the cluster.
    pub peak_resident_tuples: u64,
    /// True when the run was cancelled. Per-region join tallies are zeroed
    /// (reducer state is discarded), but morsel/network counters and the
    /// migration tally are preserved: they describe real work done before
    /// the cancellation landed.
    pub cancelled: bool,
    /// The reason the run's [`CancelToken`] was failed with — by this run
    /// or by another stage sharing it: `spill failure: …` or
    /// `transport failure: …`. `None` on a completed run and on one
    /// cancelled without a reason ([`CancelToken::cancel`]).
    pub failure: Option<String>,
}

impl EngineOutcome {
    pub fn output_total(&self) -> u64 {
        self.per_region_output.iter().sum()
    }

    pub fn checksum(&self) -> u64 {
        self.per_region_checksum.iter().fold(0, |acc, &c| acc ^ c)
    }
}

/// The inputs and wiring of one pipelined operator execution — what flows
/// in (a scanned build side, a probe [`Source`]), how it routes (router +
/// routing table) and where the output goes (an optional downstream
/// [`StageSink`]). The engine cuts the scans into a fresh [`MorselPlan`] of
/// [`EngineConfig::morsel_tuples`] each run; scans stay the caller's
/// tuples, transposed a morsel at a time by the mapper that claims it.
#[derive(Clone, Copy)]
pub struct EngineIo<'a> {
    /// Build side, a scan: a streamed build side would need bushy plans
    /// (left-deep chains always build on a base relation).
    pub r1: &'a [Tuple],
    /// Probe side: scan, or the streamed output of an upstream operator.
    pub r2: Source<'a>,
    pub router: &'a Router,
    pub cond: &'a JoinCondition,
    /// Region → reducer ownership: initial values `< cfg.reducers` (the
    /// operator layer seeds it with LPT over estimated region weights),
    /// mutated by the migration coordinator when `cfg.adaptive.reassign`
    /// is on.
    pub table: &'a RoutingTable,
    /// Ship probe output downstream (chained plans).
    pub sink: Option<StageSink<'a>>,
    /// Which side's key emitted intermediates carry.
    pub key_from: KeyFrom,
    /// The query's gauge, shared by every stage of a plan, so
    /// [`EngineOutcome::peak_resident_tuples`] reports the plan-global
    /// high-water mark (exchange buffers included).
    pub gauge: &'a MemGauge,
    /// The query's failure latch. Checked by mappers between morsels and
    /// by the coordinator between polls; a cancelled run discards all
    /// reducer state and reports [`EngineOutcome::cancelled`]. A failed
    /// spill write or reload and a dead or corrupt link fail it with their
    /// reason.
    pub cancel: &'a CancelToken,
    /// The query's spill budget and the spill file manager reducers shed
    /// state through while the gauge sits above it. `None` disables
    /// out-of-core execution.
    pub spill: Option<SpillBinding<'a>>,
    /// Per-reducer inbound [`LinkProfile`]s for the migration
    /// coordinator's communication-aware move-cost gate. `None`: the flat
    /// per-tuple gate.
    pub links: Option<&'a [LinkProfile]>,
}

/// Summed nanoseconds of one kind of task work, one clock pair per unit of
/// it (a routed morsel, a seal, a sweep), reported in seconds.
#[derive(Debug, Default)]
struct Clock(AtomicU64);

impl Clock {
    fn add_since(&self, start: Instant) {
        self.0
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn secs(self) -> f64 {
        self.0.into_inner() as f64 * 1e-9
    }
}

/// What tasks count while a run is live, each named after the
/// [`JoinStats`] field it lands in, and bumped once per morsel, delivery,
/// seal, sweep or migration — never per tuple.
#[derive(Debug, Default)]
struct Counters {
    network_tuples: AtomicU64,
    morsels_routed: AtomicU64,
    migration_tuples: AtomicU64,
    /// Mapper time transposing scan morsels, in `route_scatter` and in the
    /// fragment ship passes (park stalls excluded: those are backpressure,
    /// counted by the queue).
    route_secs: Clock,
    /// Reducer time sealing build sides (one sort per seal).
    merge_secs: Clock,
    /// Reducer time sweeping probe chunks against build state.
    sweep_secs: Clock,
}

impl Counters {
    /// Moves each count into its field of `stats`.
    fn fold_into(self, stats: &mut JoinStats) {
        stats.network_tuples = self.network_tuples.into_inner();
        stats.morsels_routed = self.morsels_routed.into_inner();
        stats.migration_tuples = self.migration_tuples.into_inner();
        stats.route_secs = self.route_secs.secs();
        stats.merge_secs = self.merge_secs.secs();
        stats.sweep_secs = self.sweep_secs.secs();
    }
}

/// One engine run, declared once: everything its mapper, reducer and
/// coordinator tasks read, and the outcome they report into. Every task
/// holds `&Run`. The counters a task bumps while the run is live are
/// named after the [`JoinStats`] field each lands in; a task that
/// finishes folds what it alone measured (region tallies, busy and idle
/// clocks, the migration tally) into `outcome` under its lock, once.
struct Run<'a> {
    io: EngineIo<'a>,
    /// The configuration, task counts and probe floor at least one.
    cfg: EngineConfig,
    /// Morsels of the scans; an exchange side contributes none — its
    /// batches arrive pre-cut.
    plan: MorselPlan,
    /// One delivery queue per reducer.
    queues: Vec<Arc<DeliveryPort>>,
    /// The in-process channels behind `queues` without a transport (else
    /// empty): a reducer that panics abandons its own, and the run
    /// releases what they discarded once every task is done.
    local: Vec<Arc<Channel<Delivery>>>,
    /// The framed links behind `queues` under a transport (else empty),
    /// read for their wire bytes before they drop. Each holds a clone of
    /// the run's token.
    remote: Vec<Arc<RemoteQueue>>,
    board: ProgressBoard,
    /// End-of-input tracking for both seals.
    seal: SealState<'a>,
    /// Tasks not yet dropped: mappers, reducers, and the two that send to
    /// the reducers — the mappers as one, and the coordinator. The task
    /// that takes a count to zero does what its exit makes due.
    mappers_live: AtomicUsize,
    reducers_live: AtomicUsize,
    senders_live: AtomicUsize,
    /// Wakes the parked coordinator on the events its termination check
    /// watches: reducers bump it (the in-flight count crossing zero after
    /// the mappers finish, an adoption completing), and so does the last
    /// mapper to drop (mappers done).
    quiesce: WakeSet,
    /// Tuples routed but not yet absorbed into some region's state —
    /// incremented by mappers per delivery, once per region it feeds, and
    /// by a migration per shipped region; decremented by reducers on
    /// absorption. The coordinator's quiescence test.
    in_flight: AtomicU64,
    /// Migration handshakes completed (incremented by the adopting side).
    adoptions: AtomicU64,
    /// Set by the last mapper to drop once `SealAll` fired. It gates the
    /// reducers' zero-crossing wake of `quiesce`: an in-flight dip to zero
    /// mid-run is not quiescence.
    mappers_done: AtomicBool,
    counters: Counters,
    /// Spill counters are cumulative on the (possibly plan-shared)
    /// context; the run reports its contribution as a delta from here.
    /// Concurrent stages over one context produce overlapping deltas — the
    /// plan executor overrides its merged totals from the context's absolute
    /// counters.
    spill_start: Option<SpillTotals>,
    start: Instant,
    outcome: Mutex<EngineOutcome>,
}

impl<'a> Run<'a> {
    /// The one constructor: the run's queues (framed links under a
    /// transport), morsel plan, seal state, board and zeroed counters.
    fn new(io: EngineIo<'a>, cfg: &EngineConfig) -> Self {
        let cfg = EngineConfig {
            mappers: cfg.mappers.max(1),
            reducers: cfg.reducers.max(1),
            probe_chunk: cfg.probe_chunk.max(1),
            ..*cfg
        };
        let plan = MorselPlan::new(io.r1.len(), io.r2.scan().len(), cfg.morsel_tuples);
        let n_regions = io.table.n_regions();
        debug_assert!(io
            .table
            .snapshot()
            .iter()
            .all(|&q| (q as usize) < cfg.reducers));
        // With a transport every delivery queue is a framed byte-stream
        // link (same FragmentPort contract, credit-based window in place of
        // the shared counter), each failing the run's token.
        let remote: Vec<Arc<RemoteQueue>> = match &cfg.transport {
            Some(tcfg) => (0..cfg.reducers)
                .map(|_| {
                    RemoteQueue::spawn(tcfg, cfg.queue_tuples, n_regions, io.cancel.clone())
                        .expect("transport link setup failed")
                })
                .collect(),
            None => Vec::new(),
        };
        let local: Vec<Arc<Channel<Delivery>>> = match cfg.transport {
            Some(_) => Vec::new(),
            None => (0..cfg.reducers)
                .map(|_| Arc::new(Channel::new(cfg.queue_tuples)))
                .collect(),
        };
        let queues = (local.iter().map(|q| q.clone() as Arc<DeliveryPort>))
            .chain(remote.iter().map(|q| q.clone() as Arc<DeliveryPort>))
            .collect();
        let outcome = EngineOutcome {
            stats: JoinStats {
                reducer_busy_secs: vec![0.0; cfg.reducers],
                reducer_idle_secs: vec![0.0; cfg.reducers],
                ..JoinStats::default()
            },
            per_region_input: vec![0; n_regions],
            per_region_output: vec![0; n_regions],
            per_region_checksum: vec![0; n_regions],
            ..EngineOutcome::default()
        };
        Run {
            seal: SealState::new(plan.r1_morsels(), plan.total(), io.r2.exchange()),
            plan,
            queues,
            local,
            remote,
            board: ProgressBoard::new(cfg.reducers, n_regions),
            mappers_live: AtomicUsize::new(cfg.mappers),
            reducers_live: AtomicUsize::new(cfg.reducers),
            senders_live: AtomicUsize::new(2),
            quiesce: WakeSet::new(),
            in_flight: AtomicU64::new(0),
            adoptions: AtomicU64::new(0),
            mappers_done: AtomicBool::new(false),
            counters: Counters::default(),
            spill_start: io.spill.map(|spill| spill.ctx.totals()),
            start: Instant::now(),
            outcome: Mutex::new(outcome),
            io,
            cfg,
        }
    }

    /// Every task of the run: a reducer per queue over the regions the
    /// table gives it, the coordinator, and the mappers. Each counts
    /// itself out of the run as it drops (see the module docs).
    fn tasks(
        &self,
    ) -> (
        Vec<ReducerTask<'_>>,
        CoordinatorTask<'_>,
        Vec<MapperTask<'_>>,
    ) {
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); self.cfg.reducers];
        for (region, &q) in self.io.table.snapshot().iter().enumerate() {
            owned[q as usize].push(region as u32);
        }
        let reducers = owned
            .iter()
            .enumerate()
            .map(|(q, regions)| ReducerTask::new(self, q, regions))
            .collect();
        let mappers = (0..self.cfg.mappers)
            .map(|_| MapperTask::new(self))
            .collect();
        (reducers, CoordinatorTask::new(self), mappers)
    }

    /// A mapper dropped. The last one hands termination to the coordinator
    /// if `SealAll` fired, and otherwise cancels the run: the seal chain
    /// broke (a cancel, or a mapper that panicked). No mapper pops the
    /// input exchange again, so its producers must never wait on it, and
    /// what it still holds is released from the gauge.
    fn mapper_exited(&self) {
        if !last(&self.mappers_live) {
            return;
        }
        if self.seal.sealed_all() {
            self.mappers_done.store(true, Ordering::Release);
            self.quiesce.wake_all();
        } else {
            self.io.cancel.cancel();
        }
        if let Some(exchange) = self.io.r2.exchange() {
            self.io.gauge.sub(exchange.abandon() as u64);
        }
        self.sender_exited();
    }

    /// The mappers as one, or the coordinator, dropped. Once both have, no
    /// delivery but a reducer's own forwards can reach a queue: a cancelled
    /// run never reaches `Finish`, so abort the reducers in-band (control
    /// bypasses queue bounds, so this cannot deadlock).
    fn sender_exited(&self) {
        if last(&self.senders_live) && self.io.cancel.is_cancelled() {
            broadcast(&self.queues, || Delivery::Abort);
        }
    }

    /// Reducer `me` dropped; `reported` is false when it panicked, which
    /// cancels the run and abandons its in-process queue: nothing pops it
    /// again, so what it holds is released now, and what it discards from
    /// here on at [`finish`](Self::finish). The last reducer closes the
    /// stage's output: the downstream stage drains it and seals — or, if it
    /// was abandoned, discarded what the reducers pushed since, whose
    /// charges it releases.
    fn reducer_exited(&self, me: usize, reported: bool) {
        if !reported {
            self.io.cancel.cancel();
            if let Some(queue) = self.local.get(me) {
                self.io.gauge.sub(queue.abandon() as u64);
            }
        }
        if last(&self.reducers_live) {
            if let Some(sink) = self.io.sink {
                self.io.gauge.sub(sink.exchange.close() as u64);
            }
        }
    }

    /// The run's outcome, locked, for a finishing task to fold its report
    /// into.
    fn outcome(&self) -> MutexGuard<'_, EngineOutcome> {
        // Taken over if poisoned: a task's `Drop` reports through it, and
        // must not panic.
        self.outcome.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The outcome once every task has reported: the counters land in
    /// their `JoinStats` fields, and a reason on the run's token cancels
    /// the run.
    fn finish(self) -> EngineOutcome {
        // A failure cancels the run even if no reducer aborted: one that
        // lands after the coordinator's `Finish` — say, a reload that
        // dropped its chunk — leaves the join short of pairs.
        let failure = self.io.cancel.reason();
        for queue in &self.local {
            self.io.gauge.sub(queue.close() as u64);
        }
        let mut out = self.outcome.into_inner().expect("run outcome poisoned");
        out.cancelled |= failure.is_some();
        out.failure = failure;
        let stats = &mut out.stats;
        self.counters.fold_into(stats);
        stats.backpressure_secs = self.queues.iter().map(|q| q.blocked_secs()).sum();
        stats.wall_join_secs = self.start.elapsed().as_secs_f64();
        stats.wire_bytes = self.remote.iter().map(|q| q.wire_bytes()).sum();
        if let (Some(spill), Some(start)) = (self.io.spill, self.spill_start) {
            stats.set_spill(&spill.ctx.totals().since(&start));
        }
        out.peak_resident_tuples = self.io.gauge.peak_tuples();
        if out.cancelled {
            for tallies in [
                &mut out.per_region_input,
                &mut out.per_region_output,
                &mut out.per_region_checksum,
            ] {
                tallies.fill(0);
            }
        } else {
            // The gauge's books are checked by its owner once every run
            // charging it is done (`plan::pipelined`); the run's own are
            // the tuples still in flight.
            debug_assert_eq!(
                self.in_flight.load(Ordering::Acquire),
                0,
                "finished with unabsorbed tuples in flight"
            );
        }
        out
    }
}

/// `true` for the caller that takes `live` to zero.
fn last(live: &AtomicUsize) -> bool {
    live.fetch_sub(1, Ordering::AcqRel) == 1
}

/// Runs every stage of one query — each a pipelined operator over a scanned
/// build side and a probe [`Source`] (see [`EngineIo`]) — and returns their
/// outcomes in order: the engine's one entry point.
///
/// Every stage's run is set up first, so a link setup that fails panics
/// with nothing running. Then every mapper, reducer and coordinator of every
/// stage is a task of one scope on `rt`'s shared worker pool; the calling
/// thread only waits for the scope to join. Many queries share a single
/// runtime without spawning anything.
pub fn run_pipelined_io<'a>(
    rt: &EngineRuntime,
    stages: impl IntoIterator<Item = (EngineIo<'a>, EngineConfig)>,
) -> Vec<EngineOutcome> {
    let runs: Vec<Run<'a>> = stages
        .into_iter()
        .map(|(io, cfg)| Run::new(io, &cfg))
        .collect();
    for run in &runs {
        // An empty relation never triggers a mapper-side seal; pre-seal
        // here. (SealAll further requires a drained exchange when the
        // probe side streams.)
        if run.plan.r1_morsels() == 0 {
            broadcast(&run.queues, || Delivery::SealR1);
        }
        run.seal.maybe_seal_all(&run.queues);
    }
    rt.scope(|s| {
        for run in &runs {
            let (reducers, mut coordinator, mappers) = run.tasks();
            for mut task in reducers {
                s.spawn(move |cx| task.poll(cx));
            }
            s.spawn(move |cx| coordinator.poll(cx));
            for mut task in mappers {
                s.spawn(move |cx| task.poll(cx));
            }
        }
    });
    runs.into_iter().map(Run::finish).collect()
}

#[cfg(test)]
pub(crate) mod testkit;

#[cfg(test)]
mod tests {
    use super::testkit::{nested_loop, test_rt, tuples, Kit};
    use super::*;
    use ewh_core::{build_ci, build_csio, CostModel, HistogramParams, Key, PartitionScheme};
    use std::thread;
    use std::time::Duration;

    /// Two mappers, queues of 2 048 tuples and a probe floor of a morsel,
    /// unless a test overrides them.
    fn shape(reducers: usize, morsel: usize, seed: u64) -> EngineConfig {
        EngineConfig {
            mappers: 2,
            queue_tuples: 2048,
            probe_chunk: morsel,
            ..EngineConfig::for_tasks(reducers, morsel, seed)
        }
    }

    /// Thresholds at which any backlog migrates.
    fn forced() -> AdaptiveConfig {
        AdaptiveConfig {
            reassign: true,
            migrate_backlog_tuples: 1,
            poll_micros: 50,
            ..Default::default()
        }
    }

    fn straggler(nanos_per_tuple: u64) -> Option<Straggler> {
        Some(Straggler {
            reducer: 0,
            nanos_per_tuple,
        })
    }

    fn run(
        r1: &[Tuple],
        r2: &[Tuple],
        scheme: &PartitionScheme,
        cond: JoinCondition,
        morsel: usize,
        reducers: usize,
    ) -> EngineOutcome {
        Kit::new(r1, r2, scheme, cond, shape(reducers, morsel, 7)).run(&test_rt())
    }

    fn csio(k1: &[Key], k2: &[Key], cond: &JoinCondition, j: usize) -> PartitionScheme {
        let params = HistogramParams {
            j,
            ..Default::default()
        };
        build_csio(k1, k2, cond, &CostModel::band(), &params)
    }

    #[test]
    fn csio_pipeline_matches_nested_loop() {
        let k1: Vec<Key> = (0..3000).map(|i| i * 7 % 900).collect();
        let k2: Vec<Key> = (0..3000).map(|i| i * 11 % 900).collect();
        let cond = JoinCondition::Band { beta: 2 };
        let scheme = csio(&k1, &k2, &cond, 6);
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let (expect_c, expect_s) = nested_loop(&r1, &r2, &cond);
        for morsel in [64, 997, 5000] {
            let out = run(&r1, &r2, &scheme, cond, morsel, 3);
            assert_eq!(out.output_total(), expect_c, "morsel {morsel}");
            assert_eq!(out.checksum(), expect_s, "morsel {morsel}");
            assert!(!out.cancelled);
            assert_eq!(
                out.stats.morsels_routed as usize,
                MorselPlan::new(r1.len(), r2.len(), morsel).total()
            );
        }
    }

    #[test]
    fn ci_pipeline_counts_match_despite_random_routing() {
        let k: Vec<Key> = (0..2000).map(|i| i % 50).collect();
        let (r1, r2) = (tuples(&k), tuples(&k));
        let cond = JoinCondition::Equi;
        let scheme = build_ci(8, 2000, 2000, None);
        let (expect_c, expect_s) = nested_loop(&r1, &r2, &cond);
        let out = run(&r1, &r2, &scheme, cond, 256, 2);
        assert_eq!(out.output_total(), expect_c);
        assert_eq!(out.checksum(), expect_s);
    }

    #[test]
    fn empty_inputs_terminate_cleanly() {
        let cond = JoinCondition::Equi;
        let scheme = build_ci(4, 0, 0, None);
        let out = run(&[], &[], &scheme, cond, 128, 2);
        assert_eq!(out.output_total(), 0);
        assert!(!out.cancelled);

        let r2 = tuples(&[1, 2, 3]);
        let out = run(&[], &r2, &scheme, cond, 128, 2);
        assert_eq!(out.output_total(), 0);
    }

    #[test]
    fn pre_set_cancel_aborts_before_any_claim() {
        let k: Vec<Key> = (0..4000).collect();
        let (r1, r2) = (tuples(&k), tuples(&k));
        let scheme = build_ci(4, 4000, 4000, None);
        let kit = Kit::new(&r1, &r2, &scheme, JoinCondition::Equi, shape(2, 256, 3));
        kit.cancel.cancel();
        let out = kit.run(&test_rt());
        assert!(out.cancelled);
        assert_eq!(out.output_total(), 0);
        assert_eq!(
            out.stats.morsels_routed, 0,
            "cancel was set before any claim"
        );
    }

    #[test]
    fn injected_straggler_forces_migrations_and_stays_correct() {
        // Reducer 0 is slowed hard; with aggressive thresholds the
        // coordinator must move its regions to the idle reducer, and the
        // join must still be exact. The CI router's regions all look alike,
        // so this exercises the full Migrate/Adopt/fence path end to end.
        // The same inputs with `reassign` off are the counter claim of the
        // wall-time straggler claim: migrating regions off the straggler
        // leaves it fewer probe chunks to sweep.
        let k: Vec<Key> = (0..4000).map(|i| i % 200).collect();
        let (r1, r2) = (tuples(&k), tuples(&k));
        let cond = JoinCondition::Equi;
        let scheme = build_ci(8, 4000, 4000, None);
        let (expect_c, expect_s) = nested_loop(&r1, &r2, &cond);
        let mut swept = [0; 2];
        for reassign in [false, true] {
            let cfg = EngineConfig {
                adaptive: AdaptiveConfig {
                    reassign,
                    ..forced()
                },
                straggler: straggler(20_000),
                ..EngineConfig::for_tasks(2, 128, 11)
            };
            let kit = Kit::new(&r1, &r2, &scheme, cond, cfg);
            let initial = kit.table().snapshot();
            let joined = kit.join(&test_rt(), None, |_| {});
            let out = &joined.outs[0];
            assert!(!out.cancelled);
            assert_eq!(out.output_total(), expect_c);
            assert_eq!(out.checksum(), expect_s);
            swept[reassign as usize] = joined.boards[0].chunks_swept(0);
            assert_eq!(kit.table().epoch(), out.stats.regions_migrated);
            if !reassign {
                assert_eq!(out.stats.regions_migrated, 0);
                continue;
            }
            assert!(
                out.stats.regions_migrated >= 1,
                "straggler with forced thresholds must trigger migration"
            );
            assert!(out.stats.migration_tuples > 0);
            assert!(out.stats.migration_secs >= 0.0);
            // Each region migrates at most once, so the owner map diverges
            // from the initial placement in exactly `regions_migrated`
            // slots.
            let owners = kit.table().snapshot();
            let moved = owners.iter().zip(&initial).filter(|(a, b)| a != b);
            assert_eq!(moved.count() as u64, out.stats.regions_migrated);
        }
        let [off, on] = swept;
        assert!(
            on < off,
            "the straggler swept {on} chunks with migration on, {off} with it off"
        );
    }

    /// The join with its probe side streamed through an exchange of
    /// `capacity` tuples, pushed `batch` tuples at a time from the test's
    /// thread.
    fn run_fed(
        r1: &[Tuple],
        r2: &[Tuple],
        scheme: &PartitionScheme,
        cond: JoinCondition,
        cfg: EngineConfig,
        batch: usize,
        capacity: usize,
    ) -> EngineOutcome {
        let kit = Kit::new(r1, &[], scheme, cond, cfg).fed(capacity);
        kit.join(&test_rt(), None, |kit| kit.feed(r2, batch))
            .outs
            .remove(0)
    }

    #[test]
    fn exchange_fed_probe_matches_the_scan_probe() {
        // The same join, probe side streamed through an exchange in awkward
        // batch sizes vs. scanned from memory: identical output, checksum,
        // and network volume (deterministic router).
        let k1: Vec<Key> = (0..2500).map(|i| i * 7 % 700).collect();
        let k2: Vec<Key> = (0..2500).map(|i| i * 11 % 700).collect();
        let cond = JoinCondition::Band { beta: 1 };
        let scheme = csio(&k1, &k2, &cond, 5);
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let scan = run(&r1, &r2, &scheme, cond, 128, 2);
        let cfg = EngineConfig {
            queue_tuples: 1024,
            ..shape(2, 128, 7)
        };
        for batch in [1usize, 97, 4096] {
            let out = run_fed(&r1, &r2, &scheme, cond, cfg, batch, 512);
            assert!(!out.cancelled, "batch {batch}");
            assert_eq!(out.output_total(), scan.output_total(), "batch {batch}");
            assert_eq!(out.checksum(), scan.checksum(), "batch {batch}");
            assert_eq!(
                out.stats.network_tuples, scan.stats.network_tuples,
                "batch {batch}"
            );
        }
    }

    #[test]
    fn exchange_fed_probe_survives_forced_migrations() {
        let k: Vec<Key> = (0..3000).map(|i| i % 150).collect();
        let (r1, r2) = (tuples(&k), tuples(&k));
        let scheme = build_ci(8, 3000, 3000, None);
        let cond = JoinCondition::Equi;
        let (expect_c, expect_s) = nested_loop(&r1, &r2, &cond);
        let cfg = EngineConfig {
            adaptive: forced(),
            straggler: straggler(10_000),
            ..EngineConfig::for_tasks(2, 128, 19)
        };
        let out = run_fed(&r1, &r2, &scheme, cond, cfg, 61, 256);
        assert!(!out.cancelled);
        assert_eq!(out.output_total(), expect_c);
        assert_eq!(out.checksum(), expect_s);
    }

    #[test]
    fn cancel_interrupts_a_stalled_exchange_probe() {
        // The upstream producer never pushes and never closes; a cancelled
        // downstream run must still unwind (parked mappers dual-register
        // with the cancel token, whose wake re-polls them) instead of
        // hanging in the exchange forever.
        let r1 = tuples(&(0..500).collect::<Vec<Key>>());
        let scheme = build_ci(4, 500, 0, None);
        let cfg = EngineConfig::for_tasks(2, 128, 23);
        let kit = Kit::new(&r1, &[], &scheme, JoinCondition::Equi, cfg).fed(256);
        let joined = kit.join(&test_rt(), None, |kit| {
            // Let the mappers drain the scan plan and park on the stalled
            // exchange, then cancel — the token's wake is the only thing
            // that can reach a parked mapper.
            thread::sleep(Duration::from_millis(20));
            kit.cancel.cancel();
        });
        let out = &joined.outs[0];
        assert!(out.cancelled, "stalled-exchange run must abort, not hang");
        assert_eq!(out.output_total(), 0);
    }

    #[test]
    fn a_cancel_after_seal_all_ends_the_run() {
        // Reducer 0 straggles for seconds after the mappers are done. The
        // probe side streams through an exchange this test fills and
        // closes, so once the mappers have drained it every tuple is
        // routed and `SealAll` is out; a cancel 50 ms later must end the
        // run as cancelled, not let the reducers drain to `Finish`.
        let k: Vec<Key> = (0..1000).map(|i| i % 100).collect();
        let (r1, r2) = (tuples(&k), tuples(&k));
        let scheme = build_ci(4, 1000, 1000, None);
        let cfg = EngineConfig {
            queue_tuples: 1 << 16,
            adaptive: AdaptiveConfig {
                reassign: false,
                ..Default::default()
            },
            straggler: straggler(1_000_000),
            ..EngineConfig::for_tasks(2, 128, 29)
        };
        let kit = Kit::new(&r1, &[], &scheme, JoinCondition::Equi, cfg).fed(1 << 16);
        let joined = kit.join(&test_rt(), None, |kit| {
            kit.feed(&r2, 128);
            while kit.exchange(0).used_tuples() > 0 {
                thread::sleep(Duration::from_millis(1));
            }
            thread::sleep(Duration::from_millis(50));
            kit.cancel.cancel();
        });
        let out = &joined.outs[0];
        assert!(out.cancelled, "a cancel after SealAll must end the run");
        assert_eq!(out.output_total(), 0);
        assert_eq!(out.failure, None, "a reasonless cancel carries none");
    }

    /// Stage 1 crawls through its build side (a straggling reducer behind a
    /// small queue), so it never pops the exchange, which fills, and stage
    /// 0's reducers park pushing to it. A cancel then must end both stages:
    /// stage 1's last mapper abandons the exchange, which wakes stage 0's
    /// reducers, whose last one closes it. The exchange's batches are
    /// charged to the query's gauge, so the kit's join finds it balanced
    /// only if both ends release what the abandoned exchange held and
    /// discarded.
    #[test]
    fn a_two_stage_plan_cancelled_while_stage_0_is_parked_on_a_full_exchange_joins() {
        let k: Vec<Key> = (0..4000).map(|i| i % 40).collect();
        let (a, c) = (tuples(&k), tuples(&k[..2000]));
        let root = build_ci(4, 4000, 4000, None);
        let chain = build_ci(1, 2000, 400_000, None);
        let crawl = EngineConfig {
            queue_tuples: 64,
            straggler: straggler(1_000_000),
            ..EngineConfig::for_tasks(1, 128, 37)
        };
        let kit = Kit::new(
            &a,
            &a,
            &root,
            JoinCondition::Equi,
            EngineConfig::for_tasks(2, 128, 31),
        )
        .sink(256, 64)
        .then(&c, &chain, crawl);
        let joined = kit.join(&test_rt(), None, |kit| {
            let (exchange, start) = (kit.exchange(1), Instant::now());
            while exchange.used_tuples() * 2 < exchange.capacity() {
                assert!(start.elapsed().as_secs() < 30, "the exchange never filled");
                thread::sleep(Duration::from_millis(1));
            }
            thread::sleep(Duration::from_millis(20));
            kit.cancel.cancel();
        });
        assert!(joined.outs.iter().all(|out| out.cancelled));
        assert_eq!(kit.exchange(1).ended(), (true, true), "(closed, abandoned)");
        assert_eq!(kit.gauge.current_tuples(), 0);
    }

    #[test]
    fn empty_exchange_terminates_the_downstream_operator() {
        let r1 = tuples(&[1, 2, 3]);
        let scheme = build_ci(4, 3, 0, None);
        let cfg = EngineConfig {
            queue_tuples: 64,
            probe_chunk: 16,
            ..shape(2, 128, 3)
        };
        let out = run_fed(&r1, &[], &scheme, JoinCondition::Equi, cfg, 8, 64);
        assert!(!out.cancelled);
        assert_eq!(out.output_total(), 0);
    }

    #[test]
    fn migration_disabled_finishes_without_moving_a_region() {
        let k: Vec<Key> = (0..1500).map(|i| i % 90).collect();
        let (r1, r2) = (tuples(&k), tuples(&k));
        let cond = JoinCondition::Equi;
        let scheme = build_ci(6, 1500, 1500, None);
        let (expect_c, expect_s) = nested_loop(&r1, &r2, &cond);
        let cfg = EngineConfig {
            queue_tuples: 1024,
            probe_chunk: 100,
            adaptive: AdaptiveConfig {
                reassign: false,
                ..Default::default()
            },
            ..shape(3, 200, 13)
        };
        let kit = Kit::new(&r1, &r2, &scheme, cond, cfg);
        let out = kit.run(&test_rt());
        assert_eq!(out.output_total(), expect_c);
        assert_eq!(out.checksum(), expect_s);
        assert_eq!(out.stats.regions_migrated, 0);
        assert_eq!(kit.table().epoch(), 0);
        assert_eq!(out.stats.migration_tuples, 0);
    }
}
