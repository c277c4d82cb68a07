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
//!   shared [`MorselPlan`] and batch-route them through the scheme's
//!   [`Router`] ([`ewh_core::RouteBatch`]), pushing per-region fragments to
//!   the owning reducer's bounded queue (backpressure: a full queue blocks
//!   the mapper). Ownership is resolved per fragment through the shared
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
pub use exchange::{AbandonOnDrop, CloseOnDrop, Exchange, StageSink};
pub use morsel::{Claim, MemGauge, Morsel, MorselPlan, Source};
pub use pool::BatchPool;
pub use port::{DeliveryPort, FragmentPort, PortPop};
pub use queue::{Delivery, RegionBatch};
pub use reducer::{merge_sorted_runs, RegionResult};
pub use runtime::{
    CancelToken, EngineRuntime, Poll, QueryTicket, RuntimeConfig, RuntimeMetrics, RuntimeScope,
    TaskCx, TaskGroup, WakeSet, Waker,
};
pub use spill::{SpillBinding, SpillConfig, SpillContext, SpillRun, SpillTotals};
pub use transport::{
    Framed, LinkProfile, LinkReceiver, LinkSender, RemoteQueue, TransportConfig, TransportFailure,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ewh_core::{JoinCondition, Router, RoutingTable};

use crate::adaptive::AdaptiveConfig;
use crate::local_join::{KeyFrom, OutputWork};

use coordinator::{CoordinatorShared, CoordinatorStep, CoordinatorTask, MigrationTally};
use mapper::{broadcast, MapperShared, MapperTask, SealState};
use reducer::{ReducerOutcome, ReducerShared, ReducerStep, ReducerTask};

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

/// Everything a completed (or cancelled) engine run reports.
#[derive(Clone, Debug, Default)]
pub struct EngineOutcome {
    /// Input tuples received per region (replication included).
    pub per_region_input: Vec<u64>,
    pub per_region_output: Vec<u64>,
    pub per_region_checksum: Vec<u64>,
    /// Tuples delivered mapper → reducer, counted once per region they feed
    /// (== the batch path's network volume for deterministic routers); a
    /// grouped delivery carries its tuples once but counts them per region.
    /// Migration shipping is accounted separately in
    /// [`EngineOutcome::migration_tuples`].
    pub network_tuples: u64,
    /// High-water mark of resident routed tuples across the cluster.
    pub peak_resident_tuples: u64,
    pub morsels_routed: u64,
    /// Total time mappers spent blocked on full reducer queues.
    pub backpressure_secs: f64,
    /// Total time mappers spent routing: the batched router scans plus the
    /// write-combining scatter that builds every per-region fragment.
    pub route_secs: f64,
    /// Total time reducers spent sealing build sides: the one sort of a
    /// region's collected runs (at the `R1` seal, a migration or finish).
    pub merge_secs: f64,
    /// Total time reducers spent sweeping probe chunks against build state.
    pub sweep_secs: f64,
    /// Per-reducer time spent processing vs. waiting.
    pub busy_secs: Vec<f64>,
    pub idle_secs: Vec<f64>,
    pub wall_secs: f64,
    /// Regions reassigned between reducers at run time.
    pub regions_migrated: u64,
    /// Tuples of sealed state shipped reducer → reducer by migrations.
    pub migration_tuples: u64,
    /// Summed migration handshake latency (decision → adoption installed).
    pub migration_secs: f64,
    /// Final routing-table epoch (== `regions_migrated`; separate so tests
    /// can cross-check the table against the coordinator's tally).
    pub routing_epoch: u64,
    /// This run's spill I/O (out-of-core execution under a memory budget;
    /// all zero without budget pressure).
    pub spill: SpillTotals,
    /// Bytes the transport's data writers put on the wire (frame headers
    /// and sibling ids included), one copy of a replicated fragment per
    /// reducer; zero for in-process queues.
    pub wire_bytes: u64,
    /// True when the run was cancelled. Per-region join tallies are zeroed
    /// (reducer state is discarded), but morsel/network counters and the
    /// migration fields above are preserved: they describe real work done
    /// before the cancellation landed.
    pub cancelled: bool,
    /// Why the engine cancelled itself: `spill failure: …` (recorded on the
    /// run's [`SpillContext`], by this run or by another stage sharing it)
    /// or `transport failure: …`, with the reason. `None` on a completed
    /// run and on one cancelled through [`EngineIo::cancel`].
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
/// in (two [`Source`]s), how it routes (router + routing table) and where
/// the output goes (an optional downstream [`StageSink`]). The engine cuts
/// the scan sources into a fresh [`MorselPlan`] of
/// [`EngineConfig::morsel_tuples`] each run.
#[derive(Clone, Copy)]
pub struct EngineIo<'a> {
    /// Build side. Must be a scan today: a streamed build side would need
    /// bushy plans (left-deep chains always build on a base relation).
    pub r1: Source<'a>,
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
    /// Share a cluster-wide gauge across a whole plan so
    /// [`EngineOutcome::peak_resident_tuples`] reports the plan-global
    /// high-water mark (exchange buffers included). `None`: private gauge.
    pub gauge: Option<&'a MemGauge>,
    /// Checked by mappers between morsels; a cancelled run discards all
    /// reducer state and reports [`EngineOutcome::cancelled`].
    pub cancel: Option<&'a CancelToken>,
    /// The query's spill budget and the spill file manager reducers shed
    /// state through while the gauge sits above it. `None` disables
    /// out-of-core execution.
    pub spill: Option<SpillBinding<'a>>,
    /// Per-reducer inbound [`LinkProfile`]s for the migration
    /// coordinator's communication-aware move-cost gate. `None`: the flat
    /// per-tuple gate.
    pub links: Option<&'a [LinkProfile]>,
}

/// Runs one pipelined operator over generalized [`Source`]s (see
/// [`EngineIo`]) — the engine's one entry point.
///
/// All mapper/reducer/coordinator work executes as tasks on `rt`'s shared
/// worker pool; the calling thread only orchestrates (it waits for the
/// mapper task group, decides whether the seal chain broke, and blocks
/// until the run's tasks complete). Many engine runs — whole concurrent
/// queries, or the stages of one plan — share a single runtime without
/// spawning anything.
pub fn run_pipelined_io(rt: &EngineRuntime, io: EngineIo<'_>, cfg: &EngineConfig) -> EngineOutcome {
    assert!(
        io.r1.exchange().is_none(),
        "streamed build sides are unsupported: left-deep chains build on base relations"
    );
    let r1 = io.r1.scan_cols();
    let r2 = io.r2.scan_cols();
    let (router, cond, table) = (io.router, io.cond, io.table);
    // Morsels of the scan sources; an exchange side contributes none — its
    // batches arrive pre-cut.
    let plan = &MorselPlan::new(r1.len(), r2.len(), cfg.morsel_tuples);
    let n_regions = table.n_regions();
    let reducers = cfg.reducers.max(1);
    debug_assert!(table.snapshot().iter().all(|&q| (q as usize) < reducers));

    let start = Instant::now();
    // With a transport configured every delivery queue becomes a framed
    // byte-stream link (same FragmentPort contract, credit-based window in
    // place of the shared counter). One failure latch is shared by every
    // link of the run; a watcher task below converts a trip into a
    // cooperative cancellation.
    let transport_failure = cfg.transport.as_ref().map(|_| TransportFailure::new());
    let mut remote_queues: Vec<Arc<RemoteQueue>> = Vec::new();
    let queues: Vec<Arc<port::DeliveryPort>> = match (&cfg.transport, &transport_failure) {
        (Some(tcfg), Some(latch)) => (0..reducers)
            .map(|_| {
                let q = RemoteQueue::spawn(tcfg, cfg.queue_tuples, n_regions, latch.clone())
                    .expect("transport link setup failed");
                remote_queues.push(q.clone());
                q as Arc<port::DeliveryPort>
            })
            .collect(),
        _ => (0..reducers)
            .map(|_| Arc::new(Channel::new(cfg.queue_tuples)) as Arc<port::DeliveryPort>)
            .collect(),
    };
    let local_gauge = MemGauge::default();
    let gauge = io.gauge.unwrap_or(&local_gauge);
    let board = ProgressBoard::new(reducers, n_regions);
    let default_cancel = CancelToken::new();
    let cancel = io.cancel.unwrap_or(&default_cancel);
    let seal = SealState::new(plan.r1_morsels(), plan.total(), io.r2.exchange());
    let network_tuples = AtomicU64::new(0);
    let morsels_routed = AtomicU64::new(0);
    let route_nanos = AtomicU64::new(0);
    let merge_nanos = AtomicU64::new(0);
    let sweep_nanos = AtomicU64::new(0);
    let in_flight = AtomicU64::new(0);
    let adoptions = AtomicU64::new(0);
    let migration_tuples = AtomicU64::new(0);
    let mappers_done = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    // Wakes the parked coordinator on the events its termination check
    // watches; also bumped by the orchestrator after the stores below.
    let quiesce = WakeSet::new();

    // An empty relation never triggers a mapper-side seal; pre-seal here.
    // (SealAll further requires a drained exchange when the probe side
    // streams.)
    if plan.r1_morsels() == 0 {
        broadcast(&queues, || Delivery::SealR1);
    }
    seal.maybe_seal_all(&queues);

    let mapper_shared = MapperShared {
        plan,
        r1,
        r2,
        router,
        table,
        queues: &queues,
        seal: &seal,
        gauge,
        network_tuples: &network_tuples,
        morsels_routed: &morsels_routed,
        in_flight: &in_flight,
        route_nanos: &route_nanos,
        seed: cfg.seed,
        cancel,
    };
    let reducer_shared = ReducerShared {
        queues: &queues,
        table,
        board: &board,
        gauge,
        cond,
        work: cfg.work,
        probe_chunk: cfg.probe_chunk.max(1),
        in_flight: &in_flight,
        adoptions: &adoptions,
        migration_tuples: &migration_tuples,
        straggler: cfg.straggler,
        sink: io.sink,
        key_from: io.key_from,
        spill: io.spill,
        cancel,
        quiesce: &quiesce,
        mappers_done: &mappers_done,
        merge_nanos: &merge_nanos,
        sweep_nanos: &sweep_nanos,
    };
    let coordinator_shared = CoordinatorShared {
        queues: &queues,
        table,
        board: &board,
        adaptive: &cfg.adaptive,
        links: io.links,
        r1_remaining: &seal.r1_remaining,
        mappers_done: &mappers_done,
        abort: &abort,
        in_flight: &in_flight,
        adoptions: &adoptions,
        quiesce: &quiesce,
    };

    // Spill counters are cumulative on the (possibly plan-shared) context;
    // report this run's contribution as a delta. Concurrent stages over one
    // context produce overlapping deltas — the plan driver overrides its
    // merged totals from the context's absolute counters.
    let spill_start = io.spill.map(|spill| spill.ctx.totals());

    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); reducers];
    for (region, &q) in table.snapshot().iter().enumerate() {
        owned[q as usize].push(region as u32);
    }

    // Result slots the pool tasks write into as they finish (the runtime's
    // scoped tasks have no join handles — the scope itself is the join).
    let outcome_slots: Vec<Mutex<Option<ReducerOutcome>>> =
        (0..reducers).map(|_| Mutex::new(None)).collect();
    let tally_slot: Mutex<Option<MigrationTally>> = Mutex::new(None);

    rt.scope(|s| {
        // The transport's I/O threads are 'static and cannot borrow the
        // run's cancel token; this scoped watcher bridges the gap. It
        // parks on the failure latch and, on a trip, cancels the query,
        // flags the abort (so a coordinator waiting out `in_flight` —
        // which discarded deliveries can never drain — exits), and aborts
        // every reducer in-band. The orchestrator releases the latch after
        // the coordinator so a clean run parks here exactly once.
        if let Some(latch) = &transport_failure {
            let latch = latch.clone();
            let queues = &queues;
            let abort = &abort;
            let quiesce = &quiesce;
            s.spawn(move |cx| {
                if latch.failed() {
                    cancel.cancel();
                    abort.store(true, Ordering::Release);
                    broadcast(queues, || Delivery::Abort);
                    quiesce.wake_all();
                    return Poll::Ready;
                }
                if latch.released() {
                    return Poll::Ready;
                }
                if latch.park(cx.waker()) {
                    Poll::Pending
                } else {
                    Poll::Yielded
                }
            });
        }
        for (q, regions) in owned.iter().enumerate() {
            let mut task = ReducerTask::new(&reducer_shared, q, regions);
            let slot = &outcome_slots[q];
            s.spawn(move |cx| match task.poll(cx) {
                ReducerStep::Working => Poll::Yielded,
                ReducerStep::Parked => Poll::Pending,
                ReducerStep::Done(outcome) => {
                    *slot.lock().expect("outcome slot poisoned") = Some(outcome);
                    Poll::Ready
                }
            });
        }
        let coordinator_group = s.group();
        let mut coordinator = CoordinatorTask::new(&coordinator_shared);
        let slot = &tally_slot;
        s.spawn_in(&coordinator_group, move |cx| match coordinator.poll(cx) {
            CoordinatorStep::Idle => Poll::Pending,
            CoordinatorStep::Busy => Poll::Yielded,
            CoordinatorStep::Done(tally) => {
                *slot.lock().expect("tally slot poisoned") = Some(tally);
                Poll::Ready
            }
        });
        let mapper_group = s.group();
        for _ in 0..cfg.mappers.max(1) {
            let mut task = MapperTask::new(&mapper_shared);
            s.spawn_in(&mapper_group, move |cx| task.poll(cx));
        }
        mapper_group.wait();
        // If the mappers finished without sealing (cancellation), the seal
        // chain is broken: stop the coordinator and abort the reducers
        // explicitly. Control messages bypass queue bounds, so this cannot
        // deadlock. Otherwise hand termination to the coordinator (Finish
        // at quiescence). Either way, wake the parked coordinator to
        // observe the store.
        let broken = !seal.sealed_all();
        if broken {
            abort.store(true, Ordering::Release);
        } else {
            mappers_done.store(true, Ordering::Release);
        }
        quiesce.wake_all();
        coordinator_group.wait();
        // A clean run parks the transport watcher forever; let it exit.
        // (A trip that races this release still aborted the reducers via
        // the in-band injection on the failed link.)
        if let Some(latch) = &transport_failure {
            latch.release();
        }
        if broken {
            broadcast(&queues, || Delivery::Abort);
        }
        // Scope exit blocks until the reducer tasks complete.
    });
    let outcomes: Vec<ReducerOutcome> = outcome_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("outcome slot poisoned")
                .expect("reducer task finished without an outcome")
        })
        .collect();
    let tally = tally_slot
        .into_inner()
        .expect("tally slot poisoned")
        .expect("coordinator task finished without a tally");

    // A recorded I/O failure cancels the run even if no reducer aborted: a
    // reducer drops the chunk it could not reload, and once the mappers are
    // done its cancel stops no one — the join may be short of pairs.
    let spill_failure = io.spill.and_then(|spill| spill.ctx.failure());
    let wire_failure = transport_failure.and_then(|latch| latch.reason());
    let failure = match (spill_failure, wire_failure) {
        (Some(why), _) => Some(format!("spill failure: {why}")),
        (None, Some(why)) => Some(format!("transport failure: {why}")),
        (None, None) => None,
    };
    let cancelled = failure.is_some() || outcomes.iter().any(|o| o.aborted);
    let mut outcome = EngineOutcome {
        per_region_input: vec![0; n_regions],
        per_region_output: vec![0; n_regions],
        per_region_checksum: vec![0; n_regions],
        network_tuples: network_tuples.into_inner(),
        peak_resident_tuples: gauge.peak_tuples(),
        morsels_routed: morsels_routed.into_inner(),
        backpressure_secs: queues.iter().map(|q| q.blocked_secs()).sum(),
        route_secs: route_nanos.into_inner() as f64 * 1e-9,
        merge_secs: merge_nanos.into_inner() as f64 * 1e-9,
        sweep_secs: sweep_nanos.into_inner() as f64 * 1e-9,
        busy_secs: outcomes.iter().map(|o| o.busy_secs).collect(),
        idle_secs: outcomes.iter().map(|o| o.idle_secs).collect(),
        wall_secs: start.elapsed().as_secs_f64(),
        regions_migrated: tally.regions_migrated,
        migration_tuples: migration_tuples.into_inner(),
        migration_secs: tally.migration_secs,
        routing_epoch: table.epoch(),
        spill: SpillTotals::default(),
        wire_bytes: remote_queues.iter().map(|q| q.wire_bytes()).sum(),
        cancelled,
        failure,
    };
    if let (Some(spill), Some(start)) = (io.spill, spill_start) {
        outcome.spill = spill.ctx.totals().since(&start);
    }
    if !cancelled {
        debug_assert_eq!(
            in_flight.load(Ordering::Acquire),
            0,
            "finished with unabsorbed tuples in flight"
        );
        // A completed run over a private gauge must balance its books:
        // every charged tuple was released by a sweep, a region
        // completion, or a downstream routing release. (Shared gauges are
        // checked by the owning plan/ticket instead.)
        debug_assert!(
            io.gauge.is_some() || local_gauge.current_tuples() == 0,
            "completed run leaked {} gauge tuples",
            local_gauge.current_tuples()
        );
        for o in &outcomes {
            for r in &o.results {
                outcome.per_region_input[r.region as usize] = r.input;
                outcome.per_region_output[r.region as usize] = r.output;
                outcome.per_region_checksum[r.region as usize] = r.checksum;
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewh_core::{build_ci, build_csio, ColumnBatch, CostModel, HistogramParams, Key, Tuple};
    use std::thread;

    /// A small pool for the unit tests: 4 workers regardless of the host,
    /// mirroring the thread teams the pre-runtime engine spawned.
    fn test_rt() -> EngineRuntime {
        EngineRuntime::new(4)
    }

    fn tuples(keys: &[Key]) -> Vec<Tuple> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u64))
            .collect()
    }

    /// Runs the engine over two in-memory relations: one transpose per
    /// side, no sink, private gauge.
    #[allow(clippy::too_many_arguments)] // an execution plan, not a builder
    fn run_pipelined(
        rt: &EngineRuntime,
        r1: &[Tuple],
        r2: &[Tuple],
        router: &Router,
        cond: &JoinCondition,
        table: &RoutingTable,
        cfg: &EngineConfig,
        cancel: Option<&CancelToken>,
    ) -> EngineOutcome {
        let r1 = ColumnBatch::from_tuples(r1);
        let r2 = ColumnBatch::from_tuples(r2);
        run_pipelined_io(
            rt,
            EngineIo {
                r1: Source::Scan(&r1),
                r2: Source::Scan(&r2),
                router,
                cond,
                table,
                sink: None,
                key_from: KeyFrom::Probe,
                gauge: None,
                cancel,
                spill: None,
                links: None,
            },
            cfg,
        )
    }

    fn nested_loop(r1: &[Tuple], r2: &[Tuple], cond: &JoinCondition) -> (u64, u64) {
        let (mut c, mut s) = (0u64, 0u64);
        for a in r1 {
            for b in r2 {
                if cond.matches(a.key, b.key) {
                    c += 1;
                    s ^= a.payload.wrapping_mul(31).wrapping_add(b.payload);
                }
            }
        }
        (c, s)
    }

    fn run(
        r1: &[Tuple],
        r2: &[Tuple],
        router: &Router,
        n_regions: usize,
        cond: &JoinCondition,
        morsel: usize,
        reducers: usize,
    ) -> EngineOutcome {
        let region_to_reducer: Vec<u32> = (0..n_regions).map(|r| (r % reducers) as u32).collect();
        let table = RoutingTable::new(&region_to_reducer);
        let cfg = EngineConfig {
            mappers: 2,
            reducers,
            morsel_tuples: morsel,
            queue_tuples: 2048,
            probe_chunk: morsel,
            seed: 7,
            work: OutputWork::Touch,
            adaptive: AdaptiveConfig::default(),
            straggler: None,
            transport: None,
        };
        run_pipelined(&test_rt(), r1, r2, router, cond, &table, &cfg, None)
    }

    #[test]
    fn csio_pipeline_matches_nested_loop() {
        let k1: Vec<Key> = (0..3000).map(|i| (i * 7 % 900) as Key).collect();
        let k2: Vec<Key> = (0..3000).map(|i| (i * 11 % 900) as Key).collect();
        let cond = JoinCondition::Band { beta: 2 };
        let scheme = build_csio(
            &k1,
            &k2,
            &cond,
            &CostModel::band(),
            &HistogramParams {
                j: 6,
                ..Default::default()
            },
        );
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let (expect_c, expect_s) = nested_loop(&r1, &r2, &cond);
        for morsel in [64, 997, 5000] {
            let out = run(
                &r1,
                &r2,
                &scheme.router,
                scheme.num_regions(),
                &cond,
                morsel,
                3,
            );
            assert_eq!(out.output_total(), expect_c, "morsel {morsel}");
            assert_eq!(out.checksum(), expect_s, "morsel {morsel}");
            assert!(!out.cancelled);
            assert_eq!(
                out.morsels_routed as usize,
                MorselPlan::new(r1.len(), r2.len(), morsel).total()
            );
        }
    }

    #[test]
    fn ci_pipeline_counts_match_despite_random_routing() {
        let k: Vec<Key> = (0..2000).map(|i| (i % 50) as Key).collect();
        let (r1, r2) = (tuples(&k), tuples(&k));
        let cond = JoinCondition::Equi;
        let scheme = build_ci(8, 2000, 2000, None);
        let (expect_c, expect_s) = nested_loop(&r1, &r2, &cond);
        let out = run(
            &r1,
            &r2,
            &scheme.router,
            scheme.num_regions(),
            &cond,
            256,
            2,
        );
        assert_eq!(out.output_total(), expect_c);
        assert_eq!(out.checksum(), expect_s);
    }

    #[test]
    fn empty_inputs_terminate_cleanly() {
        let cond = JoinCondition::Equi;
        let scheme = build_ci(4, 0, 0, None);
        let out = run(
            &[],
            &[],
            &scheme.router,
            scheme.num_regions(),
            &cond,
            128,
            2,
        );
        assert_eq!(out.output_total(), 0);
        assert!(!out.cancelled);

        let r2 = tuples(&[1, 2, 3]);
        let out = run(
            &[],
            &r2,
            &scheme.router,
            scheme.num_regions(),
            &cond,
            128,
            2,
        );
        assert_eq!(out.output_total(), 0);
    }

    #[test]
    fn pre_set_cancel_aborts_before_any_claim() {
        let k: Vec<Key> = (0..4000).collect();
        let (r1, r2) = (tuples(&k), tuples(&k));
        let cond = JoinCondition::Equi;
        let scheme = build_ci(4, 4000, 4000, None);
        let region_to_reducer: Vec<u32> =
            (0..scheme.num_regions()).map(|r| (r % 2) as u32).collect();
        let table = RoutingTable::new(&region_to_reducer);
        let cfg = EngineConfig {
            mappers: 2,
            reducers: 2,
            morsel_tuples: 256,
            queue_tuples: 2048,
            probe_chunk: 256,
            seed: 3,
            work: OutputWork::Touch,
            adaptive: AdaptiveConfig::default(),
            straggler: None,
            transport: None,
        };
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = run_pipelined(
            &test_rt(),
            &r1,
            &r2,
            &scheme.router,
            &cond,
            &table,
            &cfg,
            Some(&cancel),
        );
        assert!(out.cancelled);
        assert_eq!(out.output_total(), 0);
        assert_eq!(out.morsels_routed, 0, "cancel was set before any claim");
    }

    #[test]
    fn injected_straggler_forces_migrations_and_stays_correct() {
        // Reducer 0 is slowed hard; with aggressive thresholds the
        // coordinator must move its regions to the idle reducer, and the
        // join must still be exact. The CI router's regions all look alike,
        // so this exercises the full Migrate/Adopt/fence path end to end.
        let k: Vec<Key> = (0..4000).map(|i| (i % 200) as Key).collect();
        let (r1, r2) = (tuples(&k), tuples(&k));
        let cond = JoinCondition::Equi;
        let scheme = build_ci(8, 4000, 4000, None);
        let (expect_c, expect_s) = nested_loop(&r1, &r2, &cond);
        let region_to_reducer: Vec<u32> =
            (0..scheme.num_regions()).map(|r| (r % 2) as u32).collect();
        let table = RoutingTable::new(&region_to_reducer);
        let cfg = EngineConfig {
            mappers: 2,
            reducers: 2,
            morsel_tuples: 128,
            queue_tuples: 512,
            probe_chunk: 64,
            seed: 11,
            work: OutputWork::Touch,
            adaptive: AdaptiveConfig {
                reassign: true,
                migrate_backlog_tuples: 1,
                poll_micros: 50,
                ..Default::default()
            },
            straggler: Some(Straggler {
                reducer: 0,
                nanos_per_tuple: 20_000,
            }),
            transport: None,
        };
        let out = run_pipelined(
            &test_rt(),
            &r1,
            &r2,
            &scheme.router,
            &cond,
            &table,
            &cfg,
            None,
        );
        assert!(!out.cancelled);
        assert_eq!(out.output_total(), expect_c);
        assert_eq!(out.checksum(), expect_s);
        assert!(
            out.regions_migrated >= 1,
            "straggler with forced thresholds must trigger migration"
        );
        assert_eq!(out.routing_epoch, out.regions_migrated);
        assert!(out.migration_tuples > 0);
        assert!(out.migration_secs >= 0.0);
        // Each region migrates at most once, so the owner map diverges from
        // the initial placement in exactly `regions_migrated` slots.
        let owners = table.snapshot();
        let moved = owners
            .iter()
            .zip(&region_to_reducer)
            .filter(|(now, init)| now != init)
            .count() as u64;
        assert_eq!(moved, out.regions_migrated);
    }

    /// Streams `r2` through an [`Exchange`] in `batch` -sized chunks from a
    /// producer thread (honoring the gauge contract), runs the engine with
    /// an exchange-fed probe side, and returns the outcome.
    #[allow(clippy::too_many_arguments)]
    fn run_exchange_fed(
        r1: &[Tuple],
        r2: &[Tuple],
        router: &Router,
        n_regions: usize,
        cond: &JoinCondition,
        cfg: &EngineConfig,
        batch: usize,
        capacity: usize,
    ) -> EngineOutcome {
        let region_to_reducer: Vec<u32> =
            (0..n_regions).map(|r| (r % cfg.reducers) as u32).collect();
        let table = RoutingTable::new(&region_to_reducer);
        let r1 = ColumnBatch::from_tuples(r1);
        let exchange = Exchange::new(capacity);
        let gauge = MemGauge::default();
        let rt = test_rt();
        thread::scope(|s| {
            s.spawn(|| {
                for chunk in r2.chunks(batch.max(1)) {
                    gauge.add(chunk.len() as u64);
                    exchange.push(ColumnBatch::from_tuples(chunk));
                }
                exchange.close();
            });
            run_pipelined_io(
                &rt,
                EngineIo {
                    r1: Source::Scan(&r1),
                    r2: Source::Exchange(&exchange),
                    router,
                    cond,
                    table: &table,
                    sink: None,
                    key_from: crate::local_join::KeyFrom::Probe,
                    gauge: Some(&gauge),
                    cancel: None,
                    spill: None,
                    links: None,
                },
                cfg,
            )
        })
    }

    #[test]
    fn exchange_fed_probe_matches_the_scan_probe() {
        // The same join, probe side streamed through an exchange in awkward
        // batch sizes vs. scanned from memory: identical output, checksum,
        // and network volume (deterministic router).
        let k1: Vec<Key> = (0..2500).map(|i| (i * 7 % 700) as Key).collect();
        let k2: Vec<Key> = (0..2500).map(|i| (i * 11 % 700) as Key).collect();
        let cond = JoinCondition::Band { beta: 1 };
        let scheme = build_csio(
            &k1,
            &k2,
            &cond,
            &CostModel::band(),
            &HistogramParams {
                j: 5,
                ..Default::default()
            },
        );
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let scan = run(
            &r1,
            &r2,
            &scheme.router,
            scheme.num_regions(),
            &cond,
            128,
            2,
        );
        let cfg = EngineConfig {
            mappers: 2,
            reducers: 2,
            morsel_tuples: 128,
            queue_tuples: 1024,
            probe_chunk: 128,
            seed: 7,
            work: OutputWork::Touch,
            adaptive: AdaptiveConfig::default(),
            straggler: None,
            transport: None,
        };
        for batch in [1usize, 97, 4096] {
            let out = run_exchange_fed(
                &r1,
                &r2,
                &scheme.router,
                scheme.num_regions(),
                &cond,
                &cfg,
                batch,
                512,
            );
            assert!(!out.cancelled, "batch {batch}");
            assert_eq!(out.output_total(), scan.output_total(), "batch {batch}");
            assert_eq!(out.checksum(), scan.checksum(), "batch {batch}");
            assert_eq!(out.network_tuples, scan.network_tuples, "batch {batch}");
        }
    }

    #[test]
    fn exchange_fed_probe_survives_forced_migrations() {
        let k: Vec<Key> = (0..3000).map(|i| (i % 150) as Key).collect();
        let (r1, r2) = (tuples(&k), tuples(&k));
        let cond = JoinCondition::Equi;
        let scheme = build_ci(8, 3000, 3000, None);
        let (expect_c, expect_s) = nested_loop(&r1, &r2, &cond);
        let cfg = EngineConfig {
            mappers: 2,
            reducers: 2,
            morsel_tuples: 128,
            queue_tuples: 512,
            probe_chunk: 64,
            seed: 19,
            work: OutputWork::Touch,
            adaptive: AdaptiveConfig {
                reassign: true,
                migrate_backlog_tuples: 1,
                poll_micros: 50,
                ..Default::default()
            },
            straggler: Some(Straggler {
                reducer: 0,
                nanos_per_tuple: 10_000,
            }),
            transport: None,
        };
        let out = run_exchange_fed(
            &r1,
            &r2,
            &scheme.router,
            scheme.num_regions(),
            &cond,
            &cfg,
            61,
            256,
        );
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
        let r1 = ColumnBatch::from_tuples(&tuples(&(0..500).collect::<Vec<Key>>()));
        let cond = JoinCondition::Equi;
        let scheme = build_ci(4, 500, 0, None);
        let region_to_reducer: Vec<u32> =
            (0..scheme.num_regions()).map(|r| (r % 2) as u32).collect();
        let table = RoutingTable::new(&region_to_reducer);
        let exchange = Exchange::new(256); // open for the whole test
        let cancel = CancelToken::new();
        let cfg = EngineConfig {
            mappers: 2,
            reducers: 2,
            morsel_tuples: 128,
            queue_tuples: 512,
            probe_chunk: 64,
            seed: 23,
            work: OutputWork::Touch,
            adaptive: AdaptiveConfig::default(),
            straggler: None,
            transport: None,
        };
        let rt = test_rt();
        let out = thread::scope(|s| {
            s.spawn(|| {
                // Let the mappers drain the scan plan and park on the
                // stalled exchange, then cancel — the token's wake is the
                // only thing that can reach a parked mapper.
                std::thread::sleep(std::time::Duration::from_millis(20));
                cancel.cancel();
            });
            run_pipelined_io(
                &rt,
                EngineIo {
                    r1: Source::Scan(&r1),
                    r2: Source::Exchange(&exchange),
                    router: &scheme.router,
                    cond: &cond,
                    table: &table,
                    sink: None,
                    key_from: crate::local_join::KeyFrom::Probe,
                    gauge: None,
                    cancel: Some(&cancel),
                    spill: None,
                    links: None,
                },
                &cfg,
            )
        });
        assert!(out.cancelled, "stalled-exchange run must abort, not hang");
        assert_eq!(out.output_total(), 0);
    }

    #[test]
    fn empty_exchange_terminates_the_downstream_operator() {
        let r1 = tuples(&[1, 2, 3]);
        let cond = JoinCondition::Equi;
        let scheme = build_ci(4, 3, 0, None);
        let cfg = EngineConfig {
            mappers: 2,
            reducers: 2,
            morsel_tuples: 128,
            queue_tuples: 64,
            probe_chunk: 16,
            seed: 3,
            work: OutputWork::Touch,
            adaptive: AdaptiveConfig::default(),
            straggler: None,
            transport: None,
        };
        let out = run_exchange_fed(
            &r1,
            &[],
            &scheme.router,
            scheme.num_regions(),
            &cond,
            &cfg,
            8,
            64,
        );
        assert!(!out.cancelled);
        assert_eq!(out.output_total(), 0);
    }

    #[test]
    fn migration_disabled_finishes_without_moving_a_region() {
        let k: Vec<Key> = (0..1500).map(|i| (i % 90) as Key).collect();
        let (r1, r2) = (tuples(&k), tuples(&k));
        let cond = JoinCondition::Equi;
        let scheme = build_ci(6, 1500, 1500, None);
        let (expect_c, expect_s) = nested_loop(&r1, &r2, &cond);
        let region_to_reducer: Vec<u32> =
            (0..scheme.num_regions()).map(|r| (r % 3) as u32).collect();
        let table = RoutingTable::new(&region_to_reducer);
        let cfg = EngineConfig {
            mappers: 2,
            reducers: 3,
            morsel_tuples: 200,
            queue_tuples: 1024,
            probe_chunk: 100,
            seed: 13,
            work: OutputWork::Touch,
            adaptive: AdaptiveConfig {
                reassign: false,
                ..Default::default()
            },
            straggler: None,
            transport: None,
        };
        let out = run_pipelined(
            &test_rt(),
            &r1,
            &r2,
            &scheme.router,
            &cond,
            &table,
            &cfg,
            None,
        );
        assert_eq!(out.output_total(), expect_c);
        assert_eq!(out.checksum(), expect_s);
        assert_eq!(out.regions_migrated, 0);
        assert_eq!(out.routing_epoch, 0);
        assert_eq!(out.migration_tuples, 0);
    }
}
