#![cfg(test)]
//! The engine's one test kit: every engine, reducer and mapper unit test
//! that runs the engine builds its run here, one way.
//!
//! * **In:** the relations, a scheme (its regions dealt round-robin over
//!   the reducers) or, for reducers driven by hand, a router and owners, a
//!   condition, and an [`EngineConfig`] — `EngineConfig::for_tasks` with
//!   the test's overrides.
//! * **Owned:** each stage's [`RoutingTable`], the query's [`MemGauge`]
//!   and [`CancelToken`], the exchanges between stages, the last stage's
//!   sink and its consumer ([`Kit::take`]: keep a batch's payloads,
//!   release its charge), and a [`SpillContext`] over a directory of the
//!   kit's own, removed as the kit drops.
//! * **Run:** [`spawn`] is the one place a test puts tasks on a runtime.
//!   [`Kit::join`] spawns every stage's tasks through it — with a [`Fault`]
//!   if the test injects one, and a side closure on a thread of its own
//!   for what the test does meanwhile (feed the input, cancel). A test that
//!   ships deliveries by hand takes stage 0's [`Run`] from
//!   [`Kit::hand_run`] and drives one reducer at a time with [`drive`].
//! * **Out:** each stage's outcome and progress board ([`Joined`]); the
//!   tables, the gauge and the spill totals stay on the kit. Every join
//!   that completes or is cancelled must leave the gauge at zero
//!   ([`Kit::assert_balanced`]); one that ends on an injected panic leaves
//!   the reading to its test.

use std::any::Any;
use std::borrow::Cow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use ewh_core::{ColumnBatch, Key, PartitionScheme, RandomRouter, Rel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::*;
use crate::local_join::pair_payload;

/// A small pool: 4 workers regardless of the host.
pub(crate) fn test_rt() -> EngineRuntime {
    EngineRuntime::new(4)
}

/// One tuple per key, its position as the payload.
pub(crate) fn tuples(keys: &[Key]) -> Vec<Tuple> {
    let rows = keys.iter().enumerate();
    rows.map(|(i, &k)| Tuple::new(k, i as u64)).collect()
}

pub(crate) fn random_keys(n: usize, domain: i64, seed: u64) -> Vec<Key> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

/// The join's `(count, checksum)` as a nested loop computes it.
pub(super) fn nested_loop(r1: &[Tuple], r2: &[Tuple], cond: &JoinCondition) -> (u64, u64) {
    let (mut count, mut checksum) = (0, 0);
    for a in r1 {
        for b in r2.iter().filter(|b| cond.matches(a.key, b.key)) {
            count += 1;
            checksum ^= pair_payload(a.payload, b.payload);
        }
    }
    (count, checksum)
}

/// Runs `f`, aborting the process if it has not returned within a minute:
/// a teardown regression hangs rather than fails.
fn watchdog<R>(what: &str, f: impl FnOnce() -> R) -> R {
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        s.spawn(|| {
            let start = Instant::now();
            while !done.load(Ordering::Acquire) {
                if start.elapsed() > Duration::from_secs(60) {
                    eprintln!("{what}: no join after 60 s; aborting");
                    std::process::abort();
                }
                thread::sleep(Duration::from_millis(20));
            }
        });
        let out = catch_unwind(AssertUnwindSafe(f));
        done.store(true, Ordering::Release);
        out.unwrap_or_else(|payload| resume_unwind(payload))
    })
}

/// One engine task, as [`spawn`] takes it.
pub(super) type Task<'r> = Box<dyn FnMut(&TaskCx<'_>) -> Poll + Send + 'r>;

/// The one place a test puts engine tasks on a runtime: `tasks` as one
/// scope on `rt`, joined before it returns (a task's panic re-raised).
pub(super) fn spawn(rt: &EngineRuntime, tasks: Vec<Task<'_>>) {
    rt.scope(|s| tasks.into_iter().for_each(|task| s.spawn(task)));
}

/// A panic injected into one task of a [`Kit::join`].
pub(super) enum Fault<'f> {
    /// A mapper panics with "a mapper exploded" after a poll that leaves
    /// `when` true of it.
    Mapper(&'f (dyn Fn(&MapperTask<'_>) -> bool + Sync)),
    /// Reducer `reducer` panics with "a reducer exploded" on its `poll`-th
    /// poll, before polling.
    Reducer { reducer: usize, poll: usize },
}

/// What a [`Kit::join`] reports.
pub(super) struct Joined {
    /// Each stage's outcome, in order.
    pub outs: Vec<EngineOutcome>,
    /// Each stage's progress board as the run left it.
    pub boards: Vec<ProgressBoard>,
    /// The injected fault's panic, as the scope's join raised it.
    pub panic: Option<Box<dyn Any + Send>>,
}

/// One stage of a kit's query.
pub(super) struct Stage<'a> {
    r1: &'a [Tuple],
    /// `None`: the probe side streams in through [`Kit::exchange`].
    r2: Option<&'a [Tuple]>,
    router: Cow<'a, Router>,
    cond: JoinCondition,
    table: RoutingTable,
    cfg: EngineConfig,
    /// The stage's downstream exchange and its batch size.
    sink: Option<(Exchange, usize)>,
}

/// One query's engine runs and everything they borrow (see the module
/// docs).
pub(super) struct Kit<'a> {
    stages: Vec<Stage<'a>>,
    pub gauge: MemGauge,
    pub cancel: CancelToken,
    /// Stage 0's probe exchange, fed by the test.
    input: Option<Exchange>,
    /// The spill context over `dir`, and the query's budget.
    spill: Option<(SpillContext, u64)>,
    dir: PathBuf,
    /// Payloads taken off the last stage's sink.
    emitted: Mutex<Vec<u64>>,
}

/// `n_regions` regions dealt round-robin over `reducers`.
fn deal(n_regions: usize, reducers: usize) -> Vec<u32> {
    (0..n_regions).map(|r| (r % reducers) as u32).collect()
}

impl<'a> Kit<'a> {
    /// One stage joining scans of `r1` and `r2` under `scheme`.
    pub fn new(
        r1: &'a [Tuple],
        r2: &'a [Tuple],
        scheme: &'a PartitionScheme,
        cond: JoinCondition,
        cfg: EngineConfig,
    ) -> Self {
        let owners = deal(scheme.num_regions(), cfg.reducers);
        let router = Cow::Borrowed(&scheme.router);
        Kit::of(Stage::new(r1, Some(r2), router, &owners, cond, cfg))
    }

    /// For reducers driven by hand: no scan input, one region per entry of
    /// `owners` (a 1-column random router), and `reducers` queues of 65 536
    /// tuples.
    pub fn by_hand(
        reducers: usize,
        owners: &[u32],
        cond: JoinCondition,
        probe_chunk: usize,
    ) -> Self {
        let rows = owners.len() as u32;
        let router = Cow::Owned(Router::Random(RandomRouter { rows, cols: 1 }));
        let cfg = EngineConfig {
            queue_tuples: 1 << 16,
            probe_chunk,
            ..EngineConfig::for_tasks(reducers, 1024, 0)
        };
        Kit::of(Stage::new(&[], Some(&[]), router, owners, cond, cfg))
    }

    fn of(stage: Stage<'a>) -> Self {
        static KITS: AtomicUsize = AtomicUsize::new(0);
        let id = KITS.fetch_add(1, Ordering::Relaxed);
        let dir = format!("ewh-testkit-{}-{id}", std::process::id());
        Kit {
            stages: vec![stage],
            gauge: MemGauge::default(),
            cancel: CancelToken::new(),
            input: None,
            spill: None,
            dir: std::env::temp_dir().join(dir),
            emitted: Mutex::new(Vec::new()),
        }
    }

    /// Stage 0 scans `r1` and `r2`.
    pub fn relations(mut self, r1: &'a [Tuple], r2: &'a [Tuple]) -> Self {
        (self.stages[0].r1, self.stages[0].r2) = (r1, Some(r2));
        self
    }

    /// The last stage's configuration, edited.
    pub fn with(mut self, edit: impl FnOnce(&mut EngineConfig)) -> Self {
        edit(&mut self.last_mut().cfg);
        self
    }

    /// Stage 0's probe side streams in through an exchange of `capacity`
    /// tuples, which the test feeds ([`feed`](Self::feed)).
    pub fn fed(mut self, capacity: usize) -> Self {
        self.stages[0].r2 = None;
        self.input = Some(Exchange::new(capacity));
        self
    }

    /// The last stage ships its output, in batches of `batch_tuples`, to an
    /// exchange of `capacity` tuples.
    pub fn sink(mut self, capacity: usize, batch_tuples: usize) -> Self {
        self.last_mut().sink = Some((Exchange::new(capacity), batch_tuples));
        self
    }

    /// A stage that builds on `r1` and probes the last stage's sink.
    pub fn then(mut self, r1: &'a [Tuple], scheme: &'a PartitionScheme, cfg: EngineConfig) -> Self {
        assert!(
            self.last_mut().sink.is_some(),
            "a chained stage reads a sink"
        );
        let owners = deal(scheme.num_regions(), cfg.reducers);
        let cond = self.last_mut().cond;
        let router = Cow::Borrowed(&scheme.router);
        self.stages
            .push(Stage::new(r1, None, router, &owners, cond, cfg));
        self
    }

    /// The query spills under a budget of `budget_tuples`.
    pub fn spill(mut self, budget_tuples: u64) -> Self {
        self.spill = Some((SpillContext::new(self.dir.clone(), None), budget_tuples));
        self
    }

    fn last_mut(&mut self) -> &mut Stage<'a> {
        self.stages.last_mut().expect("a kit has a stage")
    }

    /// Stage 0's routing table.
    pub fn table(&self) -> &RoutingTable {
        &self.stages[0].table
    }

    /// The exchange stage `stage`'s probe side streams through.
    pub fn exchange(&self, stage: usize) -> &Exchange {
        match stage {
            0 => self.input.as_ref(),
            _ => self.stages[stage - 1]
                .sink
                .as_ref()
                .map(|(exchange, _)| exchange),
        }
        .expect("the stage is fed through an exchange")
    }

    /// The last stage's downstream exchange.
    fn sink_exchange(&self) -> &Exchange {
        let sink = self.stages.last().and_then(|stage| stage.sink.as_ref());
        &sink.expect("the last stage has a sink").0
    }

    pub fn spill_ctx(&self) -> &SpillContext {
        &self.spill.as_ref().expect("the kit spills").0
    }

    /// Every record of the spill segment, in file order: `count | keys |
    /// payloads`, back to back.
    pub fn segment(&self) -> Vec<(Vec<Key>, Vec<u64>)> {
        let bytes = std::fs::read(self.dir.join("segment.spill")).expect("the segment");
        let mut words = bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")));
        let mut records = Vec::new();
        while let Some(n) = words.next() {
            let keys = words.by_ref().take(n as usize).map(|k| k as Key).collect();
            records.push((keys, words.by_ref().take(n as usize).collect()));
        }
        records
    }

    /// An upstream producer: pushes `r2` into stage 0's exchange `batch`
    /// tuples at a time, each charged to the gauge before its push, then
    /// closes it, releasing what an abandoned exchange discarded.
    pub fn feed(&self, r2: &[Tuple], batch: usize) {
        let exchange = self.exchange(0);
        for chunk in r2.chunks(batch.max(1)) {
            self.gauge.add(chunk.len() as u64);
            exchange.push(ColumnBatch::from_tuples(chunk));
        }
        self.gauge.sub(exchange.close() as u64);
    }

    /// What the downstream mapper does with a batch of the sink, minus the
    /// routing: keeps its payloads and releases its charge.
    fn take(&self, batch: ColumnBatch) {
        self.gauge.sub(batch.len() as u64);
        let mut emitted = self.emitted.lock().expect("emitted");
        emitted.extend_from_slice(batch.payloads());
    }

    /// [`take`](Self::take)s the sink's next batch, if one is there.
    pub fn take_one(&self) -> bool {
        let PortPop::Item(batch) = self.sink_exchange().try_pop() else {
            return false;
        };
        self.take(batch);
        true
    }

    /// [`take`](Self::take)s every batch until the sink closes.
    pub fn take_rest(&self) {
        while let Some(batch) = self.sink_exchange().pop() {
            self.take(batch);
        }
    }

    /// The payloads taken off the sink so far.
    pub fn emitted(&self) -> Vec<u64> {
        self.emitted.lock().expect("emitted").clone()
    }

    /// Stage `i`'s wiring: the kit's gauge, token and spill context, the
    /// latter under `budget`.
    fn io(&self, i: usize, budget: Option<u64>) -> EngineIo<'_> {
        let stage = &self.stages[i];
        EngineIo {
            r1: stage.r1,
            r2: stage
                .r2
                .map_or_else(|| Source::Exchange(self.exchange(i)), Source::Scan),
            router: &stage.router,
            cond: &stage.cond,
            table: &stage.table,
            sink: stage
                .sink
                .as_ref()
                .map(|(exchange, batch_tuples)| StageSink {
                    exchange,
                    batch_tuples: *batch_tuples,
                }),
            key_from: KeyFrom::Probe,
            gauge: &self.gauge,
            cancel: &self.cancel,
            spill: self.spill.as_ref().map(|(ctx, own)| SpillBinding {
                budget_tuples: budget.unwrap_or(*own),
                ctx,
            }),
            links: None,
        }
    }

    /// Stage 0's run, for a test that ships deliveries and drives its
    /// reducers by hand.
    pub fn hand_run(&self) -> Run<'_> {
        Run::new(self.io(0, None), &self.stages[0].cfg)
    }

    /// [`hand_run`](Self::hand_run), spilling under `budget_tuples` instead
    /// of the kit's budget.
    pub fn hand_run_under(&self, budget_tuples: u64) -> Run<'_> {
        Run::new(self.io(0, Some(budget_tuples)), &self.stages[0].cfg)
    }

    /// The last stage's outcome of a [`join`](Self::join) with no fault and
    /// nothing beside it.
    pub fn run(&self, rt: &EngineRuntime) -> EngineOutcome {
        let mut joined = self.join(rt, None, |_| {});
        joined.outs.pop().expect("a kit has a stage")
    }

    /// Runs every stage as `run_pipelined_io` does — each stage's run set up
    /// and pre-sealed, then every reducer, coordinator and mapper spawned
    /// as one scope — with `fault` injected, while `beside` runs on a
    /// thread of its own and a consumer takes the last stage's sink. Then
    /// asserts the gauge balanced, unless the fault's panic ended the run.
    pub fn join(
        &self,
        rt: &EngineRuntime,
        fault: Option<Fault<'_>>,
        beside: impl FnOnce(&Self) + Send,
    ) -> Joined {
        let runs: Vec<Run<'_>> = (0..self.stages.len())
            .map(|i| Run::new(self.io(i, None), &self.stages[i].cfg))
            .collect();
        for run in &runs {
            if run.plan.r1_morsels() == 0 {
                broadcast(&run.queues, || Delivery::SealR1);
            }
            run.seal.maybe_seal_all(&run.queues);
        }
        let panic = watchdog("a kit's join", || {
            thread::scope(|s| {
                let last = self.stages.last().and_then(|stage| stage.sink.as_ref());
                let consumer = last.map(|_| s.spawn(|| self.take_rest()));
                let side = s.spawn(|| beside(self));
                let tasks = runs
                    .iter()
                    .flat_map(|run| run_tasks(run, fault.as_ref()))
                    .collect();
                let panic = catch_unwind(AssertUnwindSafe(|| spawn(rt, tasks))).err();
                for thread in consumer.into_iter().chain([side]) {
                    thread
                        .join()
                        .unwrap_or_else(|payload| resume_unwind(payload));
                }
                panic
            })
        });
        let (outs, boards) = runs
            .into_iter()
            .map(|mut run| {
                let board = std::mem::replace(&mut run.board, ProgressBoard::new(0, 0));
                (run.finish(), board)
            })
            .unzip();
        match panic {
            Some(payload) if fault.is_none() => resume_unwind(payload),
            None => self.assert_balanced(),
            Some(_) => {}
        }
        Joined {
            outs,
            boards,
            panic,
        }
    }

    /// The one gauge check: every tuple charged to the query was released.
    pub fn assert_balanced(&self) {
        let left = self.gauge.current_tuples();
        assert_eq!(left, 0, "{left} tuples still charged to the query's gauge");
    }
}

impl<'a> Stage<'a> {
    fn new(
        r1: &'a [Tuple],
        r2: Option<&'a [Tuple]>,
        router: Cow<'a, Router>,
        owners: &[u32],
        cond: JoinCondition,
        cfg: EngineConfig,
    ) -> Self {
        let table = RoutingTable::new(owners);
        Stage {
            r1,
            r2,
            router,
            cond,
            table,
            cfg,
            sink: None,
        }
    }
}

impl Drop for Kit<'_> {
    fn drop(&mut self) {
        drop(self.spill.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Every task of `run` in the engine's spawn order — reducers, the
/// coordinator, mappers — with `fault` wrapped around its task.
fn run_tasks<'r>(run: &'r Run<'r>, fault: Option<&'r Fault<'_>>) -> Vec<Task<'r>> {
    let (reducers, mut coordinator, mappers) = run.tasks();
    let mut tasks: Vec<Task<'r>> = Vec::new();
    for (me, mut task) in reducers.into_iter().enumerate() {
        let mut polls = 0;
        tasks.push(Box::new(move |cx| {
            polls += 1;
            if let Some(&Fault::Reducer { reducer, poll }) = fault {
                if (me, polls) == (reducer, poll) {
                    panic!("a reducer exploded");
                }
            }
            task.poll(cx)
        }));
    }
    tasks.push(Box::new(move |cx| coordinator.poll(cx)));
    for mut task in mappers {
        tasks.push(Box::new(move |cx| {
            let step = task.poll(cx);
            if let Some(Fault::Mapper(when)) = fault {
                if when(&task) {
                    panic!("a mapper exploded");
                }
            }
            step
        }));
    }
    tasks
}

/// What a mapper does per shipped fragment: charge it, count it in flight,
/// queue it for reducer `to`.
pub(super) fn ship(run: &Run<'_>, to: usize, region: u32, rel: Rel, tuples: ColumnBatch) {
    let n = tuples.len() as u64;
    run.io.gauge.add(n);
    run.in_flight.fetch_add(n, Ordering::AcqRel);
    run.queues[to].push_unbounded(Delivery::Batch(RegionBatch {
        region,
        rel,
        epoch: run.io.table.epoch(),
        tuples,
        siblings: Vec::new(),
    }));
}

/// Polls reducer `me` of `run`, owning `owned`, on `rt` until it has
/// reported.
pub(super) fn drive(rt: &EngineRuntime, run: &Run<'_>, me: usize, owned: &[u32]) {
    drive_with(rt, run, me, owned, |_| {})
}

/// [`drive`], with a look at the task after every poll.
pub(super) fn drive_with(
    rt: &EngineRuntime,
    run: &Run<'_>,
    me: usize,
    owned: &[u32],
    mut after_poll: impl FnMut(&ReducerTask<'_>) + Send,
) {
    let mut task = ReducerTask::new(run, me, owned);
    spawn(
        rt,
        vec![Box::new(move |cx| {
            let step = task.poll(cx);
            after_poll(&task);
            step
        })],
    );
}

/// Each region's `(output, checksum)` as reported into the run.
pub(super) fn tallies(run: &Run<'_>) -> Vec<(u64, u64)> {
    let out = run.outcome();
    let pairs = out.per_region_output.iter().zip(&out.per_region_checksum);
    pairs.map(|(&c, &x)| (c, x)).collect()
}
