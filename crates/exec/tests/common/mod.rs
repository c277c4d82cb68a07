//! What the `ewh-exec` integration tests share, over the crate's public API:
//! relations and strategies, the forced-migration thresholds, spill-directory
//! hygiene, and one engine run through `run_pipelined_io`.

// Every test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use ewh_core::{JoinCondition, Key, PartitionScheme, Router, RoutingTable, Tuple};
use ewh_exec::engine::{run_pipelined_io, CancelToken};
use ewh_exec::{
    AdaptiveConfig, EngineConfig, EngineIo, EngineOutcome, EngineRuntime, Exchange, KeyFrom,
    MemGauge, Source, SpillBinding, SpillContext, StageSink,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A small pool: 4 workers regardless of the host.
pub fn test_rt() -> EngineRuntime {
    EngineRuntime::new(4)
}

/// One tuple per key, its position as the payload.
pub fn tuples(keys: &[Key]) -> Vec<Tuple> {
    let rows = keys.iter().enumerate();
    rows.map(|(i, &k)| Tuple::new(k, i as u64)).collect()
}

pub fn random_keys(n: usize, domain: i64, seed: u64) -> Vec<Key> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

/// Up to `max_len` keys in `0..domain`.
pub fn keys_strategy(domain: i64, max_len: usize) -> impl Strategy<Value = Vec<Key>> {
    prop::collection::vec(0..domain, 0..max_len)
}

/// Equi and Band only: the Hash scheme supports nothing else.
pub fn condition_strategy() -> impl Strategy<Value = JoinCondition> {
    prop_oneof![
        Just(JoinCondition::Equi),
        (0i64..4).prop_map(|beta| JoinCondition::Band { beta }),
    ]
}

/// Thresholds at which any observed imbalance migrates: 1-tuple backlogs
/// qualify, moves are free, and the coordinator polls as fast as the shim
/// allows.
pub fn forced_migration() -> AdaptiveConfig {
    AdaptiveConfig {
        reassign: true,
        move_cost_factor: 0.0,
        migrate_backlog_tuples: 1,
        poll_micros: 20,
        ..Default::default()
    }
}

/// A directory of this process's own under the system temp dir, so
/// hygiene assertions cannot race other test binaries.
pub fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ewh-{tag}-{}", std::process::id()))
}

/// Asserts no per-query spill directory (and so no run file) survived its
/// query: `QueryTicket::drop` must have reclaimed each one.
pub fn assert_no_leftover_spill(base: &Path) {
    if let Ok(entries) = std::fs::read_dir(base) {
        let leftover: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        assert!(
            leftover.is_empty(),
            "spill files leaked past their queries: {leftover:?}"
        );
    }
}

/// Every record of the spill segment under `dir`, in file order: `count |
/// key slab | payload slab`, back to back — as many as `ctx` wrote.
pub fn segment_records(ctx: &SpillContext, dir: &Path) -> Vec<(Vec<Key>, Vec<u64>)> {
    let mut runs = Vec::new();
    if ctx.totals().files == 1 {
        let bytes = std::fs::read(dir.join("segment.spill")).expect("the segment");
        let mut words = bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")));
        while let Some(n) = words.next() {
            let keys: Vec<Key> = words.by_ref().take(n as usize).map(|k| k as Key).collect();
            let payloads: Vec<u64> = words.by_ref().take(n as usize).collect();
            assert_eq!(payloads.len() as u64, n);
            runs.push((keys, payloads));
        }
    }
    assert_eq!(runs.len() as u64, ctx.totals().runs);
    runs
}

/// One engine stage over two scans, run through `run_pipelined_io` with a
/// gauge, token and routing table of its own.
pub struct Stage<'a> {
    pub r1: &'a [Tuple],
    pub r2: &'a [Tuple],
    pub router: &'a Router,
    pub cond: JoinCondition,
    pub cfg: EngineConfig,
    /// Where each region starts: dealt round-robin over the reducers.
    pub owners: Vec<u32>,
    /// A downstream exchange's capacity and batch size.
    pub sink: Option<(usize, usize)>,
    /// A spill budget, over a segment that outlives the run.
    pub budget: Option<u64>,
}

/// What a [`Stage`] run reports.
pub struct Ran {
    pub out: EngineOutcome,
    /// The payloads the sink's consumer took, in arrival order.
    pub emitted: Vec<u64>,
    /// The spill segment's records ([`segment_records`]).
    pub segment: Vec<(Vec<Key>, Vec<u64>)>,
}

impl<'a> Stage<'a> {
    pub fn new(
        r1: &'a [Tuple],
        r2: &'a [Tuple],
        scheme: &'a PartitionScheme,
        cond: JoinCondition,
        cfg: EngineConfig,
    ) -> Self {
        let owners = (0..scheme.num_regions())
            .map(|r| (r % cfg.reducers) as u32)
            .collect();
        let router = &scheme.router;
        let (sink, budget) = (None, None);
        Stage {
            r1,
            r2,
            router,
            cond,
            cfg,
            owners,
            sink,
            budget,
        }
    }

    /// Runs the stage. The sink's consumer pops each batch, keeps its
    /// payloads and releases its charge; the run's last reducer closes the
    /// exchange, which ends it. The spill segment is read back, then
    /// removed. Every charge must be released by the join.
    pub fn run(&self, rt: &EngineRuntime) -> Ran {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let dir = scratch_dir(&format!("engine-{}", RUNS.fetch_add(1, Ordering::Relaxed)));
        let ctx = SpillContext::new(dir.clone(), None);
        let (table, gauge) = (RoutingTable::new(&self.owners), MemGauge::default());
        let exchange = self.sink.map(|(capacity, _)| Exchange::new(capacity));
        let (out, emitted) = thread::scope(|s| {
            let consumer = s.spawn(|| {
                let mut emitted = Vec::new();
                while let Some(batch) = exchange.as_ref().and_then(Exchange::pop) {
                    emitted.extend_from_slice(batch.payloads());
                    gauge.sub(batch.len() as u64);
                }
                emitted
            });
            let io = EngineIo {
                r1: self.r1,
                r2: Source::Scan(self.r2),
                router: self.router,
                cond: &self.cond,
                table: &table,
                sink: exchange
                    .as_ref()
                    .zip(self.sink)
                    .map(|(exchange, (_, batch_tuples))| StageSink {
                        exchange,
                        batch_tuples,
                    }),
                key_from: KeyFrom::Probe,
                gauge: &gauge,
                cancel: &CancelToken::new(),
                spill: self.budget.map(|budget_tuples| SpillBinding {
                    budget_tuples,
                    ctx: &ctx,
                }),
                links: None,
            };
            let out = run_pipelined_io(rt, [(io, self.cfg)]).remove(0);
            (out, consumer.join().expect("consumer panicked"))
        });
        assert_eq!(gauge.current_tuples(), 0, "a run leaked gauge tuples");
        let segment = segment_records(&ctx, &dir);
        drop(ctx);
        let _ = std::fs::remove_dir_all(&dir);
        Ran {
            out,
            emitted,
            segment,
        }
    }
}
