//! Property-based correctness of out-of-core execution: with the spill
//! budget forced to ~10% of the input — so reducers *must* shed sealed
//! build runs, pre-seal probe pendings, and (in chained plans) outbox
//! batches to disk — the pipelined engine's `output_total` and XOR
//! `checksum` must stay bit-identical to the `ExecMode::Batch` oracle for
//! all four scheme kinds — with reassignment off, at its defaults, and with
//! migration thresholds forced to fire. This certifies the whole spill ladder, the merge-replay of
//! spilled runs during the sweep, and the shipping of spilled-run
//! descriptors across a region migration — the adopter reads the donor's
//! runs out of the query's one shared segment file, by offset. Each case
//! also drives the engine once over a segment the test owns and reads it
//! back record by record: every build and probe run in it must be
//! key-sorted, the contract the replay sweeps rely on now that a run is
//! sorted on its way to disk instead of on arrival.
//!
//! Deterministic companions pin the claims the properties could silently
//! stop exercising: a pressured run actually reports `spill_bytes > 0`
//! from many runs in exactly one file, spill files never outlive their
//! query (success path), and an injected spill-write fault — on the first
//! write or mid-run, in an operator or in a stage of a plan — cancels the
//! query cleanly: the panic surfaces at the driver with the write error in
//! it, no pool worker deadlocks, and the temp dir is still reclaimed.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

use ewh_core::{build_ci, JoinCondition, Key, RoutingTable, SchemeKind, Tuple, TUPLE_BYTES};
use ewh_exec::engine::{run_pipelined_io, CancelToken, MemGauge};
use ewh_exec::{
    run_operator, run_plan, AdaptiveConfig, ChainStage, EngineConfig, EngineIo, EngineOutcome,
    EngineRuntime, ExecMode, KeyFrom, OperatorConfig, Source, SpillBinding, SpillConfig,
    SpillContext, StageSpec,
};
use proptest::prelude::*;

fn condition_strategy() -> impl Strategy<Value = JoinCondition> {
    // Equi and Band only: the Hash scheme supports nothing else.
    prop_oneof![
        Just(JoinCondition::Equi),
        (0i64..4).prop_map(|beta| JoinCondition::Band { beta }),
    ]
}

fn keys_strategy(max_len: usize) -> impl Strategy<Value = Vec<Key>> {
    prop::collection::vec(0i64..60, 0..max_len)
}

fn tuples(keys: &[Key]) -> Vec<Tuple> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| Tuple::new(k, i as u64))
        .collect()
}

/// Thresholds at which any observed imbalance migrates (the
/// `prop_migration.rs` forcing config) — spilled regions must survive the
/// Migrate/Adopt handshake with their on-disk runs intact.
fn forced_migration() -> AdaptiveConfig {
    AdaptiveConfig {
        reassign: true,
        move_cost_factor: 0.0,
        migrate_backlog_tuples: 1,
        poll_micros: 20,
        ..Default::default()
    }
}

/// A per-test spill base directory, so hygiene assertions can't race other
/// test binaries using the system temp dir.
fn spill_base(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ewh-prop-spill-{}-{tag}", std::process::id()))
}

/// Asserts no per-query spill directory (and so no run file) survived its
/// query: `QueryTicket::drop` must have reclaimed each one.
fn assert_no_leftover_spill(base: &Path) {
    if let Ok(entries) = std::fs::read_dir(base) {
        let leftover: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        assert!(
            leftover.is_empty(),
            "spill files leaked past their queries: {leftover:?}"
        );
    }
}

/// Runs the join under CI on the engine itself, spilling into a segment
/// under `dir` that outlives the run, and returns the outcome with the key
/// column of every record in that segment, in file order. CI scatters at
/// random, so every fragment arrives unsorted; without a downstream sink
/// every record is a build or a probe run.
#[allow(clippy::too_many_arguments)] // one engine run's inputs, used once each
fn run_over_an_owned_segment(
    rt: &EngineRuntime,
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    base: &OperatorConfig,
    adaptive: AdaptiveConfig,
    budget: u64,
    dir: &Path,
) -> (EngineOutcome, Vec<Vec<Key>>) {
    let scheme = build_ci(base.j, r1.len() as u64, r2.len() as u64, None);
    let cfg = EngineConfig {
        queue_tuples: base.queue_tuples,
        adaptive,
        ..EngineConfig::for_tasks(base.threads, base.morsel_tuples, base.seed)
    };
    let owners: Vec<u32> = (0..scheme.num_regions())
        .map(|r| (r % cfg.reducers) as u32)
        .collect();
    let ctx = SpillContext::new(dir.to_path_buf(), None);
    let io = EngineIo {
        r1,
        r2: Source::Scan(r2),
        router: &scheme.router,
        cond,
        table: &RoutingTable::new(&owners),
        sink: None,
        key_from: KeyFrom::Probe,
        gauge: &MemGauge::default(),
        cancel: &CancelToken::new(),
        spill: Some(SpillBinding {
            budget_tuples: budget,
            ctx: &ctx,
        }),
        links: None,
    };
    let outcome = run_pipelined_io(rt, [(io, cfg)]).remove(0);
    assert_eq!(outcome.failure, None);

    let runs: Vec<Vec<Key>> = segment_records(&ctx, dir)
        .into_iter()
        .map(|(keys, _)| keys)
        .collect();
    (outcome, runs)
}

/// Every record of the segment under `dir`, in file order: `count | key
/// slab | payload slab`, back to back.
fn segment_records(ctx: &SpillContext, dir: &Path) -> Vec<(Vec<Key>, Vec<u64>)> {
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

/// The segment's contract: every build and probe run is key-sorted (the
/// replay sweeps each as it stands) and at most `cap` tuples long — the
/// `probe_chunk` floor, however far past it a region's probe buffer grew
/// before it spilled, so a reload charges at most that to the gauge.
fn check_segment(runs: &[Vec<Key>], cap: usize) -> Result<(), TestCaseError> {
    for (i, keys) in runs.iter().enumerate() {
        prop_assert!(
            keys.is_sorted(),
            "spilled run {} of {} is not key-sorted",
            i,
            runs.len()
        );
        prop_assert!(
            keys.len() <= cap,
            "spilled run {} holds {} > {} tuples",
            i,
            keys.len(),
            cap
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn spilling_engine_equals_batch_oracle(
        k1 in keys_strategy(220),
        k2 in keys_strategy(220),
        cond in condition_strategy(),
        j in 1usize..7,
        seed in 0u64..1000,
        migration in 0u8..3,
    ) {
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        // ~10% of the input: virtually everything a reducer absorbs must
        // round-trip through disk (floor of 8 keeps degenerate tiny inputs
        // from spilling one tuple at a time forever).
        let budget = ((r1.len() + r2.len()) as u64 / 10).max(8);
        let base_dir = spill_base("oracle");
        let rt = EngineRuntime::new(4);
        let base = OperatorConfig {
            j,
            threads: 4,
            seed,
            morsel_tuples: 48,
            queue_tuples: 64,
            ..Default::default()
        };
        let adaptive = match migration {
            0 => AdaptiveConfig { reassign: false, ..Default::default() },
            1 => AdaptiveConfig::default(),
            _ => forced_migration(),
        };
        let mut oracle = (0, 0);
        for kind in [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio, SchemeKind::Hash] {
            let batch = run_operator(
                &rt,
                kind,
                &r1,
                &r2,
                &cond,
                &OperatorConfig { mode: ExecMode::Batch, ..base.clone() },
            );
            oracle = (batch.join.output_total, batch.join.checksum);
            let spilling = run_operator(
                &rt,
                kind,
                &r1,
                &r2,
                &cond,
                &OperatorConfig {
                    mode: ExecMode::Pipelined,
                    spill: SpillConfig {
                        budget_tuples: Some(budget),
                        temp_dir: Some(base_dir.clone()),
                        fail_after_bytes: None,
                    },
                    adaptive,
                    ..base.clone()
                },
            );
            prop_assert_eq!(
                spilling.join.output_total,
                batch.join.output_total,
                "{} {:?} budget={} migration={}",
                kind,
                cond,
                budget,
                migration
            );
            prop_assert_eq!(
                spilling.join.checksum,
                batch.join.checksum,
                "{} {:?} checksum budget={}",
                kind,
                cond,
                budget
            );
        }
        assert_no_leftover_spill(&base_dir);

        // The same pressure over a segment that outlives its run: what was
        // spilled — pre-seal runs in arrival order among it — went to disk
        // sorted, and replaying it still computes the oracle's join.
        let owned = base_dir.join("owned-segment");
        let (out, runs) =
            run_over_an_owned_segment(&rt, &r1, &r2, &cond, &base, adaptive, budget, &owned);
        prop_assert!(!out.cancelled);
        prop_assert_eq!((out.output_total(), out.checksum()), oracle);
        prop_assert_eq!(out.stats.spill_runs, runs.len() as u64);
        check_segment(&runs, probe_chunk(&base))?;
        let _ = std::fs::remove_dir_all(&base_dir);
    }
}

// A loose budget, 50–90% of what the same query peaks at without one. A
// region with a resident build buffers up to an eighth of it before a sweep,
// so the gauge crosses such a budget mid-run and falls back under it as
// sweeps and spills free memory: pressure comes and goes, and with it the
// rule a region sweeps by (the floor while pressed). Inputs of 600–2 400
// tuples a side over 1–3 regions give builds whose eighth is above the
// 64-tuple floor.
proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn loosely_budgeted_engine_equals_batch_oracle(
        k1 in prop::collection::vec(0i64..300, 600..2400),
        k2 in prop::collection::vec(0i64..300, 600..2400),
        cond in condition_strategy(),
        j in 1usize..4,
        seed in 0u64..1000,
        percent in 50u64..91,
        forced in any::<bool>(),
    ) {
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let base_dir = spill_base("loose");
        let rt = EngineRuntime::new(4);
        let base = OperatorConfig {
            j,
            threads: 4,
            seed,
            morsel_tuples: 48,
            queue_tuples: 64,
            ..Default::default()
        };
        let adaptive = if forced {
            forced_migration()
        } else {
            AdaptiveConfig { reassign: false, ..Default::default() }
        };
        let pipelined = |budget_tuples: Option<u64>| OperatorConfig {
            mode: ExecMode::Pipelined,
            spill: SpillConfig {
                budget_tuples,
                temp_dir: Some(base_dir.clone()),
                fail_after_bytes: None,
            },
            adaptive,
            ..base.clone()
        };
        let (mut oracle, mut ci_budget) = ((0, 0), 0);
        for kind in [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio, SchemeKind::Hash] {
            let batch = run_operator(
                &rt,
                kind,
                &r1,
                &r2,
                &cond,
                &OperatorConfig { mode: ExecMode::Batch, ..base.clone() },
            );
            oracle = (batch.join.output_total, batch.join.checksum);
            let unbudgeted = run_operator(&rt, kind, &r1, &r2, &cond, &pipelined(None));
            let peak = unbudgeted.join.peak_resident_bytes / TUPLE_BYTES;
            let budget = (peak * percent / 100).max(8);
            if matches!(kind, SchemeKind::Ci) {
                ci_budget = budget;
            }
            let spilling = run_operator(&rt, kind, &r1, &r2, &cond, &pipelined(Some(budget)));
            prop_assert_eq!(
                (spilling.join.output_total, spilling.join.checksum),
                oracle,
                "{} {:?} budget={} of peak {} forced={}",
                kind,
                cond,
                budget,
                peak,
                forced
            );
        }
        assert_no_leftover_spill(&base_dir);

        let owned = base_dir.join("owned-segment");
        let (out, runs) =
            run_over_an_owned_segment(&rt, &r1, &r2, &cond, &base, adaptive, ci_budget, &owned);
        prop_assert!(!out.cancelled);
        prop_assert_eq!((out.output_total(), out.checksum()), oracle);
        check_segment(&runs, probe_chunk(&base))?;
        let _ = std::fs::remove_dir_all(&base_dir);
    }
}

/// The floor under a region's probe buffer at `base`'s morsel size, and the
/// cap on every spilled run.
fn probe_chunk(base: &OperatorConfig) -> usize {
    EngineConfig::for_tasks(base.threads, base.morsel_tuples, base.seed).probe_chunk
}

/// Deterministic companion: a pressured run *must* actually spill (so the
/// property above cannot silently pass in-memory), stay exact, and leave
/// the spill base directory empty when the query completes.
#[test]
fn forced_budget_spills_matches_oracle_and_cleans_up() {
    let keys: Vec<Key> = (0..4000).map(|i| (i % 200) as Key).collect();
    let (r1, r2) = (tuples(&keys), tuples(&keys));
    let cond = JoinCondition::Equi;
    let base_dir = spill_base("deterministic");
    let base = OperatorConfig {
        j: 8,
        threads: 4,
        morsel_tuples: 128,
        queue_tuples: 256,
        ..Default::default()
    };
    let rt = EngineRuntime::new(4);
    let batch = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Batch,
            ..base.clone()
        },
    );
    let spilling = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Pipelined,
            spill: SpillConfig {
                // 5% of the input: the build side alone is 10x over budget.
                budget_tuples: Some((r1.len() + r2.len()) as u64 / 20),
                temp_dir: Some(base_dir.clone()),
                fail_after_bytes: None,
            },
            ..base.clone()
        },
    );
    assert_eq!(spilling.join.output_total, batch.join.output_total);
    assert_eq!(spilling.join.checksum, batch.join.checksum);
    assert!(
        spilling.join.spill_bytes > 0,
        "a 5% budget must force actual spill I/O"
    );
    assert!(spilling.join.spill_secs > 0.0);
    assert!(spilling.join.spill_runs > 1 && spilling.join.spill_reloads > 0);
    assert_eq!(
        spilling.join.spill_files, 1,
        "every run of the query shares one segment"
    );
    assert_no_leftover_spill(&base_dir);

    // Zero pressure on the same workload: no budget, no spill I/O at all.
    let unbudgeted = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Pipelined,
            ..base
        },
    );
    assert_eq!(unbudgeted.join.output_total, batch.join.output_total);
    assert_eq!(unbudgeted.join.spill_bytes, 0);
    assert_eq!(unbudgeted.join.spill_secs, 0.0);
    assert_eq!(
        (
            unbudgeted.join.spill_runs,
            unbudgeted.join.spill_reloads,
            unbudgeted.join.spill_files
        ),
        (0, 0, 0)
    );
    let _ = std::fs::remove_dir_all(&base_dir);
}

/// A sweep that feeds a downstream exchange stops at one exchange of output
/// and leaves the sorted rest of its chunk in the region's pending buffer —
/// where the spill ladder finds it like any other probe state. One region,
/// 300 build × 256 probe tuples on one key, a budget the buffered state fits
/// under and one slice's output does not: the rest of the chunk goes to
/// disk half-swept, comes back as a probe run, and the pairs are the batch
/// oracle's.
#[test]
fn the_rest_of_a_sliced_chunk_is_spilled_and_replayed_like_any_probe_run() {
    use ewh_exec::engine::{Exchange, StageSink};

    const BUILD: u64 = 300;
    const PROBE: u64 = 256;
    // Payloads that tell a record's origin: build, probe, or emitted pair.
    let r1: Vec<Tuple> = (0..BUILD).map(|i| Tuple::new(7, (i + 1) << 12)).collect();
    let r2: Vec<Tuple> = (0..PROBE).map(|j| Tuple::new(7, j + 1)).collect();
    let cond = JoinCondition::Equi;
    let batch = run_operator(
        &EngineRuntime::new(2),
        SchemeKind::Ci,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Batch,
            j: 1,
            threads: 1,
            ..Default::default()
        },
    );
    assert_eq!(batch.join.output_total, BUILD * PROBE);

    let dir = spill_base("sliced");
    let ctx = SpillContext::new(dir.clone(), None);
    let scheme = build_ci(1, BUILD, PROBE, None);
    // The whole probe side is one morsel, one fragment, one chunk.
    let cfg = EngineConfig {
        probe_chunk: PROBE as usize,
        ..EngineConfig::for_tasks(1, PROBE as usize, 5)
    };
    let exchange = Exchange::new(1024);
    let gauge = MemGauge::default();
    let sink = StageSink {
        exchange: &exchange,
        batch_tuples: 64,
    };
    let rt = EngineRuntime::new(2);
    let (emitted, out) = std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            let (mut count, mut checksum) = (0u64, 0u64);
            while let Some(batch) = exchange.pop() {
                count += batch.len() as u64;
                checksum = batch.payloads().iter().fold(checksum, |x, p| x ^ p);
                gauge.sub(batch.len() as u64);
            }
            (count, checksum)
        });
        let io = EngineIo {
            r1: &r1,
            r2: Source::Scan(&r2),
            router: &scheme.router,
            cond: &cond,
            table: &RoutingTable::new(&[0]),
            sink: Some(sink),
            key_from: KeyFrom::Probe,
            gauge: &gauge,
            cancel: &CancelToken::new(),
            // Above build + chunk (and the seal's sort transient), below
            // build + chunk + a slice of three tuples' 900 pairs.
            spill: Some(SpillBinding {
                budget_tuples: 700,
                ctx: &ctx,
            }),
            links: None,
        };
        // The run's last reducer closes the exchange, which ends the
        // consumer.
        let out = run_pipelined_io(&rt, [(io, cfg)]).remove(0);
        (consumer.join().expect("consumer panicked"), out)
    });
    assert!(!out.cancelled, "{:?}", out.failure);
    assert_eq!(emitted, (batch.join.output_total, batch.join.checksum));
    assert_eq!((out.output_total(), out.checksum()), emitted);
    assert_eq!(gauge.current_tuples(), 0);

    // Nothing spilled before the first slice, so a probe record is what that
    // slice left behind: sorted, and short of the chunk by the slice.
    let records = segment_records(&ctx, &dir);
    let probe_tuples: usize = records
        .iter()
        .filter(|(_, payloads)| payloads.iter().all(|&p| p <= PROBE))
        .map(|(keys, _)| keys.len())
        .sum();
    assert!(
        (1..PROBE as usize).contains(&probe_tuples),
        "{probe_tuples} probe tuples in the segment"
    );
    assert!(out.stats.spill_reloads > 0);
    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An I/O failure mid-spill cancels the query *cleanly*: the injected
/// write fault — `fail_after_bytes: Some(0)` fails the very first run,
/// before any segment exists; `Some(4096)` fails the first write past
/// 4 KiB, with a live segment and the failed victim's tail still resident
/// — is recorded, mappers and reducers wind down cooperatively — no pool
/// worker deadlocks — and the driver re-raises the failure as a panic at
/// the query join. The pool must stay healthy for the next query, and the
/// ticket's `Drop` must reclaim the spill dir on this path too.
#[test]
fn spill_write_fault_cancels_query_and_pool_survives() {
    let keys: Vec<Key> = (0..4000).map(|i| (i % 200) as Key).collect();
    let (r1, r2) = (tuples(&keys), tuples(&keys));
    let cond = JoinCondition::Equi;
    let base_dir = spill_base("fault");
    let rt = EngineRuntime::new(4);
    let base = OperatorConfig {
        j: 8,
        threads: 4,
        morsel_tuples: 128,
        queue_tuples: 256,
        ..Default::default()
    };
    // The same fault inside a plan — one stage, then two with the second
    // fed by an exchange — must reach the `run_plan` call the same way as
    // it reaches `run_operator`'s.
    let first = StageSpec {
        kind: SchemeKind::Csio,
        cond,
    };
    let chain = [ChainStage {
        base: &r1,
        spec: first,
    }];
    for fail_after_bytes in [0, 4096] {
        let faulty = OperatorConfig {
            mode: ExecMode::Pipelined,
            spill: SpillConfig {
                budget_tuples: Some(64),
                temp_dir: Some(base_dir.clone()),
                fail_after_bytes: Some(fail_after_bytes),
            },
            ..base.clone()
        };
        // As an operator, then as a plan of one stage and of two.
        for plan_stages in [None, Some(0), Some(1)] {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| match plan_stages {
                None => drop(run_operator(
                    &rt,
                    SchemeKind::Csio,
                    &r1,
                    &r2,
                    &cond,
                    &faulty,
                )),
                Some(n) => drop(run_plan(&rt, &r1, &r2, &first, &chain[..n], &faulty)),
            }))
            .expect_err("a failing spill write must surface as a panic at the join");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "<non-string panic>".into());
            assert!(
                msg.contains("spill failure: spill write failed: injected spill-write fault"),
                "{plan_stages:?}: panic should carry the spill failure and its reason, got: {msg}"
            );
            // Unwinding dropped the ticket, which reclaims the spill
            // directory even on the failure path.
            assert_no_leftover_spill(&base_dir);
        }
    }

    // The pool was not poisoned: the same runtime completes a healthy
    // budgeted query afterwards (no deadlocked workers holding slots).
    let healthy = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Pipelined,
            spill: SpillConfig {
                budget_tuples: Some(400),
                temp_dir: Some(base_dir.clone()),
                fail_after_bytes: None,
            },
            ..base.clone()
        },
    );
    let batch = run_operator(
        &rt,
        SchemeKind::Csio,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Batch,
            ..base
        },
    );
    assert_eq!(healthy.join.output_total, batch.join.output_total);
    assert_eq!(healthy.join.checksum, batch.join.checksum);
    assert!(healthy.join.spill_bytes > 0);
    assert_no_leftover_spill(&base_dir);
    let _ = std::fs::remove_dir_all(&base_dir);
}

/// The spill-directory naming contract: every ticket's directory is a
/// distinct child of the base named `ewh-spill-<pid>-<16-hex nonce>-<seq>`.
/// The pid and nonce are fixed per process (the nonce guards against pid
/// reuse across worker restarts sharing one temp dir); the sequence makes
/// concurrent same-process queries collision-free by construction — no
/// two tickets may ever agree on a directory, even across runtimes.
#[test]
fn spill_dirs_are_nonce_unique_per_ticket() {
    let base_dir = spill_base("nonce");
    let rt_a = EngineRuntime::new(2);
    let rt_b = EngineRuntime::new(2);
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            if i % 2 == 0 {
                rt_a.admit(None)
            } else {
                rt_b.admit(None)
            }
        })
        .collect();
    let mut seen = std::collections::HashSet::new();
    let pid = std::process::id().to_string();
    let mut nonces = std::collections::HashSet::new();
    for t in &tickets {
        let dir = t.spill_dir(Some(&base_dir)).to_path_buf();
        // Idempotent: the name is fixed on first call.
        assert_eq!(dir, t.spill_dir(Some(&base_dir)));
        assert_eq!(dir.parent(), Some(base_dir.as_path()));
        let name = dir.file_name().unwrap().to_str().unwrap().to_string();
        let rest = name
            .strip_prefix("ewh-spill-")
            .unwrap_or_else(|| panic!("unexpected spill dir name: {name}"));
        let mut parts = rest.splitn(3, '-');
        assert_eq!(parts.next(), Some(pid.as_str()), "pid component: {name}");
        let nonce = parts.next().expect("nonce component");
        assert_eq!(nonce.len(), 16, "nonce must be 16 hex digits: {name}");
        assert!(nonce.chars().all(|c| c.is_ascii_hexdigit()), "{name}");
        nonces.insert(nonce.to_string());
        let seq = parts.next().expect("sequence component");
        seq.parse::<u64>()
            .unwrap_or_else(|_| panic!("sequence component: {name}"));
        assert!(
            seen.insert(dir),
            "two tickets agreed on a spill dir: {name}"
        );
    }
    assert_eq!(
        nonces.len(),
        1,
        "the startup nonce is fixed once per process, shared by every runtime"
    );
    drop(tickets);
    // Nothing was spilled, so nothing was created — and ticket drop must
    // not have invented anything either.
    assert_no_leftover_spill(&base_dir);
    let _ = std::fs::remove_dir_all(&base_dir);
}
