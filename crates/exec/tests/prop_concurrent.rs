//! Property-based correctness of *concurrent* query execution on one
//! shared [`EngineRuntime`]: 2–4 chained query plans with mixed
//! partitioning schemes run simultaneously on a single fixed-size worker
//! pool — with run-time migration thresholds forced so the coordinator
//! fires on any imbalance — and every query's `output_total` and XOR
//! `checksum` must be bit-identical to its own serial
//! [`run_plan_materialized`] batch oracle.
//!
//! This is the multi-tenant extension of `prop_migration.rs` /
//! `prop_plan.rs`: queries contend for the same workers, steal each
//! other's deque slots, and interleave at every cooperative yield point
//! (queue push/pop, exchange push/pop, admission), so any cross-query leak
//! — a fragment routed to another query's reducer, a seal observed across
//! plans, migration state crossing tenants — shows up as a wrong count or
//! checksum here.

mod common;

use std::thread;

use common::*;

use ewh_core::{JoinCondition, Key, SchemeKind, Tuple};
use ewh_exec::{
    run_plan, run_plan_materialized, ChainStage, EngineRuntime, OperatorConfig, SpillConfig,
    StageSpec,
};
use proptest::prelude::*;

fn scheme_strategy() -> impl Strategy<Value = SchemeKind> {
    prop_oneof![
        Just(SchemeKind::Ci),
        Just(SchemeKind::Csi),
        Just(SchemeKind::Csio),
        Just(SchemeKind::Hash),
    ]
}

/// One query of the concurrent batch: a root join plus an optional second
/// hop, all inputs owned.
struct Query {
    a: Vec<Tuple>,
    b: Vec<Tuple>,
    c: Option<Vec<Tuple>>,
    first: StageSpec,
    chain_kind: SchemeKind,
    cfg: OperatorConfig,
}

impl Query {
    fn chain(&self) -> Vec<ChainStage<'_>> {
        self.c
            .as_deref()
            .map(|base| {
                vec![ChainStage {
                    base,
                    spec: StageSpec {
                        kind: self.chain_kind,
                        cond: JoinCondition::Equi,
                    },
                }]
            })
            .unwrap_or_default()
    }
}

proptest! {
    // Each case runs up to 4 plans twice (oracle + concurrent); keep the
    // case count modest — the point is the interleavings, and every case
    // explores fresh ones on the shared pool.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_plans_on_one_runtime_match_their_serial_oracles(
        queries in prop::collection::vec(
            (
                keys_strategy(50, 180),
                keys_strategy(50, 180),
                (0u64..2, keys_strategy(50, 120)),
                scheme_strategy(),
                scheme_strategy(),
                0u64..1000,
            ),
            2..=4,
        ),
        workers in 1usize..5,
    ) {
        let queries: Vec<Query> = queries
            .into_iter()
            .map(|(ka, kb, (two_hop, kc), root_kind, chain_kind, seed)| Query {
                a: tuples(&ka),
                b: tuples(&kb),
                c: (two_hop == 1).then(|| tuples(&kc)),
                first: StageSpec { kind: root_kind, cond: JoinCondition::Equi },
                chain_kind,
                cfg: OperatorConfig {
                    j: 4,
                    threads: 4,
                    seed,
                    morsel_tuples: 64,
                    queue_tuples: 128,
                    exchange_tuples: 512,
                    adaptive: forced_migration(),
                    ..Default::default()
                },
            })
            .collect();

        // Serial batch oracles (no runtime involved: the materialized
        // baseline runs on the batch path).
        let oracles: Vec<(u64, u64)> = queries
            .iter()
            .map(|q| {
                let mat = run_plan_materialized(&q.a, &q.b, &q.first, &q.chain(), &q.cfg);
                (mat.output_total, mat.checksum)
            })
            .collect();

        // All plans at once on one shared pool (client threads only carry
        // the blocking plan drivers; every engine task lands on the pool).
        let rt = EngineRuntime::new(workers);
        let results: Vec<(u64, u64)> = thread::scope(|s| {
            let handles: Vec<_> = queries
                .iter()
                .map(|q| {
                    let rt = &rt;
                    s.spawn(move || {
                        let run = run_plan(rt, &q.a, &q.b, &q.first, &q.chain(), &q.cfg);
                        (run.output_total, run.checksum)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("concurrent plan panicked"))
                .collect()
        });

        for (i, (got, want)) in results.iter().zip(&oracles).enumerate() {
            prop_assert_eq!(
                got.0, want.0,
                "query {} output drifted under concurrency (workers {})",
                i, workers
            );
            prop_assert_eq!(
                got.1, want.1,
                "query {} checksum drifted under concurrency (workers {})",
                i, workers
            );
        }
        // The pool really multiplexed everything: no query brought its own
        // workers.
        prop_assert_eq!(rt.workers(), workers);
        prop_assert!(rt.metrics().tasks_completed > 0);
    }
}

/// The waker path under forced spill: three concurrent tenants each run
/// with a spill budget of a *quarter* of the query's unbudgeted resident
/// peak, so reducers continually shed state to disk and re-load it while
/// mappers park on the tiny queues feeding them. Spill writes and reloads
/// happen inside reducer polls between park/unpark cycles, so a wake lost
/// across a spill boundary (a reducer parked on a queue while its state
/// sits on disk) would deadlock here, and a mis-ordered wake would drift
/// the output, which the serial batch oracle comparison catches.
#[test]
fn concurrent_quarter_budget_spilling_tenants_match_their_oracles() {
    let keys: Vec<Key> = (0..4000).map(|i| (i % 120) as Key).collect();
    let (a, b) = (tuples(&keys), tuples(&keys));
    let first = StageSpec {
        kind: SchemeKind::Csio,
        cond: JoinCondition::Equi,
    };
    let base = OperatorConfig {
        j: 4,
        threads: 6,
        morsel_tuples: 64,
        queue_tuples: 128,
        exchange_tuples: 512,
        adaptive: forced_migration(),
        ..Default::default()
    };

    let oracle = run_plan_materialized(&a, &b, &first, &[], &base);
    assert!(oracle.output_total > 0);

    // Learn the unbudgeted resident peak, then squeeze each tenant under
    // a quarter of it so spilling is structurally forced.
    let rt = EngineRuntime::new(3);
    let unbudgeted = run_plan(&rt, &a, &b, &first, &[], &base);
    let quarter = (unbudgeted.peak_resident_bytes / ewh_core::TUPLE_BYTES / 4).max(1);
    let budgeted = OperatorConfig {
        spill: SpillConfig {
            budget_tuples: Some(quarter),
            temp_dir: None,
            fail_after_bytes: None,
        },
        ..base
    };

    let runs = thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let (rt, a, b, first, budgeted) = (&rt, &a, &b, &first, &budgeted);
                s.spawn(move || run_plan(rt, a, b, first, &[], budgeted))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("budgeted tenant panicked"))
            .collect::<Vec<_>>()
    });
    for (q, run) in runs.iter().enumerate() {
        assert_eq!(
            run.output_total, oracle.output_total,
            "tenant {q}: output drifted under quarter-budget spilling"
        );
        assert_eq!(
            run.checksum, oracle.checksum,
            "tenant {q}: checksum drifted under quarter-budget spilling"
        );
        assert!(
            run.total.spill_bytes > 0,
            "tenant {q}: a quarter budget must actually force spilling \
             (peak {} tuples, budget {quarter})",
            unbudgeted.peak_resident_bytes / ewh_core::TUPLE_BYTES
        );
    }
    // Parks and wakes really happened around the spill boundaries.
    assert!(rt.metrics().wakeups > 0, "no waker activity under pressure");
}

/// Fault isolation across tenants: a spilling query whose spill writes
/// fail (injected `fail_after_bytes: Some(0)`) must cancel cleanly — its
/// panic surfaces at *its* plan join — while a healthy co-tenant sharing
/// the same pool workers finishes exactly and on time. A deadlocked pool
/// task or a cross-query cancel leak would hang or corrupt the healthy
/// side.
#[test]
fn failing_spilling_tenant_does_not_poison_a_healthy_co_tenant() {
    let keys: Vec<Key> = (0..3000).map(|i| (i % 150) as Key).collect();
    let (a, b) = (tuples(&keys), tuples(&keys));
    let first = StageSpec {
        kind: SchemeKind::Csio,
        cond: JoinCondition::Equi,
    };
    let base = OperatorConfig {
        j: 4,
        threads: 4,
        morsel_tuples: 64,
        queue_tuples: 128,
        exchange_tuples: 512,
        adaptive: forced_migration(),
        ..Default::default()
    };
    let faulty = OperatorConfig {
        spill: SpillConfig {
            budget_tuples: Some(64),
            temp_dir: None,
            fail_after_bytes: Some(0),
        },
        ..base.clone()
    };

    let oracle = run_plan_materialized(&a, &b, &first, &[], &base);
    assert!(oracle.output_total > 0);

    let rt = EngineRuntime::new(3);
    let (faulty_result, healthy_run) = thread::scope(|s| {
        let rt = &rt;
        let faulty_handle = s.spawn({
            let (a, b, first, faulty) = (&a, &b, &first, &faulty);
            move || run_plan(rt, a, b, first, &[], faulty)
        });
        let healthy_handle = s.spawn({
            let (a, b, first, base) = (&a, &b, &first, &base);
            move || run_plan(rt, a, b, first, &[], base)
        });
        (
            faulty_handle.join(),
            healthy_handle.join().expect("healthy co-tenant panicked"),
        )
    });
    let payload = faulty_result
        .expect_err("the spill-faulted tenant must cancel with a panic at its plan join");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("spill write failed"),
        "the plan join must carry the stage's failure reason, got: {msg:?}"
    );
    assert_eq!(healthy_run.output_total, oracle.output_total);
    assert_eq!(healthy_run.checksum, oracle.checksum);

    // The pool survives for the next admission: rerun the healthy plan.
    let again = run_plan(&rt, &a, &b, &first, &[], &base);
    assert_eq!(again.output_total, oracle.output_total);
    assert_eq!(again.checksum, oracle.checksum);
}
