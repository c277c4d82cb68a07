//! Property-based correctness of run-time region migration: with the
//! coordinator's thresholds forced to fire on tiny inputs (any backlog
//! qualifies, free moves, fast polls) and an injected straggler maximizing
//! idle-while-backlogged windows, the pipelined engine must still produce
//! exactly the `ExecMode::Batch` oracle's `output_total` and XOR `checksum`
//! for all four scheme kinds. This certifies the whole Migrate/Adopt
//! handshake, the per-region epoch fence (parking + forwarding), and the
//! quiescence-driven `Finish` termination under adversarial interleavings.

mod common;

use common::*;
use ewh_core::{JoinCondition, Key, SchemeKind};
use ewh_exec::{run_operator, EngineRuntime, ExecMode, OperatorConfig, Straggler};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn migrating_engine_equals_batch_oracle(
        k1 in keys_strategy(60, 220),
        k2 in keys_strategy(60, 220),
        cond in condition_strategy(),
        j in 1usize..7,
        seed in 0u64..1000,
        morsel_tuples in 1usize..160,
        slow_nanos in prop_oneof![Just(0u64), Just(20_000u64)],
    ) {
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let rt = EngineRuntime::new(4);
        let base = OperatorConfig {
            j,
            threads: 4,
            seed,
            morsel_tuples,
            // Tiny queues widen the backpressure/idle windows the
            // coordinator reacts to.
            queue_tuples: 64,
            ..Default::default()
        };
        for kind in [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio, SchemeKind::Hash] {
            let batch = run_operator(
                &rt,
                kind,
                &r1,
                &r2,
                &cond,
                &OperatorConfig { mode: ExecMode::Batch, ..base.clone() },
            );
            let migrating = run_operator(
                &rt,
                kind,
                &r1,
                &r2,
                &cond,
                &OperatorConfig {
                    mode: ExecMode::Pipelined,
                    adaptive: forced_migration(),
                    straggler: (slow_nanos > 0).then_some(Straggler {
                        reducer: 0,
                        nanos_per_tuple: slow_nanos,
                    }),
                    ..base.clone()
                },
            );
            prop_assert_eq!(
                migrating.join.output_total,
                batch.join.output_total,
                "{} {:?} morsel={} slow={}",
                kind,
                cond,
                morsel_tuples,
                slow_nanos
            );
            prop_assert_eq!(
                migrating.join.checksum,
                batch.join.checksum,
                "{} {:?} checksum",
                kind,
                cond
            );
        }
    }
}

/// Deterministic companion: a hard-slowed reducer with forced thresholds
/// *must* migrate at least one region, and the join must stay exact — so
/// the suite cannot silently pass without ever exercising a migration.
#[test]
fn forced_straggler_migrates_and_matches_oracle() {
    let keys: Vec<Key> = (0..3000).map(|i| (i % 150) as Key).collect();
    let (r1, r2) = (tuples(&keys), tuples(&keys));
    let cond = JoinCondition::Equi;
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
        SchemeKind::Ci,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Batch,
            ..base.clone()
        },
    );
    let migrating = run_operator(
        &rt,
        SchemeKind::Ci,
        &r1,
        &r2,
        &cond,
        &OperatorConfig {
            mode: ExecMode::Pipelined,
            adaptive: forced_migration(),
            straggler: Some(Straggler {
                reducer: 0,
                nanos_per_tuple: 30_000,
            }),
            ..base
        },
    );
    assert_eq!(migrating.join.output_total, batch.join.output_total);
    assert_eq!(migrating.join.checksum, batch.join.checksum);
    assert!(
        migrating.join.regions_migrated >= 1,
        "forced thresholds with a hard straggler must migrate"
    );
    assert!(migrating.join.migration_tuples > 0);
}
