//! The probe side's arrival order never changes a join. A pipelined query
//! scans a counted probe side in key order, sorted once per query: under
//! CSIO and HASH, and at the root of any chain. Every other side, and the
//! batch oracle, keeps the caller's order, so a sort that lost, duplicated
//! or misplaced a tuple shows up as a mismatch against the oracle.
//!
//! `R2` arrives ascending, descending, shuffled or on one key, under all
//! four schemes, unbudgeted or under a spill budget of about a tenth of
//! the input, with forced migration or without. Every pipelined
//! `(count, checksum)` equals the batch oracle's, as an operator and at the
//! root of a two-stage plan.

mod common;

use common::*;
use ewh_core::{JoinCondition, Key, SchemeKind};
use ewh_exec::{
    run_operator, run_plan, run_plan_materialized, AdaptiveConfig, ChainStage, EngineRuntime,
    ExecMode, OperatorConfig, SpillConfig, StageSpec,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How the probe side arrives.
#[derive(Clone, Copy, Debug)]
enum Order {
    Ascending,
    Descending,
    Shuffled,
    /// Every key replaced by the side's first one.
    Constant,
}

fn order() -> impl Strategy<Value = Order> {
    prop_oneof![
        Just(Order::Ascending),
        Just(Order::Descending),
        Just(Order::Shuffled),
        Just(Order::Constant),
    ]
}

/// `keys` in `order`; a shuffle is a Fisher–Yates on `seed`.
fn arrange(mut keys: Vec<Key>, order: Order, seed: u64) -> Vec<Key> {
    match order {
        Order::Ascending => keys.sort_unstable(),
        Order::Descending => keys.sort_unstable_by(|a, b| b.cmp(a)),
        Order::Shuffled => {
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.gen_range(0..=i));
            }
        }
        Order::Constant => {
            let first = keys.first().copied().unwrap_or_default();
            keys.fill(first);
        }
    }
    keys
}

/// A pipelined configuration, spilling under `budget` if one is given into
/// a directory of the test's own (`tag`).
fn pipelined(
    base: &OperatorConfig,
    budget: Option<u64>,
    migrate: bool,
    tag: &str,
) -> OperatorConfig {
    OperatorConfig {
        mode: ExecMode::Pipelined,
        spill: SpillConfig {
            budget_tuples: budget,
            temp_dir: budget.map(|_| scratch_dir(tag)),
            fail_after_bytes: None,
        },
        adaptive: match migrate {
            true => forced_migration(),
            false => AdaptiveConfig::default(),
        },
        ..base.clone()
    }
}

const KINDS: [SchemeKind; 4] = [
    SchemeKind::Ci,
    SchemeKind::Csi,
    SchemeKind::Csio,
    SchemeKind::Hash,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn the_probe_sides_order_never_changes_the_join(
        k1 in keys_strategy(80, 300),
        k2 in keys_strategy(80, 300),
        order in order(),
        cond in condition_strategy(),
        spill in any::<bool>(),
        migrate in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let (r1, r2) = (tuples(&k1), tuples(&arrange(k2, order, seed)));
        let budget = spill.then(|| ((r1.len() + r2.len()) as u64 / 10).max(8));
        let base = OperatorConfig {
            j: 4,
            threads: 2,
            seed,
            morsel_tuples: 32,
            queue_tuples: 64,
            ..Default::default()
        };
        let batch = OperatorConfig { mode: ExecMode::Batch, ..base.clone() };
        let cfg = pipelined(&base, budget, migrate, "prop-order-operator");
        let rt = EngineRuntime::new(2);
        for kind in KINDS {
            let expect = run_operator(&rt, kind, &r1, &r2, &cond, &batch).join;
            let got = run_operator(&rt, kind, &r1, &r2, &cond, &cfg).join;
            prop_assert_eq!(
                (got.output_total, got.checksum),
                (expect.output_total, expect.checksum),
                "{} {:?} {:?} budget {:?} migrate {}", kind, cond, order, budget, migrate
            );
        }
        if let Some(dir) = cfg.spill.temp_dir {
            assert_no_leftover_spill(&dir);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn the_probe_sides_order_never_changes_a_chain_rooted_on_any_scheme(
        k1 in keys_strategy(60, 200),
        k2 in keys_strategy(60, 200),
        k3 in keys_strategy(60, 200),
        order in order(),
        spill in any::<bool>(),
        migrate in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let (r1, r2, r3) = (tuples(&k1), tuples(&arrange(k2, order, seed)), tuples(&k3));
        let budget = spill.then(|| ((r1.len() + r2.len()) as u64 / 10).max(8));
        let base = OperatorConfig {
            j: 4,
            threads: 2,
            seed,
            morsel_tuples: 32,
            queue_tuples: 64,
            exchange_tuples: 256,
            ..Default::default()
        };
        let cfg = pipelined(&base, budget, migrate, "prop-order-chain");
        let rt = EngineRuntime::new(2);
        let chain = [ChainStage {
            base: &r3,
            spec: StageSpec { kind: SchemeKind::Csio, cond: JoinCondition::Equi },
        }];
        for kind in KINDS {
            let cond = match kind {
                SchemeKind::Hash => JoinCondition::Equi,
                _ => JoinCondition::Band { beta: 1 },
            };
            let first = StageSpec { kind, cond };
            let expect = run_plan_materialized(&r1, &r2, &first, &chain, &base);
            let got = run_plan(&rt, &r1, &r2, &first, &chain, &cfg);
            prop_assert_eq!(
                (got.output_total, got.checksum),
                (expect.output_total, expect.checksum),
                "{} root {:?} budget {:?} migrate {}", kind, order, budget, migrate
            );
        }
        if let Some(dir) = cfg.spill.temp_dir {
            assert_no_leftover_spill(&dir);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
