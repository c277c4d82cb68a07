//! Property-based equivalence of the two plan executors: for arbitrary
//! base relations, every scheme kind, and Equi/Band conditions, the
//! pipelined two-hop plan (streamed intermediate + schemes planned from
//! propagated censuses + cross-operator seals) must produce exactly the
//! materialized baseline's
//! final `output_total` and XOR `checksum` — the baseline runs each
//! operator on the batch path over a fully materialized intermediate and
//! is trivially correct, so agreement certifies the exchange protocol, the
//! census-planned downstream scheme, and the chained termination end to
//! end. Also exercised with migration thresholds forced to fire on every
//! stage, and with reassignment off (every stage then ends on its
//! coordinator's `Finish` without a region ever moving).

mod common;

use common::*;
use ewh_core::{JoinCondition, Key, SchemeKind, Tuple};
use ewh_exec::{
    run_plan, run_plan_materialized, ChainStage, EngineRuntime, OperatorConfig, StageSpec,
};
use proptest::prelude::*;

/// How a plan's stages handle run-time skew.
#[derive(Clone, Copy, Debug)]
enum Migration {
    Off,
    Default,
    Forced,
}

fn plan_config(seed: u64, morsel_tuples: usize, migration: Migration) -> OperatorConfig {
    let mut cfg = OperatorConfig {
        j: 4,
        threads: 3,
        seed,
        morsel_tuples,
        queue_tuples: 256,
        exchange_tuples: 512,
        ..Default::default()
    };
    match migration {
        Migration::Off => cfg.adaptive.reassign = false,
        Migration::Default => {}
        Migration::Forced => {
            cfg.threads = 4;
            cfg.adaptive.reassign = true;
            cfg.adaptive.migrate_backlog_tuples = 1;
            cfg.adaptive.poll_micros = 50;
        }
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn pipelined_plan_equals_materialized_oracle(
        k1 in keys_strategy(60, 150),
        k2 in keys_strategy(60, 150),
        k3 in keys_strategy(60, 150),
        cond1 in condition_strategy(),
        cond2 in condition_strategy(),
        seed in 0u64..1000,
        morsel_tuples in 1usize..200,
    ) {
        let (a, b, c) = (tuples(&k1), tuples(&k2), tuples(&k3));
        for kind in [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio, SchemeKind::Hash] {
            let first = StageSpec { kind, cond: cond1 };
            let chain = [ChainStage { base: &c, spec: StageSpec { kind, cond: cond2 } }];
            for migration in [Migration::Off, Migration::Default, Migration::Forced] {
                let cfg = plan_config(seed, morsel_tuples, migration);
                let pipe = run_plan(&EngineRuntime::new(4), &a, &b, &first, &chain, &cfg);
                let mat = run_plan_materialized(&a, &b, &first, &chain, &cfg);
                prop_assert_eq!(
                    pipe.output_total,
                    mat.output_total,
                    "{} {:?}/{:?} morsel={} migration={:?}",
                    kind,
                    cond1,
                    cond2,
                    morsel_tuples,
                    migration
                );
                prop_assert_eq!(
                    pipe.checksum,
                    mat.checksum,
                    "{} {:?}/{:?} checksum (migration={:?})",
                    kind,
                    cond1,
                    cond2,
                    migration
                );
                // Stage-level output sizes agree too: the streamed
                // intermediate is the materialized one, tuple for tuple.
                prop_assert_eq!(pipe.intermediate_tuples(), mat.intermediate_tuples());
            }
        }
    }
}

/// A panic on the plan's driver — here the chain stage's scheme build,
/// which rejects its condition — must reach `run_plan`'s caller, not strand
/// the stages already running: while schemes were built between spawns,
/// stage 0 stayed blocked pushing into an exchange nobody would ever pop,
/// and the thread scope waited for it forever.
#[test]
fn a_driver_panic_reaches_the_caller_and_the_pool_serves_the_next_query() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    let keys: Vec<Key> = (0..4000).map(|i| i % 40).collect();
    let rels = Arc::new((tuples(&keys), tuples(&keys), tuples(&keys)));
    let rt = Arc::new(EngineRuntime::new(4));
    // Small buffers: stage 0's output (400 000 tuples) cannot fit in flight.
    let cfg = plan_config(7, 64, Migration::Default);
    let first = StageSpec {
        kind: SchemeKind::Csio,
        cond: JoinCondition::Equi,
    };
    let plan_cfg = cfg.clone();
    let plan = move |rt: &EngineRuntime, rels: &(Vec<Tuple>, Vec<Tuple>, Vec<Tuple>), cond| {
        let spec = StageSpec { cond, ..first };
        let chain = [ChainStage {
            base: &rels.2,
            spec,
        }];
        run_plan(rt, &rels.0, &rels.1, &first, &chain, &plan_cfg)
    };

    let (tx, rx) = mpsc::channel();
    let (rt2, rels2, plan2) = (rt.clone(), rels.clone(), plan.clone());
    std::thread::spawn(move || {
        // `beta < 0` fails `JoinCondition::validate`.
        let bad = JoinCondition::Band { beta: -1 };
        let outcome = catch_unwind(AssertUnwindSafe(|| plan2(&rt2, &rels2, bad)));
        let _ = tx.send(outcome.map(|run| run.output_total));
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("run_plan hung on a driver-side panic");
    let payload = outcome.expect_err("an invalid chain condition must panic");
    let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(
        message.contains("band width"),
        "unexpected panic: {message:?}"
    );

    // The same pool, the next query: bit-identical to the oracle.
    let pipe = plan(&rt, &rels, JoinCondition::Equi);
    let chain = [ChainStage {
        base: &rels.2,
        spec: first,
    }];
    let mat = run_plan_materialized(&rels.0, &rels.1, &first, &chain, &cfg);
    assert_eq!(
        (pipe.output_total, pipe.checksum),
        (mat.output_total, mat.checksum)
    );
    assert_eq!(pipe.output_total, 40 * 100 * 100 * 100);
    assert_eq!(rt.metrics().active_queries, 0);
}
