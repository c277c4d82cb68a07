//! The exactly-once oracle for hot-cell blocks: on inputs small enough to
//! enumerate, every matching `(r1 tuple, r2 tuple)` pair is produced exactly
//! once — a *multiset* comparison against the nested loop, not the XOR
//! checksum that cancels duplicates in pairs.
//!
//! One key holds 40% of each side, so the cell where the two hot keys meet
//! outweighs a machine and no key range can cut it: CSIO gives it a block of
//! regions ([`ewh_core::GridBlock`]; every case asserts one exists, so
//! nothing here can pass vacuously). The pairs are then collected from the
//! batch shuffle and from the pipelined engine — plain, with a sub-region of
//! the block forced to migrate mid-run, and under a spill budget — for every
//! join condition; chained plans, which expose no pairs, are held to the
//! materialized baseline instead.

mod common;

use common::*;
use ewh_core::{
    build_csio, CostModel, GridBlock, HistogramParams, IneqOp, JoinCondition, Key, PartitionScheme,
    Router, SchemeKind, Tuple,
};
use ewh_exec::{
    pair_payload, run_plan, run_plan_materialized, shuffle, ChainStage, EngineConfig,
    EngineOutcome, EngineRuntime, OperatorConfig, StageSpec, Straggler,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CONDS: [JoinCondition; 8] = [
    JoinCondition::Equi,
    JoinCondition::Band { beta: 0 },
    JoinCondition::Band { beta: 3 },
    JoinCondition::Inequality(IneqOp::Lt),
    JoinCondition::Inequality(IneqOp::Le),
    JoinCondition::Inequality(IneqOp::Gt),
    JoinCondition::Inequality(IneqOp::Ge),
    JoinCondition::EquiBand { shift: 8, beta: 2 },
];

const N: usize = 400;
const HOT: usize = 160;
const J: usize = 8;

/// `N` tuples, `HOT` of them on `hot`, the rest uniform over `0..64`, in
/// random order. Payloads are `(position + 1) << shift`: with `r1` shifted
/// by 12 and `r2` by 0, `pair_payload` of a pair is unique to it.
fn relation(hot: Key, shift: u32, seed: u64) -> Vec<Tuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut keys: Vec<Key> = vec![hot; HOT];
    keys.extend((HOT..N).map(|_| rng.gen_range(0..64i64)));
    for i in (1..N).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    let payload = |i: usize| (i as u64 + 1) << shift;
    keys.iter()
        .enumerate()
        .map(|(i, &k)| Tuple::new(k, payload(i)))
        .collect()
}

/// The two sides of one case: hot keys that join under `cond`.
fn sides(cond: &JoinCondition, seed: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    let (h1, h2) = match cond {
        JoinCondition::Inequality(IneqOp::Lt) => (37, 38),
        JoinCondition::Inequality(IneqOp::Gt) => (38, 37),
        _ => (37, 37),
    };
    assert!(cond.matches(h1, h2));
    (relation(h1, 12, seed), relation(h2, 0, seed ^ 0xB10C))
}

/// Every matching pair's payload, sorted: the multiset to reproduce.
fn nested_loop(r1: &[Tuple], r2: &[Tuple], cond: &JoinCondition) -> Vec<u64> {
    let mut pairs = Vec::new();
    for a in r1 {
        for b in r2 {
            if cond.matches(a.key, b.key) {
                pairs.push(pair_payload(a.payload, b.payload));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

fn keys(r: &[Tuple]) -> Vec<Key> {
    r.iter().map(|t| t.key).collect()
}

fn csio(r1: &[Tuple], r2: &[Tuple], cond: &JoinCondition) -> PartitionScheme {
    let params = HistogramParams {
        j: J,
        ..Default::default()
    };
    build_csio(&keys(r1), &keys(r2), cond, &CostModel::band(), &params)
}

/// The scheme's blocks of more than one region.
fn blocks(scheme: &PartitionScheme) -> Vec<GridBlock> {
    let Router::Grid(grid) = &scheme.router else {
        panic!("CSIO routes over a grid");
    };
    let multi = grid.blocks().iter().filter(|b| b.a * b.b > 1);
    multi.copied().collect()
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Mode {
    Plain,
    /// The block's regions start on a reducer slowed to a crawl, everything
    /// else on the other one, thresholds forced: whatever migrates is a
    /// sub-region of the block.
    MigrateSubRegion,
    Spill,
}

/// Runs the pipelined engine with its probe output captured off a sink.
fn engine_pairs(
    scheme: &PartitionScheme,
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    mode: Mode,
) -> (Vec<u64>, EngineOutcome) {
    let mut cfg = EngineConfig::for_tasks(4, 32, 0xB10C);
    cfg.queue_tuples = 64;
    let mut stage = Stage {
        sink: Some((256, 32)),
        budget: (mode == Mode::Spill).then_some(48),
        ..Stage::new(r1, r2, scheme, *cond, cfg)
    };
    if mode == Mode::MigrateSubRegion {
        let blocks = blocks(scheme);
        let in_block = |r: &u32| {
            blocks
                .iter()
                .any(|b| (b.base..b.base + b.a * b.b).contains(r))
        };
        stage.owners = (0..scheme.num_regions() as u32)
            .map(|r| !in_block(&r) as u32)
            .collect();
        stage.cfg.adaptive = forced_migration();
        stage.cfg.straggler = Some(Straggler {
            reducer: 0,
            nanos_per_tuple: 30_000,
        });
    }
    let Ran {
        out,
        emitted: mut pairs,
        ..
    } = stage.run(&EngineRuntime::new(4));
    assert!(!out.cancelled, "{cond:?} {mode:?}: {:?}", out.failure);
    pairs.sort_unstable();
    (pairs, out)
}

#[test]
fn every_pair_is_produced_exactly_once_on_every_path_and_condition() {
    let mut migrated = 0;
    for (i, cond) in CONDS.iter().enumerate() {
        let (r1, r2) = sides(cond, 0xB10C + i as u64);
        let expect = nested_loop(&r1, &r2, cond);
        assert!(
            expect.len() >= HOT * HOT,
            "{cond:?}: the hot keys must join"
        );
        assert!(expect.windows(2).all(|w| w[0] < w[1]), "payloads collide");
        let scheme = csio(&r1, &r2, cond);
        let blocks = blocks(&scheme);
        assert!(
            !blocks.is_empty(),
            "{cond:?}: no block over the hot cell — the oracle would be vacuous"
        );
        assert!(scheme.num_regions() <= J, "{cond:?}");

        // The batch shuffle: per-tuple routing, every block drawn per tuple.
        let shuffled = shuffle(&r1, &r2, &scheme, 3, 7);
        let mut batch = Vec::new();
        for (a, b) in shuffled.r1.iter().zip(&shuffled.r2) {
            batch.extend(nested_loop(a, b, cond));
        }
        batch.sort_unstable();
        assert_eq!(batch, expect, "{cond:?}: batch shuffle");

        // The pipelined engine: scatter routing, every block drawn per batch.
        for mode in [Mode::Plain, Mode::MigrateSubRegion, Mode::Spill] {
            let (pairs, out) = engine_pairs(&scheme, &r1, &r2, cond, mode);
            assert_eq!(pairs.len(), expect.len(), "{cond:?} {mode:?}");
            assert_eq!(pairs, expect, "{cond:?} {mode:?}");
            assert_eq!(out.output_total(), expect.len() as u64, "{cond:?} {mode:?}");
            match mode {
                Mode::Plain => assert_eq!(out.stats.regions_migrated, 0),
                Mode::MigrateSubRegion => migrated += out.stats.regions_migrated,
                Mode::Spill => assert!(out.stats.spill_runs > 0, "{cond:?}: nothing spilled"),
            }
        }
    }
    assert!(migrated > 0, "no sub-region ever migrated");
}

fn small_plan_cfg() -> OperatorConfig {
    OperatorConfig {
        j: J,
        threads: 4,
        morsel_tuples: 64,
        queue_tuples: 256,
        exchange_tuples: 512,
        ..Default::default()
    }
}

#[test]
fn chained_plans_over_blocks_equal_the_materialized_baseline() {
    // A ⋈ B ⋈ C (⋈ D), every relation 40% on one key: the intermediate is
    // ~all hot, its cell against the next base relation's hot key is a
    // block, and stage by stage the streamed plan must produce what the
    // materialized one does.
    let rel = |seed| relation(37, 0, seed);
    let (a, b, c, d) = (rel(1), rel(2), rel(3), rel(4));
    let spec = |cond| StageSpec {
        kind: SchemeKind::Csio,
        cond,
    };
    let cfg = small_plan_cfg();
    let rt = EngineRuntime::new(4);
    let first = spec(JoinCondition::Equi);
    for chain in [
        vec![ChainStage {
            base: &c,
            spec: spec(JoinCondition::Equi),
        }],
        vec![
            ChainStage {
                base: &c,
                spec: spec(JoinCondition::Band { beta: 1 }),
            },
            // Thinned so the three-hop output stays enumerable in a test.
            ChainStage {
                base: &d[..40],
                spec: spec(JoinCondition::Equi),
            },
        ],
    ] {
        let pipe = run_plan(&rt, &a, &b, &first, &chain, &cfg);
        let mat = run_plan_materialized(&a, &b, &first, &chain, &cfg);
        assert_eq!(pipe.stages.len(), 1 + chain.len());
        for (i, (p, m)) in pipe.stages.iter().zip(&mat.stages).enumerate() {
            assert_eq!(p.join.output_total, m.join.output_total, "stage {i}");
            assert_eq!(p.join.checksum, m.join.checksum, "stage {i}");
        }
        assert_eq!(
            (pipe.output_total, pipe.checksum),
            (mat.output_total, mat.checksum)
        );
        assert!(pipe.output_total > (HOT * HOT * HOT) as u64 / 8);
        assert!(
            pipe.stages.iter().all(|s| !s.blocks.is_empty()),
            "every stage meets a hot cell: {:?}",
            pipe.stages.iter().map(|s| &s.blocks).collect::<Vec<_>>()
        );
    }
}
