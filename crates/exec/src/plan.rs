//! Composable query plans: left-deep chains of 2-way join operators whose
//! intermediates *stream* — §IV-B's "a multi-way join can be efficiently
//! executed using a sequence of our 2-way joins", without ever
//! materializing the sequence's intermediates.
//!
//! ## The pipelined executor ([`run_plan`])
//!
//! A plan is one root join over two base relations plus a chain of
//! [`ChainStage`]s, each joining a new base relation against the running
//! intermediate. Every stage is a full pipelined operator
//! ([`crate::engine`]); adjacent stages are connected by a bounded
//! [`Exchange`]:
//!
//! * The upstream operator's reducers ship each swept probe chunk's output
//!   into the exchange instead of folding it into a checksum; the
//!   downstream operator's mappers pull those batches and route them like
//!   morsels. The intermediate is resident only as bounded buffers —
//!   exchange + reducer queues + probe chunks — never in full.
//! * The downstream **build** side is the new base relation (routed
//!   immediately, sealed early); the **probe** side is the streamed
//!   intermediate, swept chunk by chunk and freed. Left-deep chains always
//!   build on base relations, which is what keeps the memory profile flat.
//! * Every stage's partitioning scheme is built from **exact statistics at
//!   plan time**, before the first stage is spawned. An intermediate tuple
//!   carries the key of one of its two inputs, so the key census of an
//!   intermediate is computable from the censuses of those inputs
//!   ([`join_census_r2`] for the root, whose output is keyed by its probe
//!   side; [`join_census_r1`] for a chain stage, keyed by its build side) —
//!   `O(distinct keys)`, no tuple touched. One census per base relation,
//!   propagated by induction down the chain, gives every stage
//!   `(census(base_i), census(intermediate_i))`: the same statistics a
//!   second pass over the materialized intermediate would count, without
//!   the intermediate and independent of the order it arrives in.
//! * Termination composes: when an upstream operator quiesces (its own
//!   `Finish`), it closes its output exchange, which is precisely what
//!   lets the downstream operator's `SealAll` fire — the cross-operator
//!   extension of the engine's seal protocol.
//! * All stages share one [`MemGauge`], so
//!   [`PlanRun::peak_resident_bytes`] is the *plan-global* high-water mark
//!   of everything resident at once: routed fragments, sealed build
//!   state, probe chunks, and exchange buffers.
//!
//! Run-time skew handling composes too: each stage runs its own migration
//! coordinator (when [`AdaptiveConfig::reassign`](crate::AdaptiveConfig) is
//! on), so a skewed *intermediate* — where multi-way plans actually fall
//! over — is caught twice: by a scheme built from its exact census (a hot
//! key that no range can split gets a block of regions, see
//! [`ewh_core::GridBlock`]), and by run-time region migration when a
//! reducer falls behind anyway.
//!
//! Execution-wise a plan is one *admitted query* on the shared
//! [`EngineRuntime`]: all of its stages' mapper/reducer/coordinator work
//! runs as task batches on the runtime's fixed worker pool, concurrently
//! with any other query sharing that pool. No stage owns threads of its
//! own — the per-stage `cfg.threads` split of earlier revisions (and the
//! host oversubscription it caused on multi-stage plans) is gone.
//!
//! ## The baseline ([`run_plan_materialized`])
//!
//! The classic execution: run each operator to completion, materialize its
//! full output, take a second statistics pass over it, and only then start
//! the next operator — exactly what `examples/multiway_chain.rs` did by
//! hand before this module existed. It doubles as the correctness oracle
//! (identical `output_total` / `checksum`, property-tested in
//! `tests/prop_plan.rs`) and as the peak-memory comparison target.

use std::panic::resume_unwind;
use std::thread;
use std::time::Instant;

use ewh_core::histogram::censuses;
use ewh_core::{
    ColumnBatch, JoinCondition, PartitionScheme, Region, SchemeKind, SideStats, Tuple, TUPLE_BYTES,
};
use ewh_sampling::{join_census_r1, join_census_r2, KeyedCounts};

use crate::engine::{AbandonOnDrop, EngineRuntime, Exchange, Source, StageSink};
use crate::local_join::{sweep_sorted_into, KeyFrom};
use crate::operator::{
    assign_regions, build_scheme, build_scheme_from_stats, execute_join_with, run_stage,
    AdmittedQuery, OperatorConfig,
};
use crate::{execute_join, shuffle, JoinStats, Shuffled};

/// One join operator of a plan: which partitioning scheme to build and the
/// join condition between its build side and its probe side.
#[derive(Clone, Copy, Debug)]
pub struct StageSpec {
    pub kind: SchemeKind,
    /// Condition oriented `(build, probe)`. For the root stage the build is
    /// `r1` and the probe `r2`; for chain stages the build is the new base
    /// relation and the probe the streamed intermediate.
    pub cond: JoinCondition,
}

/// One downstream link of a left-deep chain: joins `base` (build side)
/// against the previous stage's output (probe side).
#[derive(Clone, Copy, Debug)]
pub struct ChainStage<'a> {
    pub base: &'a [Tuple],
    pub spec: StageSpec,
}

/// What one stage of a completed plan reports.
#[derive(Clone, Debug)]
pub struct PlanStageRun {
    /// Scheme actually built (degrades to CI when the intermediate is
    /// empty — nothing to balance).
    pub kind: SchemeKind,
    pub num_regions: usize,
    /// The planned regions, with the estimates they were balanced on — a
    /// function of the inputs' key multisets and the seed, never of arrival
    /// order.
    pub regions: Vec<Region>,
    /// Shape `(a, b)` of every block of more than one region (see
    /// [`ewh_core::GridBlock`]); empty when no cell needed one.
    pub blocks: Vec<(u32, u32)>,
    /// Wall-clock of this stage's statistics: its base relation's census,
    /// the scheme build, and the census propagated to the next stage.
    pub stats_wall_secs: f64,
    /// Distinct keys of the propagated census the scheme was built from (0
    /// for the root stage, which reads two base relations).
    pub sample_tuples: usize,
    pub join: JoinStats,
}

/// A completed query-plan execution.
#[derive(Clone, Debug)]
pub struct PlanRun {
    pub stages: Vec<PlanStageRun>,
    /// Final operator's output size.
    pub output_total: u64,
    /// Final operator's order-invariant output checksum.
    pub checksum: u64,
    /// Plan-global peak resident bytes: the shared gauge's high-water mark
    /// under [`run_plan`]; the modeled per-stage maximum (shuffle + resident
    /// intermediate) under [`run_plan_materialized`].
    pub peak_resident_bytes: u64,
    /// End-to-end makespan, statistics included (stages overlap under
    /// [`run_plan`], run back to back under the baseline).
    pub wall_secs: f64,
    /// [`JoinStats::merge`] over all stages (volumes add, peaks max).
    pub total: JoinStats,
}

impl PlanRun {
    /// Tuples produced by every non-final operator — the volume the
    /// baseline materializes and the pipelined executor streams.
    pub fn intermediate_tuples(&self) -> u64 {
        let n = self.stages.len();
        self.stages
            .iter()
            .take(n.saturating_sub(1))
            .map(|s| s.join.output_total)
            .sum()
    }
}

/// Shapes of `scheme`'s blocks of more than one region.
fn block_shapes(scheme: &PartitionScheme) -> Vec<(u32, u32)> {
    let ewh_core::Router::Grid(grid) = &scheme.router else {
        return Vec::new();
    };
    let shapes = grid.blocks().iter().map(|b| (b.a, b.b));
    shapes.filter(|&(a, b)| a * b > 1).collect()
}

/// One stage's plan-time result: its scheme and what [`PlanStageRun`]
/// reports about building it.
struct PlannedStage {
    scheme: PartitionScheme,
    stats_wall_secs: f64,
    sample_tuples: usize,
}

/// Builds every stage's scheme from exact statistics (see the module docs):
/// one census per base relation, each intermediate's census by induction.
fn plan_stages(
    r1: &ColumnBatch,
    r2: &ColumnBatch,
    first: &StageSpec,
    chain: &[ChainStage<'_>],
    base_cols: &[ColumnBatch],
    cfg: &OperatorConfig,
) -> Vec<PlannedStage> {
    let mut planned = Vec::with_capacity(1 + chain.len());
    let start = Instant::now();
    let (d1, d2) = censuses(r1.keys(), r2.keys(), cfg.threads);
    let (s1, s2) = (SideStats::relation(&d1), SideStats::relation(&d2));
    let scheme = build_scheme_from_stats(first.kind, s1, s2, &first.cond, cfg);
    // The root emits its probe side's key.
    let mut probe = match chain {
        [] => KeyedCounts::default(),
        _ => join_census_r2(&d1, &d2, |k| first.cond.joinable_bounds(k)),
    };
    planned.push(PlannedStage {
        scheme,
        stats_wall_secs: start.elapsed().as_secs_f64(),
        sample_tuples: 0,
    });
    for (i, (stage, base)) in chain.iter().zip(base_cols).enumerate() {
        let start = Instant::now();
        let build = KeyedCounts::census(base.keys());
        // With nothing to probe there is nothing to balance, and CI routes
        // any key.
        let kind = match probe.total() {
            0 => SchemeKind::Ci,
            _ => stage.spec.kind,
        };
        let s1 = SideStats::relation(&build);
        let s2 = SideStats::counted(&probe, probe.total());
        let scheme = build_scheme_from_stats(kind, s1, s2, &stage.spec.cond, cfg);
        let sample_tuples = probe.num_distinct();
        // A chain stage emits its build side's key.
        if i + 1 < chain.len() {
            probe = join_census_r1(&build, &probe, |k| stage.spec.cond.joinable_bounds(k));
        }
        planned.push(PlannedStage {
            scheme,
            stats_wall_secs: start.elapsed().as_secs_f64(),
            sample_tuples,
        });
    }
    planned
}

/// Executes a left-deep chained query plan on the pipelined engine with
/// streamed intermediates, every stage planned from exact statistics before
/// the first one starts (see the module docs).
///
/// The root stage joins `r1 ⋈ r2` under `first`; each [`ChainStage`] then
/// joins its base relation (build side) against the running intermediate
/// (probe side). The root emits intermediates keyed by its probe side,
/// chain stages by their build side — so each hop hands the *freshly
/// joined* relation's attribute to the next operator, matching the
/// materialized baseline tuple for tuple.
///
/// The whole plan is **one admitted query** on the shared runtime: it
/// holds a single admission ticket, every stage's mapper/reducer/
/// coordinator work runs as task batches on `rt`'s fixed pool (there is no
/// per-stage thread-splitting anymore — concurrent stages, like concurrent
/// queries, just interleave on the same workers), and all stages charge
/// the ticket's memory gauge so the reported peak is plan-global. The only
/// threads this function creates are one parked *driver* per stage —
/// coordination-only: each spends its life blocked in the stage's scope
/// join, executing no join work.
pub fn run_plan(
    rt: &EngineRuntime,
    r1: &[Tuple],
    r2: &[Tuple],
    first: &StageSpec,
    chain: &[ChainStage<'_>],
    cfg: &OperatorConfig,
) -> PlanRun {
    let start = Instant::now();
    let n_chain = chain.len();
    // One ticket, gauge, spill budget and spill context for the whole plan.
    let query = AdmittedQuery::admit(rt, cfg);
    let query = &query;
    let exchanges: Vec<Exchange> = (0..n_chain)
        .map(|_| Exchange::new(cfg.exchange_tuples.max(2)))
        .collect();

    // Transpose every scan source once, before statistics and before the
    // stage tasks spawn: scheme builds read the key columns, the engine
    // routes, sorts, and sweeps on the same batches, and the borrows must
    // outlive the scoped stage threads below.
    let r1_cols = ColumnBatch::from_tuples(r1);
    let r2_cols = ColumnBatch::from_tuples(r2);
    let base_cols: Vec<ColumnBatch> = chain
        .iter()
        .map(|stage| ColumnBatch::from_tuples(stage.base))
        .collect();

    // Every scheme exists before any stage does: whatever a scheme build
    // can panic on, it panics here, with nothing running yet.
    let planned = plan_stages(&r1_cols, &r2_cols, first, chain, &base_cols, cfg);

    let stage_stats: Vec<JoinStats> = thread::scope(|s| {
        // If this driver unwinds between two spawns, no consumer will ever
        // pop the stages already running: abandon every exchange on the way
        // out so their producers cannot stay blocked in `push` and the
        // scope can join. Harmless after normal completion.
        let _abandon: Vec<AbandonOnDrop<'_>> =
            exchanges.iter().map(|ex| AbandonOnDrop(Some(ex))).collect();
        let sink_of = |i: usize| {
            exchanges.get(i).map(|exchange| StageSink {
                exchange,
                batch_tuples: cfg.morsel_tuples.max(1),
            })
        };
        let mut handles = Vec::with_capacity(1 + n_chain);
        for (i, stage) in planned.iter().enumerate() {
            let scheme = &stage.scheme;
            let sink = sink_of(i);
            let (build, probe, cond, key_from) = match i.checked_sub(1) {
                None => (
                    &r1_cols,
                    Source::Scan(&r2_cols),
                    &first.cond,
                    KeyFrom::Probe,
                ),
                Some(c) => (
                    &base_cols[c],
                    Source::Exchange(&exchanges[c]),
                    &chain[c].spec.cond,
                    KeyFrom::Build,
                ),
            };
            handles.push(s.spawn(move || {
                run_stage(
                    rt,
                    query,
                    Source::Scan(build),
                    probe,
                    scheme,
                    cond,
                    key_from,
                    sink,
                    cfg,
                )
            }));
        }
        // A stage that failed re-raises here with its own payload — the
        // reason `run_stage` panicked with reaches the plan's caller.
        let joined: Vec<JoinStats> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect();
        joined
    });

    let wall_secs = start.elapsed().as_secs_f64();
    let mut total = JoinStats::default();
    for s in &stage_stats {
        total.merge(s);
    }
    // The plan holds one ticket; charge its admission wait once, not per
    // stage.
    total.admission_wait_secs = query.ticket.admission_wait_secs();
    // Per-stage spill deltas overlap when stages run concurrently over the
    // shared context; override the merged sums with the context's absolute
    // totals, which count every byte exactly once.
    if let Some(ctx) = &query.spill {
        total.set_spill(&ctx.totals());
    }
    let last = stage_stats.last().expect("at least the root stage");
    let (output_total, checksum) = (last.output_total, last.checksum);
    let stages = planned
        .into_iter()
        .zip(stage_stats)
        .map(|(p, join)| PlanStageRun {
            kind: p.scheme.kind,
            num_regions: p.scheme.num_regions(),
            blocks: block_shapes(&p.scheme),
            regions: p.scheme.regions,
            stats_wall_secs: p.stats_wall_secs,
            sample_tuples: p.sample_tuples,
            join,
        })
        .collect();
    PlanRun {
        stages,
        output_total,
        checksum,
        peak_resident_bytes: query.ticket.gauge().peak_tuples() * TUPLE_BYTES,
        wall_secs,
        total,
    }
}

/// [`execute_join`]'s emitting sibling: joins the shuffled regions across
/// threads *and materializes the output*, keyed per `key_from` — the
/// baseline's inter-operator step, sharing the batch core
/// (`execute_join_with`) so the two accountings cannot drift apart.
fn execute_join_emit(
    shuffled: Shuffled,
    cond: &JoinCondition,
    region_to_worker: &[u32],
    cfg: &OperatorConfig,
    key_from: KeyFrom,
) -> (JoinStats, Vec<Tuple>) {
    let (stats, extras) = execute_join_with(shuffled, region_to_worker, cfg, |r1, r2| {
        r1.sort_unstable_by_key(|t| t.key);
        r2.sort_unstable_by_key(|t| t.key);
        let mut out = Vec::new();
        let (count, sum) = sweep_sorted_into(r1, r2, cond, key_from, &mut out);
        (count, sum, out)
    });
    let mut output = Vec::new();
    for (_, mut out) in extras {
        output.append(&mut out);
    }
    (stats, output)
}

/// The materialize-between-operators baseline: each stage runs to
/// completion, its output is fully materialized, statistics are rebuilt
/// from scratch with a second pass over the intermediate, and only then
/// does the next stage start — §IV-B executed the pre-pipeline way.
///
/// Doubles as the plan executor's correctness oracle (its final
/// `output_total` / `checksum` come from the batch path, which is
/// trivially correct) and as the peak-memory comparison target:
/// `peak_resident_bytes` models, per stage, the routed shuffle copies plus
/// the larger of the inbound and outbound materialized intermediates
/// resident alongside them, maximized over stages — granting the baseline
/// the most favorable eviction order (inbound freed right after the
/// shuffle, outbound only accumulating during the joins).
pub fn run_plan_materialized(
    r1: &[Tuple],
    r2: &[Tuple],
    first: &StageSpec,
    chain: &[ChainStage<'_>],
    cfg: &OperatorConfig,
) -> PlanRun {
    let start = Instant::now();
    let mut stages: Vec<PlanStageRun> = Vec::with_capacity(1 + chain.len());
    let mut peak_model: u64 = 0;

    let push_stage =
        |stages: &mut Vec<PlanStageRun>, scheme: &PartitionScheme, wall: f64, join: JoinStats| {
            stages.push(PlanStageRun {
                kind: scheme.kind,
                num_regions: scheme.num_regions(),
                blocks: block_shapes(scheme),
                regions: scheme.regions.clone(),
                stats_wall_secs: wall,
                sample_tuples: 0,
                join,
            });
        };

    // Root stage.
    let (scheme0, wall0) = build_scheme(first.kind, r1, r2, &first.cond, cfg);
    let map0 = assign_regions(&scheme0, cfg.j, cfg.capacities.as_deref(), &cfg.cost);
    let shuffled0 = shuffle(r1, r2, &scheme0, cfg.threads, cfg.seed ^ 0x5F);
    let (stats0, mut intermediate) = if chain.is_empty() {
        (execute_join(shuffled0, &first.cond, &map0, cfg), Vec::new())
    } else {
        execute_join_emit(shuffled0, &first.cond, &map0, cfg, KeyFrom::Probe)
    };
    peak_model = peak_model.max(stats0.mem_bytes + intermediate.len() as u64 * TUPLE_BYTES);
    push_stage(&mut stages, &scheme0, wall0, stats0);

    for (i, stage) in chain.iter().enumerate() {
        // The second statistics pass the pipelined executor eliminates:
        // full key extraction over the materialized intermediate.
        let (scheme, wall) = build_scheme(
            stage.spec.kind,
            stage.base,
            &intermediate,
            &stage.spec.cond,
            cfg,
        );
        let map = assign_regions(&scheme, cfg.j, cfg.capacities.as_deref(), &cfg.cost);
        let shuffled = shuffle(
            stage.base,
            &intermediate,
            &scheme,
            cfg.threads,
            cfg.seed ^ 0x5F,
        );
        let inbound = intermediate.len() as u64 * TUPLE_BYTES;
        let is_last = i + 1 == chain.len();
        let (stats, next) = if is_last {
            (
                execute_join(shuffled, &stage.spec.cond, &map, cfg),
                Vec::new(),
            )
        } else {
            execute_join_emit(shuffled, &stage.spec.cond, &map, cfg, KeyFrom::Build)
        };
        let outbound = next.len() as u64 * TUPLE_BYTES;
        peak_model = peak_model.max(stats.mem_bytes + inbound.max(outbound));
        push_stage(&mut stages, &scheme, wall, stats);
        intermediate = next;
    }

    let wall_secs = start.elapsed().as_secs_f64();
    let mut total = JoinStats::default();
    for s in &stages {
        total.merge(&s.join);
    }
    let last = &stages.last().expect("at least the root stage").join;
    PlanRun {
        output_total: last.output_total,
        checksum: last.checksum,
        peak_resident_bytes: peak_model,
        wall_secs,
        total,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewh_core::Key;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn test_rt() -> EngineRuntime {
        EngineRuntime::new(4)
    }

    fn tuples(keys: &[Key]) -> Vec<Tuple> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u64))
            .collect()
    }

    fn random_keys(n: usize, domain: i64, seed: u64) -> Vec<Key> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..domain)).collect()
    }

    fn small_cfg() -> OperatorConfig {
        OperatorConfig {
            j: 4,
            threads: 3,
            morsel_tuples: 128,
            queue_tuples: 512,
            exchange_tuples: 1024,
            ..Default::default()
        }
    }

    #[test]
    fn two_hop_plan_matches_the_materialized_baseline() {
        let a = tuples(&random_keys(3000, 400, 1));
        let b = tuples(&random_keys(3000, 400, 2));
        let c = tuples(&random_keys(3000, 400, 3));
        let cfg = small_cfg();
        let first = StageSpec {
            kind: SchemeKind::Csio,
            cond: JoinCondition::Band { beta: 1 },
        };
        let chain = [ChainStage {
            base: &c,
            spec: StageSpec {
                kind: SchemeKind::Csio,
                cond: JoinCondition::Equi,
            },
        }];
        let pipe = run_plan(&test_rt(), &a, &b, &first, &chain, &cfg);
        let mat = run_plan_materialized(&a, &b, &first, &chain, &cfg);
        assert_eq!(pipe.output_total, mat.output_total);
        assert_eq!(pipe.checksum, mat.checksum);
        assert_eq!(pipe.stages.len(), 2);
        assert_eq!(mat.stages.len(), 2);
        // Per-stage joins agree too (deterministic content-sensitive
        // routing on both paths).
        assert_eq!(
            pipe.stages[0].join.output_total,
            mat.stages[0].join.output_total
        );
        assert_eq!(pipe.intermediate_tuples(), mat.intermediate_tuples());
        // The chain stage's scheme was built from a propagated census.
        assert!(pipe.stages[1].sample_tuples > 0);
        // Totals aggregate via JoinStats::merge.
        assert_eq!(
            pipe.total.output_total,
            pipe.stages.iter().map(|s| s.join.output_total).sum::<u64>()
        );
    }

    #[test]
    fn three_hop_plan_matches_the_materialized_baseline() {
        let a = tuples(&random_keys(1500, 120, 11));
        let b = tuples(&random_keys(1500, 120, 12));
        let c = tuples(&random_keys(1500, 120, 13));
        let d = tuples(&random_keys(1500, 120, 14));
        let cfg = small_cfg();
        let first = StageSpec {
            kind: SchemeKind::Csio,
            cond: JoinCondition::Equi,
        };
        let chain = [
            ChainStage {
                base: &c,
                spec: StageSpec {
                    kind: SchemeKind::Csio,
                    cond: JoinCondition::Equi,
                },
            },
            ChainStage {
                base: &d,
                spec: StageSpec {
                    kind: SchemeKind::Csi,
                    cond: JoinCondition::Band { beta: 1 },
                },
            },
        ];
        let pipe = run_plan(&test_rt(), &a, &b, &first, &chain, &cfg);
        let mat = run_plan_materialized(&a, &b, &first, &chain, &cfg);
        assert_eq!(pipe.output_total, mat.output_total);
        assert_eq!(pipe.checksum, mat.checksum);
        assert_eq!(pipe.stages.len(), 3);
    }

    #[test]
    fn empty_intermediate_degrades_to_ci_and_stays_correct() {
        // Disjoint key domains: the root join is empty, so the chain stage
        // sees an empty stream, degrades to CI, and outputs nothing.
        let a = tuples(&random_keys(500, 50, 21));
        let b: Vec<Tuple> = tuples(&random_keys(500, 50, 22))
            .into_iter()
            .map(|t| Tuple::new(t.key + 10_000, t.payload))
            .collect();
        let c = tuples(&random_keys(500, 50, 23));
        let cfg = small_cfg();
        let first = StageSpec {
            kind: SchemeKind::Csio,
            cond: JoinCondition::Equi,
        };
        let chain = [ChainStage {
            base: &c,
            spec: StageSpec {
                kind: SchemeKind::Csio,
                cond: JoinCondition::Equi,
            },
        }];
        let pipe = run_plan(&test_rt(), &a, &b, &first, &chain, &cfg);
        assert_eq!(pipe.output_total, 0);
        assert_eq!(pipe.stages[1].kind, SchemeKind::Ci);
        assert_eq!(pipe.stages[1].sample_tuples, 0);
        let mat = run_plan_materialized(&a, &b, &first, &chain, &cfg);
        assert_eq!(mat.output_total, 0);
    }

    #[test]
    fn single_stage_plan_equals_the_one_shot_operator() {
        let a = tuples(&random_keys(2000, 300, 31));
        let b = tuples(&random_keys(2000, 300, 32));
        let cfg = small_cfg();
        let first = StageSpec {
            kind: SchemeKind::Csio,
            cond: JoinCondition::Band { beta: 2 },
        };
        let rt = test_rt();
        let pipe = run_plan(&rt, &a, &b, &first, &[], &cfg);
        let one_shot = crate::run_operator(&rt, first.kind, &a, &b, &first.cond, &cfg);
        assert_eq!(pipe.output_total, one_shot.join.output_total);
        assert_eq!(pipe.checksum, one_shot.join.checksum);
        assert_eq!(pipe.stages.len(), 1);
    }

    #[test]
    fn chained_stages_migrate_under_forced_thresholds_and_stay_exact() {
        let a = tuples(&random_keys(2500, 60, 41));
        let b = tuples(&random_keys(2500, 60, 42));
        let c = tuples(&random_keys(2500, 60, 43));
        let mut cfg = small_cfg();
        cfg.adaptive.reassign = true;
        cfg.adaptive.migrate_backlog_tuples = 1;
        cfg.adaptive.poll_micros = 50;
        cfg.threads = 4;
        let first = StageSpec {
            kind: SchemeKind::Hash,
            cond: JoinCondition::Equi,
        };
        let chain = [ChainStage {
            base: &c,
            spec: StageSpec {
                kind: SchemeKind::Hash,
                cond: JoinCondition::Equi,
            },
        }];
        let pipe = run_plan(&test_rt(), &a, &b, &first, &chain, &cfg);
        let mat = run_plan_materialized(&a, &b, &first, &chain, &cfg);
        assert_eq!(pipe.output_total, mat.output_total);
        assert_eq!(pipe.checksum, mat.checksum);
    }
}
