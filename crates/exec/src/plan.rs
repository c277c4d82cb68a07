//! Composable query plans: left-deep chains of 2-way join operators whose
//! intermediates *stream* — §IV-B's "a multi-way join can be efficiently
//! executed using a sequence of our 2-way joins", without ever
//! materializing the sequence's intermediates.
//!
//! Every query runs through this module: an operator
//! ([`run_operator`](crate::run_operator)) is the one-stage plan, run by
//! [`run_plan`]'s executor under [`ExecMode::Pipelined`](crate::ExecMode)
//! and by [`run_plan_materialized`]'s under `ExecMode::Batch`. Each stage
//! reports one [`OperatorRun`].
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
//!   plan time**, before the first stage starts. The root is planned
//!   over its two resident relations like any operator; an intermediate
//!   tuple carries the key of one of its two inputs, so the key census of
//!   an intermediate is computable from the censuses of those inputs
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
//! * All stages share one [`MemGauge`](crate::MemGauge), so
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
//! [`EngineRuntime`], admitted once every scheme is built: all of its
//! stages' mappers, reducers and coordinators are the tasks of one scope on
//! the runtime's fixed worker pool, concurrently with any other query
//! sharing that pool. No stage owns threads of its own, and none is driven
//! from a thread: the calling thread only waits for the scope.
//!
//! ## The baseline ([`run_plan_materialized`])
//!
//! The classic execution: run each operator to completion, materialize its
//! full output, take a second statistics pass over it, and only then start
//! the next operator — exactly what `examples/multiway_chain.rs` did by
//! hand before this module existed. It doubles as the correctness oracle
//! (identical `output_total` / `checksum`, property-tested in
//! `tests/prop_plan.rs`) and as the peak-memory comparison target.

use std::time::Instant;

use ewh_core::{JoinCondition, SchemeKind, SideStats, Tuple, TUPLE_BYTES};
use ewh_sampling::{join_census_r1, join_census_r2, KeyedCounts};

use crate::engine::{EngineRuntime, Exchange, Source, StageSink};
use crate::local_join::{sweep_sorted_each, KeyFrom};
use crate::operator::{
    assign_regions, build_scheme_from_stats, execute_join_with, plan_resident, run_stages,
    stats_sim_secs, AdmittedQuery, FallbackPolicy, OperatorConfig, OperatorRun, PlannedStage,
    StageIo,
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

/// A completed query-plan execution.
#[derive(Clone, Debug)]
pub struct PlanRun {
    /// One record per stage, root first — the same [`OperatorRun`] an
    /// operator returns for its one stage.
    pub stages: Vec<OperatorRun>,
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
    /// [`JoinStats::merge`] over all stages (volumes add, peaks max). Under
    /// [`run_plan`] it also carries the plan's admission wait (charged once:
    /// the plan holds one ticket) and the shared spill context's absolute
    /// counters, which count every byte once where concurrent stages'
    /// deltas overlap.
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

    /// The one assembly of a completed plan from its planned stages and
    /// what running them measured; `query` is the pipelined plan's admitted
    /// query.
    fn assemble(
        planned: Vec<PlannedStage>,
        joins: Vec<JoinStats>,
        peak_resident_bytes: u64,
        start: Instant,
        query: Option<&AdmittedQuery<'_>>,
    ) -> PlanRun {
        let stages: Vec<OperatorRun> = planned
            .into_iter()
            .zip(joins)
            .map(|(planned, join)| OperatorRun::new(planned, join))
            .collect();
        let mut total = JoinStats::default();
        for stage in &stages {
            total.merge(&stage.join);
        }
        if let Some(query) = query {
            total.admission_wait_secs = query.ticket.admission_wait_secs();
            if let Some((ctx, _)) = &query.spill {
                total.set_spill(&ctx.totals());
            }
        }
        let last = &stages.last().expect("at least the root stage").join;
        PlanRun {
            output_total: last.output_total,
            checksum: last.checksum,
            peak_resident_bytes,
            wall_secs: start.elapsed().as_secs_f64(),
            total,
            stages,
        }
    }
}

/// Plans every stage before any runs (see the module docs): the root over
/// its two resident relations, each chain stage from its base relation's
/// census and its intermediate's census, propagated by induction.
fn plan_stages(
    r1: &[Tuple],
    r2: &[Tuple],
    first: &StageSpec,
    chain: &[ChainStage<'_>],
    cfg: &OperatorConfig,
    fallback: Option<&FallbackPolicy>,
) -> Vec<PlannedStage> {
    let start = Instant::now();
    let (mut root, pair) = plan_resident(first, r1, r2, cfg, fallback, !chain.is_empty());
    // The root emits its probe side's key.
    let mut probe = match &pair {
        Some((d1, d2)) => join_census_r2(d1, d2, |k| first.cond.joinable_bounds(k)),
        None => KeyedCounts::default(),
    };
    root.stats_wall_secs = start.elapsed().as_secs_f64();
    let mut planned = Vec::with_capacity(1 + chain.len());
    planned.push(root);
    for (i, stage) in chain.iter().enumerate() {
        let start = Instant::now();
        let build = KeyedCounts::census_of(stage.base.iter().map(|t| t.key));
        // With nothing to probe there is nothing to balance, and CI routes
        // any key.
        let kind = match probe.total() {
            0 => SchemeKind::Ci,
            _ => stage.spec.kind,
        };
        let s1 = SideStats::relation(&build);
        let s2 = SideStats::counted(&probe, probe.total());
        let scheme = build_scheme_from_stats(kind, s1, s2, &stage.spec.cond, cfg);
        let n = (stage.base.len() as u64).max(probe.total());
        let sample_tuples = probe.num_distinct();
        // A chain stage emits its build side's key.
        if i + 1 < chain.len() {
            probe = join_census_r1(&build, &probe, |k| stage.spec.cond.joinable_bounds(k));
        }
        planned.push(PlannedStage {
            stats_sim_secs: stats_sim_secs(&scheme, n, cfg),
            scheme,
            stats_wall_secs: start.elapsed().as_secs_f64(),
            sample_tuples,
            fell_back: false,
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
/// The whole plan is **one admitted query** on the shared runtime, admitted
/// after every scheme is built: it holds a single admission ticket, every
/// stage's mappers, reducers and coordinator are tasks of one scope on
/// `rt`'s fixed pool (concurrent stages, like concurrent queries, just
/// interleave on the same workers), and all stages charge the ticket's
/// memory gauge so the reported peak is plan-global. The calling thread
/// waits for that scope; no thread is spawned.
pub fn run_plan(
    rt: &EngineRuntime,
    r1: &[Tuple],
    r2: &[Tuple],
    first: &StageSpec,
    chain: &[ChainStage<'_>],
    cfg: &OperatorConfig,
) -> PlanRun {
    pipelined(rt, r1, r2, first, chain, cfg, None)
}

/// [`run_plan`] with the root planned under an optional §VI-E fallback
/// policy — the executor behind the pipelined operator too.
pub(crate) fn pipelined(
    rt: &EngineRuntime,
    r1: &[Tuple],
    r2: &[Tuple],
    first: &StageSpec,
    chain: &[ChainStage<'_>],
    cfg: &OperatorConfig,
    fallback: Option<&FallbackPolicy>,
) -> PlanRun {
    let start = Instant::now();
    // Every scheme exists before the query is admitted and before any stage
    // runs: whatever a scheme build can panic on, it panics here, holding
    // no ticket, with nothing running. Scan sources stay the caller's
    // tuples throughout: each census reads its own side's keys off them,
    // and each mapper transposes only the morsel it claims.
    let planned = plan_stages(r1, r2, first, chain, cfg, fallback);

    // One ticket, gauge, spill budget and spill context for the whole plan.
    let query = &AdmittedQuery::admit(rt, cfg);
    let exchanges: Vec<Exchange> = (0..chain.len())
        .map(|_| Exchange::new(cfg.exchange_tuples.max(2)))
        .collect();

    let stages: Vec<StageIo<'_>> = (0..=chain.len())
        .map(|i| {
            let sink = exchanges.get(i).map(|exchange| StageSink {
                exchange,
                batch_tuples: cfg.morsel_tuples.max(1),
            });
            let (r1, r2, cond, key_from) = match i.checked_sub(1) {
                None => (r1, Source::Scan(r2), &first.cond, KeyFrom::Probe),
                Some(c) => (
                    chain[c].base,
                    Source::Exchange(&exchanges[c]),
                    &chain[c].spec.cond,
                    KeyFrom::Build,
                ),
            };
            let scheme = &planned[i].scheme;
            StageIo {
                r1,
                r2,
                scheme,
                cond,
                key_from,
                sink,
            }
        })
        .collect();
    let joins = run_stages(rt, query, &stages, cfg);

    // Every stage has joined, so the query's books balance: each tuple
    // charged to the shared gauge was released by a sweep, a region
    // completion or a downstream routing release.
    let gauge = query.ticket.gauge();
    debug_assert_eq!(
        gauge.current_tuples(),
        0,
        "completed plan leaked gauge tuples"
    );
    let peak = gauge.peak_tuples() * TUPLE_BYTES;
    PlanRun::assemble(planned, joins, peak, start, Some(query))
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
        let (count, sum) = sweep_sorted_each(r1, r2, cond, key_from, |t| out.push(t));
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
/// does the next stage start — §IV-B executed the pre-pipeline way. Every
/// stage is planned over its two resident relations as an operator plans
/// its one stage, and runs on the batch path.
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
    materialized(r1, r2, first, chain, cfg, None)
}

/// [`run_plan_materialized`] with the root planned under an optional §VI-E
/// fallback policy — the executor behind the batch operator too.
pub(crate) fn materialized(
    r1: &[Tuple],
    r2: &[Tuple],
    first: &StageSpec,
    chain: &[ChainStage<'_>],
    cfg: &OperatorConfig,
    fallback: Option<&FallbackPolicy>,
) -> PlanRun {
    let start = Instant::now();
    let mut planned = Vec::with_capacity(1 + chain.len());
    let mut joins = Vec::with_capacity(1 + chain.len());
    let mut peak_model: u64 = 0;
    let mut intermediate: Vec<Tuple> = Vec::new();
    for i in 0..=chain.len() {
        let (build, probe, spec, fallback, key_from) = match i.checked_sub(1) {
            None => (r1, r2, first, fallback, KeyFrom::Probe),
            Some(c) => (
                chain[c].base,
                &intermediate[..],
                &chain[c].spec,
                None,
                KeyFrom::Build,
            ),
        };
        // For a chain stage, the second statistics pass the pipelined
        // executor eliminates: full key extraction over the materialized
        // intermediate.
        let (stage, _) = plan_resident(spec, build, probe, cfg, fallback, false);
        let map = assign_regions(&stage.scheme, cfg.j, cfg.capacities.as_deref(), &cfg.cost);
        let shuffled = shuffle(build, probe, &stage.scheme, cfg.threads, cfg.seed ^ 0x5F);
        let inbound = if i == 0 { 0 } else { probe.len() as u64 } * TUPLE_BYTES;
        let (join, next) = if i == chain.len() {
            (execute_join(shuffled, &spec.cond, &map, cfg), Vec::new())
        } else {
            execute_join_emit(shuffled, &spec.cond, &map, cfg, key_from)
        };
        let outbound = next.len() as u64 * TUPLE_BYTES;
        peak_model = peak_model.max(join.mem_bytes + inbound.max(outbound));
        planned.push(stage);
        joins.push(join);
        intermediate = next;
    }
    PlanRun::assemble(planned, joins, peak_model, start, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testkit::{random_keys, test_rt, tuples};

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

    /// An operator is a one-stage plan: pipelined it equals `run_plan`,
    /// batch it equals `run_plan_materialized`, for every kind — CSI at a
    /// `p` whose sample is smaller than the relation, so a stage planned
    /// from census quantiles would differ from the operator's.
    #[test]
    fn single_stage_plan_equals_the_one_shot_operator() {
        use crate::{run_operator, ExecMode};
        let a = tuples(&random_keys(20_000, 200_000, 31));
        let b = tuples(&random_keys(20_000, 200_000, 32));
        let cfg = OperatorConfig {
            j: 8,
            threads: 2,
            csi: ewh_core::CsiParams {
                p: 16,
                ..Default::default()
            },
            ..Default::default()
        };
        let batch = OperatorConfig {
            mode: ExecMode::Batch,
            ..cfg.clone()
        };
        let rt = EngineRuntime::new(2);
        let band = JoinCondition::Band { beta: 2 };
        for (kind, cond) in [
            (SchemeKind::Ci, band),
            (SchemeKind::Csi, band),
            (SchemeKind::Csio, band),
            (SchemeKind::Hash, JoinCondition::Equi),
        ] {
            let first = StageSpec { kind, cond };
            let pairs = [
                (
                    run_operator(&rt, kind, &a, &b, &cond, &cfg),
                    run_plan(&rt, &a, &b, &first, &[], &cfg),
                ),
                (
                    run_operator(&rt, kind, &a, &b, &cond, &batch),
                    run_plan_materialized(&a, &b, &first, &[], &batch),
                ),
            ];
            for (op, plan) in pairs {
                let [stage] = &plan.stages[..] else {
                    panic!("{kind}: {} stages", plan.stages.len());
                };
                assert!(op.join.output_total > 0, "{kind}");
                assert_eq!(stage.num_regions, op.num_regions, "{kind}");
                assert_eq!(stage.regions, op.regions, "{kind}");
                assert_eq!(stage.join.per_worker_input, op.join.per_worker_input);
                assert_eq!(stage.join.per_worker_output, op.join.per_worker_output);
                assert_eq!(stage.join.network_tuples, op.join.network_tuples);
                assert_eq!(
                    (plan.output_total, plan.checksum),
                    (op.join.output_total, op.join.checksum),
                    "{kind}"
                );
            }
        }
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
