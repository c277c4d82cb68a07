//! The query drivers' shared parts: the stage record, region placement,
//! the batch oracle, the one accounting of region tallies, query admission
//! and the one pipelined query driver — and the operator, a one-stage plan
//! whose own code is the choice of the §VI-E CI fallback.

use std::thread;
use std::time::Instant;

use ewh_core::{
    BuildInfo, CostModel, JoinCondition, PartitionScheme, Region, RoutingTable, SchemeKind, Tuple,
    TUPLE_BYTES,
};

use crate::engine::{
    run_pipelined_io, EngineConfig, EngineIo, EngineRuntime, QueryTicket, Source, SpillBinding,
    SpillContext, StageSink,
};
use crate::local_join::KeyFrom;
use crate::plan::{self, StageSpec};
use crate::{local_join, EngineOutcome, JoinStats, Shuffled};

use super::config::{ExecMode, FallbackPolicy, OperatorConfig};
use super::stats::{PlannedStage, UNITS_PER_SEC};

/// What one stage of a query reports — the operator's only stage, or one
/// stage of a plan ([`crate::PlanRun::stages`]).
#[derive(Clone, Debug)]
pub struct OperatorRun {
    /// Scheme actually built (CI after a §VI-E fallback, and for a chain
    /// stage whose intermediate is empty — nothing to balance).
    pub kind: SchemeKind,
    pub num_regions: usize,
    /// The planned regions, with the estimates they were balanced on — a
    /// function of the inputs' key multisets and the seed, never of arrival
    /// order.
    pub regions: Vec<Region>,
    /// Shape `(a, b)` of every block of more than one region (see
    /// [`ewh_core::GridBlock`]); empty when no cell needed one.
    pub blocks: Vec<(u32, u32)>,
    pub build: BuildInfo,
    /// Modeled statistics time (scan passes + histogram algorithm), an
    /// abandoned CSIO build's included.
    pub stats_sim_secs: f64,
    /// Measured wall-clock of the stage's statistics: the scheme build,
    /// plus, in a streamed chain, its base relation's census and the census
    /// propagated to the next stage.
    pub stats_wall_secs: f64,
    /// Distinct keys of the propagated census a streamed chain stage's
    /// scheme was built from; 0 for a stage over two resident relations.
    pub sample_tuples: usize,
    pub join: JoinStats,
    /// `stats_sim_secs + join.sim_join_secs` — the paper's "total execution
    /// time".
    pub total_sim_secs: f64,
    /// Whether the adaptive operator abandoned CSIO for CI (§VI-E).
    pub fell_back: bool,
}

impl OperatorRun {
    /// The one constructor: what planning a stage reported, and what
    /// running it measured.
    pub(crate) fn new(planned: PlannedStage, join: JoinStats) -> Self {
        let scheme = planned.scheme;
        OperatorRun {
            kind: scheme.kind,
            num_regions: scheme.num_regions(),
            blocks: block_shapes(&scheme),
            regions: scheme.regions,
            build: scheme.build,
            stats_sim_secs: planned.stats_sim_secs,
            stats_wall_secs: planned.stats_wall_secs,
            sample_tuples: planned.sample_tuples,
            total_sim_secs: planned.stats_sim_secs + join.sim_join_secs,
            join,
            fell_back: planned.fell_back,
        }
    }

    /// Output/input cost ratio ρoi of the executed join.
    pub fn rho_oi(&self, n_input: u64) -> f64 {
        self.join.output_total as f64 / n_input.max(1) as f64
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

/// LPT (longest processing time first) list scheduling: assigns each
/// weighted item to one of `bins` bins, heaviest item first onto the bin
/// with the lowest projected finish time (`load / capacity`). Used for
/// region → worker placement, region → reducer-task placement in the
/// pipelined engine, and region → thread scheduling in the batch oracle.
pub fn lpt_schedule(weights: &[u64], capacities: Option<&[f64]>, bins: usize) -> Vec<u32> {
    assert!(bins >= 1, "need at least one bin");
    let caps: Vec<f64> = match capacities {
        Some(c) => {
            assert_eq!(c.len(), bins, "capacities must have one entry per bin");
            c.to_vec()
        }
        None => vec![1.0; bins],
    };
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    let mut load = vec![0u64; bins];
    let mut map = vec![0u32; weights.len()];
    for i in order {
        let w = weights[i];
        let target = (0..bins)
            .min_by(|&a, &b| {
                let fa = (load[a] + w) as f64 / caps[a];
                let fb = (load[b] + w) as f64 / caps[b];
                fa.total_cmp(&fb)
            })
            .expect("bins >= 1");
        load[target] += w;
        map[i] = target as u32;
    }
    map
}

/// Assigns regions to workers. Identity when regions ≤ workers and the
/// cluster is homogeneous; otherwise [`lpt_schedule`] on estimated region
/// weight over worker capacity.
pub fn assign_regions(
    scheme: &PartitionScheme,
    j: usize,
    capacities: Option<&[f64]>,
    cost: &CostModel,
) -> Vec<u32> {
    let n = scheme.num_regions();
    if n <= j && capacities.is_none() {
        return (0..n as u32).collect();
    }
    let weights: Vec<u64> = scheme.regions.iter().map(|r| r.est_weight(cost)).collect();
    lpt_schedule(&weights, capacities, j)
}

/// The one accounting of a stage's region tallies, batch and pipelined
/// alike: completes `join`, what the path measured (`network_tuples`
/// among it), from each region's `[input, output, checksum]`. It folds
/// input and output onto the workers of `region_to_worker`, sums the
/// output, XORs the checksums, and derives the realized max weight, the
/// simulated join time (at [`UNITS_PER_SEC`]) and the overflow flag — the
/// resident peak against the configured capacity. `mem_bytes` is the
/// modeled full-shuffle footprint of `network_tuples`.
fn tally_regions(
    join: JoinStats,
    [input, output, checksum]: [&[u64]; 3],
    region_to_worker: &[u32],
    peak_resident_bytes: u64,
    cfg: &OperatorConfig,
) -> JoinStats {
    debug_assert_eq!(region_to_worker.len(), input.len());
    let mut per_worker_input = vec![0u64; cfg.j];
    let mut per_worker_output = vec![0u64; cfg.j];
    for (r, &worker) in region_to_worker.iter().enumerate() {
        per_worker_input[worker as usize] += input[r];
        per_worker_output[worker as usize] += output[r];
    }
    let mut stats = JoinStats {
        output_total: output.iter().sum(),
        checksum: checksum.iter().fold(0, |acc, &c| acc ^ c),
        per_worker_input,
        per_worker_output,
        mem_bytes: join.network_tuples * TUPLE_BYTES,
        peak_resident_bytes,
        overflowed: cfg
            .mem_capacity_bytes
            .is_some_and(|cap| peak_resident_bytes > cap),
        ..join
    };
    stats.compute_max_weight(&cfg.cost);
    stats.sim_join_secs = CostModel::milli_to_secs(stats.max_weight_milli, UNITS_PER_SEC);
    stats
}

/// The batch join core behind [`execute_join`] and the plan baseline's
/// emitting variant: joins the shuffled regions across threads with a
/// caller-supplied per-region join (which may carry extra output `R`, e.g.
/// a materialized intermediate) and assembles the complete [`JoinStats`].
pub(crate) fn execute_join_with<R: Send>(
    mut shuffled: Shuffled,
    region_to_worker: &[u32],
    cfg: &OperatorConfig,
    join_region: impl Fn(&mut Vec<Tuple>, &mut Vec<Tuple>) -> (u64, u64, R) + Sync,
) -> (JoinStats, Vec<(usize, R)>) {
    let per_region_input = shuffled.per_region_input();
    let network_tuples = shuffled.network_tuples;
    // Batch execution holds the full shuffle resident while joining.
    let peak_resident_bytes = shuffled.mem_bytes();

    let start = Instant::now();
    let n_regions = shuffled.r1.len();
    let threads = cfg.threads.max(1).min(n_regions.max(1));
    // Schedule regions onto threads LPT-by-input-weight: a round-robin
    // interleave strands cores when one region dominates (the hot region
    // plus its round-robin neighbors pile onto one thread while others sit
    // idle).
    let thread_of = lpt_schedule(&per_region_input, None, threads);
    type RegionBucket<'a> = (usize, &'a mut Vec<Tuple>, &'a mut Vec<Tuple>);
    let join_region = &join_region;
    let results: Vec<(usize, u64, u64, R)> = thread::scope(|s| {
        let buckets: Vec<RegionBucket<'_>> = shuffled
            .r1
            .iter_mut()
            .zip(shuffled.r2.iter_mut())
            .enumerate()
            .map(|(r, (a, b))| (r, a, b))
            .collect();
        let mut per_thread: Vec<Vec<RegionBucket<'_>>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, item) in buckets.into_iter().enumerate() {
            per_thread[thread_of[i] as usize].push(item);
        }
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|mine| {
                s.spawn(move || {
                    mine.into_iter()
                        .map(|(r, r1, r2)| {
                            let (count, sum, extra) = join_region(r1, r2);
                            (r, count, sum, extra)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("join worker panicked"))
            .collect()
    });
    let wall_join_secs = start.elapsed().as_secs_f64();

    let mut per_region_output = vec![0u64; n_regions];
    let mut per_region_checksum = vec![0u64; n_regions];
    let mut extras = Vec::with_capacity(results.len());
    for (r, count, sum, extra) in results {
        per_region_output[r] = count;
        per_region_checksum[r] = sum;
        extras.push((r, extra));
    }
    let measured = JoinStats {
        wall_join_secs,
        network_tuples,
        ..JoinStats::default()
    };
    let regions = [&per_region_input, &per_region_output, &per_region_checksum];
    let stats = tally_regions(
        measured,
        regions.map(Vec::as_slice),
        region_to_worker,
        peak_resident_bytes,
        cfg,
    );
    (stats, extras)
}

/// Executes the local joins across threads; returns complete [`JoinStats`].
/// Joins run per *region* (the unit of correctness), and per-worker loads
/// aggregate over `region_to_worker`.
pub fn execute_join(
    shuffled: Shuffled,
    cond: &JoinCondition,
    region_to_worker: &[u32],
    cfg: &OperatorConfig,
) -> JoinStats {
    let work = cfg.output_work;
    let (stats, _) = execute_join_with(shuffled, region_to_worker, cfg, |r1, r2| {
        let (count, sum) = local_join(r1, r2, cond, work);
        (count, sum, ())
    });
    stats
}

/// Derives one pipelined stage's engine configuration and initial
/// region → reducer routing table from the operator config.
///
/// Initial reducer-task placement is LPT by estimated region weight, so a
/// hot region gets a task to itself instead of queueing behind siblings;
/// it is published through the epoch-versioned routing table, which the
/// migration coordinator may rewrite at run time.
fn engine_setup(scheme: &PartitionScheme, cfg: &OperatorConfig) -> (EngineConfig, RoutingTable) {
    let n_regions = scheme.num_regions();
    let mut engine_cfg = EngineConfig::for_tasks(cfg.threads, cfg.morsel_tuples, cfg.seed ^ 0x5F);
    engine_cfg.queue_tuples = cfg.queue_tuples;
    engine_cfg.work = cfg.output_work;
    engine_cfg.reducers = engine_cfg.reducers.min(n_regions.max(1));
    engine_cfg.adaptive = cfg.adaptive;
    engine_cfg.straggler = cfg.straggler;
    engine_cfg.transport = cfg.transport;
    let weights: Vec<u64> = scheme
        .regions
        .iter()
        .map(|r| r.est_weight(&cfg.cost))
        .collect();
    let table = RoutingTable::new(&lpt_schedule(&weights, None, engine_cfg.reducers));
    (engine_cfg, table)
}

/// One admitted query on the shared runtime: its ticket (admission slot,
/// memory gauge, cancel token, scoped spill directory) and, when a spill
/// budget binds, the spill context that goes with it. A query holds one for
/// all of its stages — they charge one gauge, so the budget bounds the
/// query-global footprint and any stage may be picked as the spill victim,
/// and they share one token, so a failure in any stage cancels them all.
pub(crate) struct AdmittedQuery<'rt> {
    /// The spill context and the budget, in tuples, that binds it.
    /// Declared before the ticket so it drops first: the segment closes
    /// before the ticket removes the directory it lives in.
    pub spill: Option<(SpillContext, u64)>,
    pub ticket: QueryTicket<'rt>,
}

impl<'rt> AdmittedQuery<'rt> {
    /// Admits the query (blocking the client thread), requesting the
    /// configured memory capacity as its budget slice. It spills under
    /// whichever budget binds: an explicit operator override, else the
    /// slice admission carved from the runtime's global budget. The spill
    /// context lives in the ticket's scoped temp dir, removed wholesale
    /// when the ticket drops — success, cancel and panic paths alike.
    pub fn admit(rt: &'rt EngineRuntime, cfg: &OperatorConfig) -> Self {
        let ticket = rt.admit(cfg.mem_capacity_bytes.map(|b| (b / TUPLE_BYTES).max(1)));
        let budget_tuples = cfg.spill.budget_tuples.or(ticket.budget_tuples());
        let spill = budget_tuples.map(|budget_tuples| {
            let dir = ticket.spill_dir(cfg.spill.temp_dir.as_deref());
            let ctx = SpillContext::new(dir.to_path_buf(), cfg.spill.fail_after_bytes);
            (ctx, budget_tuples)
        });
        AdmittedQuery { spill, ticket }
    }

    /// The binding every stage of the query spills under.
    fn spill_binding(&self) -> Option<SpillBinding<'_>> {
        let (ctx, budget_tuples) = self.spill.as_ref()?;
        Some(SpillBinding {
            budget_tuples: *budget_tuples,
            ctx,
        })
    }
}

/// One stage of a pipelined query as its driver wires it: a scanned build
/// side, a probe [`Source`], the scheme it was planned with, and where its
/// probe output streams (`None` for a query's last stage).
pub(crate) struct StageIo<'a> {
    pub r1: &'a [Tuple],
    pub r2: Source<'a>,
    pub scheme: &'a PartitionScheme,
    pub cond: &'a JoinCondition,
    pub key_from: KeyFrom,
    pub sink: Option<StageSink<'a>>,
}

/// Runs every stage of an admitted query — placement, engine, accounting —
/// as the tasks of one scope on the shared `rt` pool, never on threads of
/// its own; the calling thread only waits for that scope. A stage's output
/// exchange is closed by its own last reducer, which is what terminates
/// the downstream stage.
///
/// Never materializes the full shuffle: `mem_bytes` still reports the
/// modeled full-materialization footprint for comparability with the batch
/// path, `peak_resident_bytes` what the query's gauge actually held at its
/// high-water mark.
///
/// This is the one place a failed query — a spill I/O failure or a dead
/// or corrupt transport link in any of its stages tripped the ticket's
/// token, and every pool task unwound through the normal abort protocol —
/// resurfaces: as a panic carrying the token's reason, on the calling
/// thread, where a caller can catch it at the query join.
pub(crate) fn run_stages(
    rt: &EngineRuntime,
    query: &AdmittedQuery<'_>,
    stages: &[StageIo<'_>],
    cfg: &OperatorConfig,
) -> Vec<JoinStats> {
    let setups: Vec<(EngineConfig, RoutingTable)> = stages
        .iter()
        .map(|stage| engine_setup(stage.scheme, cfg))
        .collect();
    if let Some(links) = &cfg.links {
        for (engine, _) in &setups {
            assert!(
                links.len() >= engine.reducers,
                "links must cover every reducer task: {} < {}",
                links.len(),
                engine.reducers
            );
        }
    }
    let runs = stages
        .iter()
        .zip(&setups)
        .map(|(stage, (engine_cfg, table))| {
            let io = EngineIo {
                r1: stage.r1,
                r2: stage.r2,
                router: &stage.scheme.router,
                cond: stage.cond,
                table,
                sink: stage.sink,
                key_from: stage.key_from,
                gauge: query.ticket.gauge(),
                cancel: query.ticket.cancel(),
                spill: query.spill_binding(),
                links: cfg.links.as_deref(),
            };
            (io, *engine_cfg)
        });
    let outs = run_pipelined_io(rt, runs);
    if let Some(out) = outs.iter().find(|out| out.cancelled) {
        // Nothing outside the query holds its token: the query failed.
        let why = out.failure.as_deref().unwrap_or("an unrecorded failure");
        panic!("query cancelled by {why}");
    }
    let tally = |(out, stage): (EngineOutcome, &StageIo<'_>)| {
        let map = assign_regions(stage.scheme, cfg.j, cfg.capacities.as_deref(), &cfg.cost);
        let regions = [
            &out.per_region_input,
            &out.per_region_output,
            &out.per_region_checksum,
        ];
        let peak_resident_bytes = out.peak_resident_tuples * TUPLE_BYTES;
        tally_regions(
            out.stats,
            regions.map(Vec::as_slice),
            &map,
            peak_resident_bytes,
            cfg,
        )
    };
    outs.into_iter().zip(stages).map(tally).collect()
}

/// Runs the full operator with the given scheme kind: a one-stage plan.
/// Under [`ExecMode::Pipelined`] it runs what [`crate::run_plan`] runs with
/// an empty chain — one admitted query whose stage executes as the tasks of
/// one scope on `rt`'s shared pool; under
/// [`ExecMode::Batch`] what [`crate::run_plan_materialized`] runs. The
/// stage's `join.admission_wait_secs` is the query's admission wait.
pub fn run_operator(
    rt: &EngineRuntime,
    kind: SchemeKind,
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    cfg: &OperatorConfig,
) -> OperatorRun {
    run(rt, kind, None, r1, r2, cond, cfg)
}

/// Runs CSIO with the CI fallback policy.
///
/// Stream-Sample learns the exact `m` during statistics — before the first
/// morsel is claimed — so abandoning CSIO costs its statistics time and
/// nothing else: the CI run routes every morsel exactly once and no tuple
/// is ever shuffled twice.
pub fn run_operator_adaptive(
    rt: &EngineRuntime,
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    cfg: &OperatorConfig,
    policy: &FallbackPolicy,
) -> OperatorRun {
    run(rt, SchemeKind::Csio, Some(policy), r1, r2, cond, cfg)
}

/// The operator behind both entry points: a one-stage plan in the
/// configured mode, its root planned under the fallback policy if any.
fn run(
    rt: &EngineRuntime,
    kind: SchemeKind,
    fallback: Option<&FallbackPolicy>,
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    cfg: &OperatorConfig,
) -> OperatorRun {
    let root = StageSpec { kind, cond: *cond };
    let mut query = match cfg.mode {
        ExecMode::Pipelined => plan::pipelined(rt, r1, r2, &root, &[], cfg, fallback),
        ExecMode::Batch => plan::materialized(r1, r2, &root, &[], cfg, fallback),
    };
    let mut stage = query.stages.pop().expect("a one-stage plan");
    stage.join.admission_wait_secs = query.total.admission_wait_secs;
    stage
}

#[cfg(test)]
mod tests {
    use super::super::stats::build_scheme_from_keys;
    use super::*;
    use crate::engine::testkit::{random_keys, test_rt, tuples};
    use crate::shuffle;
    use ewh_core::{JoinMatrix, Key};

    #[test]
    fn all_schemes_produce_the_exact_join_output() {
        let k1 = random_keys(4000, 1000, 1);
        let k2 = random_keys(4000, 1000, 2);
        let cond = JoinCondition::Band { beta: 1 };
        let expect = JoinMatrix::new(k1.clone(), k2.clone(), cond).output_count();
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let cfg = OperatorConfig {
            j: 6,
            threads: 2,
            ..Default::default()
        };
        let rt = test_rt();
        for kind in [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio] {
            let run = run_operator(&rt, kind, &r1, &r2, &cond, &cfg);
            assert_eq!(run.join.output_total, expect, "{kind}");
            // Simulated join time is the slowest worker's weight at the
            // fixed processing rate.
            let rate_secs = run.join.max_weight_milli as f64 / 1000.0 / UNITS_PER_SEC;
            assert_eq!(run.join.sim_join_secs, rate_secs, "{kind}");
            assert!(run.total_sim_secs >= run.join.sim_join_secs);
        }
    }

    #[test]
    fn ci_and_content_sensitive_same_checksum() {
        // The checksum is an order-invariant fold over all output tuples, so
        // any correct scheme must produce the same value.
        let k1 = random_keys(2000, 400, 3);
        let k2 = random_keys(2000, 400, 4);
        let cond = JoinCondition::Equi;
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let cfg = OperatorConfig {
            j: 4,
            threads: 2,
            ..Default::default()
        };
        let rt = test_rt();
        let a = run_operator(&rt, SchemeKind::Ci, &r1, &r2, &cond, &cfg);
        let b = run_operator(&rt, SchemeKind::Csio, &r1, &r2, &cond, &cfg);
        let c = run_operator(&rt, SchemeKind::Csi, &r1, &r2, &cond, &cfg);
        assert_eq!(a.join.checksum, b.join.checksum);
        assert_eq!(a.join.checksum, c.join.checksum);
    }

    #[test]
    fn csio_beats_csi_under_join_product_skew() {
        // A hot key segment (JPS): CSI balances input only and must end up
        // with a heavier max worker than CSIO.
        let mut k1 = random_keys(8000, 8000, 5);
        let mut k2 = random_keys(8000, 8000, 6);
        for i in 0..2000 {
            k1[i] = 4000 + (i as i64 % 50);
            k2[i] = 4000 + (i as i64 * 3 % 50);
        }
        let cond = JoinCondition::Band { beta: 2 };
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let cfg = OperatorConfig {
            j: 8,
            threads: 2,
            ..Default::default()
        };
        let rt = test_rt();
        let csi = run_operator(&rt, SchemeKind::Csi, &r1, &r2, &cond, &cfg);
        let csio = run_operator(&rt, SchemeKind::Csio, &r1, &r2, &cond, &cfg);
        assert_eq!(csi.join.output_total, csio.join.output_total);
        assert!(
            csio.join.max_weight_milli < csi.join.max_weight_milli,
            "CSIO {} !< CSI {}",
            csio.join.max_weight_milli,
            csi.join.max_weight_milli
        );
    }

    #[test]
    fn ci_network_volume_exceeds_csio() {
        let k1 = random_keys(4000, 2000, 7);
        let k2 = random_keys(4000, 2000, 8);
        let cond = JoinCondition::Band { beta: 1 };
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let cfg = OperatorConfig {
            j: 16,
            threads: 2,
            ..Default::default()
        };
        let rt = test_rt();
        let ci = run_operator(&rt, SchemeKind::Ci, &r1, &r2, &cond, &cfg);
        let csio = run_operator(&rt, SchemeKind::Csio, &r1, &r2, &cond, &cfg);
        assert!(
            ci.join.network_tuples > 2 * csio.join.network_tuples,
            "CI {} vs CSIO {}",
            ci.join.network_tuples,
            csio.join.network_tuples
        );
    }

    #[test]
    fn heterogeneous_assignment_respects_capacity() {
        let k1 = random_keys(6000, 3000, 9);
        let k2 = random_keys(6000, 3000, 10);
        let cond = JoinCondition::Band { beta: 1 };
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        // Worker 0 is 4x faster; build 8 regions for 2 workers.
        let cfg = OperatorConfig {
            j: 2,
            threads: 2,
            j_regions: Some(8),
            capacities: Some(vec![4.0, 1.0]),
            ..Default::default()
        };
        let run = run_operator(&test_rt(), SchemeKind::Csio, &r1, &r2, &cond, &cfg);
        let expect = JoinMatrix::new(k1, k2, cond).output_count();
        assert_eq!(run.join.output_total, expect);
        // The fast worker should carry more input than the slow one.
        assert!(run.join.per_worker_input[0] > run.join.per_worker_input[1]);
    }

    #[test]
    fn adaptive_falls_back_on_high_selectivity() {
        // Cross-product-like join: every key matches everything.
        let k1 = vec![0i64; 2000];
        let k2 = vec![0i64; 2000];
        let cond = JoinCondition::Equi;
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let cfg = OperatorConfig {
            j: 4,
            threads: 2,
            ..Default::default()
        };
        let rt = test_rt();
        let run = run_operator_adaptive(&rt, &r1, &r2, &cond, &cfg, &FallbackPolicy::default());
        assert!(run.fell_back, "rho = 2000 should trigger the CI fallback");
        assert_eq!(run.kind, SchemeKind::Ci);
        assert_eq!(run.join.output_total, 4_000_000);

        // A low-selectivity join must not fall back.
        let k1: Vec<Key> = (0..2000).collect();
        let (r1b, r2b) = (tuples(&k1), tuples(&k1));
        let run = run_operator_adaptive(&rt, &r1b, &r2b, &cond, &cfg, &FallbackPolicy::default());
        assert!(!run.fell_back);
        assert_eq!(run.kind, SchemeKind::Csio);
    }

    #[test]
    fn memory_overflow_is_flagged() {
        let k1 = random_keys(1000, 500, 11);
        let (r1, r2) = (tuples(&k1), tuples(&k1));
        let cond = JoinCondition::Equi;
        let cfg = OperatorConfig {
            j: 4,
            mem_capacity_bytes: Some(1), // absurdly small
            ..Default::default()
        };
        let run = run_operator(&test_rt(), SchemeKind::Ci, &r1, &r2, &cond, &cfg);
        assert!(run.join.overflowed);
    }

    #[test]
    fn a_stage_gets_threads_mappers_and_threads_reducers_and_every_reducer_has_input() {
        for t in [0, 1, 2, 3, 5, 8] {
            let engine = EngineConfig::for_tasks(t, 1024, 7);
            assert_eq!((engine.mappers, engine.reducers), (t.max(1), t.max(1)));
        }
        let k1 = random_keys(6000, 3000, 41);
        let k2 = random_keys(6000, 3000, 42);
        let cond = JoinCondition::Band { beta: 2 };
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        // The benchmark's shape: as many workers as `threads` at 2.
        let rt = EngineRuntime::new(2);
        for threads in [1, 2, 3, 5] {
            let cfg = OperatorConfig {
                j: 8,
                threads,
                ..Default::default()
            };
            let batch_cfg = OperatorConfig {
                mode: ExecMode::Batch,
                ..cfg.clone()
            };
            let batch = run_operator(&rt, SchemeKind::Csio, &r1, &r2, &cond, &batch_cfg);
            let pipe = run_operator(&rt, SchemeKind::Csio, &r1, &r2, &cond, &cfg);
            assert!(batch.join.output_total > 0);
            assert_eq!(
                (pipe.join.output_total, pipe.join.checksum),
                (batch.join.output_total, batch.join.checksum),
                "threads {threads}"
            );
            assert_eq!(pipe.join.reducer_busy_secs.len(), threads);
            assert_eq!(pipe.join.reducer_idle_secs.len(), threads);

            // The placement the stage ran under: every reducer owns regions
            // that receive input (the scheme does not depend on `threads`).
            let (scheme, _) =
                build_scheme_from_keys(SchemeKind::Csio, &k1, &k2, 6000, 6000, &cond, &cfg);
            let (engine, table) = engine_setup(&scheme, &cfg);
            assert_eq!((engine.mappers, engine.reducers), (threads, threads));
            let region_input = shuffle(&r1, &r2, &scheme, 1, cfg.seed).per_region_input();
            let mut reducer_input = vec![0u64; engine.reducers];
            for (region, &owner) in table.snapshot().iter().enumerate() {
                reducer_input[owner as usize] += region_input[region];
            }
            assert!(
                reducer_input.iter().all(|&n| n > 0),
                "threads {threads}: {reducer_input:?}"
            );
        }
    }

    #[test]
    fn a_key_sample_is_weighed_as_the_relation_it_stands_for() {
        // `n2` is the relation's size, `k2` may be a sample of it: ten times
        // the cardinality is ten times the estimated output, under CSIO
        // (census counts) and CSI (bucket units) alike — and a slice passed
        // with its own length is the relation, built as `build_csio` builds.
        let k1 = random_keys(4000, 600, 31);
        let k2 = random_keys(500, 600, 32);
        let cond = JoinCondition::Band { beta: 1 };
        let cfg = OperatorConfig {
            j: 6,
            threads: 2,
            ..Default::default()
        };
        let build = |kind, n2: u64| {
            let (scheme, _) = build_scheme_from_keys(kind, &k1, &k2, 4000, n2, &cond, &cfg);
            scheme
        };
        let (own, tenfold) = (build(SchemeKind::Csio, 500), build(SchemeKind::Csio, 5000));
        assert!(own.build.m_est > 0);
        assert_eq!(tenfold.build.m_est, 10 * own.build.m_est);
        let probe_input = |s: &PartitionScheme| s.regions.iter().map(|r| r.est_input).sum::<u64>();
        assert!(probe_input(&tenfold) > probe_input(&own) + 4000);
        let csi_unit = |s: &PartitionScheme| s.regions.iter().map(|r| r.est_input).max().unwrap();
        assert!(csi_unit(&build(SchemeKind::Csi, 5000)) > csi_unit(&build(SchemeKind::Csi, 500)));

        let params = ewh_core::HistogramParams {
            j: 6,
            seed: cfg.seed,
            threads: cfg.threads,
            ..cfg.hist
        };
        let direct = ewh_core::build_csio(&k1, &k2, &cond, &cfg.cost, &params);
        assert_eq!(own.regions, direct.regions);
        assert_eq!(own.build.m_est, direct.build.m_est);
        assert_eq!(own.build.delta, direct.build.delta);
    }

    #[test]
    fn sampled_scheme_build_routes_every_key() {
        // A scheme built from a *sample* of one side must still produce the
        // exact join (grid routers clamp out-of-sample keys into the
        // boundary regions) — the property the chained plan executor's
        // online statistics rely on.
        let k1 = random_keys(3000, 900, 21);
        let k2 = random_keys(3000, 900, 22);
        let sample: Vec<Key> = k2.iter().copied().step_by(7).collect();
        let cond = JoinCondition::Band { beta: 1 };
        let (r1, r2) = (tuples(&k1), tuples(&k2));
        let expect = JoinMatrix::new(k1.clone(), k2.clone(), cond).output_count();
        let cfg = OperatorConfig {
            j: 6,
            threads: 2,
            ..Default::default()
        };
        let rt = test_rt();
        for kind in [
            SchemeKind::Ci,
            SchemeKind::Csi,
            SchemeKind::Csio,
            SchemeKind::Hash,
        ] {
            let (scheme, _) = build_scheme_from_keys(
                kind,
                &k1,
                &sample,
                r1.len() as u64,
                r2.len() as u64,
                &cond,
                &cfg,
            );
            let query = AdmittedQuery::admit(&rt, &cfg);
            let stage = StageIo {
                r1: &r1,
                r2: Source::Scan(&r2),
                scheme: &scheme,
                cond: &cond,
                key_from: KeyFrom::Probe,
                sink: None,
            };
            let stats = run_stages(&rt, &query, &[stage], &cfg);
            assert_eq!(stats[0].output_total, expect, "{kind}");
        }
    }

    /// Every stage of a query runs under the ticket's token: once a failure
    /// has tripped it, any stage of the query — however healthy its own
    /// inputs — is cancelled, and its join re-raises the query's reason.
    #[test]
    fn a_stage_of_a_failed_query_is_cancelled_with_the_query_reason() {
        let k = random_keys(2000, 500, 41);
        let r = tuples(&k);
        let cond = JoinCondition::Equi;
        let cfg = OperatorConfig {
            j: 4,
            threads: 2,
            ..Default::default()
        };
        let (scheme, _) = build_scheme_from_keys(SchemeKind::Ci, &k, &k, 2000, 2000, &cond, &cfg);
        let rt = test_rt();
        let query = AdmittedQuery::admit(&rt, &cfg);
        let why = "spill failure: in another stage";
        query.ticket.cancel().fail(why.into());
        let stage = StageIo {
            r1: &r,
            r2: Source::Scan(&r),
            scheme: &scheme,
            cond: &cond,
            key_from: KeyFrom::Probe,
            sink: None,
        };
        let stage = || run_stages(&rt, &query, &[stage], &cfg);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(stage))
            .expect_err("a stage of a failed query must not complete");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, format!("query cancelled by {why}"));
    }
}
