//! Execution drivers: region placement, the batch oracle, query admission
//! and the one pipelined stage driver (shared with the plan executor), and
//! the adaptive CI fallback.

use std::thread;
use std::time::Instant;

use ewh_core::{
    ColumnBatch, JoinCondition, PartitionScheme, RoutingTable, SchemeKind, Tuple, TUPLE_BYTES,
};

use crate::engine::{
    run_pipelined_io, AbandonOnDrop, CloseOnDrop, EngineConfig, EngineIo, EngineOutcome,
    EngineRuntime, MorselPlan, QueryTicket, Source, SpillContext, StageSink,
};
use crate::local_join::KeyFrom;
use crate::{local_join, shuffle, JoinStats, Shuffled};

use super::config::{ExecMode, FallbackPolicy, OperatorConfig};
use super::stats::{build_scheme, build_scheme_from_keys, stats_sim_secs};

/// A completed operator run.
#[derive(Clone, Debug)]
pub struct OperatorRun {
    pub kind: SchemeKind,
    pub num_regions: usize,
    pub build: ewh_core::BuildInfo,
    /// Modeled statistics time (scan passes + measured histogram algorithm).
    pub stats_sim_secs: f64,
    /// Measured wall-clock of building the scheme.
    pub stats_wall_secs: f64,
    pub join: JoinStats,
    /// `stats_sim_secs + join.sim_join_secs` — the paper's "total execution
    /// time".
    pub total_sim_secs: f64,
    /// Whether the adaptive operator abandoned CSIO for CI (§VI-E).
    pub fell_back: bool,
}

impl OperatorRun {
    /// Output/input cost ratio ρoi of the executed join.
    pub fn rho_oi(&self, n_input: u64) -> f64 {
        self.join.output_total as f64 / n_input.max(1) as f64
    }
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
    cost: &ewh_core::CostModel,
) -> Vec<u32> {
    let n = scheme.num_regions();
    if n <= j && capacities.is_none() {
        return (0..n as u32).collect();
    }
    let weights: Vec<u64> = scheme.regions.iter().map(|r| r.est_weight(cost)).collect();
    lpt_schedule(&weights, capacities, j)
}

/// The batch join core behind [`execute_join`] and the plan baseline's
/// emitting variant: joins the shuffled regions across threads with a
/// caller-supplied per-region join (which may carry extra output `R`, e.g.
/// a materialized intermediate) and assembles the complete [`JoinStats`].
/// There is exactly one copy of this accounting — the batch oracle and the
/// materialize-between-operators baseline cannot drift apart.
pub(crate) fn execute_join_with<R: Send>(
    mut shuffled: Shuffled,
    region_to_worker: &[u32],
    cfg: &OperatorConfig,
    join_region: impl Fn(&mut Vec<Tuple>, &mut Vec<Tuple>) -> (u64, u64, R) + Sync,
) -> (JoinStats, Vec<(usize, R)>) {
    let per_region_input = shuffled.per_region_input();
    let network_tuples = shuffled.network_tuples;
    let mem_bytes = shuffled.mem_bytes();

    let start = Instant::now();
    let n_regions = shuffled.r1.len();
    debug_assert_eq!(region_to_worker.len(), n_regions);
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

    let mut per_worker_input = vec![0u64; cfg.j];
    let mut per_worker_output = vec![0u64; cfg.j];
    for (r, &input) in per_region_input.iter().enumerate() {
        per_worker_input[region_to_worker[r] as usize] += input;
    }
    let mut checksum = 0u64;
    let mut output_total = 0u64;
    let mut extras = Vec::with_capacity(results.len());
    for (r, count, sum, extra) in results {
        per_worker_output[region_to_worker[r] as usize] += count;
        output_total += count;
        checksum ^= sum;
        extras.push((r, extra));
    }

    let mut stats = JoinStats {
        output_total,
        per_worker_input,
        per_worker_output,
        network_tuples,
        mem_bytes,
        // Batch execution holds the full shuffle resident while joining.
        peak_resident_bytes: mem_bytes,
        overflowed: cfg.mem_capacity_bytes.is_some_and(|cap| mem_bytes > cap),
        wall_join_secs,
        checksum,
        ..Default::default()
    };
    stats.compute_max_weight(&cfg.cost);
    stats.sim_join_secs =
        ewh_core::CostModel::milli_to_secs(stats.max_weight_milli, cfg.units_per_sec);
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

/// Folds a completed engine run into the operator's [`JoinStats`]
/// accounting: per-region tallies aggregate to per-worker loads over
/// `region_to_worker`, volumes convert to bytes, and the simulated join
/// time is recomputed from the realized weights.
fn stats_from_outcome(
    out: &EngineOutcome,
    region_to_worker: &[u32],
    cfg: &OperatorConfig,
) -> JoinStats {
    let n_regions = out.per_region_input.len();
    debug_assert_eq!(region_to_worker.len(), n_regions);
    let mut per_worker_input = vec![0u64; cfg.j];
    let mut per_worker_output = vec![0u64; cfg.j];
    for r in 0..n_regions {
        per_worker_input[region_to_worker[r] as usize] += out.per_region_input[r];
        per_worker_output[region_to_worker[r] as usize] += out.per_region_output[r];
    }
    let mem_bytes = out.network_tuples * TUPLE_BYTES;
    let peak_resident_bytes = out.peak_resident_tuples * TUPLE_BYTES;
    let mut stats = JoinStats {
        output_total: out.output_total(),
        per_worker_input,
        per_worker_output,
        network_tuples: out.network_tuples,
        mem_bytes,
        peak_resident_bytes,
        overflowed: cfg
            .mem_capacity_bytes
            .is_some_and(|cap| peak_resident_bytes > cap),
        wall_join_secs: out.wall_secs,
        checksum: out.checksum(),
        morsels_routed: out.morsels_routed,
        regions_migrated: out.regions_migrated,
        migration_tuples: out.migration_tuples,
        migration_secs: out.migration_secs,
        backpressure_secs: out.backpressure_secs,
        route_secs: out.route_secs,
        merge_secs: out.merge_secs,
        sweep_secs: out.sweep_secs,
        reducer_busy_secs: out.busy_secs.clone(),
        reducer_idle_secs: out.idle_secs.clone(),
        wire_bytes: out.wire_bytes,
        ..Default::default()
    };
    stats.set_spill(&out.spill);
    stats.compute_max_weight(&cfg.cost);
    stats.sim_join_secs =
        ewh_core::CostModel::milli_to_secs(stats.max_weight_milli, cfg.units_per_sec);
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
/// memory gauge, scoped spill directory), the spill budget that binds, and
/// the spill context that goes with it. An operator holds one for its one
/// stage, a plan one for all of its stages — they charge one gauge, so the
/// budget bounds the plan-global footprint and any stage may be picked as
/// the spill victim.
pub(crate) struct AdmittedQuery<'rt> {
    /// Declared before the ticket so it drops first: the segment closes
    /// before the ticket removes the directory it lives in.
    pub spill: Option<SpillContext>,
    pub budget_tuples: Option<u64>,
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
        let spill = budget_tuples.map(|_| {
            SpillContext::new(
                ticket
                    .spill_dir(cfg.spill.temp_dir.as_deref())
                    .to_path_buf(),
                cfg.spill.fail_after_bytes,
            )
        });
        AdmittedQuery {
            spill,
            budget_tuples,
            ticket,
        }
    }
}

/// Runs one pipelined stage of an admitted query — placement, engine,
/// accounting — as task batches on the shared `rt` pool, never on threads
/// of its own; the calling thread only orchestrates. `sink` is where the
/// stage's probe output streams (`None` for a final or only stage); it is
/// closed when the engine returns — or unwinds — which is what terminates
/// the downstream operator.
///
/// Mirrors [`execute_join`]'s accounting while never materializing the
/// full shuffle: `mem_bytes` still reports the modeled full-materialization
/// footprint for comparability, `peak_resident_bytes` what the query's
/// gauge actually held at its high-water mark.
///
/// This is the one place an engine run that cancelled itself — a spill
/// I/O failure, a dead or corrupt transport link; every pool task unwound
/// through the normal abort protocol — resurfaces: as a panic carrying the
/// reason, on the driving thread, where a caller can catch it at the query
/// join.
#[allow(clippy::too_many_arguments)] // one stage's wiring, used once each
pub(crate) fn run_stage(
    rt: &EngineRuntime,
    query: &AdmittedQuery<'_>,
    r1: Source<'_>,
    r2: Source<'_>,
    scheme: &PartitionScheme,
    cond: &JoinCondition,
    key_from: KeyFrom,
    sink: Option<StageSink<'_>>,
    cfg: &OperatorConfig,
) -> JoinStats {
    // Teardown guards, armed before anything can panic: close this stage's
    // output (so the downstream consumer terminates) and abandon its input
    // (so the upstream producer can never stay blocked in `push` against a
    // consumer that unwound). Both are harmless after normal completion.
    let close_guard = sink.map(CloseOnDrop);
    let _abandon_guard = AbandonOnDrop(r2.exchange());
    let (engine_cfg, table) = engine_setup(scheme, cfg);
    if let Some(links) = &cfg.links {
        assert!(
            links.len() >= engine_cfg.reducers,
            "links must cover every reducer task: {} < {}",
            links.len(),
            engine_cfg.reducers
        );
    }
    let plan = MorselPlan::new(
        r1.scan_cols().len(),
        r2.scan_cols().len(),
        cfg.morsel_tuples,
    );
    let out = run_pipelined_io(
        rt,
        EngineIo {
            r1,
            r2,
            router: &scheme.router,
            cond,
            table: &table,
            plan: &plan,
            sink,
            key_from,
            gauge: Some(query.ticket.gauge()),
            cancel: None,
            budget_tuples: query.budget_tuples,
            spill: query.spill.as_ref(),
            links: cfg.links.as_deref(),
        },
        &engine_cfg,
    );
    if out.cancelled {
        // No cancel token goes in above, so the engine cancelled itself.
        let why = out.failure.as_deref().unwrap_or("an unrecorded failure");
        panic!("query cancelled by {why}");
    }
    drop(close_guard); // close the downstream exchange: upstream quiescence
    let map = assign_regions(scheme, cfg.j, cfg.capacities.as_deref(), &cfg.cost);
    stats_from_outcome(&out, &map, cfg)
}

/// Runs the full operator with the given scheme kind, as one *admitted
/// query* on the shared runtime: the pipelined engine's tasks execute on
/// `rt`'s fixed worker pool (never on per-query threads), gated by the
/// runtime's admission queue, with the query's memory charged to the
/// gauge of the ticket it was granted.
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

/// The operator behind both entry points: statistics, the fallback decision
/// when there is a policy, then the join in the configured mode.
fn run(
    rt: &EngineRuntime,
    kind: SchemeKind,
    fallback: Option<&FallbackPolicy>,
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    cfg: &OperatorConfig,
) -> OperatorRun {
    // Pipelined mode transposes each side once, up front: statistics read
    // the key columns and the engine routes, sorts, and sweeps the same
    // batches, so no side is copied a second time. Batch mode works on rows.
    let cols = matches!(cfg.mode, ExecMode::Pipelined)
        .then(|| (ColumnBatch::from_tuples(r1), ColumnBatch::from_tuples(r2)));
    let (n1, n2) = (r1.len() as u64, r2.len() as u64);
    let n = n1.max(n2);
    let (mut scheme, mut stats_wall_secs) = match &cols {
        Some((c1, c2)) => build_scheme_from_keys(kind, c1.keys(), c2.keys(), n1, n2, cond, cfg),
        None => build_scheme(kind, r1, r2, cond, cfg),
    };
    let rho = scheme.build.m_est as f64 / n.max(1) as f64;
    let fell_back = fallback.is_some_and(|policy| rho > policy.rho_threshold);
    let mut wasted_sim = 0.0;
    if fell_back {
        // Abandon CSIO: keep its (wasted) stats cost on the books, run CI —
        // which reads the cardinalities and no key.
        wasted_sim = stats_sim_secs(&scheme, n, cfg);
        let (ci, ci_wall) = build_scheme_from_keys(SchemeKind::Ci, &[], &[], n1, n2, cond, cfg);
        scheme = ci;
        stats_wall_secs += ci_wall;
    }
    let join = match &cols {
        None => {
            let map = assign_regions(&scheme, cfg.j, cfg.capacities.as_deref(), &cfg.cost);
            let shuffled = shuffle(r1, r2, &scheme, cfg.threads, cfg.seed ^ 0x5F);
            execute_join(shuffled, cond, &map, cfg)
        }
        // An operator is a one-stage plan: admit, run the stage over the
        // transposed sides. The ticket is released at the end of this arm.
        Some((c1, c2)) => {
            let query = AdmittedQuery::admit(rt, cfg);
            let mut stats = run_stage(
                rt,
                &query,
                Source::Scan(c1),
                Source::Scan(c2),
                &scheme,
                cond,
                KeyFrom::Probe,
                None,
                cfg,
            );
            stats.admission_wait_secs = query.ticket.admission_wait_secs();
            stats
        }
    };
    let stats_sim = stats_sim_secs(&scheme, n, cfg);
    OperatorRun {
        kind: scheme.kind,
        num_regions: scheme.num_regions(),
        total_sim_secs: stats_sim + join.sim_join_secs + wasted_sim,
        stats_sim_secs: stats_sim + wasted_sim,
        stats_wall_secs,
        build: scheme.build,
        join,
        fell_back,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewh_core::{JoinMatrix, Key};
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
            let (scheme, _) = super::super::stats::build_scheme_from_keys(
                kind,
                &k1,
                &sample,
                r1.len() as u64,
                r2.len() as u64,
                &cond,
                &cfg,
            );
            let query = AdmittedQuery::admit(&rt, &cfg);
            let c1 = ColumnBatch::from_tuples(&r1);
            let c2 = ColumnBatch::from_tuples(&r2);
            let stats = run_stage(
                &rt,
                &query,
                Source::Scan(&c1),
                Source::Scan(&c2),
                &scheme,
                &cond,
                KeyFrom::Probe,
                None,
                &cfg,
            );
            assert_eq!(stats.output_total, expect, "{kind}");
        }
    }
}
