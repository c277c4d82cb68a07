//! Concurrent query admission on the shared worker-pool runtime vs. the
//! spawn-per-query execution model it replaced.
//!
//! N simultaneous hot-key retail queries are fired from N client threads
//! ([`run_concurrent`]) either at ONE [`EngineRuntime`] — the pool
//! multiplexes every query's mapper/reducer tasks, admission gates entry,
//! work-stealing balances the deques — or each at a private pool of its
//! own, reproducing the pre-runtime behavior (every `run_operator` spawning
//! a private team): N × workers engine threads oversubscribing the host.
//!
//! [`straggler_beside_healthy`] is the cross-query interference case the
//! shared runtime makes testable: one query carries an injected straggler
//! (with run-time migration on) while a second, healthy query shares the
//! pool, and the coordinator must still detect the backlogged reducer and
//! migrate its regions even though the "idle" capacity is busy serving
//! another tenant.
//!
//! The `concurrent` subcommand prints both; `tests/runtime_claims.rs`
//! asserts on them.

use std::thread;
use std::time::Instant;

use ewh_core::SchemeKind;
use ewh_exec::{EngineRuntime, ExecMode, OperatorConfig, OperatorRun, OutputWork};

use crate::cli::{f, Args, Cell, Flag, Kind, Report, Subcommand, Table};
use crate::harness::{
    check_pipelined_scale, forced_migration, run_with, shared_pool, RunConfig, SLOW_REDUCER,
};
use crate::workloads::{retail_hotkey, Workload};

/// The configuration every query of these scenarios runs under.
pub fn query_config(rc: &RunConfig, w: &Workload) -> OperatorConfig {
    OperatorConfig {
        mode: ExecMode::Pipelined,
        // The hot SKU's output is quadratic; Count keeps the comparison
        // about scheduling, not output touching.
        output_work: OutputWork::Count,
        // Halved queues keep the bounded buffers under the retail input at
        // scale 1 (the `min_pipelined_input_tuples` floor — see
        // `check_pipelined_scale`).
        queue_tuples: 1024,
        ..rc.operator_config(w.cost)
    }
}

/// One CSIO query of the scenario.
pub fn run_query(rt: &EngineRuntime, w: &Workload, cfg: &OperatorConfig) -> OperatorRun {
    run_with(rt, w, SchemeKind::Csio, cfg)
}

/// Fires `n` identical queries at once and returns the makespan with the
/// runs. `shared` is the one pool they all use, or `None` to give each
/// query a private `pool_workers`-wide pool (the spawn-per-query baseline).
pub fn run_concurrent(
    n: usize,
    shared: Option<&EngineRuntime>,
    pool_workers: usize,
    w: &Workload,
    cfg: &OperatorConfig,
) -> (f64, Vec<OperatorRun>) {
    let start = Instant::now();
    let runs = thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                s.spawn(move || {
                    let own;
                    let rt = match shared {
                        Some(rt) => rt,
                        None => {
                            own = EngineRuntime::new(pool_workers);
                            &own
                        }
                    };
                    run_query(rt, w, cfg)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect()
    });
    (start.elapsed().as_secs_f64(), runs)
}

/// The cross-query migration scenario: one query carries [`SLOW_REDUCER`]
/// under forced migration thresholds, a healthy query under `base` runs
/// beside it on the same pool. Returns (straggler query, healthy query).
pub fn straggler_beside_healthy(
    rt: &EngineRuntime,
    w: &Workload,
    base: &OperatorConfig,
) -> (OperatorRun, OperatorRun) {
    let slow_cfg = OperatorConfig {
        adaptive: forced_migration(50),
        straggler: Some(SLOW_REDUCER),
        ..base.clone()
    };
    thread::scope(|s| {
        let slow = s.spawn(|| run_query(rt, w, &slow_cfg));
        let healthy = s.spawn(|| run_query(rt, w, base));
        (
            slow.join().expect("straggler query panicked"),
            healthy.join().expect("healthy query panicked"),
        )
    })
}

pub const SUBCOMMAND: Subcommand = Subcommand::new(
    "concurrent",
    &[
        Flag("--queries", Kind::Count),
        Flag("--workers", Kind::Count),
    ],
    print,
);

/// Summed per-stage kernel time across a mode's queries — where the pool's
/// cycles went (routing scatter vs. run merges vs. probe sweeps),
/// comparable across the three scheduling modes.
fn stage_sums(runs: &[OperatorRun]) -> [Cell; 3] {
    let sum = |stage: fn(&OperatorRun) -> f64| f(runs.iter().map(stage).sum(), 4);
    [
        sum(|r| r.join.route_secs),
        sum(|r| r.join.merge_secs),
        sum(|r| r.join.sweep_secs),
    ]
}

fn print(args: &Args, report: &mut Report) {
    let queries: usize = args.get("--queries").unwrap_or(8);
    let workers: usize = args.get("--workers").unwrap_or(8);
    // Task-team size per query == pool size (half mappers, half reducers),
    // matching what the old code spawned per query (that is the point of
    // the comparison).
    let rc = RunConfig {
        threads: (workers / 2).max(1),
        ..args.rc
    };
    report.rc = rc;
    let w = retail_hotkey(rc.scale, rc.seed);
    let cfg = query_config(&rc, &w);
    check_pipelined_scale(&w.name, w.n_input(), &cfg);
    let rt = shared_pool(workers, queries, None);

    // Oracle + reference: the same N queries back to back on the pool.
    let oracle = run_query(&rt, &w, &cfg);
    let start = Instant::now();
    let serial: Vec<OperatorRun> = (0..queries).map(|_| run_query(&rt, &w, &cfg)).collect();
    let serial_makespan = start.elapsed().as_secs_f64();

    let before = rt.metrics();
    let (shared_makespan, shared) = run_concurrent(queries, Some(&rt), workers, &w, &cfg);
    let after = rt.metrics();
    let (spawn_makespan, spawn) = run_concurrent(queries, None, workers, &w, &cfg);
    let (slow, healthy) = straggler_beside_healthy(&rt, &w, &cfg);

    let modes = [("serial", &serial), ("shared", &shared), ("spawn", &spawn)];
    for (label, runs) in modes {
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(
                (run.join.output_total, run.join.checksum),
                (oracle.join.output_total, oracle.join.checksum),
                "{label}: query {i} drifted from the oracle"
            );
        }
    }
    assert_eq!(slow.join.output_total, oracle.join.output_total);
    assert_eq!(healthy.join.output_total, oracle.join.output_total);

    let mut table = Table::new(
        format!(
            "concurrent (retail hot-key, scale {}, {queries} queries, {workers}-worker pool)",
            rc.scale
        ),
        &[
            "mode",
            "queries",
            "engine_threads",
            "makespan_s",
            "tasks_stolen",
            "admission_wait_s",
            "route_s",
            "merge_s",
            "sweep_s",
        ],
    );
    let admission_wait: f64 = shared.iter().map(|r| r.join.admission_wait_secs).sum();
    let mut row = |mut cells: Vec<Cell>, runs: &[OperatorRun]| {
        cells.extend(stage_sums(runs));
        table.row(cells);
    };
    row(
        vec![
            "serial".into(),
            format!("{queries}x1").into(),
            workers.into(),
            f(serial_makespan, 4),
            "-".into(),
            "-".into(),
        ],
        &serial,
    );
    row(
        vec![
            "shared".into(),
            format!("{queries} concurrent").into(),
            workers.into(),
            f(shared_makespan, 4),
            (after.tasks_stolen - before.tasks_stolen).into(),
            f(admission_wait, 4),
        ],
        &shared,
    );
    row(
        vec![
            "spawn-per-query".into(),
            format!("{queries} concurrent").into(),
            (queries * workers).into(),
            f(spawn_makespan, 4),
            "-".into(),
            "-".into(),
        ],
        &spawn,
    );
    report.push(table);

    let mut migration = Table::new(
        "cross-query migration (straggler query beside a healthy one, shared pool)",
        &["query", "migrations", "migr_tuples", "wall_s"],
    );
    for (query, run) in [("straggler+reassign", &slow), ("healthy", &healthy)] {
        migration.row(vec![
            query.into(),
            run.join.regions_migrated.into(),
            run.join.migration_tuples.into(),
            f(run.join.wall_join_secs, 4),
        ]);
    }
    report.push(migration);
}
