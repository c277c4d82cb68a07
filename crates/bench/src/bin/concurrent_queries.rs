//! Concurrent query admission on the shared worker-pool runtime vs. the
//! old spawn-per-query execution model.
//!
//! N simultaneous hot-key retail queries are fired from N client threads
//! in three configurations:
//!
//! * **serial** — one query after another on the shared runtime: the
//!   correctness oracle (identical output/checksum per query) and the
//!   no-concurrency reference makespan.
//! * **shared** — all N at once on ONE `EngineRuntime` of `--workers`
//!   threads: the pool multiplexes every query's mapper/reducer tasks,
//!   admission gates entry, and work-stealing balances the deques. Total
//!   engine threads on the host: exactly `--workers`.
//! * **spawn-per-query** — all N at once, but each query brings its own
//!   `EngineRuntime` of `--workers` threads, reproducing the pre-runtime
//!   behavior (every `run_operator` spawning a private team): N × workers
//!   engine threads oversubscribing the host.
//!
//! A final scenario injects a straggler into one query (with run-time
//! migration on) while a second, healthy query shares the pool — the
//! cross-query interference case the shared runtime makes testable: the
//! coordinator must still detect the backlogged reducer and migrate its
//! regions even though the "idle" capacity is busy serving another tenant.
//!
//! Emits TSV plus a JSON document for `BENCH_concurrent.json`:
//!
//! ```sh
//! cargo run --release -p ewh-bench --bin concurrent_queries -- \
//!     [--scale 1.0] [--queries 8] [--workers 8] [--json BENCH_concurrent.json]
//! ```

use std::thread;
use std::time::Instant;

use ewh_bench::{check_pipelined_scale, json_escape, print_table, retail_hotkey, RunConfig};
use ewh_core::SchemeKind;
use ewh_exec::{
    run_operator, AdaptiveConfig, EngineRuntime, ExecMode, OperatorConfig, OperatorRun, OutputWork,
    RuntimeConfig, Straggler,
};

struct QueryRun {
    output_total: u64,
    checksum: u64,
    admission_wait_secs: f64,
    route_secs: f64,
    merge_secs: f64,
    sweep_secs: f64,
}

struct ConcurrentOutcome {
    makespan_secs: f64,
    queries: Vec<QueryRun>,
}

impl ConcurrentOutcome {
    /// Summed per-stage kernel time across the mode's queries — where the
    /// pool's cycles actually went (routing scatter vs. run merges vs.
    /// probe sweeps), comparable across the three scheduling modes.
    fn stage_sums(&self) -> (f64, f64, f64) {
        self.queries.iter().fold((0.0, 0.0, 0.0), |acc, q| {
            (
                acc.0 + q.route_secs,
                acc.1 + q.merge_secs,
                acc.2 + q.sweep_secs,
            )
        })
    }
}

fn query_config(rc: &RunConfig, w: &ewh_bench::Workload) -> OperatorConfig {
    OperatorConfig {
        mode: ExecMode::Pipelined,
        // The hot SKU's output is quadratic; Count keeps the comparison
        // about scheduling, not output touching.
        output_work: OutputWork::Count,
        // Keep the bounded buffers under the default retail scale's input
        // (`min_pipelined_input_tuples` — see `check_pipelined_scale`).
        queue_tuples: 1024,
        ..rc.operator_config(w)
    }
}

/// Runs `n` identical queries concurrently; `shared` is the one pool they
/// all use, or `None` to give each query a private pool (the
/// spawn-per-query baseline — the whole experiment).
fn run_concurrent(
    n: usize,
    shared: Option<&EngineRuntime>,
    rc: &RunConfig,
    w: &ewh_bench::Workload,
) -> ConcurrentOutcome {
    let cfg = query_config(rc, w);
    let start = Instant::now();
    let queries: Vec<QueryRun> = thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let cfg = &cfg;
                s.spawn(move || {
                    let own; // per-query pool for the spawn-per-query baseline
                    let rt = match shared {
                        Some(rt) => rt,
                        None => {
                            own = EngineRuntime::new(rc.threads);
                            &own
                        }
                    };
                    let run: OperatorRun =
                        run_operator(rt, SchemeKind::Csio, &w.r1, &w.r2, &w.cond, cfg);
                    QueryRun {
                        output_total: run.join.output_total,
                        checksum: run.join.checksum,
                        admission_wait_secs: run.join.admission_wait_secs,
                        route_secs: run.join.route_secs,
                        merge_secs: run.join.merge_secs,
                        sweep_secs: run.join.sweep_secs,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect()
    });
    ConcurrentOutcome {
        makespan_secs: start.elapsed().as_secs_f64(),
        queries,
    }
}

/// The cross-query migration scenario: query 0 carries an injected
/// straggler with migration on; a healthy query runs beside it on the same
/// pool. Returns (straggler query run, healthy query run).
fn straggler_beside_healthy(
    rt: &EngineRuntime,
    rc: &RunConfig,
    w: &ewh_bench::Workload,
) -> (OperatorRun, OperatorRun) {
    // Forced thresholds (the claims-test pattern): the scenario
    // demonstrates that the Migrate/Adopt protocol works across tenants;
    // the default damping's firing point is timing-sensitive and belongs
    // to the single-query adaptive bench (`pipeline_vs_batch`).
    let slow_cfg = OperatorConfig {
        adaptive: AdaptiveConfig {
            reassign: true,
            move_cost_factor: 0.0,
            migrate_backlog_tuples: 1,
            poll_micros: 50,
            ..Default::default()
        },
        straggler: Some(Straggler {
            reducer: 0,
            nanos_per_tuple: 20_000,
        }),
        ..query_config(rc, w)
    };
    let healthy_cfg = query_config(rc, w);
    thread::scope(|s| {
        let slow = s.spawn(|| run_operator(rt, SchemeKind::Csio, &w.r1, &w.r2, &w.cond, &slow_cfg));
        let healthy =
            s.spawn(|| run_operator(rt, SchemeKind::Csio, &w.r1, &w.r2, &w.cond, &healthy_cfg));
        (
            slow.join().expect("straggler query panicked"),
            healthy.join().expect("healthy query panicked"),
        )
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rc = RunConfig::from_args();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let queries: usize = flag("--queries").map_or(8, |v| v.parse().expect("--queries takes int"));
    let workers: usize = flag("--workers").map_or(8, |v| v.parse().expect("--workers takes int"));
    let json_path = flag("--json");
    // Task-team size per query == pool size, matching what the old code
    // spawned per query (that is the point of the comparison).
    let rc = RunConfig {
        threads: workers,
        ..rc
    };

    let w = retail_hotkey(rc.scale, rc.seed);
    check_pipelined_scale(&w, &query_config(&rc, &w));

    let shared_rt = EngineRuntime::with_config(RuntimeConfig {
        workers,
        max_concurrent_queries: queries.max(1),
        memory_budget_tuples: None,
    });

    // Oracle + reference: the same N queries back to back on the pool.
    let serial = run_concurrent(1, Some(&shared_rt), &rc, &w);
    let (oracle_output, oracle_checksum) =
        (serial.queries[0].output_total, serial.queries[0].checksum);
    let serial_start = Instant::now();
    let mut serial_stages = (0.0f64, 0.0f64, 0.0f64);
    for _ in 0..queries {
        let run = run_operator(
            &shared_rt,
            SchemeKind::Csio,
            &w.r1,
            &w.r2,
            &w.cond,
            &query_config(&rc, &w),
        );
        assert_eq!(run.join.output_total, oracle_output);
        assert_eq!(run.join.checksum, oracle_checksum);
        serial_stages.0 += run.join.route_secs;
        serial_stages.1 += run.join.merge_secs;
        serial_stages.2 += run.join.sweep_secs;
    }
    let serial_makespan = serial_start.elapsed().as_secs_f64();

    let before = shared_rt.metrics();
    let shared = run_concurrent(queries, Some(&shared_rt), &rc, &w);
    let after = shared_rt.metrics();
    let spawn = run_concurrent(queries, None, &rc, &w);

    for (label, outcome) in [("shared", &shared), ("spawn", &spawn)] {
        for (i, q) in outcome.queries.iter().enumerate() {
            assert_eq!(
                q.output_total, oracle_output,
                "{label}: query {i} output drifted under concurrency"
            );
            assert_eq!(
                q.checksum, oracle_checksum,
                "{label}: query {i} checksum drifted under concurrency"
            );
        }
    }

    let (slow_run, healthy_run) = straggler_beside_healthy(&shared_rt, &rc, &w);
    assert_eq!(slow_run.join.output_total, oracle_output);
    assert_eq!(healthy_run.join.output_total, oracle_output);

    let stolen = after.tasks_stolen - before.tasks_stolen;
    let admission_wait: f64 = shared.queries.iter().map(|q| q.admission_wait_secs).sum();
    let shared_stages = shared.stage_sums();
    let spawn_stages = spawn.stage_sums();
    let stage_cols = |(route, merge, sweep): (f64, f64, f64)| {
        vec![
            format!("{route:.4}"),
            format!("{merge:.4}"),
            format!("{sweep:.4}"),
        ]
    };
    let mut rows = vec![
        vec![
            "serial".into(),
            format!("{queries}x1"),
            format!("{workers}"),
            format!("{serial_makespan:.4}"),
            "-".into(),
            "-".into(),
        ],
        vec![
            "shared".into(),
            format!("{queries} concurrent"),
            format!("{workers}"),
            format!("{:.4}", shared.makespan_secs),
            format!("{stolen}"),
            format!("{admission_wait:.4}"),
        ],
        vec![
            "spawn-per-query".into(),
            format!("{queries} concurrent"),
            format!("{}", queries * workers),
            format!("{:.4}", spawn.makespan_secs),
            "-".into(),
            "-".into(),
        ],
    ];
    rows[0].extend(stage_cols(serial_stages));
    rows[1].extend(stage_cols(shared_stages));
    rows[2].extend(stage_cols(spawn_stages));
    print_table(
        &format!(
            "concurrent_queries (retail hot-key, scale {}, {} queries, {}-worker pool)",
            rc.scale, queries, workers
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
        &rows,
    );
    print_table(
        "cross-query migration (straggler query beside a healthy one, shared pool)",
        &["query", "migrations", "migr_tuples", "wall_s"],
        &[
            vec![
                "straggler+reassign".into(),
                slow_run.join.regions_migrated.to_string(),
                slow_run.join.migration_tuples.to_string(),
                format!("{:.4}", slow_run.join.wall_join_secs),
            ],
            vec![
                "healthy".into(),
                healthy_run.join.regions_migrated.to_string(),
                healthy_run.join.migration_tuples.to_string(),
                format!("{:.4}", healthy_run.join.wall_join_secs),
            ],
        ],
    );

    let speedup = spawn.makespan_secs / shared.makespan_secs.max(1e-9);
    let stage_json = |(route, merge, sweep): (f64, f64, f64)| {
        format!(
            "{{\"route_secs\": {route:.6}, \"merge_secs\": {merge:.6}, \"sweep_secs\": {sweep:.6}}}"
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"concurrent_queries\",\n  \"workload\": \"{}\",\n  \"scale\": {},\n  \"queries\": {},\n  \"workers\": {},\n  \"output_total\": {},\n  \"checksum\": {},\n  \"serial_makespan_secs\": {:.6},\n  \"shared_makespan_secs\": {:.6},\n  \"spawn_per_query_makespan_secs\": {:.6},\n  \"shared_vs_spawn_speedup\": {:.4},\n  \"tasks_stolen\": {},\n  \"admission_wait_secs\": {:.6},\n  \"serial_stage_secs\": {},\n  \"shared_stage_secs\": {},\n  \"spawn_per_query_stage_secs\": {},\n  \"pool_utilization\": {:.4},\n  \"straggler_query_migrations\": {},\n  \"healthy_query_migrations\": {}\n}}\n",
        json_escape(&w.name),
        rc.scale,
        queries,
        workers,
        oracle_output,
        oracle_checksum,
        serial_makespan,
        shared.makespan_secs,
        spawn.makespan_secs,
        speedup,
        stolen,
        admission_wait,
        stage_json(serial_stages),
        stage_json(shared_stages),
        stage_json(spawn_stages),
        after.utilization(),
        slow_run.join.regions_migrated,
        healthy_run.join.regions_migrated,
    );
    match json_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("writing the JSON report failed");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
