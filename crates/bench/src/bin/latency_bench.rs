//! Small-query latency under a mixed workload on the shared, event-driven
//! worker pool.
//!
//! An open-loop arrival process fires `--small` interactive RETAIL queries
//! at a fixed `--interval-ms` while one `--analytic-scale` RETAIL query
//! occupies the same pool of `--workers` threads (see `ewh_bench::latency`
//! for the harness, which also checks every small query against its serial
//! run).
//!
//! Reports p50/p99 small-query latency plus the runtime's scheduler
//! counters. Emits TSV plus a JSON document for `BENCH_latency.json`:
//!
//! ```sh
//! cargo run --release -p ewh-bench --bin latency_bench -- \
//!     [--small 24] [--interval-ms 12] [--analytic-scale 4.0] \
//!     [--workers 8] [--json BENCH_latency.json]
//! ```

use std::time::Duration;

use ewh_bench::{commit, json_escape, print_table, run_mode, LatencyScenario};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let d = LatencyScenario::default();
    let sc = LatencyScenario {
        small_queries: flag("--small").map_or(d.small_queries, |v| v.parse().expect("--small")),
        interval: flag("--interval-ms").map_or(d.interval, |v| {
            Duration::from_millis(v.parse().expect("--interval-ms"))
        }),
        analytic_scale: flag("--analytic-scale")
            .map_or(d.analytic_scale, |v| v.parse().expect("--analytic-scale")),
        workers: flag("--workers").map_or(d.workers, |v| v.parse().expect("--workers")),
        seed: flag("--seed").map_or(d.seed, |v| v.parse().expect("--seed")),
        ..d
    };
    let json_path = flag("--json");

    let run = run_mode(&sc);

    print_table(
        &format!(
            "latency_bench (RETAIL, {} small @ {:?} beside one {}x analytic, {}-worker pool)",
            sc.small_queries, sc.interval, sc.analytic_scale, sc.workers
        ),
        &[
            "p50_ms",
            "p99_ms",
            "analytic_s",
            "tasks_spawned",
            "spurious_polls",
            "wakeups",
            "parked_s",
        ],
        &[vec![
            format!("{:.3}", run.p50_secs() * 1e3),
            format!("{:.3}", run.p99_secs() * 1e3),
            format!("{:.4}", run.analytic_wall_secs),
            format!("{}", run.tasks_spawned),
            format!("{}", run.spurious_polls),
            format!("{}", run.wakeups),
            format!("{:.4}", run.parked_secs),
        ]],
    );

    let json = format!(
        "{{\n  \"bench\": \"latency_bench\",\n  \"commit\": \"{}\",\n  \"host_cores\": {},\n  \"threads\": {},\n  \"workload\": \"{}\",\n  \"small_queries\": {},\n  \"interval_ms\": {},\n  \"small_scale\": {},\n  \"analytic_scale\": {},\n  \"small_output\": {},\n  \"analytic_output\": {},\n  \"p50_ms\": {:.4},\n  \"p99_ms\": {:.4},\n  \"tasks_spawned\": {},\n  \"polls\": {},\n  \"spurious_polls\": {},\n  \"wakeups\": {},\n  \"parked_secs\": {:.6},\n  \"makespan_secs\": {:.6}\n}}\n",
        json_escape(&commit()),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        sc.workers,
        json_escape("RETAIL"),
        sc.small_queries,
        sc.interval.as_millis(),
        sc.small_scale,
        sc.analytic_scale,
        run.small_output,
        run.analytic_output,
        run.p50_secs() * 1e3,
        run.p99_secs() * 1e3,
        run.tasks_spawned,
        run.polls,
        run.spurious_polls,
        run.wakeups,
        run.parked_secs,
        run.makespan_secs,
    );
    match json_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("writing the JSON report failed");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
