//! Open-loop mixed-workload latency harness: many small interactive
//! queries arrive on a fixed schedule while one large analytic query
//! grinds on the same shared worker pool.
//!
//! *Open-loop* means the arrival schedule never waits for completions: the
//! k-th small query is launched at `start + k·interval` regardless of how
//! far behind the pool is, and its latency is measured from that scheduled
//! arrival — so scheduler-induced queueing delay counts against the
//! scheduler, the way it does for a real interactive client.
//!
//! The `latency` subcommand prints one run; `tests/latency_claims.rs`
//! asserts what must hold of the event-driven scheduler in counters: every
//! small query equals its serial run, tasks really park and are really
//! woken, and a block costs one `Pending` poll.

use std::thread;
use std::time::{Duration, Instant};

use ewh_core::SchemeKind;
use ewh_exec::{ExecMode, OperatorConfig, OperatorRun, OutputWork};

use crate::cli::{f, Args, Flag, Kind, Report, Subcommand, Table};
use crate::harness::{run_with, shared_pool, RunConfig};
use crate::workloads::{retail_hotkey, Workload};

/// Knobs of one open-loop run.
#[derive(Clone, Copy, Debug)]
pub struct LatencyScenario {
    /// Small interactive queries launched over the run.
    pub small_queries: usize,
    /// Open-loop inter-arrival gap of the small queries.
    pub interval: Duration,
    /// Scale of each small query's RETAIL workload.
    pub small_scale: f64,
    /// Scale of the single analytic query started before the first small
    /// arrival (hot-key output grows quadratically with scale, so modest
    /// factors keep it busy for the whole arrival window).
    pub analytic_scale: f64,
    /// Shared pool size.
    pub workers: usize,
    pub seed: u64,
}

impl Default for LatencyScenario {
    fn default() -> Self {
        LatencyScenario {
            small_queries: 16,
            interval: Duration::from_millis(15),
            small_scale: 0.25,
            analytic_scale: 2.0,
            workers: 8,
            seed: 0xEC,
        }
    }
}

/// What one open-loop run produced: the sorted small-query latency
/// distribution, the outputs, and the runtime-counter deltas attributable
/// to this run.
#[derive(Clone, Debug)]
pub struct ModeOutcome {
    /// Small-query latencies (scheduled arrival → completion), sorted.
    pub latencies_secs: Vec<f64>,
    pub small_output: u64,
    pub small_checksum: u64,
    pub analytic_output: u64,
    pub analytic_checksum: u64,
    pub analytic_wall_secs: f64,
    pub makespan_secs: f64,
    pub tasks_spawned: u64,
    pub polls: u64,
    pub spurious_polls: u64,
    pub wakeups: u64,
    pub parked_secs: f64,
}

impl ModeOutcome {
    pub fn p50_secs(&self) -> f64 {
        percentile(&self.latencies_secs, 0.50)
    }

    pub fn p99_secs(&self) -> f64 {
        percentile(&self.latencies_secs, 0.99)
    }
}

/// Nearest-rank percentile of an ascending-sorted sample; 0.0 for empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn query_config(
    sc: &LatencyScenario,
    scale: f64,
    work: OutputWork,
    w: &Workload,
) -> OperatorConfig {
    let rc = RunConfig {
        scale,
        threads: sc.workers,
        seed: sc.seed,
        ..RunConfig::default()
    };
    OperatorConfig {
        mode: ExecMode::Pipelined,
        output_work: work,
        // Small queries sit below the default retail scale; shrink the
        // bounded buffers so their pipelines still do real streaming.
        queue_tuples: 1024,
        ..rc.operator_config(w.cost)
    }
}

/// Runs the scenario once on a fresh pool. Every small query must equal —
/// count and checksum — the same query run alone on the idle pool first;
/// that is asserted here.
pub fn run_mode(sc: &LatencyScenario) -> ModeOutcome {
    let small_w = retail_hotkey(sc.small_scale, sc.seed);
    let analytic_w = retail_hotkey(sc.analytic_scale, sc.seed ^ 0xA11);
    // Small queries count their output (latency is about scheduling, not
    // output touching); the analytic query *touches* every output pair so
    // its reducers stay genuinely busy and its mappers genuinely blocked on
    // queue backpressure — the sustained pressure the small queries must
    // cut through.
    let small_cfg = query_config(sc, sc.small_scale, OutputWork::Count, &small_w);
    let analytic_cfg = query_config(sc, sc.analytic_scale, OutputWork::Touch, &analytic_w);

    // Admission must never throttle the open-loop arrivals: queueing delay
    // should come from the scheduler, not the ticket queue.
    let rt = shared_pool(sc.workers, sc.small_queries + 2, None);
    // The serial reference: the small query with the pool to itself.
    let serial = run_with(&rt, &small_w, SchemeKind::Csio, &small_cfg);
    let (small_output, small_checksum) = (serial.join.output_total, serial.join.checksum);
    let before = rt.metrics();
    let start = Instant::now();

    let (analytic, smalls): (OperatorRun, Vec<(u64, u64, f64)>) = thread::scope(|s| {
        let analytic = s.spawn(|| run_with(&rt, &analytic_w, SchemeKind::Csio, &analytic_cfg));
        // The open-loop dispatcher: arrival k is *scheduled* at
        // start + (k+1)·interval, and its latency clock starts there even
        // if the host is late dispatching the client thread.
        let handles: Vec<_> = (0..sc.small_queries)
            .map(|k| {
                let scheduled = start + sc.interval * (k as u32 + 1);
                let (rt, w, cfg) = (&rt, &small_w, &small_cfg);
                thread::sleep(scheduled.saturating_duration_since(Instant::now()));
                s.spawn(move || {
                    let run = run_with(rt, w, SchemeKind::Csio, cfg);
                    let latency = scheduled.elapsed().as_secs_f64();
                    (run.join.output_total, run.join.checksum, latency)
                })
            })
            .collect();
        let smalls = handles
            .into_iter()
            .map(|h| h.join().expect("small query panicked"))
            .collect();
        (analytic.join().expect("analytic query panicked"), smalls)
    });
    let makespan_secs = start.elapsed().as_secs_f64();
    let after = rt.metrics();

    for (i, &(out, sum, _)) in smalls.iter().enumerate() {
        assert_eq!(out, small_output, "small query {i}: output != serial");
        assert_eq!(sum, small_checksum, "small query {i}: checksum != serial");
    }
    let mut latencies_secs: Vec<f64> = smalls.iter().map(|q| q.2).collect();
    latencies_secs.sort_by(|a, b| a.total_cmp(b));

    ModeOutcome {
        latencies_secs,
        small_output,
        small_checksum,
        analytic_output: analytic.join.output_total,
        analytic_checksum: analytic.join.checksum,
        analytic_wall_secs: analytic.join.wall_join_secs,
        makespan_secs,
        tasks_spawned: after.tasks_spawned - before.tasks_spawned,
        polls: after.polls - before.polls,
        spurious_polls: after.spurious_polls - before.spurious_polls,
        wakeups: after.wakeups - before.wakeups,
        parked_secs: (after.parked_secs - before.parked_secs).max(0.0),
    }
}

pub const SUBCOMMAND: Subcommand = Subcommand::new(
    "latency",
    &[
        Flag("--small", Kind::Count),
        Flag("--interval-ms", Kind::Int),
        Flag("--analytic-scale", Kind::Positive),
        Flag("--workers", Kind::Count),
    ],
    print,
);

/// p50/p99 are timing; `spurious_polls` / `wakeups` / `tasks_spawned` are
/// the counters `latency_claims.rs` bounds.
fn print(args: &Args, report: &mut Report) {
    let d = LatencyScenario::default();
    let sc = LatencyScenario {
        small_queries: args.get("--small").unwrap_or(d.small_queries),
        interval: args
            .get("--interval-ms")
            .map_or(d.interval, Duration::from_millis),
        analytic_scale: args.get("--analytic-scale").unwrap_or(d.analytic_scale),
        workers: args.get("--workers").unwrap_or(d.workers),
        seed: args.rc.seed,
        ..d
    };
    report.rc.threads = sc.workers;
    let run = run_mode(&sc);
    let mut table = Table::new(
        format!(
            "latency (RETAIL, {} small @ {:?} beside one {}x analytic, {}-worker pool)",
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
    );
    table.row(vec![
        f(run.p50_secs() * 1e3, 3),
        f(run.p99_secs() * 1e3, 3),
        f(run.analytic_wall_secs, 4),
        run.tasks_spawned.into(),
        run.spurious_polls.into(),
        run.wakeups.into(),
        f(run.parked_secs, 4),
    ]);
    report.push(table);
}
