//! Claims of the `latency` subcommand's scenario, stated in counters: under
//! an open-loop mixed workload on the event-driven scheduler every small
//! interactive query equals its serial run, tasks really park and are
//! really woken, and a genuine block costs one `Pending` poll. Wall-time claims live in the repository benchmark, not
//! here.
//!
//! The scenario is a scaled-down version of the bench default so the test
//! stays CI-sized in debug builds.

use std::time::Duration;

use ewh_bench::{run_mode, LatencyScenario};

fn claims_scenario() -> LatencyScenario {
    LatencyScenario {
        small_queries: 8,
        interval: Duration::from_millis(15),
        small_scale: 0.25,
        analytic_scale: 1.0,
        workers: 4,
        seed: 0xEC,
    }
}

#[test]
fn small_queries_match_their_serial_run_and_a_block_costs_one_pending_poll() {
    // `run_mode` itself asserts that every small query beside the analytic
    // one produced the count and checksum of the same query run alone.
    let run = run_mode(&claims_scenario());
    assert!(run.small_output > 0 && run.analytic_output > 0);
    assert_eq!(run.latencies_secs.len(), 8);

    // Parking must actually happen, be undone by a wake, and show up in
    // the metrics.
    assert!(run.wakeups > 0, "no parked task was ever woken");
    assert!(run.parked_secs > 0.0, "no parked time was recorded");

    // A `Pending` poll either parks the task — and every park ends in
    // exactly one counted wake — or bounces because the wake landed while
    // the task was still being polled. Bounces are races (0–3 a run over
    // 20 debug and 20 release runs of this scenario, 45 tasks), so a
    // scheduler that re-polled blocked tasks — the nap loop this replaced
    // took ~160 `Pending` polls per wake — cannot stay under this bound.
    assert!(
        run.spurious_polls <= run.wakeups + run.tasks_spawned,
        "{} Pending polls for {} wakeups of {} tasks: blocked tasks are being re-polled",
        run.spurious_polls,
        run.wakeups,
        run.tasks_spawned
    );
}
