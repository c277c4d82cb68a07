//! Adaptive load balancing / work stealing on top of an initial partitioning
//! (§V of the paper).
//!
//! The paper discusses SkewTune-style adaptive skew handling: "when a task
//! becomes idle, it takes over some work from the busiest task — this
//! implies moving the tuples over the network multiple times", and proposes
//! the combination: *initialize* with the equi-weight histogram so that
//! run-time reassignment fires only on genuine run-time surprises, not on
//! predictable skew. This module makes that argument executable: a
//! deterministic discrete-event simulation of region execution with optional
//! idle-steals-from-busiest reassignment, so the reassignment counts and
//! makespans of CSIO-initialized vs CSI/CI-initialized runs can be compared
//! (see the `adaptive_reassignment` bench binary).

use std::collections::VecDeque;

/// One schedulable unit: a region with its processing weight and the input
/// volume that must be re-shipped if the region moves to another worker.
#[derive(Clone, Copy, Debug)]
pub struct TaskSpec {
    /// Processing weight in milli work units.
    pub weight_milli: u64,
    /// Input tuples resident at the original worker.
    pub input_tuples: u64,
}

/// Adaptive execution knobs — shared by the discrete-event [`simulate`] and
/// the real pipelined engine's migration coordinator
/// (`ewh_exec::engine`), so predicted and realized reassignment behavior
/// can be compared under one configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Enable idle-steals-from-busiest reassignment. In the engine: let
    /// the coordinator migrate regions at run time; with it off the
    /// coordinator still terminates the run but never moves a region.
    pub reassign: bool,
    /// Cost of re-shipping one tuple of a stolen region, as a fraction of
    /// the input cost `wi` (the "tuples move twice" penalty; 1.0 means a
    /// moved region pays its input cost again in full). The engine uses the
    /// same factor unit-free: a migration is profitable only when the
    /// victim's tuple backlog exceeds `move_cost_factor ×` the shipped
    /// region state, so `wi` cancels out of the comparison.
    pub move_cost_factor: f64,
    /// `wi` in milli-units (to convert moved tuples into work). Simulation
    /// only.
    pub wi_milli: u64,
    /// Engine only: queue backlog, in tuples, at which a busy reducer
    /// becomes a migration victim while another reducer sits idle.
    pub migrate_backlog_tuples: usize,
    /// Engine only: the migration coordinator's poll interval.
    pub poll_micros: u64,
    /// Engine only, used with per-link profiles: the reducer drain rate
    /// that converts a tuple backlog into seconds, so the migration gate
    /// can compare backlog relief against the shipping time over the
    /// target's actual link (`LinkProfile::ship_secs`). Ignored without
    /// links configured.
    pub drain_tuples_per_sec: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            reassign: true,
            move_cost_factor: 1.0,
            wi_milli: 1000,
            // Half the default queue capacity (`OperatorConfig::queue_tuples`
            // = 4096): a reducer with a persistently half-full queue while a
            // sibling idles is a genuine straggler, not noise.
            migrate_backlog_tuples: 2048,
            poll_micros: 200,
            // A sort-merge reducer absorbs on the order of ten million
            // tuples a second on one core; the gate only needs the right
            // order of magnitude (both sides scale with it).
            drain_tuples_per_sec: 1e7,
        }
    }
}

/// Result of one simulated execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptiveOutcome {
    /// Completion time of the slowest worker, in milli work units.
    pub makespan_milli: u64,
    /// Number of regions moved between workers at run time.
    pub reassignments: usize,
    /// Tuples re-shipped by those moves.
    pub moved_tuples: u64,
}

/// Simulates executing `tasks` on `j` workers. `assignment[i]` is the
/// initial worker of task `i` (the partitioning scheme's placement). Workers
/// process their queues in the given order; when idle and `reassign` is on,
/// a worker steals the last *unstarted* task from the worker with the most
/// remaining queued work, paying the move penalty.
pub fn simulate(
    tasks: &[TaskSpec],
    assignment: &[u32],
    j: usize,
    cfg: &AdaptiveConfig,
) -> AdaptiveOutcome {
    assert_eq!(tasks.len(), assignment.len());
    assert!(j >= 1);
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); j];
    for (i, &w) in assignment.iter().enumerate() {
        assert!((w as usize) < j, "assignment out of range");
        queues[w as usize].push_back(i);
    }
    let mut clock = vec![0u64; j];
    let mut done = vec![false; j];
    let mut reassignments = 0usize;
    let mut moved_tuples = 0u64;

    // Event loop in virtual time: the earliest-free active worker acts next.
    // Acting means starting its next queued task, or — when its queue is
    // empty and reassignment is on — stealing the *last* unstarted task of a
    // victim when the thief can finish it (move cost included) before the
    // victim would. The victim's projected finish of its last task
    // (clock[v] + backlog) is invariant under the victim's own progress and
    // only shrinks under other steals, while the thief's clock never
    // decreases — so once no profitable steal exists for an idle worker,
    // none ever will, and marking it done is sound.
    let move_cost =
        |t: &TaskSpec| (t.input_tuples as f64 * cfg.move_cost_factor * cfg.wi_milli as f64) as u64;
    while let Some(w) = (0..j).filter(|&w| !done[w]).min_by_key(|&w| (clock[w], w)) {
        if let Some(task) = queues[w].pop_front() {
            clock[w] += tasks[task].weight_milli;
            continue;
        }
        let steal = if cfg.reassign {
            (0..j)
                .filter(|&v| v != w && !queues[v].is_empty())
                .map(|v| {
                    let backlog: u64 = queues[v].iter().map(|&t| tasks[t].weight_milli).sum();
                    (v, backlog)
                })
                .filter(|&(v, backlog)| {
                    let last = *queues[v].back().unwrap();
                    let thief_finish =
                        clock[w] + move_cost(&tasks[last]) + tasks[last].weight_milli;
                    thief_finish < clock[v] + backlog
                })
                .max_by_key(|&(_, backlog)| backlog)
                .map(|(v, _)| v)
        } else {
            None
        };
        match steal {
            Some(victim) => {
                let task = queues[victim].pop_back().expect("victim has backlog");
                clock[w] += move_cost(&tasks[task]) + tasks[task].weight_milli;
                reassignments += 1;
                moved_tuples += tasks[task].input_tuples;
            }
            None => done[w] = true,
        }
    }

    AdaptiveOutcome {
        makespan_milli: clock.into_iter().max().unwrap_or(0),
        reassignments,
        moved_tuples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(weight: u64, input: u64) -> TaskSpec {
        TaskSpec {
            weight_milli: weight,
            input_tuples: input,
        }
    }

    #[test]
    fn balanced_assignment_never_steals() {
        let tasks = vec![t(100, 10); 8];
        let assignment: Vec<u32> = (0..8).map(|i| (i % 4) as u32).collect();
        let out = simulate(&tasks, &assignment, 4, &AdaptiveConfig::default());
        assert_eq!(out.reassignments, 0);
        assert_eq!(out.makespan_milli, 200);
    }

    #[test]
    fn skewed_assignment_triggers_steals_and_improves_makespan() {
        // All 8 tasks piled on worker 0 of 4.
        let tasks = vec![t(100, 0); 8]; // free moves isolate the scheduling effect
        let assignment = vec![0u32; 8];
        let stolen = simulate(&tasks, &assignment, 4, &AdaptiveConfig::default());
        let frozen = simulate(
            &tasks,
            &assignment,
            4,
            &AdaptiveConfig {
                reassign: false,
                ..Default::default()
            },
        );
        assert_eq!(frozen.makespan_milli, 800);
        assert_eq!(frozen.reassignments, 0);
        assert!(stolen.reassignments > 0);
        assert!(stolen.makespan_milli < frozen.makespan_milli);
    }

    #[test]
    fn expensive_moves_suppress_stealing() {
        // Each move would re-ship 1000 tuples (1M milli-units) to save at
        // most 700 of imbalance: never profitable. This is the overhead the
        // paper warns about ("moving the tuples over the network multiple
        // times... increases the input-related work").
        let tasks = vec![t(100, 1000); 8];
        let assignment = vec![0u32; 8];
        let cfg = AdaptiveConfig {
            reassign: true,
            move_cost_factor: 1.0,
            wi_milli: 1000,
            ..Default::default()
        };
        let out = simulate(&tasks, &assignment, 4, &cfg);
        assert_eq!(out.reassignments, 0);
        assert_eq!(out.moved_tuples, 0);
        assert_eq!(out.makespan_milli, 800);

        // With free moves the same layout balances out.
        let cheap = AdaptiveConfig {
            reassign: true,
            move_cost_factor: 0.0,
            wi_milli: 1000,
            ..Default::default()
        };
        let out = simulate(&tasks, &assignment, 4, &cheap);
        assert!(out.reassignments > 0);
        assert!(out.makespan_milli < 800);
    }

    #[test]
    fn single_worker_processes_sequentially() {
        let tasks = vec![t(5, 1), t(7, 1), t(9, 1)];
        let out = simulate(&tasks, &[0, 0, 0], 1, &AdaptiveConfig::default());
        assert_eq!(out.makespan_milli, 21);
        assert_eq!(out.reassignments, 0);
    }

    #[test]
    fn empty_task_list() {
        let out = simulate(&[], &[], 3, &AdaptiveConfig::default());
        assert_eq!(out.makespan_milli, 0);
    }
}
