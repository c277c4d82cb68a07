//! §V of the paper as a discrete-event simulation: adaptive load balancing
//! / work stealing on top of an initial partitioning.
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
//! (the `adaptive` subcommand), and the real engine's migration counts set
//! against the simulation's prediction (the `pipeline` subcommand) — both
//! from the same realized per-region [`TaskSpec`]s ([`realized_tasks`]) and
//! under the engine's own [`AdaptiveConfig`].

use std::collections::VecDeque;

use ewh_core::{PartitionScheme, SchemeKind};
use ewh_exec::{build_scheme, execute_join, shuffle, AdaptiveConfig, OperatorConfig, OutputWork};

use crate::workloads::Workload;

/// One schedulable unit: a region with its processing weight and the input
/// volume that must be re-shipped if the region moves to another worker.
#[derive(Clone, Copy, Debug)]
pub struct TaskSpec {
    /// Processing weight in milli work units.
    pub weight_milli: u64,
    /// Input tuples resident at the original worker.
    pub input_tuples: u64,
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
/// remaining queued work, paying the move penalty: `cfg.move_cost_factor ×
/// wi_milli` per re-shipped input tuple, with `wi_milli` the workload cost
/// model's input cost.
pub fn simulate(
    tasks: &[TaskSpec],
    assignment: &[u32],
    j: usize,
    cfg: &AdaptiveConfig,
    wi_milli: u64,
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
        |t: &TaskSpec| (t.input_tuples as f64 * cfg.move_cost_factor * wi_milli as f64) as u64;
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

/// The scheme `kind` builds for `w` under `cfg`, and its regions' *realized*
/// weights as [`TaskSpec`]s: the inputs a batch shuffle delivers to each
/// region and the outputs a batch execution over an identity region → worker
/// map produces there, priced by the workload's cost model.
pub fn realized_tasks(
    w: &Workload,
    kind: SchemeKind,
    cfg: &OperatorConfig,
) -> (PartitionScheme, Vec<TaskSpec>) {
    let (scheme, _) = build_scheme(kind, &w.r1, &w.r2, &w.cond, cfg);
    let shuffled = shuffle(&w.r1, &w.r2, &scheme, cfg.threads, cfg.seed);
    let per_region_input = shuffled.per_region_input();
    let id_map: Vec<u32> = (0..scheme.num_regions() as u32).collect();
    let exec_cfg = OperatorConfig {
        j: scheme.num_regions().max(1),
        output_work: OutputWork::Count,
        ..cfg.clone()
    };
    let stats = execute_join(shuffled, &w.cond, &id_map, &exec_cfg);
    let tasks = per_region_input
        .iter()
        .zip(&stats.per_worker_output)
        .map(|(&input, &output)| TaskSpec {
            weight_milli: w.cost.weight(input, output),
            input_tuples: input,
        })
        .collect();
    (scheme, tasks)
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
        let out = simulate(&tasks, &assignment, 4, &AdaptiveConfig::default(), 1000);
        assert_eq!(out.reassignments, 0);
        assert_eq!(out.makespan_milli, 200);
    }

    #[test]
    fn skewed_assignment_triggers_steals_and_improves_makespan() {
        // All 8 tasks piled on worker 0 of 4.
        let tasks = vec![t(100, 0); 8]; // free moves isolate the scheduling effect
        let assignment = vec![0u32; 8];
        let stolen = simulate(&tasks, &assignment, 4, &AdaptiveConfig::default(), 1000);
        let frozen = simulate(
            &tasks,
            &assignment,
            4,
            &AdaptiveConfig {
                reassign: false,
                ..Default::default()
            },
            1000,
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
            ..Default::default()
        };
        let out = simulate(&tasks, &assignment, 4, &cfg, 1000);
        assert_eq!(out.reassignments, 0);
        assert_eq!(out.moved_tuples, 0);
        assert_eq!(out.makespan_milli, 800);

        // With free moves the same layout balances out.
        let cheap = AdaptiveConfig {
            reassign: true,
            move_cost_factor: 0.0,
            ..Default::default()
        };
        let out = simulate(&tasks, &assignment, 4, &cheap, 1000);
        assert!(out.reassignments > 0);
        assert!(out.makespan_milli < 800);
    }

    #[test]
    fn single_worker_processes_sequentially() {
        let tasks = vec![t(5, 1), t(7, 1), t(9, 1)];
        let out = simulate(&tasks, &[0, 0, 0], 1, &AdaptiveConfig::default(), 1000);
        assert_eq!(out.makespan_milli, 21);
        assert_eq!(out.reassignments, 0);
    }

    #[test]
    fn realized_tasks_account_for_every_routed_tuple_and_output_pair() {
        use crate::harness::{run_scheme, RunConfig};
        let rc = RunConfig {
            scale: 0.05,
            j: 8,
            threads: 2,
            ..Default::default()
        };
        let w = crate::workloads::bcb(2, rc.scale, rc.seed);
        let (scheme, tasks) = realized_tasks(&w, SchemeKind::Csio, &rc.operator_config(w.cost));
        assert_eq!(tasks.len(), scheme.num_regions());
        let run = run_scheme(&rc.runtime(), &w, SchemeKind::Csio, &rc);
        let routed: u64 = tasks.iter().map(|t| t.input_tuples).sum();
        assert_eq!(routed, run.join.network_tuples);
        let weight: u64 = tasks.iter().map(|t| t.weight_milli).sum();
        let expected = w
            .cost
            .weight(run.join.network_tuples, run.join.output_total);
        assert_eq!(weight, expected, "region weights must add up to the join's");
    }

    #[test]
    fn empty_task_list() {
        let out = simulate(&[], &[], 3, &AdaptiveConfig::default(), 1000);
        assert_eq!(out.makespan_milli, 0);
    }
}
