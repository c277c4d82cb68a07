//! Shared experiment harness: consistent operator configuration, scheme
//! sweeps, and the scale guard of the peak-memory claims.

use ewh_core::{CostModel, CsiParams, HistogramParams, SchemeKind, TUPLE_BYTES};
use ewh_exec::{
    run_operator, AdaptiveConfig, EngineRuntime, OperatorConfig, OperatorRun, RuntimeConfig,
    Straggler,
};

use crate::workloads::Workload;

/// Experiment-level knobs shared by all subcommands.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Data scale relative to the defaults (1.0 ≈ 1/1000 of the paper).
    pub scale: f64,
    /// Workers (paper: J = 32; scalability sweeps 16–64).
    pub j: usize,
    /// Real threads driving the simulation.
    pub threads: usize,
    pub seed: u64,
    /// CSI bucket count p (paper default 2000; scaled ~1/4 by default since
    /// our inputs are ~1000x smaller but p must stay ≪ n).
    pub csi_p: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 1.0,
            j: 32,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(2),
            seed: 0xEC,
            csi_p: 512,
        }
    }
}

impl RunConfig {
    /// A shared worker-pool runtime sized to this config's `threads` — the
    /// per-run stand-in for the host-global pool a server would own.
    /// Build it once per experiment; every query of the run shares it.
    pub fn runtime(&self) -> EngineRuntime {
        EngineRuntime::new(self.threads)
    }

    /// The fixed cluster memory capacity (the paper's 720 GB analogue):
    /// 4.5× the B_ICD input bytes at this scale. CI's ≥6× replication on the
    /// large joins overflows it; the content-sensitive schemes never do.
    pub fn cluster_capacity_bytes(&self) -> u64 {
        (4.5 * 2.0 * crate::workloads::BICD_ORDERS as f64 * self.scale * TUPLE_BYTES as f64) as u64
    }

    /// Operator configuration for a workload (or every stage of a chained
    /// one) with the given cost model.
    pub fn operator_config(&self, cost: CostModel) -> OperatorConfig {
        OperatorConfig {
            j: self.j,
            threads: self.threads,
            seed: self.seed,
            cost,
            csi: CsiParams {
                p: self.csi_p,
                seed: self.seed,
            },
            hist: HistogramParams::default(),
            mem_capacity_bytes: Some(self.cluster_capacity_bytes()),
            ..Default::default()
        }
    }
}

/// One pool for several tenants: `workers` threads, at most `queries`
/// admitted at once, and optionally a runtime-global memory budget that
/// admission carves into equal per-tenant slices.
pub fn shared_pool(
    workers: usize,
    queries: usize,
    memory_budget_tuples: Option<u64>,
) -> EngineRuntime {
    EngineRuntime::with_config(RuntimeConfig {
        workers,
        max_concurrent_queries: queries.max(1),
        memory_budget_tuples,
    })
}

/// Runs one workload under one scheme and an explicit configuration.
pub fn run_with(
    rt: &EngineRuntime,
    w: &Workload,
    kind: SchemeKind,
    cfg: &OperatorConfig,
) -> OperatorRun {
    run_operator(rt, kind, &w.r1, &w.r2, &w.cond, cfg)
}

/// Runs one workload under one scheme on the shared runtime.
pub fn run_scheme(
    rt: &EngineRuntime,
    w: &Workload,
    kind: SchemeKind,
    rc: &RunConfig,
) -> OperatorRun {
    run_with(rt, w, kind, &rc.operator_config(w.cost))
}

/// Runs all three schemes on a workload.
pub fn run_all_schemes(rt: &EngineRuntime, w: &Workload, rc: &RunConfig) -> Vec<OperatorRun> {
    [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio]
        .into_iter()
        .map(|k| run_scheme(rt, w, k, rc))
        .collect()
}

/// `MiB` pretty-printer.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The checkout a `--json` record's numbers came from (`-dirty` when it has
/// local edits).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Warns (stderr) when a workload is too small for pipelined-vs-batch (or
/// plan-vs-materialized) peak-memory comparisons to mean anything: below ~3×
/// the engine's bounded buffers (reducer queues + in-flight morsels + probe
/// chunks) most of the input fits in flight at once and "peak resident"
/// legitimately approaches the total — the small-scale footgun documented
/// after PR 2. `n_input` counts base-relation tuples: on a chain they are the
/// smallest streams in play. Returns whether the workload is safely above
/// the floor, so claims tests can assert on it.
pub fn check_pipelined_scale(name: &str, n_input: u64, cfg: &OperatorConfig) -> bool {
    let floor = cfg.min_pipelined_input_tuples();
    let ok = n_input >= floor;
    if !ok {
        eprintln!(
            "warning: workload `{name}` has {n_input} input tuples, below the ~{floor} floor \
             where pipelined peak-resident comparisons are meaningful (inputs must dwarf the \
             engine's bounded buffers); grow --scale or shrink queue/morsel sizes"
        );
    }
    ok
}

/// The injected fault of every straggler scenario but the `pipeline`
/// table's: 20 µs per absorbed tuple on reducer 0, enough for the slowed
/// reducer to dominate the makespan unless its regions migrate.
pub const SLOW_REDUCER: Straggler = Straggler {
    reducer: 0,
    nanos_per_tuple: 20_000,
};

/// Thresholds that force the coordinator to migrate (the
/// `prop_migration.rs` pattern): a zero move-cost gate and a one-tuple
/// backlog. Scenarios that use them show that the Migrate/Adopt protocol
/// works, not that the default damping fires under some build's timing;
/// pair them with [`SLOW_REDUCER`] so the backlog persists.
pub fn forced_migration(poll_micros: u64) -> AdaptiveConfig {
    AdaptiveConfig {
        reassign: true,
        move_cost_factor: 0.0,
        migrate_backlog_tuples: 1,
        poll_micros,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::bcb;

    #[test]
    fn run_config_capacity_scales() {
        let rc = RunConfig {
            scale: 1.0,
            ..Default::default()
        };
        let half = RunConfig {
            scale: 0.5,
            ..Default::default()
        };
        assert_eq!(
            rc.cluster_capacity_bytes(),
            2 * half.cluster_capacity_bytes()
        );
    }

    #[test]
    fn all_three_schemes_agree_on_output() {
        let rc = RunConfig {
            scale: 0.05,
            j: 8,
            threads: 2,
            ..Default::default()
        };
        let w = bcb(2, rc.scale, rc.seed);
        let runs = run_all_schemes(&rc.runtime(), &w, &rc);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].join.output_total, runs[1].join.output_total);
        assert_eq!(runs[0].join.output_total, runs[2].join.output_total);
        assert!(runs[0].join.output_total > 0);
    }
}
