//! Shared experiment harness: consistent operator configuration, scheme
//! sweeps, and TSV table printing for the per-figure binaries.

use ewh_core::{CostModel, CsiParams, HistogramParams, SchemeKind, TUPLE_BYTES};
use ewh_exec::{run_operator, EngineRuntime, OperatorConfig, OperatorRun};

use crate::workloads::{ChainWorkload, Workload};

/// Experiment-level knobs shared by all binaries.
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
    /// per-binary stand-in for the host-global pool a server would own.
    /// Build it once per experiment; every query of the run shares it.
    pub fn runtime(&self) -> EngineRuntime {
        EngineRuntime::new(self.threads)
    }

    /// Parses `--scale X --j N --seed S --csi-p P` style flags; unknown
    /// flags are ignored so binaries can add their own.
    pub fn from_args() -> Self {
        let mut rc = RunConfig::default();
        let args: Vec<String> = std::env::args().collect();
        for i in 0..args.len() {
            let next = || args.get(i + 1).cloned().unwrap_or_default();
            match args[i].as_str() {
                "--scale" => rc.scale = next().parse().expect("--scale takes a float"),
                "--j" => rc.j = next().parse().expect("--j takes an integer"),
                "--threads" => rc.threads = next().parse().expect("--threads takes an integer"),
                "--seed" => rc.seed = next().parse().expect("--seed takes an integer"),
                "--csi-p" => rc.csi_p = next().parse().expect("--csi-p takes an integer"),
                _ => {}
            }
        }
        rc
    }

    /// The fixed cluster memory capacity (the paper's 720 GB analogue):
    /// 4.5× the B_ICD input bytes at this scale. CI's ≥6× replication on the
    /// large joins overflows it; the content-sensitive schemes never do.
    pub fn cluster_capacity_bytes(&self) -> u64 {
        (4.5 * 2.0 * crate::workloads::BICD_ORDERS as f64 * self.scale * TUPLE_BYTES as f64) as u64
    }

    /// Operator configuration for one workload.
    pub fn operator_config(&self, w: &Workload) -> OperatorConfig {
        self.config_with_cost(w.cost)
    }

    /// Operator configuration for a chained workload (shared by every
    /// stage of the plan).
    pub fn chain_config(&self, w: &ChainWorkload) -> OperatorConfig {
        self.config_with_cost(w.cost)
    }

    fn config_with_cost(&self, cost: CostModel) -> OperatorConfig {
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

/// Runs one workload under one scheme on the shared runtime.
pub fn run_scheme(
    rt: &EngineRuntime,
    w: &Workload,
    kind: SchemeKind,
    rc: &RunConfig,
) -> OperatorRun {
    let cfg = rc.operator_config(w);
    run_operator(rt, kind, &w.r1, &w.r2, &w.cond, &cfg)
}

/// Runs all three schemes on a workload.
pub fn run_all_schemes(rt: &EngineRuntime, w: &Workload, rc: &RunConfig) -> Vec<OperatorRun> {
    [SchemeKind::Ci, SchemeKind::Csi, SchemeKind::Csio]
        .into_iter()
        .map(|k| run_scheme(rt, w, k, rc))
        .collect()
}

/// Measured output/input ratio of a completed run.
pub fn rho_oi(w: &Workload, run: &OperatorRun) -> f64 {
    run.join.output_total as f64 / w.n_input() as f64
}

/// `MiB` pretty-printer.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Minimal JSON string escaping for the bench binaries' reports (one
/// definition, shared so every `BENCH_*.json` escapes identically).
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The checkout a `BENCH_*.json` record's numbers came from (`-dirty` when
/// it has local edits).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Warns (stderr) when a workload is too small for pipelined-vs-batch
/// peak-memory comparisons to mean anything: below ~3× the engine's bounded
/// buffers (reducer queues + in-flight morsels + probe chunks) most of the
/// input fits in flight at once and "peak resident" legitimately approaches
/// the total — the small-scale footgun documented after PR 2. Returns
/// whether the workload is safely above the floor, so claims tests can
/// assert on it.
pub fn check_pipelined_scale(w: &Workload, cfg: &OperatorConfig) -> bool {
    let floor = cfg.min_pipelined_input_tuples();
    let ok = w.n_input() >= floor;
    if !ok {
        eprintln!(
            "warning: workload `{}` has {} input tuples, below the ~{} floor where \
             pipelined peak-resident comparisons are meaningful (inputs must dwarf the \
             engine's bounded buffers); grow --scale or shrink queue/morsel sizes",
            w.name,
            w.n_input(),
            floor
        );
    }
    ok
}

/// The chained analogue of [`check_pipelined_scale`]: every stage of a
/// plan-vs-materialize comparison must sit above the bounded-buffer floor,
/// and the base relations are the smallest streams in play (the
/// intermediate is strictly larger on the hot-key chain). Returns whether
/// the workload is safely above the floor.
pub fn check_plan_scale(w: &ChainWorkload, cfg: &OperatorConfig) -> bool {
    let floor = cfg.min_pipelined_input_tuples();
    let ok = w.n_input() >= floor;
    if !ok {
        eprintln!(
            "warning: chained workload `{}` has {} base input tuples, below the ~{} floor \
             where plan-vs-materialize peak-resident comparisons are meaningful; grow \
             --scale or shrink queue/morsel sizes",
            w.name,
            w.n_input(),
            floor
        );
    }
    ok
}

/// Prints a TSV header followed by rows (all binaries emit
/// machine-greppable TSV so EXPERIMENTS.md can quote them directly).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
    println!();
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
