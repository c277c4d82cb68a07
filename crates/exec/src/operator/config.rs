//! Cluster and operator configuration.

use ewh_core::{CostModel, CsiParams, HashParams, HistogramParams};

use crate::adaptive::AdaptiveConfig;
use crate::engine::{EngineConfig, LinkProfile, SpillConfig, Straggler, TransportConfig};
use crate::OutputWork;

/// How the operator executes the shuffle + local joins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Two global barriers: materialize the full shuffle, then join. Kept as
    /// the reference oracle; peak memory is the whole replicated input.
    Batch,
    /// The morsel-driven pipelined engine (`crate::engine`): bounded queues,
    /// incremental build, streamed probe chunks — no full materialization.
    #[default]
    Pipelined,
}

/// Cluster + operator configuration.
#[derive(Clone, Debug)]
pub struct OperatorConfig {
    /// Number of workers (the paper's J).
    pub j: usize,
    /// Per-query task parallelism: how many mapper tasks and how many
    /// reducer tasks, each, one operator stage submits to the shared
    /// [`EngineRuntime`](crate::EngineRuntime)
    /// ([`EngineConfig::for_tasks`]). The pool multiplexes tasks from every
    /// concurrent query onto its fixed worker set, so this is a
    /// fairness/granularity knob, not an OS thread count; set to the pool's
    /// worker count, either side of the pipeline can occupy every worker.
    /// (The batch oracle still uses it as its thread-team size.)
    pub threads: usize,
    pub seed: u64,
    pub cost: CostModel,
    /// CSI bucket count etc.
    pub csi: CsiParams,
    /// CSIO histogram tunables (its `j`, `seed` and `threads` fields are
    /// overridden from this config).
    pub hist: HistogramParams,
    /// Hash-scheme tunables (heavy-hitter threshold).
    pub hash: HashParams,
    /// Build more regions than workers (heterogeneous clusters, Appendix
    /// A5); regions are then LPT-assigned to workers by estimated weight.
    pub j_regions: Option<usize>,
    /// Relative worker capacities (heterogeneous clusters); length `j`.
    pub capacities: Option<Vec<f64>>,
    /// Cluster memory capacity; exceeding it flags
    /// [`JoinStats::overflowed`](crate::JoinStats::overflowed).
    pub mem_capacity_bytes: Option<u64>,
    /// Per-output-tuple work performed by the local joins.
    pub output_work: OutputWork,
    /// Execution strategy (pipelined by default; batch is the oracle).
    pub mode: ExecMode,
    /// Tuples per morsel — the pipelined engine's scheduling quantum.
    pub morsel_tuples: usize,
    /// Bounded queue capacity per reducer, in tuples (backpressure knob).
    pub queue_tuples: usize,
    /// Bounded capacity, in tuples, of the exchange connecting two chained
    /// operators in a query plan ([`crate::run_plan`]). Backpressure knob of
    /// the inter-operator stream.
    pub exchange_tuples: usize,
    /// Read by `benchmark/src/replay.rs` only: the size of the key sample
    /// its replay builds a chain stage's scheme from. Nothing in this
    /// workspace samples an intermediate — [`crate::run_plan`] plans every
    /// stage from propagated censuses.
    pub stats_reservoir_tuples: usize,
    /// Run-time skew handling: the same config drives the pipelined
    /// engine's migration coordinator and the bench crate's discrete-event
    /// simulation (`ewh_bench::simulate`), so predicted and realized
    /// reassignment counts can be compared. `reassign: false` freezes the
    /// initial placement: the coordinator still ends the run at quiescence
    /// but never moves a region.
    pub adaptive: AdaptiveConfig,
    /// Fault injection: slow one reducer task down (benchmarks/tests only).
    /// In a chained plan the same injection applies to every stage.
    pub straggler: Option<Straggler>,
    /// Out-of-core execution knobs: an explicit budget override, the spill
    /// temp directory, and fault injection for spill writes. When no
    /// explicit budget is set here, a budget slice carved by the runtime's
    /// admission control ([`crate::RuntimeConfig::memory_budget_tuples`])
    /// is enforced instead; with neither, queries never spill.
    pub spill: SpillConfig,
    /// Run the pipelined engine's mapper → reducer deliveries over the
    /// framed transport (one localhost TCP connection per reducer) instead
    /// of shared-memory queues — the same
    /// `FragmentPort` contract, with a credit window in place of the shared
    /// tuple counter. `None` keeps the in-process queues.
    pub transport: Option<TransportConfig>,
    /// Per-reducer inbound [`LinkProfile`]s for the migration coordinator's
    /// communication-aware move-cost gate: a move is charged the time to
    /// ship the region's sealed state over the *target's* actual link.
    /// Must cover the engine's reducer-task count (`threads` is always a
    /// safe length); `None` keeps the flat per-tuple gate.
    pub links: Option<Vec<LinkProfile>>,
}

impl Default for OperatorConfig {
    fn default() -> Self {
        OperatorConfig {
            j: 4,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(2),
            seed: 0x0E17,
            cost: CostModel::band(),
            csi: CsiParams::default(),
            hist: HistogramParams::default(),
            hash: HashParams::default(),
            j_regions: None,
            capacities: None,
            mem_capacity_bytes: None,
            output_work: OutputWork::Touch,
            mode: ExecMode::default(),
            morsel_tuples: 1024,
            queue_tuples: 4096,
            exchange_tuples: 16_384,
            stats_reservoir_tuples: 4096,
            adaptive: AdaptiveConfig::default(),
            straggler: None,
            spill: SpillConfig::default(),
            transport: None,
            links: None,
        }
    }
}

impl OperatorConfig {
    /// Below roughly this many input tuples (both relations, replication
    /// excluded), the pipelined engine's bounded buffers — reducer queues,
    /// in-flight morsels, and per-region probe chunks — can hold a large
    /// fraction of the whole input at once, and peak-resident comparisons
    /// against the batch path's full materialization are meaningless (the
    /// small-scale footgun documented after PR 2). Benchmarks warn below
    /// this floor; claims tests assert above it. A probe chunk counts at
    /// its floor (`EngineConfig::probe_chunk`), the part a budget cannot
    /// shed: what a region buffers beyond it, up to an eighth of its
    /// build, is spillable state like the build itself.
    pub fn min_pipelined_input_tuples(&self) -> u64 {
        let engine = EngineConfig::for_tasks(self.threads, self.morsel_tuples, self.seed);
        let buffered = engine.reducers * (self.queue_tuples + engine.probe_chunk)
            + engine.mappers * self.morsel_tuples;
        3 * buffered as u64
    }
}

/// §VI-E: adaptive operator. Always start building CSIO (cheap relative to
/// the join); if the exact `m` learned during sampling reveals a
/// high-selectivity join (`m > rho_threshold · n`), fall back to CI — the
/// wasted statistics time is charged to the run.
#[derive(Clone, Copy, Debug)]
pub struct FallbackPolicy {
    /// Fall back when `m / max(n1, n2)` exceeds this (paper: CSIO is better
    /// or on par with CI while the output is up to 2 orders of magnitude
    /// bigger than the input).
    pub rho_threshold: f64,
}

impl Default for FallbackPolicy {
    fn default() -> Self {
        FallbackPolicy {
            rho_threshold: 100.0,
        }
    }
}
