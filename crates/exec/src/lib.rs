//! # ewh-exec — shared-nothing parallel join execution
//!
//! The execution substrate standing in for the paper's SQUALL/Storm cluster
//! (§VI-A): J logical workers multiplexed onto one persistent
//! [`EngineRuntime`] worker pool, the morsel-driven pipelined [`engine`]
//! (mapper tasks batch-route morsels over bounded per-region queues to
//! reducer tasks that collect each region's build side, sort it once at
//! the seal and sweep probe chunks as they stream in), one sort + sweep
//! local join ([`sweep_columns`], which the batch oracle runs too), and the
//! [`run_operator`] driver whose [`OperatorRun`] reports the paper's
//! metrics — simulated time from the validated cost model, measured wall
//! time, network tuples, cluster memory (modeled and actually-resident
//! peak), and per-worker loads.
//!
//! The runtime is what makes the system *multi-tenant*: queries are
//! admitted (with a concurrency limit and per-query memory budgets carved
//! from a runtime-global gauge) and execute as cooperative task batches on
//! a fixed pool with per-worker deques and work-stealing — N concurrent
//! queries share the host instead of spawning N thread teams. See the
//! runtime-module docs via [`EngineRuntime`].
//!
//! Operators *compose*: [`run_plan`] executes a left-deep chain of 2-way
//! joins (§IV-B's multi-way strategy) in which every reducer's probe output
//! streams through a bounded [`Exchange`] into the
//! downstream operator's mappers, every stage's partitioning scheme is
//! built at plan time from exact statistics (the base relations' key
//! censuses, propagated through each join), and an upstream operator's
//! quiescence drives the downstream seal — intermediates are never fully
//! resident.
//! [`run_plan_materialized`] keeps the classic materialize-between-
//! operators execution as the oracle and comparison baseline. There is one
//! query path: an operator is the one-stage plan — [`run_plan`]'s executor
//! under [`ExecMode::Pipelined`], [`run_plan_materialized`]'s under
//! [`ExecMode::Batch`] — and every stage of a [`PlanRun`] reports the same
//! [`OperatorRun`] an operator returns.
//!
//! The engine handles skew at run time, too: region → reducer ownership
//! lives in an epoch-versioned [`ewh_core::RoutingTable`] that mappers
//! re-resolve per fragment, and a migration coordinator watches reducer
//! heartbeats ([`ProgressBoard`]) to reassign regions from backlogged
//! reducers to idle ones mid-run — driven by the same [`AdaptiveConfig`]
//! as the §V discrete-event simulation (`ewh_bench::simulate`), so
//! predicted and realized reassignment counts are comparable.
//!
//! The barrier-phased batch path ([`shuffle`] + [`execute_join`]) is kept as
//! the reference oracle behind [`ExecMode::Batch`]: its own threads, phases
//! and per-tuple routing, the engine's sort and sweep. Property tests assert
//! both modes produce identical joins (including with migration thresholds
//! forced to fire, `tests/prop_migration.rs`, and across chained plans,
//! `tests/prop_plan.rs`).
//!
//! Also implements the operational extensions of the paper: the
//! high-selectivity CI fallback (§VI-E, [`run_operator_adaptive`]: CSIO is
//! abandoned before its first morsel is claimed, so no tuple is shuffled
//! twice) and heterogeneous clusters via capacity-aware region assignment
//! (Appendix A5, [`assign_regions`]).

mod adaptive;
pub mod engine;
mod local_join;
mod metrics;
mod operator;
mod plan;
mod shuffle;

pub use adaptive::AdaptiveConfig;
pub use engine::{
    merge_sorted_runs, BatchPool, EngineConfig, EngineIo, EngineOutcome, EngineRuntime, Exchange,
    FragmentPort, LinkProfile, LinkReceiver, LinkSender, MemGauge, Morsel, PortPop, ProgressBoard,
    QueryTicket, RemoteQueue, RuntimeConfig, RuntimeMetrics, Source, SpillBinding, SpillConfig,
    SpillContext, SpillRun, SpillTotals, StageSink, Straggler, TransportConfig,
};
pub use local_join::{
    pair_payload, pair_tag, sweep_columns, sweep_columns_each, KeyFrom, OutputWork,
};
pub use metrics::JoinStats;
pub use operator::{
    assign_regions, build_scheme, build_scheme_from_keys, build_scheme_from_stats, execute_join,
    lpt_schedule, run_operator, run_operator_adaptive, ExecMode, FallbackPolicy, OperatorConfig,
    OperatorRun,
};
pub use plan::{run_plan, run_plan_materialized, ChainStage, PlanRun, StageSpec};
pub use shuffle::{shuffle, Shuffled};
