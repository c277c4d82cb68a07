//! The end-to-end join operator: statistics → partitioning scheme → shuffle
//! → local joins, with the paper's time and resource accounting.
//!
//! Time is reported on two axes:
//! * **simulated seconds** — the paper's own cost model: the slowest worker's
//!   weight `max_r w(r)` (plus the modeled statistics scans) at a fixed
//!   processing rate. This is hardware-independent and is what the figures
//!   compare, exactly as Fig. 4h validates the model in the paper.
//! * **wall seconds** — measured on the real threaded execution, as a sanity
//!   check that the simulated ordering is physical.
//!
//! Split by concern:
//! * [`config`] — cluster + operator configuration and execution modes;
//! * [`stats`] — statistics collection and scheme building (the one
//!   planner for a stage over two resident relations, sampled-key and
//!   per-side-statistics variants, modeled statistics time);
//! * [`run`] — the stage record, placement, the batch oracle, the one
//!   accounting of region tallies, query admission, the one pipelined stage
//!   driver, and the operator itself: a one-stage plan (`crate::plan`).

mod config;
mod run;
mod stats;

pub use config::{ExecMode, FallbackPolicy, OperatorConfig};
pub use run::{
    assign_regions, execute_join, lpt_schedule, run_operator, run_operator_adaptive, OperatorRun,
};
pub(crate) use run::{join_regions, run_stages, AdmittedQuery, StageIo};
pub use stats::{build_scheme, build_scheme_from_keys, build_scheme_from_stats};
pub(crate) use stats::{plan_resident, stats_sim_secs, PlannedStage, ResidentPlan};
