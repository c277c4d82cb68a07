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
//! * [`stats`] — statistics collection and scheme building (full-relation
//!   and sampled-key variants, modeled statistics time);
//! * [`run`] — the execution drivers (batch oracle, query admission and
//!   the one pipelined stage driver, placement, the adaptive CI fallback).

mod config;
mod run;
mod stats;

pub use config::{ExecMode, FallbackPolicy, OperatorConfig};
pub use run::{
    assign_regions, execute_join, lpt_schedule, run_operator, run_operator_adaptive, OperatorRun,
};
pub(crate) use run::{execute_join_with, run_stage, AdmittedQuery};
pub use stats::{build_scheme, build_scheme_from_keys, build_scheme_from_stats};
