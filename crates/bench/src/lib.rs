//! # ewh-bench — the evaluation harness
//!
//! Reproduces every table and figure of §VI of *Load Balancing and Skew
//! Resilience for Parallel Joins* (ICDE 2016) and drives the engine's
//! scenarios. The [`workloads`] module defines the eight joins of Table IV
//! at laptop scale; [`harness`] provides the shared runner. Every scenario
//! exists once, as a library function from its parameters to a typed
//! outcome, which one subcommand of the `ewh-bench` binary prints
//! ([`cli`]: `cargo run --release -p ewh-bench -- <subcommand> [flags]`,
//! `list` names them) and one claims test under `tests/` asserts on:
//!
//! | subcommand | module | reproduces | claims test |
//! |---|---|---|---|
//! | `fig4a` … `table5`, `worst-case`, `hash-vs-range` | [`paper`] | Fig. 4a–h, Tables I, III–V, §VI-E, §V.1 | `headline_claims` |
//! | `adaptive` | [`paper`], [`simulate`] | §V: reassignments by initial scheme | `simulate` unit tests |
//! | `pipeline` | [`pipeline`] | batch oracle vs pipelined engine; run-time migration vs the §V simulation | `pipeline_claims` |
//! | `plan` | [`plan`] | §IV-B chained joins: streamed vs materialized intermediates | `plan_claims` |
//! | `spill` | [`spill`] | memory-budgeted out-of-core run vs unbudgeted in-memory peak | `spill_claims` |
//! | `concurrent` | [`concurrent`] | shared worker pool vs spawn-per-query; cross-query migration | `runtime_claims` |
//! | `latency` | [`latency`] | open-loop small-query latency and scheduler counters | `latency_claims` |
//! | `transport` | [`transport`] | two-process identity matrix, wire identity, the link gate | `transport_claims` |
//!
//! Wall-clock numbers are the repository benchmark's to record
//! (`benchmark/`); nothing here is checked in.

pub mod cli;
pub mod concurrent;
pub mod harness;
pub mod latency;
pub mod paper;
pub mod pipeline;
pub mod plan;
pub mod simulate;
pub mod spill;
pub mod transport;
pub mod workloads;

pub use harness::{
    check_pipelined_scale, commit, forced_migration, mib, run_all_schemes, run_scheme, run_with,
    shared_pool, RunConfig, SLOW_REDUCER,
};
pub use latency::{percentile, run_mode, LatencyScenario, ModeOutcome};
pub use workloads::{
    bcb, beocd, beocd_gamma, bicd, chain_hotkey_with, encode_beocd, fig4a_workloads, retail_hotkey,
    ChainWorkload, Workload, BEOCD_SHIFT, CHAIN_N, RETAIL_N,
};
