//! # ewh-bench — the evaluation harness
//!
//! Reproduces every table and figure of §VI of *Load Balancing and Skew
//! Resilience for Parallel Joins* (ICDE 2016). The [`workloads`] module
//! defines the eight joins of Table IV at laptop scale; [`harness`] provides
//! the shared runner; the `src/bin/` binaries regenerate the individual
//! tables/figures (see DESIGN.md §3 for the full index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig4a_total_time`        | Fig. 4a + 4b (total/normalized execution time) |
//! | `fig4c_memory`            | Fig. 4c (cluster memory) |
//! | `fig4d_scalability_bcb`   | Fig. 4d + 4e (B_CB-3 scalability) |
//! | `fig4f_scalability_beocd` | Fig. 4f + 4g (BE_OCD scalability) |
//! | `fig4h_max_weight`        | Fig. 4h + Table I verdicts + Fig. 2a |
//! | `table3_complexity`       | Table III (stage timing/state scaling) |
//! | `table4_characteristics`  | Table IV (join characteristics) |
//! | `table5_csi_buckets`      | Table V (CSI bucket sweep) |
//! | `worst_case`              | §VI-E (worst cases + adaptive fallback) |
//! | `pipeline_vs_batch`       | engine vs batch oracle + runtime migration |
//! | `plan_vs_materialize`     | §IV-B chained joins: streamed vs materialized intermediates |
//! | `concurrent_queries`      | shared worker-pool runtime vs spawn-per-query |
//! | `oom_vs_spill`            | memory-budgeted out-of-core run vs unbudgeted in-memory peak |
//! | `latency_bench`           | open-loop small-query latency and scheduler counters on a shared pool |

pub mod harness;
pub mod latency;
pub mod workloads;

pub use harness::{
    check_pipelined_scale, check_plan_scale, commit, json_escape, mib, print_table, rho_oi,
    run_all_schemes, run_scheme, RunConfig,
};
pub use latency::{percentile, run_mode, LatencyScenario, ModeOutcome};
pub use workloads::{
    bcb, beocd, beocd_gamma, bicd, chain_hotkey, chain_hotkey_with, encode_beocd, fig4a_workloads,
    retail_hotkey, ChainWorkload, Workload, BEOCD_SHIFT, CHAIN_N, RETAIL_N,
};
