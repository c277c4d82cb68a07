//! # EWH — Equi-Weight Histograms for Parallel Joins
//!
//! Facade crate for the workspace reproducing *Load Balancing and Skew
//! Resilience for Parallel Joins* (Vitorovic, Elseidy & Koch, ICDE 2016).
//! Re-exports every sub-crate under one roof so examples and downstream users
//! need a single dependency:
//!
//! * [`core`] — join model, cost model, the CI / CSI / CSIO
//!   partitioning schemes and the three-stage equi-weight histogram.
//! * [`tiling`] — BSP, MONOTONICBSP and grid coarsening.
//! * [`sampling`] — Bernoulli, equi-depth, the key census, Stream-Sample
//!   and the census of a join's output.
//! * [`exec`] — the shared-nothing execution engine (morsel-driven
//!   pipeline, batch oracle, local joins, metrics, operator runner, CI
//!   fallback, and the composable query-plan executor with streamed
//!   intermediates).
//! * [`datagen`] — skewed TPC-H-style and synthetic X workload
//!   generators.
//!
//! ## Quickstart
//!
//! ```
//! use ewh::prelude::*;
//!
//! // Two small relations joined by a band condition |a - b| <= 2.
//! let r1: Vec<Tuple> = (0..2000).map(|i| Tuple::new(i % 500, i as u64)).collect();
//! let r2: Vec<Tuple> = (0..2000).map(|i| (i * 7) % 500).map(|k| Tuple::new(k, k as u64)).collect();
//! let cond = JoinCondition::Band { beta: 2 };
//!
//! let cfg = OperatorConfig { j: 4, ..OperatorConfig::default() };
//! // Queries execute as task batches on a shared worker-pool runtime —
//! // one pool serves any number of concurrent queries.
//! let run = run_operator(EngineRuntime::global(), SchemeKind::Csio, &r1, &r2, &cond, &cfg);
//! assert!(run.join.output_total > 0);
//! ```

pub use ewh_core as core;
pub use ewh_datagen as datagen;
pub use ewh_exec as exec;
pub use ewh_sampling as sampling;
pub use ewh_tiling as tiling;

/// Common imports for examples and applications.
pub mod prelude {
    pub use ewh_core::{
        CostModel, HistogramParams, IneqOp, JoinCondition, JoinMatrix, Key, KeyRange, Region,
        SchemeKind, Tuple,
    };
    pub use ewh_datagen::{
        gen_chain_retail, gen_orders, gen_retail, gen_x_relation, ChainParams, Order, OrdersParams,
        RetailParams, ZipfCdf,
    };
    pub use ewh_exec::{
        run_operator, run_operator_adaptive, run_plan, run_plan_materialized, ChainStage,
        EngineRuntime, ExecMode, FallbackPolicy, LinkProfile, LinkReceiver, LinkSender,
        OperatorConfig, OperatorRun, OutputWork, PlanRun, RuntimeConfig, SpillConfig, StageSpec,
        TransportConfig,
    };
}
