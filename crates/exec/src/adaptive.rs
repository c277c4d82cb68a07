//! Adaptive load balancing on top of an initial partitioning (§V of the
//! paper).
//!
//! The paper discusses SkewTune-style adaptive skew handling: "when a task
//! becomes idle, it takes over some work from the busiest task — this
//! implies moving the tuples over the network multiple times", and proposes
//! the combination: *initialize* with the equi-weight histogram so that
//! run-time reassignment fires only on genuine run-time surprises, not on
//! predictable skew. The engine's migration coordinator is that run-time
//! half; this module holds its knobs.

/// Adaptive execution knobs of the pipelined engine's migration coordinator
/// (`ewh_exec::engine`). The bench crate's §V discrete-event simulation
/// (`ewh_bench::simulate`) reads `reassign` and `move_cost_factor` from the
/// same struct, so predicted and realized reassignment behavior can be
/// compared under one configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Enable idle-steals-from-busiest reassignment. In the engine: let
    /// the coordinator migrate regions at run time; with it off the
    /// coordinator still terminates the run but never moves a region.
    pub reassign: bool,
    /// Cost of re-shipping one tuple of a stolen region, as a fraction of
    /// the input cost `wi` (the "tuples move twice" penalty; 1.0 means a
    /// moved region pays its input cost again in full). The engine uses the
    /// same factor unit-free: a migration is profitable only when the
    /// victim's tuple backlog exceeds `move_cost_factor ×` the shipped
    /// region state, so `wi` cancels out of the comparison.
    pub move_cost_factor: f64,
    /// Engine only: queue backlog, in tuples, at which a busy reducer
    /// becomes a migration victim while another reducer sits idle.
    pub migrate_backlog_tuples: usize,
    /// Engine only: the migration coordinator's poll interval.
    pub poll_micros: u64,
    /// Engine only, used with per-link profiles: the reducer drain rate
    /// that converts a tuple backlog into seconds, so the migration gate
    /// can compare backlog relief against the shipping time over the
    /// target's actual link (`LinkProfile::ship_secs`). Ignored without
    /// links configured.
    pub drain_tuples_per_sec: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            reassign: true,
            move_cost_factor: 1.0,
            // Half the default queue capacity (`OperatorConfig::queue_tuples`
            // = 4096): a reducer with a persistently half-full queue while a
            // sibling idles is a genuine straggler, not noise.
            migrate_backlog_tuples: 2048,
            poll_micros: 200,
            // A sort-merge reducer absorbs on the order of ten million
            // tuples a second on one core; the gate only needs the right
            // order of magnitude (both sides scale with it).
            drain_tuples_per_sec: 1e7,
        }
    }
}
