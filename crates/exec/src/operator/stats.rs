//! Statistics collection and scheme building: the operator's "plan time".
//!
//! Two entry points build a [`PartitionScheme`]:
//! * [`build_scheme`] — from two fully resident relations in row layout
//!   (the batch oracle and the materialized plan baseline);
//! * [`build_scheme_from_keys`] — from bare key slices plus cardinality
//!   hints. The pipelined operator and a plan's root stage pass the key
//!   columns of their transposed inputs; a chained plan builds a
//!   *downstream* operator's scheme out of the online sample collected
//!   while the upstream probe streams (the probe side's keys are a uniform
//!   reservoir sample, the build side's keys are exact).

use std::time::Instant;

use ewh_core::{
    build_ci, build_csi, build_csio, build_hash, CostModel, CsiParams, HistogramParams,
    JoinCondition, Key, PartitionScheme, SchemeKind, Tuple,
};

use super::config::OperatorConfig;

/// Builds the requested scheme from two resident relations in row layout
/// (measures wall time into the result): the statistics pass projects each
/// side's join keys into a column of their own. The pipelined paths, which
/// transpose their inputs anyway, hand [`build_scheme_from_keys`] the key
/// columns they already hold instead.
pub fn build_scheme(
    kind: SchemeKind,
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    cfg: &OperatorConfig,
) -> (PartitionScheme, f64) {
    let keys = |r: &[Tuple]| -> Vec<Key> { r.iter().map(|t| t.key).collect() };
    let (k1, k2) = (keys(r1), keys(r2));
    let (n1, n2) = (k1.len() as u64, k2.len() as u64);
    build_scheme_from_keys(kind, &k1, &k2, n1, n2, cond, cfg)
}

/// Builds the requested scheme from key slices. `n1` / `n2` are the (true
/// or estimated) relation cardinalities — they drive CI's replication-
/// minimizing grid shape, which matters exactly when a key slice is a
/// sample rather than the full relation. Content-sensitive schemes derive
/// their histograms from the key slices directly: a uniform sample
/// preserves the key distribution, so equi-weight boundaries computed on it
/// transfer to the full stream.
pub fn build_scheme_from_keys(
    kind: SchemeKind,
    k1: &[Key],
    k2: &[Key],
    n1: u64,
    n2: u64,
    cond: &JoinCondition,
    cfg: &OperatorConfig,
) -> (PartitionScheme, f64) {
    let start = Instant::now();
    let j_regions = cfg.j_regions.unwrap_or(cfg.j);
    let scheme = match kind {
        SchemeKind::Ci => build_ci(cfg.j, n1, n2, None),
        SchemeKind::Csi => {
            let params = CsiParams {
                seed: cfg.seed,
                ..cfg.csi
            };
            build_csi(k1, k2, cond, j_regions, &params)
        }
        SchemeKind::Csio => {
            let params = HistogramParams {
                j: j_regions,
                seed: cfg.seed,
                threads: cfg.threads,
                ..cfg.hist
            };
            build_csio(k1, k2, cond, &cfg.cost, &params)
        }
        SchemeKind::Hash => build_hash(k1, k2, cond, cfg.j, &cfg.hash),
    };
    (scheme, start.elapsed().as_secs_f64())
}

/// Modeled statistics time: scan passes at `scan_cost_factor · wi` per tuple
/// parallelized over J workers, plus the histogram algorithm at
/// `hist_cost_factor · wi` per tuple on a single machine (its input size is
/// `max(n1, n2)` for CSIO's 3-stage chain, `p` for CSI's cover heuristic).
/// The *measured* histogram wall time stays available in
/// [`ewh_core::BuildInfo::hist_secs`] for Table V, where runs of the same
/// scale compare against each other.
pub fn stats_sim_secs(scheme: &PartitionScheme, n: u64, cfg: &OperatorConfig) -> f64 {
    let scan_milli = (scheme.build.stats_scan_tuples as f64 / cfg.j as f64)
        * cfg.cost.wi_milli as f64
        * cfg.scan_cost_factor;
    let hist_input = match scheme.kind {
        SchemeKind::Ci | SchemeKind::Hash => 0,
        SchemeKind::Csi => scheme.build.ns as u64,
        SchemeKind::Csio => n,
    };
    let hist_milli = hist_input as f64 * cfg.cost.wi_milli as f64 * cfg.hist_cost_factor;
    CostModel::milli_to_secs((scan_milli + hist_milli) as u64, cfg.units_per_sec)
}
