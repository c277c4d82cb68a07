//! Statistics collection and scheme building: the operator's "plan time".
//!
//! Three entry points build a [`PartitionScheme`]:
//! * [`build_scheme`] — from two fully resident relations in row layout
//!   (the batch oracle and the materialized plan baseline);
//! * [`build_scheme_from_keys`] — from bare key slices plus the
//!   cardinalities they stand for: the pipelined operator passes the key
//!   columns of its transposed inputs, a caller holding a *sample* of a side
//!   passes the sample with the side's true size;
//! * [`build_scheme_from_stats`] — from one [`SideStats`] a side, which is
//!   all any scheme reads. A chained plan builds every stage from the base
//!   relations' censuses and the census of each intermediate *propagated*
//!   through the join before it ([`ewh_sampling::join_census_r1`]).

use std::time::Instant;

use ewh_core::histogram::censuses;
use ewh_core::{
    build_ci, build_csi, build_csi_from_stats, build_csio_from_stats, build_hash_from_stats,
    CostModel, CsiParams, HistogramParams, JoinCondition, Key, PartitionScheme, SchemeKind,
    SideStats, Tuple,
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

/// Builds the requested scheme from key slices standing for relations of
/// `n1` / `n2` tuples. Where a slice is shorter than its relation — a
/// sample — every tuple count and the output size read off it are weighed
/// up by `n / |keys|`: a uniform sample preserves the key distribution, so
/// boundaries computed on it transfer to the relation, and its counts do
/// once scaled.
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
    let resident = (n1, n2) == (k1.len() as u64, k2.len() as u64);
    let scheme = match kind {
        // CI reads no key, and CSI's point is to need no sort: it samples
        // the resident columns.
        SchemeKind::Ci => build_ci(cfg.j, n1, n2, None),
        SchemeKind::Csi if resident => build_csi(k1, k2, cond, j_regions(cfg), &csi_params(cfg)),
        _ => {
            let (d1, d2) = censuses(k1, k2, cfg.threads);
            let (s1, s2) = match resident {
                true => (SideStats::relation(&d1), SideStats::relation(&d2)),
                false => (SideStats::counted(&d1, n1), SideStats::counted(&d2, n2)),
            };
            build_scheme_from_stats(kind, s1, s2, cond, cfg)
        }
    };
    (scheme, start.elapsed().as_secs_f64())
}

fn j_regions(cfg: &OperatorConfig) -> usize {
    cfg.j_regions.unwrap_or(cfg.j)
}

fn csi_params(cfg: &OperatorConfig) -> CsiParams {
    CsiParams {
        seed: cfg.seed,
        ..cfg.csi
    }
}

/// Builds the requested scheme from the two sides' statistics — all any
/// scheme reads; no key column is touched.
pub fn build_scheme_from_stats(
    kind: SchemeKind,
    s1: SideStats<'_>,
    s2: SideStats<'_>,
    cond: &JoinCondition,
    cfg: &OperatorConfig,
) -> PartitionScheme {
    match kind {
        SchemeKind::Ci => build_ci(cfg.j, s1.tuples, s2.tuples, None),
        SchemeKind::Csi => build_csi_from_stats(s1, s2, cond, j_regions(cfg), &csi_params(cfg)),
        SchemeKind::Csio => {
            let params = HistogramParams {
                j: j_regions(cfg),
                seed: cfg.seed,
                threads: cfg.threads,
                ..cfg.hist
            };
            build_csio_from_stats(s1, s2, cond, &cfg.cost, &params)
        }
        SchemeKind::Hash => build_hash_from_stats(s1, s2, cond, cfg.j, &cfg.hash),
    }
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
