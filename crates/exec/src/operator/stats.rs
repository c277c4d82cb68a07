//! Statistics collection and scheme building: the operator's "plan time".
//!
//! Three entry points build a [`PartitionScheme`]:
//! * [`build_scheme`] — from two fully resident relations in row layout;
//! * [`build_scheme_from_keys`] — from bare key slices plus the
//!   cardinalities they stand for: slices as long as their relations are
//!   the relations, and a caller holding a *sample* of a side passes the
//!   sample with the side's true size;
//! * [`build_scheme_from_stats`] — from one [`SideStats`] a side, which is
//!   all any scheme reads. A chained plan builds every streamed stage from
//!   the base relation's census and the census of its intermediate
//!   *propagated* through the join before it
//!   ([`ewh_sampling::join_census_r1`]).
//!
//! Every query driver plans a stage over two resident relations the one
//! way `plan_resident` does — the operator, a pipelined plan's root and
//! every stage of the materialized baseline alike.

use std::time::Instant;

use ewh_core::histogram::censuses;
use ewh_core::{
    build_ci, build_csi, build_csi_from_stats, build_csio_from_stats, build_hash_from_stats,
    sort_tuples_by_key, CostModel, CsiParams, HistogramParams, JoinCondition, Key, PartitionScheme,
    SchemeKind, SideStats, Tuple,
};
use ewh_sampling::KeyedCounts;

use super::config::{FallbackPolicy, OperatorConfig};
use crate::plan::StageSpec;

/// Processing rate of one simulated worker, in work units per second: what
/// turns the paper's weights into simulated seconds.
pub(crate) const UNITS_PER_SEC: f64 = 2.0e6;

/// Cost of scanning one tuple during statistics collection, as a fraction
/// of `wi` (§VI-D: scans repartition join keys only, cheaper than full
/// shuffle processing).
const SCAN_COST_FACTOR: f64 = 0.5;

/// Modeled cost of the histogram algorithm itself, as a fraction of `wi`
/// per input tuple, run on a single machine (Theorem 3.1: the whole chain
/// is O(n) local time).
const HIST_COST_FACTOR: f64 = 0.02;

/// Builds the requested scheme from two resident relations in row layout
/// (measures wall time into the result): the statistics pass projects each
/// side's join keys into a column of their own.
pub fn build_scheme(
    kind: SchemeKind,
    r1: &[Tuple],
    r2: &[Tuple],
    cond: &JoinCondition,
    cfg: &OperatorConfig,
) -> (PartitionScheme, f64) {
    let (k1, k2) = (keys(r1), keys(r2));
    let (n1, n2) = (k1.len() as u64, k2.len() as u64);
    build_scheme_from_keys(kind, &k1, &k2, n1, n2, cond, cfg)
}

/// A relation's join-key column.
fn keys(r: &[Tuple]) -> Vec<Key> {
    r.iter().map(|t| t.key).collect()
}

/// Builds the requested scheme from key slices standing for relations of
/// `n1` / `n2` tuples. Slices as long as their relations are planned as
/// `plan_resident` plans their relations. Where a slice is shorter than its
/// relation — a sample — every tuple count and the output size read off it
/// are weighed up by `n / |keys|`: a uniform sample preserves the key
/// distribution, so boundaries computed on it transfer to the relation, and
/// its counts do once scaled.
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
        SchemeKind::Ci => build_ci(cfg.j, n1, n2, None),
        SchemeKind::Csi if resident => build_csi(k1, k2, cond, j_regions(cfg), &csi_params(cfg)),
        _ => {
            let (d1, d2) = censuses(k1, k2, cfg.threads, KeyedCounts::census);
            let (s1, s2) = match resident {
                true => (SideStats::relation(&d1), SideStats::relation(&d2)),
                false => (SideStats::counted(&d1, n1), SideStats::counted(&d2, n2)),
            };
            build_scheme_from_stats(kind, s1, s2, cond, cfg)
        }
    };
    (scheme, start.elapsed().as_secs_f64())
}

/// What planning one stage yields: its scheme, and what the stage's
/// [`OperatorRun`](super::OperatorRun) reports about building it.
pub(crate) struct PlannedStage {
    pub scheme: PartitionScheme,
    /// Wall-clock of the stage's statistics and scheme build.
    pub stats_wall_secs: f64,
    /// Modeled statistics time, an abandoned CSIO build's included.
    pub stats_sim_secs: f64,
    /// Distinct keys of the propagated census a streamed stage was built
    /// from; 0 for a stage over two resident relations.
    pub sample_tuples: usize,
    /// Whether §VI-E's fallback abandoned CSIO for CI.
    pub fell_back: bool,
}

/// What [`plan_resident`] yields: the planned stage, the census pair a
/// chain propagates from its root, and the probe side sorted by key.
pub(crate) struct ResidentPlan {
    pub stage: PlannedStage,
    pub censuses: Option<(KeyedCounts, KeyedCounts)>,
    pub sorted_probe: Option<Vec<Tuple>>,
}

/// Plans one stage over two resident relations, the one way every query
/// driver does: CI reads the cardinalities and no key, CSI's point is to
/// need no census — it samples the key columns — and CSIO and HASH read a
/// census pair. `keep_censuses` hands that pair back for a chain to
/// propagate from its root, counted here if the scheme did not need it:
/// each census counts its relation's keys off the tuples on its own
/// thread, and only an unsorted relation over a key span wider than twice
/// its size has them collected into a column and sorted. Under a
/// `fallback` policy, a CSIO scheme whose exact `m` reveals a
/// high-selectivity join (§VI-E) is abandoned for CI before the first
/// morsel is claimed: its statistics time stays on the books and no tuple
/// is shuffled twice.
///
/// With `sort_probe`, a counted `r2` is first sorted by key into a buffer
/// handed back with the plan ([`sort_tuples_by_key`], on the two threads
/// the censuses use), and its census reads that buffer, sorted, so it is
/// run-length encoded as read. The sort stands in for the census's count,
/// on the stage's statistics clock. A side that is not counted keeps the
/// caller's order, and CSI samples the caller's columns either way, so
/// every scheme is the one the caller's order plans.
pub(crate) fn plan_resident(
    spec: &StageSpec,
    r1: &[Tuple],
    r2: &[Tuple],
    cfg: &OperatorConfig,
    fallback: Option<&FallbackPolicy>,
    keep_censuses: bool,
    sort_probe: bool,
) -> ResidentPlan {
    let start = Instant::now();
    let (n1, n2) = (r1.len() as u64, r2.len() as u64);
    let n = n1.max(n2);
    let counted = matches!(spec.kind, SchemeKind::Csio | SchemeKind::Hash) || keep_censuses;
    let sorted = (counted && sort_probe).then(|| sort_tuples_by_key(r2, cfg.threads.min(2)));
    let census = |r: &[Tuple]| KeyedCounts::census_of(r.iter().map(|t| t.key));
    let probe = sorted.as_deref().unwrap_or(r2);
    let pair = counted.then(|| censuses(r1, probe, cfg.threads, census));
    let mut scheme = match spec.kind {
        SchemeKind::Ci => build_ci(cfg.j, n1, n2, None),
        SchemeKind::Csi => {
            let (k1, k2) = (keys(r1), keys(r2));
            build_csi(&k1, &k2, &spec.cond, j_regions(cfg), &csi_params(cfg))
        }
        kind => {
            let (d1, d2) = pair.as_ref().expect("counted above");
            let (s1, s2) = (SideStats::relation(d1), SideStats::relation(d2));
            build_scheme_from_stats(kind, s1, s2, &spec.cond, cfg)
        }
    };
    let rho = scheme.build.m_est as f64 / n.max(1) as f64;
    let fell_back = fallback.is_some_and(|policy| rho > policy.rho_threshold);
    let mut abandoned_sim = 0.0;
    if fell_back {
        abandoned_sim = stats_sim_secs(&scheme, n, cfg);
        scheme = build_ci(cfg.j, n1, n2, None);
    }
    let planned = PlannedStage {
        stats_sim_secs: stats_sim_secs(&scheme, n, cfg) + abandoned_sim,
        stats_wall_secs: start.elapsed().as_secs_f64(),
        scheme,
        sample_tuples: 0,
        fell_back,
    };
    ResidentPlan {
        stage: planned,
        censuses: pair.filter(|_| keep_censuses),
        sorted_probe: sorted,
    }
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

/// Modeled statistics time: scan passes at [`SCAN_COST_FACTOR`]` · wi` per
/// tuple parallelized over J workers, plus the histogram algorithm at
/// [`HIST_COST_FACTOR`]` · wi` per tuple on a single machine (its input
/// size is `max(n1, n2)` for CSIO's 3-stage chain, `p` for CSI's cover
/// heuristic; CI and HASH have none). The *measured* histogram wall time
/// stays available in [`ewh_core::BuildInfo::hist_secs`] for Table V, where
/// runs of the same scale compare against each other.
pub(crate) fn stats_sim_secs(scheme: &PartitionScheme, n: u64, cfg: &OperatorConfig) -> f64 {
    let scan_milli = (scheme.build.stats_scan_tuples as f64 / cfg.j as f64)
        * cfg.cost.wi_milli as f64
        * SCAN_COST_FACTOR;
    let hist_input = match scheme.kind {
        SchemeKind::Ci | SchemeKind::Hash => 0,
        SchemeKind::Csi => scheme.build.ns as u64,
        SchemeKind::Csio => n,
    };
    let hist_milli = hist_input as f64 * cfg.cost.wi_milli as f64 * HIST_COST_FACTOR;
    CostModel::milli_to_secs((scan_milli + hist_milli) as u64, UNITS_PER_SEC)
}
